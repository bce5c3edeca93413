"""Two-level fractional factorial designs built from quaternary codes.

The package constructs one-eighth and one-sixteenth fractions from Z4
generator data, computes their aliasing spectra and derived metrics both by
closed-form theory and by brute force, and searches the profile space for
designs with maximum resolution, minimum aberration, or maximum
projectivity.  All metric arithmetic is exact.
"""

from .qc_core import (
    DesignMatrix,
    Family,
    GeneratorProfile,
    GeneratorSpec,
    build_design,
    column_labels,
    profile_of,
    spec_for,
)
from .spectrum import (
    UNBOUNDED,
    Unbounded,
    WordEntry,
    WordSpectrum,
    spectrum_metrics,
)
from .oracle import (
    JTable,
    j_characteristics,
    projectivity,
    spectrum_bruteforce,
)
from .theory import family_spectrum, projectivity_bound
from .search import (
    Criterion,
    SearchResult,
    optimize,
    orthogonal_array_ceiling,
    reproduce_table,
)

__version__ = "0.1.0"
