"""Word spectra and the exact metrics derived from them.

A *word* is a column subset with nonzero aliasing index rho = |J|/N; the
spectrum collects words as (length, aliasing index, count) entries.  All
arithmetic is exact: aliasing indices and wordlength-pattern entries are
``fractions.Fraction`` values, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union


class Unbounded:
    """Sentinel resolution for designs with an empty word spectrum."""

    _instance: "Unbounded | None" = None

    def __new__(cls) -> "Unbounded":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Unbounded"


UNBOUNDED = Unbounded()

Resolution = Union[Fraction, Unbounded]


@dataclass(frozen=True, order=True)
class WordEntry:
    """A merged group of words sharing a length and aliasing index."""

    length: int
    ai: Fraction
    count: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("word length must be positive")
        if not 0 < self.ai <= 1:
            raise ValueError("aliasing index must lie in (0, 1]")
        if self.count < 1:
            raise ValueError("word count must be positive")


@dataclass(frozen=True)
class WordSpectrum:
    """Sorted, merged multiset of (length, aliasing index, count) entries."""

    entries: tuple[WordEntry, ...]

    def __post_init__(self) -> None:
        keys = [(e.length, e.ai) for e in self.entries]
        if keys != sorted(keys) or len(set(keys)) != len(keys):
            raise ValueError("entries must be sorted by (length, ai) and merged")

    @classmethod
    def from_entries(
        cls, items: Iterable[tuple[int, Fraction, int]]
    ) -> "WordSpectrum":
        """Merge raw (length, ai, count) triples; zero counts are dropped."""
        merged: dict[tuple[int, Fraction], int] = {}
        for length, ai, count in items:
            if count == 0:
                continue
            key = (int(length), Fraction(ai))
            merged[key] = merged.get(key, 0) + int(count)
        return cls(
            tuple(
                WordEntry(length, ai, count)
                for (length, ai), count in sorted(merged.items())
            )
        )

    def __iter__(self):
        return iter(self.entries)

    @property
    def word_count(self) -> int:
        return sum(e.count for e in self.entries)


def spectrum_metrics(
    spectrum: WordSpectrum, q: int
) -> tuple[Resolution, tuple[Fraction, ...]]:
    """Resolution and wordlength pattern (A_1, ..., A_q) of a spectrum.

    Resolution is r + 1 - max{ai at the minimum word length r}; an empty
    spectrum yields the ``UNBOUNDED`` sentinel.  A_k sums count * ai^2 over
    the entries of length k.
    """
    if q < 1:
        raise ValueError("q must be positive")
    wlp = [Fraction(0)] * q
    for e in spectrum.entries:
        if e.length > q:
            raise ValueError(f"word length {e.length} exceeds q = {q}")
        wlp[e.length - 1] += e.count * e.ai * e.ai
    if not spectrum.entries:
        return UNBOUNDED, tuple(wlp)
    r = spectrum.entries[0].length
    top = max(e.ai for e in spectrum.entries if e.length == r)
    return Fraction(r + 1) - top, tuple(wlp)


def parse_fraction(text: str) -> Fraction:
    """Parse a p or p/q string, rejecting floats and other noise."""
    text = text.strip()
    body = text[1:] if text.startswith("-") else text
    parts = body.split("/")
    if len(parts) > 2 or not all(p.isdigit() and p for p in parts):
        raise ValueError(f"not an exact rational: {text!r}")
    return Fraction(text)
