"""The benchmark under ``perfbench/`` reaches into the library by name.

Its tracer wraps functions given as (layer, name) pairs, and its scripts
import names from ``qcdesign``.  The benchmark's own tests
(``perfbench/tests``) run with this suite, but they check the tracer's
arithmetic and the workload plumbing, not the names the benchmark takes
from the library.  These checks do, so that a library change cannot break
the benchmark: a missing tracer target would crash a traced run with an
``AttributeError``.  Two tests go further and make the benchmark's own calls
into the library: ``make_reference.py``'s helpers on small designs, and one
traced pass of the tracer, so that a changed signature fails here too.  Its
search workloads pass only when stdout equals the files under
``perfbench/reference``, and the last test holds them to that.
"""

from __future__ import annotations

import ast
import importlib
import random
import runpy
import sys
import types
from math import comb
from pathlib import Path

import pytest

from qcdesign import Family, build_design, cli, spec_for
from qcdesign.cli import main
from qcdesign.oracle import projectivity

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEARCH_COMMANDS = runpy.run_path(str(PERFBENCH / "workloads.py"))["SEARCH_COMMANDS"]


def _lookup(module: str, name: str) -> object:
    """``module.name``, importing it when it is a submodule; None if absent."""
    parent = importlib.import_module(module)
    if not hasattr(parent, name):
        try:
            importlib.import_module(f"{module}.{name}")
        except ImportError:
            return None
    return getattr(parent, name, None)


def test_tracer_targets_resolve():
    targets = runpy.run_path(str(PERFBENCH / "tracing.py"))["TARGETS"]
    assert targets
    missing = [
        f"{layer}.{name}"
        for layer, name, _ in targets
        if not callable(_lookup(f"qcdesign.{layer}", name))
    ]
    assert missing == []


def test_names_the_benchmark_takes_from_qcdesign_exist():
    """Every name imported from ``qcdesign``, and every attribute read off an
    imported ``qcdesign`` module (``cli.main``), still exists."""
    missing = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text())
        modules: dict[str, types.ModuleType] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "qcdesign":
                        modules[alias.asname or alias.name] = importlib.import_module(alias.name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qcdesign":
                for alias in node.names:
                    value = _lookup(node.module, alias.name)
                    if value is None:
                        missing.append(f"{path.name}: {node.module}.{alias.name}")
                    elif isinstance(value, types.ModuleType):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                module = modules[node.value.id]
                if _lookup(module.__name__, node.attr) is None:
                    missing.append(f"{path.name}: {module.__name__}.{node.attr}")
    assert missing == []


def test_make_reference_helpers_run_on_small_designs(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends to it
    helpers = runpy.run_path(str(PERFBENCH / "make_reference.py"))
    family = Family.SIXTEENTH_ODD
    for profile, pair in helpers["candidates"](family, 2, random.Random(0))[:3]:
        design = build_design(spec_for(family, profile, pair))
        proj = projectivity(design)
        entry = helpers["entry"](profile, pair, design, proj)
        assert entry["profile"] == profile.digits and entry["projectivity"] == proj
        assert entry["spectrum"] and all(count > 0 for _, _, count in entry["spectrum"])
        # Every projection up to proj, then at least the deficient one.
        assert helpers["scan_work"](design, proj) > sum(
            comb(design.n_factors, k) for k in range(1, proj + 1)
        )


def test_one_traced_pass_records_every_layer_it_calls(capsys, tmp_path):
    tracing = runpy.run_path(str(PERFBENCH / "tracing.py"))
    flags = ["--family", "sixteenth-odd", "--n", "2", "--u", "1,2", "--v", "2,1", "--u0v0", "11"]
    document = tmp_path / "design.json"
    assert main(["build", *flags, "--out", str(document)]) == 0
    tracer = tracing["Tracer"]()
    with tracer.installed():
        for argv in (
            ["metrics", *flags, "--method", "both"],
            ["metrics", "--design", str(document), "--method", "oracle"],
            ["search", "--n", "2", "--family", "sixteenth-odd"],
        ):
            assert cli.main(argv) == 0  # looked up per call, as the workloads do
    capsys.readouterr()
    # projection_level_full is a target no command calls.
    assert {span.name for span in tracer.spans} == (
        set(tracing["SPAN_NAMES"]) - {"oracle.projection_level_full"}
    )
    assert not any(span.error for span in tracer.spans)
    for counter in (
        "qc_core.build_design.cells",
        "oracle.j_characteristics.table_bytes",
        "cli.load_design.bytes_read",
    ):
        assert tracer.counters[counter] > 0, counter


@pytest.mark.parametrize("reference, argv", SEARCH_COMMANDS, ids=[r for r, _ in SEARCH_COMMANDS])
def test_search_commands_print_the_benchmark_references(capsys, reference, argv):
    # The benchmark counts a search whose stdout differs from its reference
    # file as a failed operation; this catches the drift first.
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == (PERFBENCH / "reference" / reference).read_text()
