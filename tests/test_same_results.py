"""ROADMAP aim 2's "same results" as a gate: every output family of
tools/same_results.py must print the line recorded in
tools/same_results.txt.  A change that means to move a digest rewrites
that file in the same commit and says why in CHANGES.md."""

import importlib.util
from pathlib import Path

import pytest

import plantedcycles as pc

TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location("same_results", TOOLS / "same_results.py")
same_results = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_results)

HEADER, *LINES = (TOOLS / "same_results.txt").read_text(encoding="ascii").splitlines()
RECORDED = {line.split()[0]: line for line in LINES}


def test_every_family_is_recorded():
    assert list(RECORDED) == [family.__name__ for family in same_results.FAMILIES]


@pytest.mark.parametrize("family", same_results.FAMILIES, ids=lambda f: f.__name__)
def test_family_prints_the_recorded_line(family):
    running = same_results.versions()
    if running != HEADER:
        pytest.fail(f"digests were recorded under {HEADER!r}; this run is under {running!r}")
    assert same_results.line(pc, family) == RECORDED[family.__name__]
