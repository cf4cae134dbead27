"""Golden-wirelist snapshot tests.

Each canonical layout in :mod:`tests.golden.cases` is extracted and its
flat wirelist compared byte-for-byte against the committed
``<case>.wirelist``; each hierarchical case's HEXT wirelist is compared
against ``<case>.hext``.  On mismatch the failure message carries a unified
diff plus the one-line regen command, so an *intentional* extractor
change is a quick refresh and an unintentional one is immediately
legible.
"""

import difflib
from pathlib import Path

import pytest

from repro.core.stripengine import numpy_available

from .cases import GOLDEN_CASES, HEXT_CASES, render_case, render_hext_case

GOLDEN_DIR = Path(__file__).parent
REGEN = "PYTHONPATH=src python tools/regen_golden.py"

#: Every strip engine importable here; asked for any of them, a flat
#: golden, which keeps geometry, and a ``.hext`` golden, whose windows
#: run on python, are written byte for byte the same (the engine
#: contract of docs/ENGINES.md).
ENGINES = ("python", "numpy") if numpy_available() else ("python",)


def _check_snapshot(path: Path, actual: str, name: str, engine: str) -> None:
    assert path.exists(), (
        f"missing snapshot {path.name}; create it with: {REGEN} {name}"
    )
    expected = path.read_text()
    if actual != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                actual.splitlines(),
                fromfile=f"golden/{path.name}",
                tofile="extracted",
                lineterm="",
            )
        )
        pytest.fail(
            f"{path.name} (engine={engine}) drifted from its golden "
            f"snapshot.\n{diff}\n\n"
            f"If the change is intentional: {REGEN} {name}"
        )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_wirelist_matches_golden(name, engine):
    _check_snapshot(
        GOLDEN_DIR / f"{name}.wirelist", render_case(name, engine), name, engine
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(HEXT_CASES))
def test_hierarchical_wirelist_matches_golden(name, engine):
    _check_snapshot(
        GOLDEN_DIR / f"{name}.hext", render_hext_case(name, engine), name, engine
    )


def test_no_stale_snapshots():
    for suffix, cases in (("wirelist", GOLDEN_CASES), ("hext", HEXT_CASES)):
        on_disk = {p.stem for p in GOLDEN_DIR.glob(f"*.{suffix}")}
        assert on_disk == set(cases), (
            f".{suffix} snapshots and cases out of sync; "
            f"extra={sorted(on_disk - set(cases))}, "
            f"missing={sorted(set(cases) - on_disk)}"
        )


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cases_are_deterministic(name):
    assert render_case(name) == render_case(name)
