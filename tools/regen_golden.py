#!/usr/bin/env python3
"""Regenerate the golden wirelist, HEXT-wirelist and lint-report snapshots
under tests/golden/.

Usage::

    PYTHONPATH=src python tools/regen_golden.py [case ...]

With no arguments every case in tests/golden/cases.py is rewritten;
naming cases limits the refresh.  The script prints which files changed
so an accidental regen is visible before committing.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

from tests.golden.cases import (  # noqa: E402
    GOLDEN_CASES,
    HEXT_CASES,
    LINT_CASES,
    render_case,
    render_hext_case,
    render_lint_case,
)

GOLDEN_DIR = REPO / "tests" / "golden"


def _refresh(path: Path, text: str) -> None:
    old = path.read_text() if path.exists() else None
    if old == text:
        print(f"  unchanged  {path.relative_to(REPO)}")
        return
    path.write_text(text)
    verb = "updated" if old is not None else "created"
    print(f"  {verb:>9}  {path.relative_to(REPO)}")


def main(argv: "list[str] | None" = None) -> int:
    known = sorted(set(LINT_CASES) | set(HEXT_CASES))
    names = (argv if argv is not None else sys.argv[1:]) or known
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known: {', '.join(known)}", file=sys.stderr)
        return 2
    for name in names:
        if name in GOLDEN_CASES:
            _refresh(GOLDEN_DIR / f"{name}.wirelist", render_case(name))
        if name in HEXT_CASES:
            _refresh(GOLDEN_DIR / f"{name}.hext", render_hext_case(name))
        if name in LINT_CASES:
            _refresh(GOLDEN_DIR / f"{name}.lint", render_lint_case(name))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
