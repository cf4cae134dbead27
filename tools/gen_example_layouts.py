"""Regenerate the committed CIF layouts under ``examples/layouts/``.

These are the inputs for the CI lint-smoke job: the canonical cells
(which must lint clean) plus the deliberately violating fixture, whose
known findings are suppressed by the committed
``examples/layouts/lint-baseline.json`` (regenerate it with
``repro-lint examples/layouts/*.cif --write-baseline ...``).

Cases drawn in a non-NMOS deck go to a per-deck subdirectory
(``examples/layouts/cmos/``) so each directory lints under exactly one
``--deck`` selection.

Usage::

    PYTHONPATH=src python tools/gen_example_layouts.py
"""

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from repro.cif import write  # noqa: E402
from golden.cases import LINT_CASES, tech_for  # noqa: E402

OUT = Path(__file__).resolve().parent.parent / "examples" / "layouts"


def main() -> int:
    OUT.mkdir(parents=True, exist_ok=True)
    for name in sorted(LINT_CASES):
        deck = tech_for(name).name
        directory = OUT if deck == "nmos" else OUT / deck
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}.cif"
        path.write_text(write(LINT_CASES[name]()))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
