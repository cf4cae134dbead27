"""Band-equivalence: streamed bytes == in-memory bytes, every plan.

The goldens cover the extractor's semantic corners deliberately
(butting/buried contacts, hierarchy); the fuzz smoke covers the corners
nobody thought to gold.  Both run every available strip engine, because
the spill/retire path exercises engine-specific retirement code
(`retire`/`live_roots`) that the in-memory path never calls.
"""

from __future__ import annotations

import pytest

from repro.difftest.generator import generate_layout, iteration_seed
from tests.core.test_engines import turned_mesh
from tests.golden.cases import GOLDEN_CASES

from .harness import ENGINES, assert_band_equivalent, band_plans

SMOKE_SEED = 20260808

#: The goldens, plus the turned mesh, whose strips never bind to the
#: strip above.
CASES = {**GOLDEN_CASES, "turned_mesh": lambda: turned_mesh(8)}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_goldens_stream_byte_identical(case, engine):
    layout = CASES[case]()
    assert_band_equivalent(layout, engine=engine, label=case)


@pytest.mark.parametrize("case", ["inverter", "hier_pair"])
def test_goldens_stream_with_geometry(case):
    """keep_geometry folds net artwork through the spill store too."""
    layout = GOLDEN_CASES[case]()
    assert_band_equivalent(layout, keep_geometry=True, label=case)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("index", range(6))
def test_fuzz_smoke(index, engine):
    """A few generated layouts per engine stay byte-identical."""
    case = generate_layout(iteration_seed(SMOKE_SEED, index))
    assert_band_equivalent(
        case.layout, engine=engine, label=f"seed {case.seed}"
    )


@pytest.mark.slow
@pytest.mark.parametrize("engine", ENGINES)
def test_fuzz_hundred_seeds(engine):
    """The acceptance sweep: 100 seeds, >= 3 band heights each.

    ``band_plans`` yields at least four plans per layout (single band,
    two uniform heights, band-per-strip), so each seed is checked at
    more heights than the floor the acceptance criteria set.
    """
    for index in range(100):
        case = generate_layout(iteration_seed(SMOKE_SEED, index))
        plans = band_plans(case.layout)
        assert len(plans) >= 3
        assert_band_equivalent(
            case.layout,
            engine=engine,
            plans=plans,
            label=f"seed {case.seed}",
        )
