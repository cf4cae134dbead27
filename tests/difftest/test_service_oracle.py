"""The ``service`` oracle: daemon round-trips agree with in-process hext."""

from repro.difftest.oracles import ORACLES
from repro.tech import NMOS
from repro.wirelist import compare_netlists
from repro.workloads import inverter, transistor_array


def test_service_oracle_is_registered_with_exact_capabilities():
    oracle = ORACLES["service"]
    assert oracle.grid_exact and oracle.sizes_exact


def test_service_oracle_matches_reference():
    # The runner itself enforces byte-for-byte wirelist parity with the
    # in-process hext extraction (ServiceParityError otherwise), so a
    # clean return plus netlist equivalence is the full check.
    tech = NMOS()
    service = ORACLES["service"].run(inverter(), tech)
    reference = ORACLES["hext"].run(inverter(), tech)
    report = compare_netlists(reference.flat, service.flat)
    assert report.equivalent, report.reason
    assert service.sizes == reference.sizes


def test_service_oracle_reuses_one_daemon_across_layouts():
    tech = NMOS()
    ORACLES["service"].run(transistor_array(4), tech)
    # Second layout through the same module-level daemon (warm memo and
    # result cache active) must still pass the parity assertion inside.
    ORACLES["service"].run(transistor_array(4), tech)
