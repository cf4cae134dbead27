"""Cross-subsystem integration: every path from CIF text to netlist.

The full pipeline matrix: CIF text -> parse -> {ACE, HEXT, raster,
polyflat} -> wirelist text -> parse -> flatten, all agreeing with each
other, over workloads exercising hierarchy, transforms, and every layer.
"""

from collections import Counter

import pytest

from repro import extract
from repro.baselines import extract_polyflat, extract_raster
from repro.cif import Layout, parse, write
from repro.cif.layout import Label
from repro.cli import main as cli_main
from repro.core import extract_report
from repro.core.stripengine import numpy_available
from repro.difftest.generator import generate_layout, iteration_seed
from repro.geometry import Box
from repro.hext import hext_extract
from repro.hext.wirelist import to_hierarchical_wirelist
from repro.wirelist import (
    circuit_to_flat,
    compare_netlists,
    flatten,
    parse_wirelist,
    to_wirelist,
    write_wirelist,
)
from repro.pipeline import run
from repro.service.cache import payload_digest
from repro.service.engine import run_job
from repro.service.jobs import JobOptions
from repro.tech import NMOS
from repro.workloads import (
    CHIP_SPECS,
    build_chip,
    chip_suite,
    inverter,
    inverter_rows,
    mirrored_array,
    transistor_array,
)

CASES = [
    ("inverter", inverter),
    ("rows", lambda: inverter_rows(2, 3)),
    ("array", lambda: transistor_array(4)),
    ("mirrored", lambda: mirrored_array(2)),
    ("dchip", lambda: build_chip("dchip", scale=0.02)),
]


@pytest.mark.parametrize("name,factory", CASES)
def test_cif_roundtrip_preserves_netlist(name, factory):
    layout = factory()
    direct = circuit_to_flat(extract(layout))
    roundtripped = circuit_to_flat(extract(parse(write(layout))))
    report = compare_netlists(direct, roundtripped)
    assert report.equivalent, f"{name}: {report.reason}"


@pytest.mark.parametrize("name,factory", CASES)
def test_all_four_extractors_agree(name, factory):
    layout = factory()
    reference = circuit_to_flat(extract(layout))
    for label, circuit in (
        ("raster", extract_raster(layout)),
        ("polyflat", extract_polyflat(layout)),
        ("hext", hext_extract(layout).circuit),
    ):
        report = compare_netlists(reference, circuit_to_flat(circuit))
        assert report.equivalent, f"{name}/{label}: {report.reason}"


@pytest.mark.parametrize("name,factory", CASES)
def test_flat_wirelist_text_roundtrip(name, factory):
    layout = factory()
    circuit = extract(layout, keep_geometry=True)
    text = write_wirelist(to_wirelist(circuit, name=name))
    recovered = flatten(parse_wirelist(text))
    report = compare_netlists(circuit_to_flat(circuit), recovered)
    assert report.equivalent, f"{name}: {report.reason}"


@pytest.mark.parametrize("name,factory", CASES)
def test_hierarchical_wirelist_text_roundtrip(name, factory):
    layout = factory()
    result = hext_extract(layout)
    text = write_wirelist(to_hierarchical_wirelist(result, name=name))
    recovered = flatten(parse_wirelist(text))
    report = compare_netlists(
        circuit_to_flat(extract(layout)), recovered
    )
    assert report.equivalent, f"{name}: {report.reason}"


def test_geometry_option_does_not_change_netlist():
    layout = build_chip("cherry", scale=0.05)
    plain = circuit_to_flat(extract(layout))
    with_geometry = circuit_to_flat(extract(layout, keep_geometry=True))
    assert compare_netlists(plain, with_geometry).equivalent


def _one_terminal_channel() -> Layout:
    """Diffusion with poly over its right end -- a channel with one
    terminal -- plus a label on no geometry."""
    lam = NMOS().lambda_
    layout = Layout()
    layout.top.add_box("ND", Box(0, 0, 4 * lam, 2 * lam))
    layout.top.add_box("NP", Box(2 * lam, -2 * lam, 4 * lam, 4 * lam))
    layout.top.add_label(Label("X", 10 * lam, 10 * lam, None))
    return layout


def test_every_extractor_reports_the_malformed_transistor(tmp_path, capsys):
    """Every record-based extractor assembles the flat finalize's
    warnings: the malformed device, then the unattached label -- HEXT
    too, in the circuit, on ace-extract's stderr and in a daemon job."""
    layout = _one_terminal_channel()
    malformed = "malformed transistor at (500, 500): 1 gate nets, 1 terminals"
    label = "label 'X' at (2500, 2500) matches no conducting geometry"
    flat = [malformed, label]
    for engine in ["python"] + (["numpy"] if numpy_available() else []):
        report = extract_report(layout, engine=engine)
        assert report.options["engine"] == engine
        assert report.circuit.warnings == flat
    assert extract_raster(layout).warnings == flat
    assert extract_polyflat(layout).warnings == flat
    assert hext_extract(layout).circuit.warnings == flat

    cif = write(layout)
    path = tmp_path / "one_terminal.cif"
    path.write_text(cif)
    out = tmp_path / "out.wl"
    assert cli_main([str(path), "--hierarchical", "-o", str(out)]) == 0
    assert capsys.readouterr().err == "".join(
        f"warning: {warning}\n" for warning in flat
    )
    options = JobOptions(hext=True)
    payload = run_job(cif, options, payload_digest(cif), {}).result
    assert payload["warnings"] == flat


#: A one-terminal channel, geometry on the undeclared layer XX and a
#: label on nothing: one warning of each kind.
MIXED_WARNINGS = """L ND; B 1000 500 500 250;
L NP; B 500 1500 750 250;
L XX; B 100 100 3000 3000;
94 X 2500 2500;
E
"""

#: A label and no geometry: the sweep has no strip to take it in.
LABEL_ONLY = "94 X 100 100;\nE\n"


def _assert_same_warnings(layout, what: str) -> None:
    """HEXT reports the flat finalize's warnings, as a multiset."""
    flat = Counter(extract(layout).warnings)
    hier = Counter(hext_extract(layout).circuit.warnings)
    assert hier == flat, what


def test_hierarchical_warnings_are_flat_ones(tmp_path, capsys):
    """Skipped layers, malformed devices and unattached labels alike;
    in flat's order, and the same from a warm fragment cache."""
    layout = parse(MIXED_WARNINGS)
    flat = extract(layout).warnings
    assert [w.split()[0] for w in flat] == ["ignoring", "malformed", "label"]
    assert hext_extract(layout).circuit.warnings == flat

    path = tmp_path / "mixed.cif"
    path.write_text(MIXED_WARNINGS)
    out = str(tmp_path / "out.wl")
    cache = str(tmp_path / "cache")
    printed = []
    for argv in ([], ["--hierarchical"], ["--hierarchical", "--cache", cache],
                 ["--hierarchical", "--cache", cache]):
        assert cli_main([str(path), *argv, "-o", out]) == 0
        printed.append(capsys.readouterr().err)
    assert printed == [
        "".join(f"warning: {warning}\n" for warning in flat)
    ] * 4


def test_hierarchical_warnings_on_the_suite():
    for name, layout in chip_suite(1 / 32, [s.name for s in CHIP_SPECS]).items():
        _assert_same_warnings(layout, name)


def test_hierarchical_warnings_on_fuzzed_layouts():
    for index in range(100):
        case = generate_layout(iteration_seed(1983, index))
        _assert_same_warnings(case.layout, f"{index}: {case.description}")


def test_a_label_without_geometry_is_reported_in_every_mode():
    expected = ["label 'X' at (100, 100) matches no conducting geometry"]
    modes = [("hierarchical", JobOptions(hext=True), "python")]
    for engine in ["python"] + (["numpy"] if numpy_available() else []):
        modes.append(("flat", JobOptions(), engine))
        modes.append(("stream", JobOptions(stream=True, band_height=50), engine))
    for mode, options, engine in modes:
        result = run(LABEL_ONLY, NMOS(), options, engine=engine)
        assert result.warnings == expected, (mode, engine)
