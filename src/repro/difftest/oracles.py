"""The oracle registry: every independent implementation of extraction.

An *oracle* maps a layout to a circuit.  The repo has seven -- the flat
edge-based scanline (ACE), the same scanline on the vectorized numpy
strip engine (``ace-numpy``, registered only when numpy imports, with
byte-for-byte wirelist parity against the python engine enforced inside
the runner), HEXT, the extraction *service* (HEXT round-tripped through
the long-lived daemon and its worker processes, again with byte parity
enforced), banded out-of-core streaming (``ace-stream``, byte parity at two band heights
enforced), and the two historical baselines -- and the whole
correctness argument is that they must agree on every layout, up to net
renumbering.  Each oracle declares two capabilities the driver
respects:

``grid_exact``
    trustworthy on off-lambda-grid coordinates.  The fixed-grid raster
    scan snaps edges outward (the constraint the ACE paper criticizes),
    so it is excluded from off-grid cases rather than reported as buggy.

``sizes_exact``
    device L/W/area are bit-exact and comparable.  True for the scanline
    family (and covered by their equivalence tests); the baselines use
    approximate sizing models, so only their *structure* is checked.
"""

from __future__ import annotations

import atexit
from dataclasses import dataclass
from typing import Callable

from ..baselines import extract_polyflat, extract_raster
from ..cif import Layout
from ..cif import write as write_cif
from ..core import Circuit, extract
from ..core.stripengine import numpy_available
from ..frontend import GeometryStream
from ..hext import hext_extract
from ..pipeline import JobOptions, run
from ..tech import Technology
from ..wirelist import FlatCircuit, circuit_to_flat

#: The DefPart name every oracle's reference wirelist carries.
NAME = "difftest.cif"


@dataclass(frozen=True)
class Oracle:
    """One extraction implementation plus its comparability contract."""

    name: str
    description: str
    grid_exact: bool
    sizes_exact: bool
    runner: Callable[[Layout, Technology], Circuit]
    #: deck names this oracle is validated for; ``None`` means the
    #: implementation is deck-agnostic (it reads every layer role from
    #: the compiled technology and handles any valid deck).
    decks: "tuple[str, ...] | None" = None

    def supports_deck(self, deck_name: str) -> bool:
        return self.decks is None or deck_name in self.decks

    def run(self, layout: Layout, tech: Technology) -> "OracleResult":
        circuit = self.runner(layout, tech)
        return OracleResult(
            oracle=self.name,
            flat=circuit_to_flat(circuit),
            sizes=tuple(
                sorted(
                    (d.kind, d.area, round(d.width, 6), round(d.length, 6))
                    for d in circuit.devices
                )
            ),
        )


@dataclass(frozen=True)
class OracleResult:
    """What one oracle computed, reduced to comparable form."""

    oracle: str
    flat: FlatCircuit
    sizes: tuple


class ServiceParityError(AssertionError):
    """The daemon's wirelist bytes diverged from the in-process ones."""


class EngineParityError(AssertionError):
    """The numpy strip engine's wirelist bytes diverged from python's."""


class StreamParityError(AssertionError):
    """The streamed wirelist bytes diverged from the in-memory ones."""


def _stream_extract_oracle(layout: Layout, tech: Technology) -> Circuit:
    """Banded streaming extraction, byte-checked against in-memory.

    Streaming promises byte-identical wirelists at *any* band plan, so
    this oracle sweeps the layout at two band heights (a handful of
    bands, and many small bands) and compares each against the in-memory
    flat extraction before the driver sees the circuit.  Every fuzzed
    layout thereby cross-checks band retirement, spill, and incremental
    emission against all other oracles.
    """
    reference = run(layout, tech, JobOptions(name=NAME))
    expected = reference.text or ""
    stream = GeometryStream(layout)
    bbox = stream.chip_bbox
    height = (bbox.ymax - bbox.ymin) if bbox else 0
    for band_height in {max(1, height // 3), max(1, height // 13)}:
        options = JobOptions(name=NAME, stream=True, band_height=band_height)
        text = run(layout, tech, options).text or ""
        if text != expected:
            raise StreamParityError(
                f"streamed wirelist at band height {band_height} differs "
                f"from the in-memory one ({len(text)} vs "
                f"{len(expected)} bytes)"
            )
    return reference.circuit


def _numpy_engine_extract(layout: Layout, tech: Technology) -> Circuit:
    """Extract with the numpy strip engine, then demand byte parity.

    The strip engines promise *byte-identical* wirelists — a stronger
    contract than the structural equivalence the difftest comparator
    checks — so this oracle runs both engines on every layout and
    raises :class:`EngineParityError` on any byte divergence before the
    driver ever sees the circuit.  Registered only when numpy imports.
    """
    fast = run(layout, tech, JobOptions(name=NAME), engine="numpy")
    reference = run(layout, tech, JobOptions(name=NAME), engine="python")
    fast_text, ref_text = fast.text or "", reference.text or ""
    if fast_text != ref_text:
        raise EngineParityError(
            "numpy strip engine wirelist differs from the python "
            f"engine's ({len(fast_text)} vs {len(ref_text)} bytes)"
        )
    return fast.circuit


_SERVICE_CLIENT = None


def _service_client():
    """The lazily started shared daemon (one per difftest process).

    Started on the first layout the ``service`` oracle sees and torn
    down atexit, so a difftest run pays one daemon start, not one per
    iteration — and every iteration after the first also exercises the
    workers' cross-request warm memos on a *different* layout.  The
    workers are forked at that first layout, so they keep the fault
    injection (:mod:`repro.difftest.faults`) armed at that moment.
    """
    global _SERVICE_CLIENT
    if _SERVICE_CLIENT is None:
        from ..service import ExtractionService, ServiceClient, ServiceConfig

        service = ExtractionService(
            ServiceConfig(port=0, workers=2, quiet=True)
        )
        service.start()
        atexit.register(service.close)
        _SERVICE_CLIENT = ServiceClient(port=service.port, timeout=120.0)
    return _SERVICE_CLIENT


def _round_trip(layout: Layout, tech: Technology) -> Circuit:
    """Serve ``layout`` through the daemon, then demand byte parity.

    The daemon extracts the layout hierarchically, as the in-process
    ``hext`` oracle does.  The two wirelists must agree *byte for byte*
    — not just up to renumbering — because serving from a worker's
    warm memo or the result cache may move time but never bytes.  Any
    divergence raises :class:`ServiceParityError`, which the difftest
    driver reports like any other oracle failure.
    """
    local = run(layout, tech, JobOptions(name=NAME, hext=True))
    expected = local.text or ""
    deck = tech.deck
    result = _service_client().extract(
        write_cif(layout),
        name=NAME,
        hext=True,
        lambda_=tech.lambda_,
        deck=deck.name if deck is not None else "nmos",
        wait_timeout=120.0,
    )
    if result["wirelist"] != expected:
        raise ServiceParityError(
            "served wirelist differs from in-process hext "
            f"({len(result['wirelist'])} vs {len(expected)} bytes)"
        )
    return local.circuit


ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        Oracle(
            "ace",
            "flat edge-based scanline (the paper's extractor)",
            grid_exact=True,
            sizes_exact=True,
            runner=lambda layout, tech: extract(layout, tech),
        ),
        Oracle(
            "hext",
            "hierarchical window extraction",
            grid_exact=True,
            sizes_exact=True,
            runner=lambda layout, tech: hext_extract(layout, tech).circuit,
        ),
        Oracle(
            "service",
            "hext round-tripped through the extraction daemon "
            "(byte-for-byte parity enforced)",
            grid_exact=True,
            sizes_exact=True,
            runner=_round_trip,
            # The daemon protocol names decks; only builtin names can
            # cross the wire, so custom deck files are gated out here.
            decks=("nmos", "cmos"),
        ),
        *(
            (
                Oracle(
                    "ace-numpy",
                    "flat scanline on the vectorized numpy strip engine "
                    "(byte-for-byte parity with the python engine "
                    "enforced)",
                    grid_exact=True,
                    sizes_exact=True,
                    runner=_numpy_engine_extract,
                ),
            )
            if numpy_available()
            else ()
        ),
        Oracle(
            "ace-stream",
            "banded out-of-core streaming extraction (byte-for-byte "
            "parity with the in-memory path enforced at two band "
            "heights)",
            grid_exact=True,
            sizes_exact=True,
            runner=_stream_extract_oracle,
        ),
        Oracle(
            "raster",
            "fixed-grid raster scan (Partlist-style baseline)",
            grid_exact=False,
            sizes_exact=False,
            runner=lambda layout, tech: extract_raster(layout, tech),
            decks=("nmos", "cmos"),
        ),
        Oracle(
            "polyflat",
            "whole-chip region merging (Cifplot-style baseline)",
            grid_exact=True,
            sizes_exact=False,
            runner=lambda layout, tech: extract_polyflat(layout, tech),
            decks=("nmos", "cmos"),
        ),
    )
}

#: Default oracle order: the reference (flat ACE) first.
DEFAULT_ORACLES = tuple(ORACLES)


def select_oracles(names: "tuple[str, ...] | None") -> "tuple[Oracle, ...]":
    chosen = names or DEFAULT_ORACLES
    unknown = [name for name in chosen if name not in ORACLES]
    if unknown:
        raise ValueError(
            f"unknown oracle(s) {unknown}; choose from {sorted(ORACLES)}"
        )
    if len(chosen) < 2:
        raise ValueError("differential testing needs at least two oracles")
    return tuple(ORACLES[name] for name in chosen)
