"""The differential driver: generate, extract everywhere, cross-check.

Each iteration derives a sub-seed, generates a layout, runs it through
every selected oracle (skipping the fixed-grid raster scan on off-grid
cases, per its declared capability), and compares all results pairwise
with the wirelist comparator -- equivalence up to net renumbering, plus
a device-size check within the scanline family.  Any disagreement (or
oracle crash) is shrunk to a minimal repro and persisted to the corpus.

The driver is a library; :mod:`repro.difftest.cli` is the command, and
the fault-injection self-test is the same loop run with a scanline rule
deliberately broken (:mod:`repro.difftest.faults`).
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Callable

from ..cif import Layout
from ..tech import NMOS, Technology
from ..wirelist import compare_netlists
from .corpus import FailureCase, Mismatch, write_entry
from .faults import inject_fault
from .generator import (
    DEFAULT_PROFILE,
    FAULT_HUNT_PROFILE,
    GenProfile,
    generate_layout,
    iteration_seed,
    retarget_case,
)
from .oracles import Oracle, OracleResult, select_oracles
from .shrink import shrink


@dataclass
class DifftestResult:
    """Outcome of one fuzzing run."""

    iterations: int = 0
    agreed: int = 0
    raster_skips: int = 0
    #: oracles excluded up front because they do not support the deck.
    deck_skips: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def run_difftest(
    *,
    iterations: int,
    seed: int = 0,
    oracle_names: "tuple[str, ...] | None" = None,
    tech: "Technology | None" = None,
    corpus_dir: "str | None" = None,
    do_shrink: bool = True,
    max_failures: int = 5,
    fault: "str | None" = None,
    profile: "GenProfile | None" = None,
    progress: "Callable[[str], None] | None" = None,
) -> DifftestResult:
    """Run the harness; see the module docstring for the loop."""
    tech = tech or NMOS()
    oracles = select_oracles(oracle_names)
    oracles, deck_skips = _deck_capable(oracles, tech)
    if profile is None:
        profile = FAULT_HUNT_PROFILE if fault else DEFAULT_PROFILE
    result = DifftestResult()
    result.deck_skips = deck_skips

    with inject_fault(fault):
        for index in range(iterations):
            sub_seed = iteration_seed(seed, index)
            case = retarget_case(
                generate_layout(sub_seed, tech.lambda_, profile), tech
            )
            usable = tuple(
                oracle
                for oracle in oracles
                if case.grid_aligned or oracle.grid_exact
            )
            if len(usable) < len(oracles):
                result.raster_skips += 1
            if len(usable) < 2:
                result.iterations += 1
                continue
            mismatches = _cross_check(case.layout, usable, tech)
            result.iterations += 1
            if not mismatches:
                result.agreed += 1
                continue

            failure = FailureCase(
                seed=sub_seed,
                description=case.description,
                grid_aligned=case.grid_aligned,
                mismatches=mismatches,
                original=case.layout,
                fault=fault,
            )
            if progress:
                progress(
                    f"seed {sub_seed}: {mismatches[0].headline()}"
                )
            if do_shrink:
                pair = _disagreeing_pair(usable, mismatches[0])

                def still_fails(candidate: Layout) -> bool:
                    return bool(_cross_check(candidate, pair, tech))

                failure.shrunk = shrink(case.layout, still_fails)
                if progress and failure.shrunk:
                    progress(
                        f"seed {sub_seed}: shrunk "
                        f"{failure.shrunk.before} -> "
                        f"{failure.shrunk.after} primitives"
                    )
            if corpus_dir:
                write_entry(
                    corpus_dir, failure, _repro_command(seed, index, failure)
                )
            result.failures.append(failure)
            if len(result.failures) >= max_failures:
                break
    return result


def check_layout(
    layout: Layout,
    *,
    oracle_names: "tuple[str, ...] | None" = None,
    tech: "Technology | None" = None,
) -> "list[Mismatch]":
    """Cross-check one explicit layout (used by tests and repro replay)."""
    tech = tech or NMOS()
    oracles, _ = _deck_capable(select_oracles(oracle_names), tech)
    return _cross_check(layout, oracles, tech)


def _deck_capable(
    oracles: "tuple[Oracle, ...]", tech: Technology
) -> "tuple[tuple[Oracle, ...], int]":
    """The oracles validated for ``tech``'s deck, plus the skip count."""
    deck_name = tech.deck.name
    capable = tuple(o for o in oracles if o.supports_deck(deck_name))
    if len(capable) < 2:
        raise ValueError(
            f"deck {deck_name!r} leaves {len(capable)} capable oracle(s); "
            "differential testing needs at least two"
        )
    return capable, len(oracles) - len(capable)


def _cross_check(
    layout: Layout, oracles: "tuple[Oracle, ...]", tech: Technology
) -> "list[Mismatch]":
    """Run every oracle and compare all pairs; empty means agreement."""
    results: dict[str, OracleResult] = {}
    errors: dict[str, str] = {}
    for oracle in oracles:
        try:
            results[oracle.name] = oracle.run(layout, tech)
        except Exception:
            errors[oracle.name] = traceback.format_exc(limit=2)

    mismatches: list[Mismatch] = []
    for name, trace in errors.items():
        reference = next(iter(results), None) or next(
            (other for other in errors if other != name), name
        )
        mismatches.append(
            Mismatch(
                left=name,
                right=reference,
                kind="crash",
                reason=trace.strip().splitlines()[-1],
            )
        )
    names = [oracle.name for oracle in oracles if oracle.name in results]
    for i, left in enumerate(names):
        for right in names[i + 1 :]:
            a, b = results[left], results[right]
            report = compare_netlists(a.flat, b.flat)
            if not report.equivalent:
                mismatches.append(
                    Mismatch(
                        left=left,
                        right=right,
                        kind="structure",
                        reason=report.reason,
                        device_counts=report.device_counts,
                        net_counts=report.net_counts,
                    )
                )
                continue
            left_exact = _oracle(oracles, left).sizes_exact
            right_exact = _oracle(oracles, right).sizes_exact
            if left_exact and right_exact and a.sizes != b.sizes:
                mismatches.append(
                    Mismatch(
                        left=left,
                        right=right,
                        kind="sizes",
                        reason=_size_diff(a.sizes, b.sizes),
                        device_counts=(len(a.sizes), len(b.sizes)),
                        net_counts=report.net_counts,
                    )
                )
    return mismatches


def _oracle(oracles: "tuple[Oracle, ...]", name: str) -> Oracle:
    return next(oracle for oracle in oracles if oracle.name == name)


def _disagreeing_pair(
    oracles: "tuple[Oracle, ...]", mismatch: Mismatch
) -> "tuple[Oracle, ...]":
    """The two oracles to re-run during shrinking probes (fast path)."""
    names = {mismatch.left, mismatch.right}
    pair = tuple(oracle for oracle in oracles if oracle.name in names)
    return pair if len(pair) == 2 else oracles


def _size_diff(a: tuple, b: tuple) -> str:
    only_a = [entry for entry in a if entry not in b]
    only_b = [entry for entry in b if entry not in a]
    sample = (only_a or only_b)[:1]
    return (
        f"device L/W/area multisets differ: {len(only_a)} device(s) only "
        f"in first, {len(only_b)} only in second, e.g. {sample}"
    )


def _repro_command(seed: int, index: int, failure: FailureCase) -> str:
    return (
        f"repro-difftest --seed {seed} --iterations {index + 1} "
        + (f"--inject-fault {failure.fault} " if failure.fault else "")
        + "--corpus <dir>   # iteration "
        + f"{index} is sub-seed {failure.seed}"
    )
