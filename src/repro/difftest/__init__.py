"""Differential extraction harness.

Independent implementations of the same contract -- flat ACE on both
strip engines and banded, HEXT in-process and through the daemon, and
the raster/region-merge baselines -- fuzzed against each
other over seeded random layouts, with greedy failure shrinking, a
persisted repro corpus, and a fault-injection self-test.
See ``docs/DIFFTESTING.md``.
"""

from .corpus import FailureCase, Mismatch, render_report, write_entry
from .driver import DifftestResult, check_layout, run_difftest
from .faults import KNOWN_FAULTS, active_faults, inject_fault, set_faults
from .generator import (
    DEFAULT_PROFILE,
    FAULT_HUNT_PROFILE,
    GeneratedCase,
    GenProfile,
    generate_layout,
    iteration_seed,
)
from .oracles import DEFAULT_ORACLES, ORACLES, Oracle, OracleResult, select_oracles
from .shrink import ShrinkResult, primitive_count, shrink

__all__ = [
    "DEFAULT_ORACLES",
    "DEFAULT_PROFILE",
    "FAULT_HUNT_PROFILE",
    "KNOWN_FAULTS",
    "ORACLES",
    "DifftestResult",
    "FailureCase",
    "GenProfile",
    "GeneratedCase",
    "Mismatch",
    "Oracle",
    "OracleResult",
    "ShrinkResult",
    "active_faults",
    "check_layout",
    "generate_layout",
    "inject_fault",
    "iteration_seed",
    "primitive_count",
    "render_report",
    "run_difftest",
    "select_oracles",
    "set_faults",
    "shrink",
    "write_entry",
]
