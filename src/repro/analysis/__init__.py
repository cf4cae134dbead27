"""Post-extraction analysis: static checks, RC estimation, statistics."""

from .netstats import CircuitStats, LayoutStats, circuit_stats, layout_stats
from .rc import NetRC, ProcessModel, estimate_rc, total_capacitance
from .static_check import CheckReport, Diagnostic, Severity, static_check

__all__ = [
    "CheckReport",
    "CircuitStats",
    "Diagnostic",
    "LayoutStats",
    "NetRC",
    "ProcessModel",
    "Severity",
    "circuit_stats",
    "estimate_rc",
    "layout_stats",
    "static_check",
    "total_capacitance",
]
