"""ACE's back-end: the edge-based scanline extraction engine."""

from .extractor import ExtractionReport, extract, extract_report
from .netlist import CHANNEL, Circuit, Device, Net
from .sizing import SizedDevice, size_device
from .stats import ScanStats
from .unionfind import UnionFind

__all__ = [
    "CHANNEL",
    "Circuit",
    "Device",
    "ExtractionReport",
    "Net",
    "ScanStats",
    "SizedDevice",
    "UnionFind",
    "extract",
    "extract_report",
    "size_device",
]
