"""The CMU hierarchical wirelist format: model, writer, parser,
flattener, and netlist comparator."""

from .compare import ComparisonReport, compare_netlists, netlists_equivalent
from .flatten import FlatCircuit, FlatDevice, circuit_to_flat, flatten
from .model import (
    DefPart,
    DeviceInstance,
    NetDecl,
    SubpartInstance,
    Wirelist,
    primitives_for,
)
from .parser import WirelistParseError, parse_wirelist, read_sexpr
from .writer import geometry_to_cif, to_wirelist, write_wirelist

__all__ = [
    "ComparisonReport",
    "DefPart",
    "DeviceInstance",
    "FlatCircuit",
    "FlatDevice",
    "NetDecl",
    "SubpartInstance",
    "Wirelist",
    "WirelistParseError",
    "circuit_to_flat",
    "compare_netlists",
    "flatten",
    "primitives_for",
    "geometry_to_cif",
    "netlists_equivalent",
    "parse_wirelist",
    "read_sexpr",
    "to_wirelist",
    "write_wirelist",
]
