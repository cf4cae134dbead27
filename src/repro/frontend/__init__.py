"""Front-end: CIF instantiation and the sorted top-to-bottom stream."""

from .instantiate import PlacedLabel, expand, instantiate, symbol_bboxes
from .stream import GeometryStream, StreamStats

__all__ = [
    "GeometryStream",
    "PlacedLabel",
    "StreamStats",
    "expand",
    "instantiate",
    "symbol_bboxes",
]
