"""Geometry kernel: integer boxes, transforms, polygons, and fracturing."""

from .box import Box, bounding_box
from .fracture import FRACTURE_RESOLUTION, fracture_polygon, fracture_wire
from .merge import (
    normalize_region,
    regions_equal,
    subtract_region,
    union_area,
)
from .polygon import Polygon
from .transform import Transform

__all__ = [
    "FRACTURE_RESOLUTION",
    "Box",
    "Polygon",
    "Transform",
    "bounding_box",
    "fracture_polygon",
    "fracture_wire",
    "normalize_region",
    "regions_equal",
    "subtract_region",
    "union_area",
]
