"""HEXT: the hierarchical circuit extractor built on modified ACE."""

from .compose import compose
from .extractor import (
    CompositePlan,
    HextResult,
    HextStats,
    WindowPlan,
    compose_plan,
    execute_plan,
    extract_primitive,
    hext_extract,
    plan_windows,
    resolve,
)
from .incremental import IncrementalExtractor, IncrementalStats
from .fragment import (
    CHANNEL,
    ChildRef,
    DeviceRec,
    Fragment,
    IfaceRec,
    LineIndex,
    Placed,
)
from .windows import Content, WindowPlanner, content_key

__all__ = [
    "CHANNEL",
    "ChildRef",
    "CompositePlan",
    "Content",
    "DeviceRec",
    "Fragment",
    "HextResult",
    "HextStats",
    "IncrementalExtractor",
    "IncrementalStats",
    "IfaceRec",
    "LineIndex",
    "Placed",
    "WindowPlan",
    "WindowPlanner",
    "compose",
    "compose_plan",
    "content_key",
    "execute_plan",
    "extract_primitive",
    "hext_extract",
    "plan_windows",
    "resolve",
]
