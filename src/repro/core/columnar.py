"""Columnar storage for the scanline host's active-interval state.

The host keeps one :class:`LayerTable` per tracked layer.  A table is a
persistent structure-of-arrays: parallel ``array('q')`` int64 columns
(``x1``/``x2``/``ybot``/``net``) plus a ``live`` byte mask, all
append-only, and a pair of small python lists (``order`` -- row ids of
the *live* intervals in ascending-x1 order -- and ``keys`` -- their x1
values, for ``bisect``).  Row ids grow with time, so the rows entered at
the current stop are exactly those from the stop's first id on, which
the host's vertical-adjacency rule reads to tell strip-above intervals
from new ones.  An insert appends a row and splices one id into
``order``; a merge consumption flips one ``live`` byte and replaces its
ids by the merged row's; an expiry flips the ``live`` bytes of a whole
bucket of rows and removes their ids.  Nothing is ever rebuilt from
python object lists, which is the point: the numpy strip engine reads a
column zero-copy via the buffer protocol (``np.frombuffer``) and gathers
the live subset with a single C-level ``take`` whenever the layer's
``version`` counter says the view went stale -- never once per strip.

The pure-python strip engine reads the same state through
:meth:`LayerTable.spans`, a version-cached list of ``(x1, x2, net)``
tuples, so it needs no numpy and no columns knowledge.

``net`` holds ``-1`` (:data:`NO_NET`) for layers whose intervals carry
no net id.
"""

from __future__ import annotations

from array import array

#: ``net`` stamp of a row on a layer that carries no net id.
NO_NET = -1


class LayerTable:
    """One layer's active intervals as persistent int64 columns."""

    __slots__ = (
        "x1",
        "x2",
        "ybot",
        "net",
        "live",
        "order",
        "keys",
        "version",
        "_spans",
        "_spans_version",
    )

    def __init__(self) -> None:
        self.x1 = array("q")
        self.x2 = array("q")
        self.ybot = array("q")
        self.net = array("q")
        self.live = bytearray()
        self.order: list[int] = []
        self.keys: list[int] = []
        self.version = 0
        self._spans: list[tuple[int, int, int]] = []
        self._spans_version = -1

    def __len__(self) -> int:
        """Number of *live* intervals (the active-list length)."""
        return len(self.order)

    def spans(self) -> list[tuple[int, int, int]]:
        """Live ``(x1, x2, net)`` tuples in x order, cached by version.

        This is the pure-python engine's view of the layer; the cache
        makes repeated reads of an unchanged layer free, mirroring the
        numpy engine's version-keyed array cache.
        """
        if self._spans_version != self.version:
            x1, x2, net = self.x1, self.x2, self.net
            self._spans = [(x1[r], x2[r], net[r]) for r in self.order]
            self._spans_version = self.version
        return self._spans

