"""Columnar storage for the scanline host's active-interval state.

The host keeps one :class:`LayerTable` per tracked layer.  A table is a
persistent structure-of-arrays: parallel ``array('q')`` int64 columns
(``x1``/``x2``/``ybot``/``net``/``born``) plus a ``live`` byte mask, all
append-only, and a pair of small python lists (``order`` -- row ids of
the *live* intervals in ascending-x1 order -- and ``keys`` -- their x1
values, for ``bisect``).  Inserts append a row and splice one id into
``order``; expiries and merge consumptions flip one ``live`` byte and
remove one id.  ``born`` stamps the stop that allocated a row, which
the host's vertical-adjacency rule reads to tell strip-above intervals
from ones inserted at the current stop.  Nothing is ever rebuilt from
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
        "born",
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
        self.born = array("q")
        self.live = bytearray()
        self.order: list[int] = []
        self.keys: list[int] = []
        self.version = 0
        self._spans: list[tuple[int, int, int]] = []
        self._spans_version = -1

    def __len__(self) -> int:
        """Number of *live* intervals (the active-list length)."""
        return len(self.order)

    def alloc(self, x1: int, x2: int, ybot: int, net: int, born: int) -> int:
        """Append a live row; the caller splices it into ``order``."""
        rid = len(self.x1)
        self.x1.append(x1)
        self.x2.append(x2)
        self.ybot.append(ybot)
        self.net.append(net)
        self.born.append(born)
        self.live.append(1)
        return rid

    def kill(self, rid: int) -> None:
        """Retire a row (expiry or merge consumption)."""
        self.live[rid] = 0

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

