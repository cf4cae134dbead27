"""Disjoint-set forest used for net and device equivalence classes.

ACE merges nets whenever geometry proves two pieces of artwork are the
same electrical node; the classic union-find with path halving and union
by size keeps every merge effectively constant-time.  Ids are dense
integers handed out by :meth:`make`, which lets callers keep per-id
attribute tables in plain dicts and fold them by root at finalize time.
"""

from __future__ import annotations


class UnionFind:
    """Disjoint sets over dense integer ids."""

    __slots__ = ("_parent", "_size")

    def __init__(self) -> None:
        self._parent: list[int] = []
        self._size: list[int] = []

    def __len__(self) -> int:
        return len(self._parent)

    def make(self) -> int:
        """Allocate a fresh singleton set; returns its id."""
        ident = len(self._parent)
        self._parent.append(ident)
        self._size.append(1)
        return ident

    def extend(self, count: int) -> int:
        """Allocate ``count`` fresh singleton sets; returns the first id.

        Equivalent to ``count`` consecutive :meth:`make` calls -- the new
        ids are ``base .. base + count - 1`` -- but lets batch engines
        allocate a strip's worth of nets in one call.
        """
        base = len(self._parent)
        self._parent.extend(range(base, base + count))
        self._size.extend([1] * count)
        return base

    def parent_snapshot(self) -> list[int]:
        """A copy of the raw parent table, for bulk root resolution.

        Entries are one hop of the forest, not roots; callers resolving
        the whole table at once (``parent[parent]`` to a fixpoint) get
        exactly the roots :meth:`find` would return.
        """
        return list(self._parent)

    def find(self, ident: int) -> int:
        """Representative of ``ident``'s set (with path halving)."""
        parent = self._parent
        while parent[ident] != ident:
            parent[ident] = parent[parent[ident]]
            ident = parent[ident]
        return ident

    def union(self, a: int, b: int) -> int:
        """Merge the sets of ``a`` and ``b``; returns the surviving root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        return ra

    def same(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)

    def roots(self) -> list[int]:
        """All current set representatives, in id order."""
        return [i for i in range(len(self._parent)) if self.find(i) == i]

    def fold(self, table: "dict[int, list]") -> dict[int, list]:
        """Re-key a per-id attribute table by root, concatenating lists."""
        folded: dict[int, list] = {}
        for ident, values in table.items():
            root = self.find(ident)
            if root in folded:
                folded[root].extend(values)
            else:
                folded[root] = list(values)
        return folded
