"""Attribution of layout-coordinate findings to CIF symbols.

The scanline checkers see only placed geometry; this index maps a
finding's coordinates back to the symbol call whose expansion produced
the offending artwork (via
:func:`repro.frontend.instantiate.instantiate_with_origins`).  Built
lazily -- attribution only runs over the (few) findings, never over the
geometry stream itself.
"""

from __future__ import annotations

from ..cif.layout import Layout
from ..frontend.instantiate import instantiate_with_origins
from ..geometry import Box
from .model import CheckReport, Diagnostic, SourceRef


class SourceIndex:
    """Per-layer placed boxes with their defining symbol."""

    def __init__(self, layout: Layout) -> None:
        self._layout = layout
        self._by_layer: "dict[str, list[tuple[Box, SourceRef]]] | None" = None

    def _index(self) -> dict[str, list[tuple[Box, SourceRef]]]:
        if self._by_layer is None:
            by_layer: dict[str, list[tuple[Box, SourceRef]]] = {}
            refs: dict[tuple[int, tuple[int, ...]], SourceRef] = {}
            for layer, box, symbol, path in instantiate_with_origins(
                self._layout
            ):
                key = (symbol, path)
                ref = refs.get(key)
                if ref is None:
                    name = self._layout.symbol(symbol).name
                    ref = SourceRef(symbol=symbol, name=name, path=path)
                    refs[key] = ref
                by_layer.setdefault(layer, []).append((box, ref))
            self._by_layer = by_layer
        return self._by_layer

    def locate(
        self, layer: "str | None", box: "tuple[int, int, int, int] | None"
    ) -> "SourceRef | None":
        """The source of the smallest placed box touching ``box``.

        Spacing violations flag the *gap* between two shapes, so mere
        edge contact counts as a hit; the smallest toucher wins because
        it is the most specific piece of artwork.
        """
        if box is None:
            return None
        probe = Box(*box)
        best: "tuple[int, SourceRef] | None" = None
        layers = [layer] if layer else list(self._index())
        for name in layers:
            for placed, ref in self._index().get(name, ()):
                if placed.touches(probe):
                    if best is None or placed.area < best[0]:
                        best = (placed.area, ref)
        return best[1] if best else None

    def attribute(self, report: CheckReport) -> CheckReport:
        """``report`` with every located diagnostic carrying a source."""
        out: list[Diagnostic] = []
        for diag in report.diagnostics:
            if diag.source is None and diag.box is not None:
                out.append(diag.located(self.locate(diag.layer, diag.box)))
            else:
                out.append(diag)
        return CheckReport(
            diagnostics=out,
            artifact=report.artifact,
            suppressed=report.suppressed,
        )
