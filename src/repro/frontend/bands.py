"""Band floors for out-of-core streaming extraction.

The scanline only ever needs one strip of state, so
:func:`repro.streaming.stream_extract` sweeps the lazy
:class:`~repro.frontend.stream.GeometryStream` in y-*bands*: the host
reads the stream itself and pauses at each band floor, between natural
stops, to retire finished state to a spill store and checkpoint
(docs/STREAMING.md).  :func:`plan_bands` chooses the floors.
"""

from __future__ import annotations


def plan_bands(
    chip_top: int | None,
    chip_bottom: int | None,
    *,
    band_height: int | None = None,
    boundaries: "list[int] | None" = None,
) -> list[int | None]:
    """Band floors, descending, ending with ``None`` (run to exhaustion).

    Either a uniform ``band_height`` below the chip top or an explicit
    descending ``boundaries`` list.  Floors never force scanline stops;
    they only mark where the sweep pauses between natural stops, so any
    floor list yields byte-identical output.
    """
    if boundaries is not None:
        floors: list[int | None] = sorted(
            {int(b) for b in boundaries}, reverse=True
        )
        floors.append(None)
        return floors
    if band_height is None or chip_top is None or chip_bottom is None:
        return [None]
    if band_height <= 0:
        raise ValueError(f"band height must be positive, got {band_height}")
    floors = []
    y = chip_top - band_height
    while y > chip_bottom:
        floors.append(y)
        y -= band_height
    floors.append(None)
    return floors
