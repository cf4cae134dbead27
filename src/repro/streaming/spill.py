"""The band spill store: retired sweep state parked on disk.

A banded sweep retires nets and devices the moment nothing above the
scanline can reach them (their union-find roots are final from that
point on).  Retired payloads -- net names and kept geometry, folded
device attributes -- leave RAM immediately and land here, one JSON
envelope per band, so in-memory state stays O(band) while the eventual
wirelist still comes out byte-identical.

A band's devices are written in the retiring strip engine's own format
(:class:`~repro.core.stripengine.RetiredDevices`: record rows for the
python engine, int columns for the numpy one); the store checks and
decodes them through that format object.  The run key names the
engine, so one spill directory never mixes the two.

The store is a :class:`~repro.parallel.cache.JsonEnvelopeStore`
subclass, which buys the established durability rules for free: one
file per key under a two-level fan-out, checksummed envelopes, atomic
temp-file + ``os.replace`` writes (a SIGKILL leaves the old band file
or the new one, never a torn one), and trust-nothing validation on read
back.  Keys combine the run key (a digest of the layout, the options and
the band floors) with the band ordinal, so re-processing a band after a
crash simply overwrites its spill file -- retirement is deterministic,
which makes the write idempotent.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path

from ..core.stripengine import RetiredDevices
from ..geometry import Box
from ..parallel.cache import JsonEnvelopeStore
from ..parallel.serialize import SerializationError


def band_key(run_key: str, band: int) -> str:
    """Spill key for one band of one run."""
    return f"{run_key}{band:08d}"


def remove_run(root: "str | Path", run_key: str) -> None:
    """Delete every band file of ``run_key`` from the spill directory
    ``root`` (wherever the store's fan-out put them)."""
    for path in Path(root).glob(f"*/{run_key}*.json"):
        path.unlink(missing_ok=True)


def net_payload_rows(payload: "dict[int, dict]") -> list:
    """JSON rows for retired net payloads: ``[root, names, geo]``."""
    return [
        [
            root,
            rec.get("names", []),
            [
                [layer, b.xmin, b.ymin, b.xmax, b.ymax]
                for layer, b in rec.get("geo", [])
            ],
        ]
        for root, rec in payload.items()
    ]


class SpillStore(JsonEnvelopeStore):
    """Per-band retired-state envelopes, plus an emission-time reader.

    Writing happens once per band during the sweep.  Reading happens
    during emission, which walks nets and devices in *wirelist* order --
    roots from different bands interleave, so decoded band payloads are
    kept in a small LRU keyed by band ordinal rather than re-parsed per
    root.
    """

    #: Version 3: the python engine's device rows are
    #: :func:`~repro.core.netlist.device_payload` records.
    format_version = 3
    payload_field = "band"

    #: decoded band payloads kept during emission.  Emission reads the
    #: bands roughly top-down, once for device rows and once for net
    #: payloads, so more slots save almost no decodes and keep more of
    #: the chip resident.
    reader_cache_size = 2

    def __init__(self, root, run_key: str, devices: RetiredDevices) -> None:
        super().__init__(root)
        self.run_key = run_key
        self.devices = devices
        self._decoded: "OrderedDict[int, tuple[dict, object]]" = OrderedDict()

    def validate_payload(self, payload: dict) -> None:
        if not isinstance(payload.get("nets"), list) or "devices" not in payload:
            raise SerializationError("band payload missing nets/devices")
        try:
            self.devices.check(payload["devices"])
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"band {payload.get('band')!r}: {exc}"
            ) from exc

    # -- sweep side ----------------------------------------------------

    def put_band(
        self, band: int, net_payload: "dict[int, dict]", devices: object
    ) -> None:
        """Persist one band's retired state (atomic, idempotent).

        ``devices`` is the band's payload from
        :meth:`~repro.core.stripengine.RetiredDevices.add`.
        """
        self.put_payload(
            band_key(self.run_key, band),
            {
                "band": band,
                "nets": net_payload_rows(net_payload),
                "devices": devices,
            },
        )

    # -- emission side -------------------------------------------------

    def _band(self, band: int) -> "tuple[dict, object]":
        cached = self._decoded.get(band)
        if cached is not None:
            self._decoded.move_to_end(band)
            return cached
        invalid = self.stats.invalid
        payload = self.get_payload(band_key(self.run_key, band))
        if payload is None:
            problem = (
                "is damaged" if self.stats.invalid > invalid
                else "is missing"
            )
            raise SerializationError(
                f"spill band {band} of run {self.run_key} {problem}; the "
                f"spill directory and checkpoint no longer describe the "
                f"same sweep"
            )
        nets = {
            int(root): {
                "names": list(names),
                "geo": [
                    (layer, Box(x1, y1, x2, y2))
                    for layer, x1, y1, x2, y2 in geo
                ],
            }
            for root, names, geo in payload["nets"]
        }
        decoded = (nets, self.devices.decode(payload["devices"]))
        self._decoded[band] = decoded
        while len(self._decoded) > self.reader_cache_size:
            self._decoded.popitem(last=False)
        return decoded

    def net_payload(self, band: int, root: int) -> "dict | None":
        """A retired net's names/geometry payload, or None if bare."""
        return self._band(band)[0].get(root)

    def device_rows(self, band: int) -> object:
        """A band's retired devices, decoded by the run's format."""
        return self._band(band)[1]
