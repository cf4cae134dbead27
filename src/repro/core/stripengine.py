"""Pluggable per-strip computation back-ends for the scanline engine.

:class:`~repro.core.scanline.ScanlineEngine` owns everything event-driven
-- active lists, bottom-edge heaps, merge/split bookkeeping -- and
delegates the per-strip *value* computation (channels, conducting
diffusion, terminals, contact unions, device records) plus the finalize
folds to a :class:`StripEngine`.  Two implementations exist:

``python``
    The always-available reference engine
    (:class:`repro.core.engine_python.PythonStripEngine`): the paper's
    per-interval sweeps as plain-python loops.

``numpy``
    A vectorized strip-batch engine
    (:class:`repro.core.engine_numpy.NumpyStripEngine`) that
    materializes each strip's active intervals as flat endpoint/net
    arrays and does span overlap, terminal pairing, and the finalize
    folds as batch array passes.  Available when numpy is importable
    (the ``repro[fast]`` extra).

Both engines share the host's union-find and counters and must produce
**byte-identical wirelists** -- docs/ENGINES.md documents the contract
and how it is enforced.  Selection is by name: ``auto`` prefers numpy
when importable and silently falls back to python otherwise; asking for
``numpy`` explicitly without numpy installed raises
:class:`EngineUnavailable` with an actionable message.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..frontend.stream import GeometryStream
    from .netlist import DeviceColumns, NetColumns
    from .scanline import ScanlineEngine
    from .unionfind import UnionFind

#: Valid values for every ``engine=`` / ``--engine`` knob in the stack.
ENGINE_CHOICES = ("auto", "python", "numpy")

#: (cond, cond_starts) thunk handed to the host's label attachment so an
#: engine only materializes the strip's conducting spans when a label
#: actually lands in the strip.
CondSource = Callable[[], "list[tuple[int, int, int]]"]


class EngineUnavailable(RuntimeError):
    """An explicitly requested strip engine cannot run here."""


def numpy_available() -> bool:
    """True when the numpy back-end can be imported."""
    try:
        import numpy  # noqa: F401
    except Exception:  # pragma: no cover - import failure path
        return False
    return True


def resolve_engine(name: str = "auto") -> str:
    """Map an engine request to a concrete engine name.

    ``auto`` resolves to ``numpy`` when importable, else ``python``.
    An explicit ``numpy`` without numpy installed is an error rather
    than a silent fallback -- the caller asked for speed it cannot get.
    """
    if name not in ENGINE_CHOICES:
        raise ValueError(
            f"unknown strip engine {name!r}; choose one of {ENGINE_CHOICES}"
        )
    if name == "auto":
        return "numpy" if numpy_available() else "python"
    if name == "numpy" and not numpy_available():
        raise EngineUnavailable(
            "the numpy strip engine was requested but numpy is not "
            "installed; install the fast extra (pip install 'repro[fast]') "
            "or use --engine auto to fall back to the pure-python engine"
        )
    return name


def load_strip_engine(name: str = "auto") -> str:
    """Resolve ``name`` and import its engine; returns the resolved name.

    The first load is the expensive part of an engine (``auto`` imports
    numpy); a caller that times its work calls this first, so the import
    is billed as setup rather than to whatever runs the first sweep.
    """
    resolved = resolve_engine(name)
    if resolved == "numpy":
        from . import engine_numpy  # noqa: F401
    else:
        from . import engine_python  # noqa: F401
    return resolved


class StripEngine:
    """Interface every strip back-end implements.

    One instance lives per :class:`ScanlineEngine` run and carries the
    engine's accumulated per-strip state (previous strip's conducting
    spans and channels, net/device attribute accumulators).  The host
    guarantees ``process_strip`` is called once per strip, top to
    bottom, and that ``finalize`` is called once, after the sweep.
    """

    #: concrete engine name ("python" / "numpy")
    name = "abstract"

    #: True when the engine implements :meth:`process_run`, letting the
    #: host defer side-effect-free stops and hand them over as one
    #: vectorized strip run (docs/ENGINES.md).
    supports_runs = False

    def __init__(self, host: "ScanlineEngine") -> None:
        self.host = host

    def process_strip(
        self, y_lo: int, y_hi: int, stream: "GeometryStream"
    ) -> None:
        """Step 2.c for the strip ``[y_lo, y_hi)``."""
        raise NotImplementedError

    def process_run(
        self,
        stop0: int,
        strips: "list[tuple[int, int]]",
        diff_rows: "list[int]",
        born_start: int,
    ) -> None:
        """Step 2.c for a *run* of deferred consecutive stops.

        ``strips`` holds one ``(y_lo, y_hi)`` band per stop, top to
        bottom, for stop ordinals ``stop0 .. stop0 + len(strips) - 1``.
        ``diff_rows`` are the diffusion-layer row ids live when the run
        opened and ``born_start`` the diffusion row count at that
        moment; together with the columnar ``born``/``died`` stop
        stamps they reconstruct every strip's diffusion view.  The host
        guarantees: no strip in the run binds vertically to its
        predecessor, the contact/buried/implant tables were empty for
        every strip, the poly table is unchanged since the run opened,
        no label lands in any strip, and no union-find call was issued
        since the run opened.  Only engines with ``supports_runs`` set
        receive this call.
        """
        raise NotImplementedError

    def touch_net(self, net: int, xmin: int, ymax: int) -> None:
        """Record a net sighting for the topmost/leftmost location fold."""
        raise NotImplementedError

    def finalize(
        self, kinds: "tuple[str, str]"
    ) -> "tuple[list[int], NetColumns, list[int], DeviceColumns]":
        """The folded circuit as columns in canonical order.

        Returns ``(net_roots, nets, device_roots, devices)``: net roots
        sorted topmost-then-leftmost (the wirelist's net numbering) with
        the aligned location columns, and device roots in device order
        with the sized device columns (``kinds`` names the enhancement
        and depletion parts).  Device geometry is filled in when the
        sweep kept it; net names, net artwork, and boundary flags are
        host state, which the host attaches by root.  The columns are
        plain lists, so a batch back-end converts each of its fold
        arrays once instead of building one object per device.
        """
        raise NotImplementedError

    # -- banded streaming hooks (docs/STREAMING.md) --------------------

    def live_roots(self) -> "tuple[set[int], set[int]]":
        """Net and device roots still reachable from strip-above state.

        Everything the next strip can union with lives in the previous
        strip's conducting spans and channels; together with the host's
        :meth:`~repro.core.scanline.ScanlineEngine.live_net_roots` this
        defines which roots a banded sweep may retire.
        """
        raise NotImplementedError

    def retire(
        self, live_nets: "set[int]", live_devs: "set[int]"
    ) -> "tuple[dict[int, tuple[int, int]], object]":
        """Drop and return accumulated state of roots not in the live sets.

        Returns ``(net_locations, devices)``: each dead net root's
        folded ``(ymax, -xmin)`` location, and the dead device roots'
        folded attributes as a batch in this engine's own format, which
        only :meth:`retired_devices`'s object reads.  Dead roots never
        union again, so the folds equal the finalize-time folds
        restricted to those roots.
        """
        raise NotImplementedError

    def retired_devices(self) -> "RetiredDevices":
        """An empty store for the batches :meth:`retire` returns."""
        raise NotImplementedError

    def snapshot_state(self) -> dict:
        """JSON-compatible engine state for a band-boundary checkpoint."""
        raise NotImplementedError

    def restore_state(self, state: dict) -> None:
        """Restore state captured by :meth:`snapshot_state`."""
        raise NotImplementedError


class RetiredDevices:
    """A banded sweep's retired devices, in one strip engine's format.

    The band loop, the spill store and emission reach the batches
    :meth:`StripEngine.retire` returns only through this object, so none
    of them knows which engine made them.  RAM keeps one order key per
    retired device as int columns: its root, its folded ``(ymax,
    -xmin)`` location, the spill band holding its row and the row's
    place in that band.  Everything else about a device lives in the
    band's spill envelope until emission folds it.
    """

    #: the order-key columns, in checkpoint order
    KEYS = ("root", "y", "nx", "band", "row")

    def __init__(self) -> None:
        self.root = array("q")
        self.y = array("q")
        self.nx = array("q")
        self.band = array("q")
        self.row = array("q")

    def __len__(self) -> int:
        return len(self.root)

    def _index(self, band: int, root, y, nx) -> None:
        """Append order keys for one band's rows, given in row order."""
        count = len(root)
        self.root.extend(root)
        self.y.extend(y)
        self.nx.extend(nx)
        self.band.extend(repeat(band, count))
        self.row.extend(range(count))

    def add(self, band: int, batch) -> object:
        """Index one band's retired devices; returns their JSON payload
        for the band's spill envelope."""
        raise NotImplementedError

    def check(self, payload) -> None:
        """Raise ValueError unless ``payload`` is well-formed for
        :meth:`decode` (a spill file can be damaged on disk)."""
        raise NotImplementedError

    def decode(self, payload):
        """A checked band payload as the rows :meth:`chunks` reads."""
        raise NotImplementedError

    def chunks(
        self,
        step: int,
        band_rows: "Callable[[int], Any]",
        nets: "UnionFind",
        net_roots: "list[int]",
        kinds: "tuple[str, str]",
    ) -> "Iterator[DeviceColumns]":
        """Every retired device as sized columns, in canonical order.

        Canonical order is topmost, then leftmost, then root id, as in
        finalize.  Each chunk holds ``step`` rows; ``band_rows(band)``
        returns a band's decoded payload.  Terminal and gate nets
        resolve through ``nets``, the final union-find, to 1-based
        indices in ``net_roots`` order; nets not there drop out.
        """
        raise NotImplementedError

    def snapshot(self) -> dict:
        """The order keys for a band-boundary checkpoint."""
        return {name: getattr(self, name).tolist() for name in self.KEYS}

    def restore(self, state: dict) -> None:
        """Restore order keys captured by :meth:`snapshot`."""
        for name in self.KEYS:
            setattr(self, name, array("q", state[name]))


def create_strip_engine(name: str, host: "ScanlineEngine") -> StripEngine:
    """Resolve ``name`` and instantiate the matching engine."""
    resolved = resolve_engine(name)
    if resolved == "numpy":
        from .engine_numpy import NumpyStripEngine

        return NumpyStripEngine(host)
    from .engine_python import PythonStripEngine

    return PythonStripEngine(host)
