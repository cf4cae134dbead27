"""The five workloads: inputs made from the seed, timed passes, one
traced pass per layer set, the memory pass and the ``--check`` oracles.

Offline workloads call ``repro.cli.main(argv)`` in-process, exactly as
``ace-extract chip.cif -o chip.wl`` would; the daemon workload drives a
real ``python -m repro.service`` subprocess over HTTP.  The program only
ever sees generated CIF files (or CIF text in a request body).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

from repro.cif import parse_file
from repro.cif import write as write_cif
from repro.cli import main as cli_main
from repro.core.scanline import ScanlineEngine
from repro.frontend import GeometryStream
from repro.hext import HextStats
from repro.hext.extractor import (
    HextResult,
    compose_plan,
    execute_plan,
    plan_windows,
)
from repro.hext.windows import WindowPlanner
from repro.hext.wirelist import to_hierarchical_wirelist
from repro.service import ServiceClient
from repro.streaming import extract as stream_module
from repro.streaming.spill import SpillStore, band_key
from repro.tech import NMOS
from repro.wirelist import (
    compare_netlists,
    flatten,
    parse_wirelist,
    to_wirelist,
    write_wirelist,
)
from repro.workloads import CHIP_SPECS, SPEC_BY_NAME, chip_suite, poly_diff_mesh

from tracing import NO_TRACE, TimedStream, Tracer, patched

ROOT = Path(__file__).resolve().parents[1]

#: The wirelist's first line names the part; daemon requests vary the
#: name to make fresh payloads, so references compare the rest.
_HEADER = '(DefPart "{}"\n'

#: The chips whose hierarchical extraction is mostly compose: at scale
#: 1/10 the traced pass puts 60-67% of their time in ``hext.compose``
#: (seeds 0-3).  psc and schip2 spend most of theirs in execute and plan
#: at every scale a run has room for, so ``hext-compose`` leaves them out.
HEXT_CHIPS = ("testram", "scheme81", "riscb")


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  The full sizes keep one pass near 1.5 seconds or
    less on a 2-core x86 box, so a 15 s run holds about ten passes."""

    flat_scale: float = 1 / 16
    hext_scale: float = 1 / 10
    mesh_n: int = 128
    daemon_devices: int = 400  #: per chip
    batch: int = 20
    chips: "tuple[str, ...] | None" = None  #: None = each workload's own
    #: ``hext-compose`` passes take turns over this many seeded variants
    #: of its chips.  How much work scheme81 and riscb hold varies with
    #: their seed (function calls per run spread 11-14% over 20 seeds),
    #: so one variant per run would put that spread into every metric.
    hext_variants: int = 6


FULL = Sizes()
QUICK = Sizes(1 / 32, 1 / 32, 32, 64, 8, ("cherry", "dchip"), 2)


@dataclass
class Outcome:
    """One operation: a CLI call or a daemon request."""

    seconds: float
    error: "str | None" = None


@dataclass
class PassResult:
    wall: float
    outcomes: "list[Outcome]"
    variant: int = 0  #: which set of inputs the pass ran


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def child_env(tmp: Path) -> "dict[str, str]":
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp))


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, MB.

    This is the kernel's high-water mark for the process's own memory.
    A child's rusage ``ru_maxrss`` is no use here: it also counts the
    parent's pages the child shared before it called exec.
    """
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"process {pid} reports no VmHWM")


#: One offline pass in a fresh interpreter, printing its VmHWM (KiB).
MEMORY_PASS = """
import json, sys
from repro.cli import main
code = max(main(argv) for argv in json.loads(sys.argv[1]))
with open("/proc/self/status") as status:
    print(next(line for line in status if line.startswith("VmHWM:")).split()[1])
sys.exit(code)
"""


def call_cli(argv: "list[str]") -> "str | None":
    """``ace-extract argv`` in-process; None on success, else the error."""
    stderr = io.StringIO()
    try:
        with redirect_stderr(stderr):
            code = cli_main(argv)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        return f"{type(exc).__name__}: {exc}"
    return None if code == 0 else f"exit {code}: {stderr.getvalue()[-300:]}"


def make_layouts(name: str, sizes: Sizes, seed: int) -> "list[dict]":
    """A workload's input layouts: one ``{name: layout}`` per set of
    inputs a pass runs.  The seed picks chip variants (``chip_suite``
    reseeds every chip; seed 0 gives the canonical suite first)."""
    chips = sizes.chips or tuple(spec.name for spec in CHIP_SPECS)
    if name == "daemon-mix":
        # Every chip at about the same device count, so jobs of one mode
        # take similar time and the latency quantiles do not hinge on
        # which chip sizes a seed happens to draw.
        return [
            {
                chip: chip_suite(
                    sizes.daemon_devices / SPEC_BY_NAME[chip].paper_devices,
                    (chip,),
                    seed=seed,
                )[chip]
                for chip in chips
            }
        ]
    if name == "hext-compose":
        count = sizes.hext_variants
        return [
            {
                f"{chip}-{variant}": layout
                for chip, layout in chip_suite(
                    sizes.hext_scale,
                    sizes.chips or HEXT_CHIPS,
                    seed=seed * count + variant,
                ).items()
            }
            for variant in range(count)
        ]
    if name == "suite-flat":
        return [chip_suite(sizes.flat_scale, chips, seed=seed)]
    return [{f"mesh{sizes.mesh_n}": poly_diff_mesh(sizes.mesh_n)}]


def input_digests(name: str, sizes: Sizes, seed: int) -> "dict[str, str]":
    return {
        chip: sha256(write_cif(layout))
        for layouts in make_layouts(name, sizes, seed)
        for chip, layout in layouts.items()
    }


def chip_height(layout) -> int:
    bbox = GeometryStream(layout).chip_bbox
    return bbox.height if bbox else 1


@dataclass
class Input:
    name: str
    cif: Path
    out: Path
    extra: "list[str]" = field(default_factory=list)
    band: "int | None" = None  #: --band-height of a streamed input

    def argv(self, suffix: str = "") -> "list[str]":
        return [str(self.cif), "-o", f"{self.out}{suffix}", *self.extra]


class OfflineWorkload:
    """CIF files through ``ace-extract``: flat, ``--stream`` or
    ``--hierarchical``.

    Timed passes take turns over the workload's sets of inputs, starting
    with the first after every set-up.  The warm-up, traced and memory
    passes and the ``--check`` oracles run the first set, so counters
    repeat exactly from run to run.
    """

    KINDS = {
        "suite-flat": "flat",
        "mesh-flat": "flat",
        "mesh-stream": "stream",
        "hext-compose": "hext",
    }

    def __init__(self, name: str, sizes: Sizes, seed: int, work: Path):
        self.name = name
        self.kind = self.KINDS[name]
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.sets: "list[list[Input]]" = []
        self.turn = 0
        #: output digest per input, fixed by the first pass
        self.digests: "dict[str, str]" = {}
        self.counters: "dict[str, float]" = {}

    def setup(self) -> "list[Outcome]":
        """Write the inputs and run the untimed warm-up pass."""
        self.sets = []
        for layouts in make_layouts(self.name, self.sizes, self.seed):
            inputs = []
            for name, layout in layouts.items():
                path = self.work / f"{name}.cif"
                path.write_text(write_cif(layout))
                item = Input(name, path, self.work / f"{name}.wl")
                if self.kind == "stream":
                    item.band = max(1, chip_height(layout) // 16)
                    item.extra = ["--stream", "--band-height", str(item.band)]
                elif self.kind == "hext":
                    item.extra = ["--hierarchical"]
                inputs.append(item)
            self.sets.append(inputs)
        self.turn = 0
        return self._pass(0).outcomes

    def discard_setup(self) -> None:
        pass

    # -- passes ----------------------------------------------------------

    def run_pass(self) -> PassResult:
        """A pass over the next set of inputs in turn."""
        variant = self.turn % len(self.sets)
        self.turn += 1
        return self._pass(variant)

    def _pass(self, variant: int) -> PassResult:
        items = self.sets[variant]
        outcomes = []
        started = time.perf_counter()
        for item in items:
            t0 = time.perf_counter()
            error = call_cli(item.argv())
            outcomes.append(Outcome(time.perf_counter() - t0, error))
        wall = time.perf_counter() - started
        self._verify(items, outcomes, "")
        return PassResult(wall, outcomes, variant)

    def _verify(
        self, items: "list[Input]", outcomes: "list[Outcome]", suffix: str
    ) -> None:
        """Every output must match the first pass's, byte for byte."""
        for item, outcome in zip(items, outcomes):
            if outcome.error:
                continue
            text = Path(f"{item.out}{suffix}").read_text()
            digest = sha256(text)
            if item.name not in self.digests:
                self.digests[item.name] = digest
                devices = text.count("(InstName D")
                if self.name.startswith("mesh") and devices != self.sizes.mesh_n**2:
                    outcome.error = f"mesh has {devices} devices"
            elif digest != self.digests[item.name]:
                outcome.error = f"{item.name}: output differs from first pass"

    def memory_pass(self) -> "tuple[float, list[Outcome]]":
        """One pass in a fresh ``python`` process; its peak RSS in MB."""
        items = self.sets[0]
        argvs = [item.argv(".mem") for item in items]
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", MEMORY_PASS, json.dumps(argvs)],
            cwd=ROOT,
            env=child_env(self.work),
            capture_output=True,
            text=True,
            timeout=120.0,
        )
        if proc.returncode != 0:
            error = f"memory pass exited {proc.returncode}: {proc.stderr[-300:]}"
            return 0.0, [Outcome(time.perf_counter() - started, error)]
        outcomes = [Outcome(0.0) for _ in items]
        self._verify(items, outcomes, ".mem")
        return int(proc.stdout.split()[-1]) / 1024.0, outcomes

    def traced_pass(self, tracer: Tracer) -> PassResult:
        """The same work, calling each layer's public functions directly."""
        traced = {
            "flat": self._traced_flat,
            "stream": self._traced_stream,
            "hext": self._traced_hext,
        }[self.kind]
        self.counters = {}
        outcomes = []
        with tracer.span("pass") as root:
            for item in self.sets[0]:
                t0 = time.perf_counter()
                traced(tracer, item)
                outcomes.append(Outcome(time.perf_counter() - t0))
        self._verify(self.sets[0], outcomes, ".traced")
        return PassResult(root.seconds, outcomes)

    def _count(self, **values: float) -> None:
        """Counters summed over the pass's inputs."""
        for key, value in values.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def _peak(self, **values: float) -> None:
        """High-water marks: the largest over the pass's inputs."""
        for key, value in values.items():
            self.counters[key] = max(self.counters.get(key, 0), value)

    def _write(self, tracer: Tracer, item: Input, wirelist) -> None:
        with tracer.span("wirelist.write"):
            text = write_wirelist(wirelist)
            Path(f"{item.out}.traced").write_text(text)
        self._count(**{"wirelist.mb": len(text.encode()) / 1e6})

    def _traced_flat(self, tracer: Tracer, item: Input) -> None:
        tech = NMOS()
        with tracer.span("cif.parse"):
            layout = parse_file(str(item.cif))
        with tracer.span("frontend.init"):
            stream = GeometryStream(layout)
        timed = TimedStream(stream)
        with tracer.span("core.scan"):
            scan = ScanlineEngine(tech)
            scan.finish = tracer.wrap(scan.finish, "core.finalize")
            circuit = scan.run(timed)
            tracer.add("frontend.fetch", timed.seconds)
        with tracer.span("wirelist.build"):
            wirelist = to_wirelist(
                circuit, name=item.cif.name, include_geometry=False, tech=tech
            )
        self._write(tracer, item, wirelist)
        self._scan_counters(scan.stats, stream.stats)
        with tracer.span("python.free"):
            del layout, stream, timed, scan, circuit, wirelist

    def _scan_counters(self, scan, frontend) -> None:
        self._count(
            **{
                "frontend.boxes_out": frontend.boxes_out,
                "core.stops": scan.stops,
                "core.heap_pops": scan.heap_pops,
                "core.intervals_scanned": scan.intervals_scanned,
            }
        )
        self._peak(
            **{
                "frontend.peak_pending": frontend.peak_pending,
                "core.peak_active": scan.peak_active,
            }
        )

    def _traced_stream(self, tracer: Tracer, item: Input) -> None:
        spilled = [0]

        def put_band(original):
            def traced(store, band, *args):
                with tracer.span("streaming.spill"):
                    original(store, band, *args)
                path = store.path_for(band_key(store.run_key, band))
                spilled[0] += path.stat().st_size

            return traced

        def spans(name):
            return lambda original: tracer.wrap(original, name)

        with tracer.span("cif.parse"):
            layout = parse_file(str(item.cif))
        with patched(SpillStore, "put_band", put_band), patched(
            SpillStore, "get_payload", spans("streaming.spill")
        ), patched(stream_module, "emit_wirelist", spans("streaming.emit")):
            with tracer.span("streaming.sweep"):
                with open(f"{item.out}.traced", "w") as handle:
                    report = stream_module.stream_extract(
                        layout,
                        NMOS(),
                        name=item.cif.name,
                        out=handle,
                        band_height=item.band,
                    )
        self._scan_counters(report.stats, report.frontend_stats)
        self._count(
            **{
                "streaming.bands": report.bands,
                "streaming.spill_mb": spilled[0] / 1e6,
                "wirelist.mb": Path(f"{item.out}.traced").stat().st_size / 1e6,
            }
        )
        with tracer.span("python.free"):
            del layout, report

    def _traced_hext(self, tracer: Tracer, item: Input) -> None:
        tech = NMOS()
        stats = HextStats()
        with tracer.span("cif.parse"):
            layout = parse_file(str(item.cif))
        with tracer.span("hext.plan"):
            planner = WindowPlanner(layout)
            top = planner.top_content()
            plan = plan_windows(planner, top, stats)
        with tracer.span("hext.execute"):
            memo = execute_plan(plan, tech, stats)
        with tracer.span("hext.compose"):
            fragment = compose_plan(plan, memo, tech, stats)
        result = HextResult(
            fragment=fragment,
            origin=(top.region.xmin, top.region.ymin),
            stats=stats,
            tech=tech,
        )
        with tracer.span("hext.resolve"):
            result.circuit
        with tracer.span("hext.wirelist"):
            wirelist = to_hierarchical_wirelist(result, name=item.cif.name)
        self._write(tracer, item, wirelist)
        self._count(
            **{
                "hext.compose_calls": stats.compose_calls,
                "hext.flat_calls": stats.flat_calls,
                "hext.memo_hits": stats.memo_hits,
                "hext.windows_seen": stats.windows_seen,
            }
        )
        with tracer.span("python.free"):
            del layout, planner, top, plan, memo, fragment, result, wirelist

    # -- --check oracles -------------------------------------------------

    def oracle_problems(self) -> "list[str]":
        """Compare against the reference engine or the flat netlist."""
        problems = []
        for item in self.sets[0]:
            ref = Path(f"{item.out}.ref")
            if self.kind == "hext":
                argv = [str(item.cif), "-o", str(ref)]
            else:
                argv = [str(item.cif), "-o", str(ref), "--engine", "python"]
            error = call_cli(argv)
            if error:
                problems.append(f"{item.name}: reference run failed: {error}")
                continue
            text = item.out.read_text()
            if self.kind == "hext":
                report = compare_netlists(
                    flatten(parse_wirelist(text)),
                    flatten(parse_wirelist(ref.read_text())),
                )
                if not report.equivalent:
                    problems.append(
                        f"{item.name}: flattened hext differs from flat"
                    )
            elif text != ref.read_text():
                problems.append(
                    f"{item.name}: {self.kind} output differs from the "
                    "python engine's flat output"
                )
        return problems

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------

#: Mode mix of one batch: 40% flat, 20% flat+lint, 20% hext, 20% stream.
BATCH_MIX = ("flat",) * 8 + ("lint",) * 4 + ("hext",) * 4 + ("stream",) * 4
RESUBMIT_SHARE = 0.25
#: The daemon's result cache grows with every fresh request, so its peak
#: RSS is read after a fixed number of batches, not at the end of a run
#: whose length in requests depends on the machine's speed.  The daemon
#: runs no child processes (hext jobs are serial unless a request asks
#: for ``jobs``), so its own RSS is the whole cost.
MEMORY_BATCHES = 5
#: Closed loop: each client thread waits for its reply before sending
#: again, as ``repro-submit`` users do.  Two clients on a 2-core box.
CLIENTS = 2


@dataclass
class Request:
    mode: str
    chip: str
    cif: str
    options: dict
    expected: str  #: sha256 of the reference wirelist


class Daemon:
    """``python -m repro.service --port 0 --workers 2`` as a subprocess."""

    def __init__(self, work: Path, index: int):
        log_path = work / f"daemon-{index}.log"
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.service",
                    "--port", "0", "--workers", "2",
                ],
                cwd=ROOT,
                env=child_env(work),
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        self.port = self._await_ready(log_path)

    def _await_ready(self, log_path: Path) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            for line in log_path.read_text().splitlines():
                if '"ready"' in line:
                    address = json.loads(line)["address"]
                    return int(address.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"daemon never became ready: {log_path.read_text()}")

    def stop(self) -> None:
        """SIGTERM: the daemon drains and exits."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class DaemonWorkload:
    """A seeded request stream, closed loop, against a fresh daemon."""

    def __init__(self, name: str, sizes: Sizes, seed: int, work: Path):
        self.name = name
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.daemon: "Daemon | None" = None
        self.counters: "dict[str, float]" = defaultdict(float)
        #: summed over traced requests: client/daemon/queue seconds,
        #: polls, jobs, and the daemon's parse/extract/wirelist/lint
        self.trace_seconds: "dict[str, float]" = defaultdict(float)
        self._setups = 0
        self._references()

    def _references(self) -> None:
        """Offline ``ace-extract`` output for every chip, flat and hext:
        what each daemon reply is checked against."""
        self.rest: "dict[tuple[str, str], str]" = {}
        for name, layout in make_layouts(self.name, self.sizes, self.seed)[0].items():
            path = self.work / f"{name}.cif"
            path.write_text(write_cif(layout))
            for kind, extra in (("flat", []), ("hext", ["--hierarchical"])):
                out = self.work / f"{name}.{kind}.wl"
                error = call_cli([str(path), "-o", str(out), *extra])
                if error:
                    raise RuntimeError(f"reference {name} {kind}: {error}")
                self.rest[name, kind] = out.read_text().split("\n", 1)[1]

    def setup(self) -> "list[Outcome]":
        """Build the payloads, start a daemon, send one request per mode."""
        [layouts] = make_layouts(self.name, self.sizes, self.seed)
        self.cifs = {name: write_cif(lay) for name, lay in layouts.items()}
        self.bands = {
            name: max(1, chip_height(lay) // 8) for name, lay in layouts.items()
        }
        self._setups += 1
        self.daemon = Daemon(self.work, self._setups)
        self.rng = random.Random(self.seed)
        self.order = list(self.cifs)
        warmup = [
            self._request(mode, self.order[0], f"warmup-{mode}.cif")
            for mode in ("flat", "lint", "hext", "stream")
        ]
        self.rng.shuffle(self.order)
        self.history: "list[Request]" = []
        self.fresh = 0
        self.batches = 0
        self.peak_mb: "float | None" = None
        client = ServiceClient(port=self.daemon.port, timeout=120.0)
        outcomes = [self._send(client, request) for request in warmup]
        self.history.extend(warmup)
        return outcomes

    def discard_setup(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()

    def _request(self, mode: str, chip: str, name: str) -> Request:
        options: dict = {"name": name}
        if mode == "lint":
            options["lint"] = True
        elif mode == "hext":
            options["hext"] = True
        elif mode == "stream":
            options.update(stream=True, band_height=self.bands[chip])
        rest = self.rest[chip, "hext" if mode == "hext" else "flat"]
        expected = sha256(_HEADER.format(name) + rest)
        return Request(mode, chip, self.cifs[chip], options, expected)

    def batch(self) -> "list[Request]":
        """The next ``sizes.batch`` requests of the seeded stream."""
        size = self.sizes.batch
        rng = self.rng
        modes = [BATCH_MIX[i * len(BATCH_MIX) // size] for i in range(size)]
        rng.shuffle(modes)
        resubmit = set(rng.sample(range(size), round(size * RESUBMIT_SHARE)))
        requests = []
        for position, mode in enumerate(modes):
            if position in resubmit:
                # An earlier payload with identical options: a result-cache
                # hit, unless it is one of the two possibly still in flight.
                requests.append(rng.choice(self.history[:-CLIENTS]))
                continue
            chip = self.order[self.fresh % len(self.order)]
            self.fresh += 1
            request = self._request(mode, chip, f"{chip}-{self.fresh}.cif")
            requests.append(request)
            self.history.append(request)
        return requests

    def _send(
        self,
        client: ServiceClient,
        request: Request,
        tracer: "Tracer | None" = None,
    ) -> Outcome:
        """Submit, wait and fetch, as ``ServiceClient.extract`` does; the
        outcome's seconds are the daemon's own submit-to-finish latency
        for the job.  (The client's 50 ms poll would round what it sees
        to steps of 50 ms.)"""
        spans = tracer or NO_TRACE
        polls = [0]

        def counted(status):
            def status_counted(job: str) -> dict:
                polls[0] += 1
                return status(job)

            return status_counted

        try:
            with patched(client, "status", counted), spans.span(
                "service.request", mode=request.mode
            ) as root:
                with spans.span("service.submit"):
                    receipt = client.submit(request.cif, **request.options)
                root.tags["job"] = receipt["job"]
                final = receipt
                if receipt["state"] != "done":
                    with spans.span("service.wait"):
                        final = client.wait(receipt["job"], timeout=120.0)
                with spans.span("service.fetch"):
                    result = client.result(receipt["job"])
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            error = f"{request.mode} {request.chip}: {type(exc).__name__}: {exc}"
            return Outcome(0.0, error)
        error = None
        if sha256(result["wirelist"]) != request.expected:
            error = f"{request.mode} {request.chip}: differs from offline"
        latency = final.get("latency_seconds", 0.0)
        if tracer is not None:
            self._traced.append(
                {
                    "client": root.seconds,
                    "daemon": latency,
                    "queue": final.get("queue_seconds", 0.0),
                    "polls": polls[0],
                }
            )
        return Outcome(latency, error)

    def _closed_loop(self, tracer: "Tracer | None" = None) -> PassResult:
        """One batch through ``CLIENTS`` closed-loop client threads."""
        pending = iter(self.batch())
        lock = threading.Lock()
        outcomes: "list[Outcome]" = []

        def client_loop() -> None:
            client = ServiceClient(port=self.daemon.port, timeout=120.0, retries=2)
            while True:
                with lock:
                    request = next(pending, None)
                if request is None:
                    return
                outcome = self._send(client, request, tracer)
                with lock:
                    outcomes.append(outcome)

        threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150.0)
        wall = time.perf_counter() - started
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a client thread hung past 150 s")
        return PassResult(wall, outcomes)

    def run_pass(self) -> PassResult:
        result = self._closed_loop()
        self.batches += 1
        if self.batches == MEMORY_BATCHES:
            self.peak_mb = vm_hwm_mb(self.daemon.proc.pid)
        return result

    def traced_pass(self, tracer: Tracer) -> PassResult:
        """Client-side spans per request, tagged with the job id; daemon
        stage seconds from ``/metrics`` before and after."""
        probe = ServiceClient(port=self.daemon.port, timeout=30.0)
        before = probe.metrics()
        self._traced: "list[dict]" = []
        result = self._closed_loop(tracer)
        self._fold_trace(self._traced, before, probe.metrics())
        return result

    def _fold_trace(self, requests: "list[dict]", before: dict, after: dict) -> None:
        def delta(section: str, key: str) -> float:
            return after[section].get(key, 0) - before[section].get(key, 0)

        sums = self.trace_seconds
        for record in requests:
            for key in ("client", "daemon", "queue", "polls"):
                sums[key] += record[key]
        sums["jobs"] += len(requests)
        for stage in ("parse", "extract", "wirelist", "lint"):
            sums[stage] += delta("stages", stage)
        for name, section, key in (
            ("service.cache_hits", "cache", "hits"),
            ("service.cache_misses", "cache", "misses"),
            ("service.rejected", "jobs", "rejected_full"),
            ("service.rejected", "jobs", "rejected_draining"),
            ("core.stops", "scanline", "stops"),
            ("core.heap_pops", "scanline", "heap_pops"),
        ):
            self.counters[name] += delta(section, key)
        self.counters["core.peak_active"] = after["scanline"].get("peak_active", 0)

    def memory_pass(self) -> "tuple[float, list[Outcome]]":
        """The daemon's peak RSS after ``MEMORY_BATCHES`` timed batches
        (or now, if the run was shorter)."""
        if self.peak_mb is None:
            self.peak_mb = vm_hwm_mb(self.daemon.proc.pid)
        return self.peak_mb, []

    def oracle_problems(self) -> "list[str]":
        return []  # every reply is already checked against offline output

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
