"""Kill-and-resume crash consistency.

A child process streams a layout with checkpointing on and is SIGKILLed
mid-sweep by the crash-injection hooks
(``ACE_STREAM_KILL_AFTER_BANDS``/``ACE_STREAM_KILL_PHASE``); a second
launch with ``resume="auto"`` must finish the sweep and produce bytes
identical to an uninterrupted in-memory run.  The ``spill`` phase kills
in the torn window between a band's spill write and its checkpoint —
the worst case the atomic-replace commit protocol must absorb.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from tests.golden.cases import GOLDEN_CASES

from .harness import ENGINES, chip_height, expected_text

REPO = Path(__file__).resolve().parents[2]

CHILD = """\
import sys
from repro.streaming import stream_extract
from repro.tech import NMOS
from tests.golden.cases import GOLDEN_CASES

case, engine, band_height, checkpoint, out_path = sys.argv[1:6]
if case.startswith("mesh:"):
    from repro.workloads.mesh import poly_diff_mesh

    layout = poly_diff_mesh(int(case.split(":", 1)[1]))
else:
    layout = GOLDEN_CASES[case]()
with open(out_path, "w") as out:
    stream_extract(
        layout,
        NMOS(),
        name="case",
        out=out,
        engine=engine,
        band_height=int(band_height),
        checkpoint=checkpoint,
        resume="auto",
    )
"""


def run_child(
    args: "list[str]",
    env_extra: "dict[str, str]",
    command: "tuple[str, ...]" = ("-c", CHILD),
):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{REPO / 'src'}{os.pathsep}{REPO}"
        + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    )
    env.update(env_extra)
    return subprocess.run(
        [sys.executable, *command, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("phase", ["checkpoint", "spill"])
def test_sigkill_then_resume_is_byte_identical(engine, phase, tmp_path):
    case = "nand2"
    layout = GOLDEN_CASES[case]()
    expected = expected_text(layout)
    band_height = max(1, chip_height(layout) // 11)
    # Randomized but reproducible kill point, away from both ends.
    rng = random.Random(hash((engine, phase)) & 0xFFFF)
    kill_after = rng.randint(2, 8)

    ck = tmp_path / "sweep.ck"
    out = tmp_path / "out.wirelist"
    args = [case, engine, str(band_height), str(ck), str(out)]

    killed = run_child(
        args,
        {
            "ACE_STREAM_KILL_AFTER_BANDS": str(kill_after),
            "ACE_STREAM_KILL_PHASE": phase,
        },
    )
    assert killed.returncode == -signal.SIGKILL, (
        f"child should die by SIGKILL, got rc={killed.returncode}\n"
        f"stderr: {killed.stderr}"
    )
    assert out.read_text() == "", "no output may appear before emission"

    # Relaunch clean (kill hooks off); resume="auto" picks up the
    # checkpoint when one was committed, or starts over when the kill
    # landed before the first commit.
    resumed = run_child(args, {})
    assert resumed.returncode == 0, resumed.stderr
    assert out.read_text() == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_sigkill_then_resume_on_mesh_columnar_path(engine, tmp_path):
    """Kill+resume through the columnar host's buffer fast paths.

    The poly/diffusion mesh keeps every diffusion line live across the
    whole sweep, so its strips run entirely on the persistent
    active-interval buffers; a mid-sweep SIGKILL plus resume proves the
    buffer-backed host state survives the checkpoint round trip on the
    workload that stresses it hardest.
    """
    from repro.workloads.mesh import poly_diff_mesh

    layout = poly_diff_mesh(12)
    expected = expected_text(layout)
    band_height = max(1, chip_height(layout) // 9)

    ck = tmp_path / "sweep.ck"
    out = tmp_path / "out.wirelist"
    args = ["mesh:12", engine, str(band_height), str(ck), str(out)]

    killed = run_child(
        args,
        {
            "ACE_STREAM_KILL_AFTER_BANDS": "3",
            "ACE_STREAM_KILL_PHASE": "checkpoint",
        },
    )
    assert killed.returncode == -signal.SIGKILL, (
        f"child should die by SIGKILL, got rc={killed.returncode}\n"
        f"stderr: {killed.stderr}"
    )

    resumed = run_child(args, {})
    assert resumed.returncode == 0, resumed.stderr
    assert out.read_text() == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_repeated_kills_make_progress(engine, tmp_path):
    """A crash-looping supervisor still converges.

    Killing after one committed band per launch forces the maximum
    number of resume cycles; every launch must replay from the latest
    checkpoint and commit at least one more band, so the loop is bounded
    by the band count.
    """
    case = "nand2"
    layout = GOLDEN_CASES[case]()
    expected = expected_text(layout)
    band_height = max(1, chip_height(layout) // 7)

    ck = tmp_path / "sweep.ck"
    out = tmp_path / "out.wirelist"
    args = [case, engine, str(band_height), str(ck), str(out)]

    for attempt in range(30):
        result = run_child(
            args,
            {
                "ACE_STREAM_KILL_AFTER_BANDS": "1",
                "ACE_STREAM_KILL_PHASE": "checkpoint",
            },
        )
        if result.returncode == 0:
            break
        assert result.returncode == -signal.SIGKILL, result.stderr
    else:
        pytest.fail("sweep never finished despite per-launch progress")
    assert out.read_text() == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_replanned_torn_run_leaves_committed_bands_intact(engine, tmp_path):
    """A re-planned run under the same checkpoint spills to its own files.

    A coarse plan commits two bands and is killed.  A fine plan of the
    same layout then starts fresh under the same ``--checkpoint`` and is
    killed between its first band's spill write and its checkpoint, so
    the checkpoint still records the coarse plan.  Resuming it must find
    the coarse plan's spilled bands untouched by the fine plan's.
    """
    from repro.cif import parse, write
    from repro.workloads.mesh import poly_diff_mesh

    cif = tmp_path / "mesh.cif"
    cif.write_text(write(poly_diff_mesh(12)))
    layout = parse(cif.read_text())
    expected = expected_text(layout, name=cif.name)
    height = chip_height(layout)
    ck = tmp_path / "sweep.ck"
    out = tmp_path / "out.wirelist"

    def launch(band_height: int, env_extra: dict, *flags: str):
        return run_child(
            [
                str(cif), "--stream", "--engine", engine,
                "--band-height", str(band_height),
                "--checkpoint", str(ck), "-o", str(out), *flags,
            ],
            env_extra,
            command=("-m", "repro.cli"),
        )

    coarse = launch(max(1, height // 3), {"ACE_STREAM_KILL_AFTER_BANDS": "2"})
    assert coarse.returncode == -signal.SIGKILL, coarse.stderr
    fine = launch(
        max(1, height // 9),
        {
            "ACE_STREAM_KILL_AFTER_BANDS": "1",
            "ACE_STREAM_KILL_PHASE": "spill",
        },
    )
    assert fine.returncode == -signal.SIGKILL, fine.stderr
    resumed = launch(max(1, height // 3), {}, "--resume")
    assert resumed.returncode == 0, resumed.stderr
    assert out.read_text() == expected
