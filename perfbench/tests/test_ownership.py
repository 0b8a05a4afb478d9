"""The benchmark leaves no process behind, and refuses to run without the program.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
Each case runs the smallest configuration (``serve-repeat``, 1 second)
to completion, into an injected failure, into SIGINT or into SIGKILL
(and ``sim-batch``, whose set-up probes are processes too, to
completion), and reads the pids of every child the run started from
``.bench_build/perfbench/children.pids``.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
PID_LOG = os.path.join(ROOT, ".bench_build", "perfbench", "children.pids")
sys.path.insert(0, ROOT)
from perfbench.workloads import SETUP_SPAWNS  # noqa: E402

SMALLEST = [
    sys.executable, "perfbench/run.py", "--workload", "serve-repeat",
    "--seed", "0", "--seconds", "1", "--trace", "0",
]


def started_pids() -> list[int]:
    with open(PID_LOG) as fh:
        return [int(line) for line in fh if line.strip()]


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def assert_none_survive() -> None:
    pids = started_pids()
    assert pids, "the run started no child process"
    survivors = [pid for pid in pids if alive(pid)]
    assert not survivors, f"child processes still running: {survivors}"


def test_completed_run_stops_every_child():
    proc = subprocess.run(SMALLEST, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert len(started_pids()) == SETUP_SPAWNS  # the set-up spawns, the last one measured
    assert_none_survive()


def test_sim_batch_set_up_probes_are_all_recorded():
    # Each set-up probe is a fresh run.py; it must add to the parent's
    # record of children, not start a new one.
    argv = SMALLEST[:3] + ["sim-batch"] + SMALLEST[4:]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert len(started_pids()) == SETUP_SPAWNS  # one per set-up probe
    assert_none_survive()


def test_failure_mid_run_stops_every_child():
    proc = subprocess.run(
        SMALLEST + ["--fail-mid-run"], cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 1
    assert "failure injected" in proc.stderr
    assert '"correct"' not in proc.stdout
    assert_none_survive()


def test_sigint_mid_run_stops_every_child():
    proc = subprocess.Popen(
        SMALLEST[:-4] + ["--seconds", "60", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        # Wait for the measured daemon (the last set-up spawn) to be up.
        limit = time.monotonic() + 120
        while time.monotonic() < limit:
            if os.path.exists(PID_LOG) and len(started_pids()) == SETUP_SPAWNS and alive(started_pids()[-1]):
                break
            assert proc.poll() is None, proc.communicate()
            time.sleep(0.05)
        time.sleep(2.0)  # into the timed rungs
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert "Interrupted" in err
    assert '"correct"' not in out
    assert_none_survive()


def test_sigkill_mid_run_takes_every_child_down():
    proc = subprocess.Popen(
        SMALLEST[:-4] + ["--seconds", "60", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        limit = time.monotonic() + 120
        while not (os.path.exists(PID_LOG) and len(started_pids()) == SETUP_SPAWNS and alive(started_pids()[-1])):
            assert proc.poll() is None and time.monotonic() < limit
            time.sleep(0.05)
        time.sleep(2.0)  # past the daemon's start-up, into the timed rungs
        proc.kill()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # The kernel delivers the children's parent-death signal on exit.
    limit = time.monotonic() + 10
    while any(alive(pid) for pid in started_pids()) and time.monotonic() < limit:
        time.sleep(0.05)
    assert_none_survive()


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(SMALLEST, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_every_printed_metric():
    from perfbench import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
