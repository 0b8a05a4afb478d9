"""The benchmark's four workloads.

Serve workloads (``serve-unique``, ``serve-repeat``, ``serve-sim``) start
``python -m repro serve --port 0`` with default flags and drive it open
loop from this one thread, over at most two connections, on a seeded
Poisson schedule.  ``sim-batch`` calls ``simulate_batch`` in this
process: one thread, no daemon, no process pool.

Each workload measures two load points, ``low`` and ``high``, and its
saturated rate.  The end-to-end figures are the saturated rate, CPU per
operation, peak RSS and set-up time.  The latency percentiles (p50, p90,
p99) at both load points and the highest rate that meets the workload's
latency limit (``max_rate_rps``) go into the workload record, not the
gated figures: on a shared 2-core VM whose CPU speed shifts by up to 2x
within a second and drifts over hours, their run-to-run spread is wider
than any bound a regression gate could use, as tails amplify those shifts.
The saturated rate and CPU per operation are gated at the reference
speed (``saturated_rps_at_ref``, ``cpu_ms_per_op_at_ref``): the measured
figure scaled by the host's speed, which the load generator samples with
a fixed unit of work while it waits on the daemon (see
:mod:`perfbench.calibrate`).  Their measured values are in the record
(``saturated_rps``, ``cpu_ms_per_op``).

* serve workloads: ``blocks`` rounds, each of a block at ``low``, a block
  at ``high`` (two fixed absolute rates, near 40% and 60% of the capacity
  measured on a 2-core x86 VM) and ``BURSTS_PER_ROUND`` saturating
  bursts of ``burst`` requests all due at once, which keep both
  connections busy; interleaved so a slow stretch of the host falls on
  all of them.  Each latency figure is a percentile over the answers of
  all of a load point's blocks.  A block during which the generator fell
  behind or the hypervisor stole CPU time is measured again (see
  :func:`run_rung`).  A climb of rungs, each ``climb_factor`` above the
  last, then rises until one misses the workload's p90 limit or the top
  rung is ``CLIMB_REACH`` times ``high``.  ``saturated_rps_at_ref`` is
  the median over the bursts of each burst's answers per second at the
  reference speed; ``cpu_ms_per_op_at_ref`` the daemon's CPU time over
  the bursts, each burst's at the reference speed, per answer.
* ``sim-batch``: ``low`` is a call of 2 instances (the batch size the
  serve batcher sees), always the same two; ``high`` a call of all 16
  (the measured experiments' batch).  Latency is per call and
  ``saturated_rps_at_ref`` is simulations per second at 16, with the
  host's speed probed just before and after each call.  A call during
  which the hypervisor stole CPU time is made again.  It is not among
  ``BENCHMARK.json``'s workloads: identical 16-instance calls took from
  1.25 s to 2.6 s as the host's speed shifted; ``serve-sim`` measures
  the same engine and traffic layers.

On the serve ladders ``max_rate_rps`` is the rate at which the p90
crosses the workload's limit, interpolated linearly between the highest
rung that met the limit (with nothing dropped) and the lowest that did
not; a rung that dropped requests because its backlog grew counts as
twice the limit.  When every rung passes it is the top rung's
throughput; when even ``low`` misses, ``low``'s rate scaled by
limit / p90.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from perfbench import calibrate, client, procs, problems, spans
from perfbench.checks import Checker
from perfbench.procs import BenchError

SETUP_SPAWNS = 5
TAIL_PCT = 90
LRU_ENTRIES = 256
#: A block whose generator was this late (p99, ms) at sending fell
#: behind: it is invalid, kept out of the figures and measured again.
LATE_LIMIT_MS = 10.0
#: A block during which the hypervisor stole more than this share of the
#: machine's CPU time ran on a contended host: it is invalid too.
STEAL_LIMIT = 0.01
#: Seconds (as a share of ``--seconds``) a run may spend re-measuring
#: blocks stolen from; past it, such a block stands (the record counts it).
REMEASURE_BUDGET = 0.2
#: Times a block whose generator fell behind is measured again, budget
#: or not; a block still late after that ends the run without a result.
LATE_RETRIES = 3
#: The climb rises until its top rung is at least this multiple of ``high``.
CLIMB_REACH = 4.0
#: Requests re-solved directly / simulations re-run, per run.
RESOLVE_SAMPLE = 4
RESIM_SAMPLE = 2
#: Saturating bursts after each round's low and high blocks.
BURSTS_PER_ROUND = 4


@dataclass(frozen=True)
class ServeSpec:
    name: str
    low_rps: float
    high_rps: float
    #: limit on the p90 latency, for ``max_rate_rps``
    limit_ms: float
    #: rounds of (low block, high block, saturating bursts)
    blocks: int
    #: share of the run's seconds for each of low and high
    share: float
    #: share of the run's seconds for each climb rung
    climb_share: float
    #: rate ratio between successive climb rungs
    climb_factor: float
    #: requests in each saturating burst (``BURSTS_PER_ROUND`` per round)
    burst: int
    sim: dict | None = None

    @property
    def max_climbs(self) -> int:
        return math.ceil(math.log(CLIMB_REACH) / math.log(self.climb_factor))


SERVE = {
    "serve-unique": ServeSpec("serve-unique", 50.0, 80.0, 150.0, 6, 0.2, 0.05, 1.15, 40),
    "serve-repeat": ServeSpec("serve-repeat", 260.0, 390.0, 50.0, 6, 0.2, 0.05, 1.15, 300),
    "serve-sim": ServeSpec(
        "serve-sim", 6.0, 9.0, 500.0, 6, 0.2, 0.1, 1.5, 6, sim={"warmup": 100, "measure": 500},
    ),
}

SIM_WINDOWS = {"warmup": 400, "measure": 2800}
SIM_BATCH_LOW = 2
#: ``low`` calls per run, all on the first 2-instance slice (C1 under SSS
#: and Global), so every run's p50 is over the same instances.
SIM_LOW_CALLS = 8
#: Seconds of one 16-instance call on a 2-core x86 VM: sets how many
#: ``high`` calls fit in 60% of the run's seconds, so the count is fixed.
HIGH_CALL_S = 2.0


class Run:
    """One benchmark invocation: arguments, owned children, workload record."""

    def __init__(self, args, owner: procs.Owner, root: str, environment: dict) -> None:
        self.args = args
        self.owner = owner
        self.root = root
        self.workdir = owner.workdir
        self.environment = environment
        self.rng = np.random.default_rng(args.seed)
        self.record: dict = {"workload": args.workload, "seed": args.seed}
        self.checker = Checker()
        self.attempted = 0
        self.fail_mid_run = args.fail_mid_run
        self.remeasure_s = REMEASURE_BUDGET * args.seconds
        self.record["stolen_blocks_kept"] = 0
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    # -- daemons -------------------------------------------------------------

    def daemon(self, name: str, trace_out: str | None = None):
        if trace_out is None:
            argv = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            argv = [
                sys.executable, os.path.join(self.root, "perfbench", "traced_serve.py"),
                "serve", "--port", "0", "--trace", "--trace-out", trace_out,
                "--trace-buffer", "262144",
            ]
        daemon, ready_s = procs.spawn_daemon(self.owner, argv, env=self.env, name=name)
        self.check_backend(daemon.port)
        return daemon, ready_s

    def check_backend(self, port: int) -> None:
        """Refuse a daemon whose kernel backend differs from the recorded one."""
        status, body = client.request(port, "GET", "/healthz")
        backend = json.loads(body)["solvers"]["backend"] if status == 200 else None
        self.record["kernel_backend"] = backend
        if backend != self.environment["kernel_backend"]:
            raise BenchError(
                f"daemon kernel backend is {backend!r}, recorded environment has "
                f"{self.environment['kernel_backend']!r}; refusing to compare"
            )


# -- /proc and /metrics --------------------------------------------------------


def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def scrape(port: int) -> dict:
    """``/metrics`` samples: each family summed over labels, plus each labelled sample."""
    status, body = client.request(port, "GET", "/metrics")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    out: dict = defaultdict(float)
    for line in body.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        key, value = line.rsplit(" ", 1)
        out[key.split("{", 1)[0]] += float(value)
        if "{" in key:
            out[key] = float(value)
    return out


def counts(before: dict, after: dict) -> dict:
    """Per-layer counts over the timed phase, from two scrapes."""
    d = {k: after.get(k, 0.0) - before.get(k, 0.0) for k in set(after) | set(before)}
    hits = d.get("serve_cache_hits_total", 0.0) + d.get("serve_cache_coalesced_total", 0.0)
    lookups = hits + d.get("serve_cache_misses_total", 0.0)
    batches = d.get("serve_batch_occupancy_count", 0.0)
    accepted = d.get('sss_swap_windows_total{outcome="accepted"}', 0.0)
    tried = accepted + d.get('sss_swap_windows_total{outcome="rejected"}', 0.0)
    return {
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.evictions": d.get("serve_cache_evictions_total", 0.0),
        "workers.failures": d.get("serve_worker_failures_total", 0.0),
        "admission.shed": d.get("serve_shed_total", 0.0),
        "degrade.not_full": d.get("serve_degraded_total", 0.0),
        "batcher.occupancy": d.get("serve_batch_occupancy_sum", 0.0) / batches if batches else 0.0,
        "sss.swap_accept_ratio": accepted / tried if tried else 0.0,
    }


def host_ticks() -> tuple[int, int]:
    """(stolen, total) CPU ticks of this machine so far, from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        ticks = [int(x) for x in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


def steal_since(ticks0: tuple[int, int]) -> float:
    """Share of the machine's CPU time the hypervisor stole since ``ticks0``."""
    stolen, total = (b - a for a, b in zip(ticks0, host_ticks()))
    return stolen / total if total else 0.0


def pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# -- serve workloads -----------------------------------------------------------


class Requests:
    """The workload's request bodies, all serialized before timing starts."""

    def __init__(self, run: Run, spec: ServeSpec) -> None:
        self.run = run
        self.spec = spec
        self.configs = problems.base_configs()
        rng = run.rng
        self.apps: list = []  # problem id -> apps doc (request labels)
        self.base_of: list = []  # problem id -> canonical problem id
        self.sim_seed = 1_000_000 * (run.args.seed % 1000)
        if spec.name == "serve-repeat":
            base = [self.new_problem() for _ in range(40)]
            for k in range(24):
                self.apps.append(problems.relabel(self.apps[base[k]], rng, f"dup{k}"))
                self.base_of.append(base[k])
            self.pool = list(range(len(self.apps)))
            self.weights = problems.zipf_weights(len(self.pool))
            rng.shuffle(self.pool)
        elif spec.name == "serve-sim":
            self.pool = [self.new_problem() for _ in range(16)]
        self.wires: dict = {}
        self.cursor = 0

    def new_problem(self) -> int:
        pid = len(self.apps)
        self.apps.append(problems.scaled_problem(self.configs, self.run.rng, pid))
        self.base_of.append(pid)
        return pid

    def body(self, pid: int, seed: int | None = None) -> tuple:
        sim = None if seed is None else dict(self.spec.sim, seed=seed)
        key = (pid, seed)
        if key not in self.wires:
            self.wires[key] = problems.wire(problems.map_body(self.apps[pid], sim))
        return key

    def warm_keys(self) -> list:
        if self.spec.name == "serve-repeat":
            return [self.body(p) for p in range(len(self.apps))]
        if self.spec.name == "serve-sim":
            keys = [self.body(p) for p in self.pool]
            return keys + [self.body(self.pool[k], self.next_seed()) for k in range(4)]
        return [self.body(self.new_problem()) for _ in range(16)]

    def next_seed(self) -> int:
        self.sim_seed += 1
        return self.sim_seed

    def draw(self, n: int) -> list:
        rng = self.run.rng
        if self.spec.name == "serve-unique":
            return [self.body(self.new_problem()) for _ in range(n)]
        if self.spec.name == "serve-repeat":
            picks = rng.choice(len(self.pool), size=n, p=self.weights)
            return [self.body(self.pool[int(i)]) for i in picks]
        # serve-sim cycles through its pool, so every stretch of requests
        # simulates the same mix of configurations.
        self.cursor += n
        picks = range(self.cursor - n, self.cursor)
        return [self.body(self.pool[i % len(self.pool)], self.next_seed()) for i in picks]


@dataclass
class Rung:
    label: str
    rate: float
    keys: list
    stream: client.Stream
    cpu_s: float
    steal: float
    #: the host's speed while the block ran, relative to the reference
    #: (see :mod:`perfbench.calibrate`); None where it was not sampled
    speed: float | None = None
    #: False for a block measured again (see :func:`run_rung`)
    valid: bool = True

    def latencies_ms(self) -> list:
        s = self.stream
        return [(s.done[i] - s.due[i]) * 1e3 for i in s.completed]

    def summary(self) -> dict:
        s = self.stream
        lat = self.latencies_ms()
        late = [(s.noticed[i] - s.due[i]) * 1e3 for i in s.completed]
        ok = sum(1 for i in s.completed if s.status[i] == 200)
        return {
            "label": self.label,
            "rate_rps": self.rate,
            "sent": len(s.completed),
            "dropped": s.dropped,
            "non_200": len(s.completed) - ok,
            "p50_ms": pct(lat, 50) if lat else None,
            "p90_ms": pct(lat, TAIL_PCT) if lat else None,
            "late_p99_ms": pct(late, 99) if late else None,
            "throughput_rps": len(s.completed) / s.elapsed if s.elapsed else 0.0,
            "steal": self.steal,
            "speed": self.speed,
        }


def load_point(blocks: list) -> dict:
    """One load point: percentiles over the answers of all its blocks."""
    per_block = [b.summary() for b in blocks]
    pooled = [x for b in blocks for x in b.latencies_ms()]
    return {
        "label": per_block[0]["label"],
        "rate_rps": per_block[0]["rate_rps"],
        "blocks": len(per_block),
        "sent": sum(b["sent"] for b in per_block),
        "dropped": sum(b["dropped"] for b in per_block),
        "non_200": sum(b["non_200"] for b in per_block),
        "p50_ms": pct(pooled, 50),
        "p90_ms": pct(pooled, TAIL_PCT),
        "block_p50_ms": [b["p50_ms"] for b in per_block],
        "block_p90_ms": [b["p90_ms"] for b in per_block],
        "block_late_p99_ms": [b["late_p99_ms"] for b in per_block],
        "block_steal": [b["steal"] for b in per_block],
        "pooled_p99_ms": pct(pooled, 99),
        "late_p99_ms": max(b["late_p99_ms"] for b in per_block),
        "throughput_rps": statistics.median(b["throughput_rps"] for b in per_block),
    }


def run_rung(run: Run, reqs: Requests, daemon, label: str, rate: float, seconds: float) -> Rung:
    """One open-loop block, measured again while it is invalid.

    A block is invalid when the generator fell behind (p99 lateness over
    ``LATE_LIMIT_MS``) or the hypervisor stole more than ``STEAL_LIMIT``
    of the machine's CPU time while it ran.  An invalid block is kept out
    of the figures (its answers are still checked) and measured again: a
    late one up to ``LATE_RETRIES`` times, after which the run ends
    without a result, as its figures would not be load at ``rate``; a
    stolen-from one while the run's re-measure budget lasts, after which
    it stands and the record counts it.
    """
    late_tries = 0
    while True:
        due = problems.poisson_schedule(run.rng, rate, seconds)
        keys = reqs.draw(len(due))
        payloads = [reqs.wires[k] for k in keys]
        # Up to a second of arrivals may wait: a stall outside the
        # benchmark queues that much without the rung being overloaded.
        backlog = max(16, int(rate))
        ticks0 = host_ticks()
        cpu0 = proc_cpu_s(daemon.pid)
        stream = client.open_loop(daemon.port, due, payloads, max_backlog=backlog)
        rung = Rung(label, rate, keys, stream, proc_cpu_s(daemon.pid) - cpu0, steal_since(ticks0))
        run.responses.append(rung)
        summary = rung.summary()
        late = summary["late_p99_ms"] is not None and summary["late_p99_ms"] > LATE_LIMIT_MS
        if late and late_tries == LATE_RETRIES:
            raise BenchError(
                f"generator fell behind at {label} ({rate:g} rps) in {late_tries + 1} "
                f"attempts: p99 lateness {summary['late_p99_ms']:.1f} ms"
            )
        if not late and rung.steal > STEAL_LIMIT and run.remeasure_s < seconds:
            run.record["stolen_blocks_kept"] += 1
        elif late or rung.steal > STEAL_LIMIT:
            late_tries += late
            rung.valid = False
            summary["invalid"] = "late" if late else "steal"
            run.record.setdefault("invalid_blocks", []).append(summary)
            run.remeasure_s -= seconds
            continue
        return rung


def saturate(run: Run, reqs: Requests, daemon, n: int, count: int) -> list:
    """``count`` bursts of ``n`` requests, each burst's requests all due at
    once, so both connections stay busy throughout.

    The generator samples the host's speed while it waits on the daemon
    (see :mod:`perfbench.calibrate`), so each burst carries the speed of
    the host it ran on.
    """
    out = []
    for _ in range(count):
        keys = reqs.draw(n)
        ticks0 = host_ticks()
        cpu0 = proc_cpu_s(daemon.pid)
        stream = client.open_loop(
            daemon.port, [0.0] * n, [reqs.wires[k] for k in keys],
            sampler=calibrate.sampler(), sample_every=calibrate.SAMPLE_EVERY_S,
        )
        rung = Rung("saturated", 0.0, keys, stream, proc_cpu_s(daemon.pid) - cpu0, steal_since(ticks0))
        rung.speed = calibrate.speed(stream.samples)
        out.append(rung)
    run.responses += out
    return out


def passes(summary: dict, limit_ms: float) -> bool:
    return (
        summary["dropped"] == 0
        and summary["non_200"] == 0
        and summary["p90_ms"] is not None
        and summary["p90_ms"] <= limit_ms
    )


def bracket(summaries: list, limit_ms: float) -> tuple:
    """(highest-rate summary that passes below the lowest-rate one that
    fails, that failing summary); either may be None."""
    best = worse = None
    for summary in sorted(summaries, key=lambda x: x["rate_rps"]):
        if not passes(summary, limit_ms):
            worse = summary
            break
        best = summary
    return best, worse


def max_rate(best: dict | None, worse: dict | None, limit_ms: float) -> float:
    """Rate where the p90 crosses ``limit_ms`` (see the module docstring)."""
    if worse is None:
        return best["throughput_rps"]
    tail = worse["p90_ms"] or 0.0
    if worse["dropped"] or worse["non_200"]:
        tail = max(tail, 2 * limit_ms)
    if best is None:
        return worse["rate_rps"] * limit_ms / tail
    frac = (limit_ms - best["p90_ms"]) / (tail - best["p90_ms"])
    return best["rate_rps"] + (worse["rate_rps"] - best["rate_rps"]) * min(1.0, max(0.0, frac))


def warm(run: Run, reqs: Requests, daemon) -> None:
    for key in reqs.warm_keys():
        wire = reqs.wires[key]
        body = wire[wire.index(b"\r\n\r\n") + 4:]
        status, resp = client.request(daemon.port, "POST", "/map", body)
        run.warm_responses.append((key, status, resp))


def check_serve(run: Run, reqs: Requests) -> None:
    """Every output check over every response of the run."""
    chk = run.checker
    spec = reqs.spec
    seen: dict = {}
    fillers = []
    sims = []
    answered = [(k, st, b) for k, st, b in run.warm_responses]
    for rung in run.responses:
        s = rung.stream
        answered += [(rung.keys[i], s.status[i], s.body[i]) for i in s.completed]
    for key, status, body in answered:
        pid, seed = key
        apps = reqs.apps[pid]
        doc = chk.response(status, body, apps)
        if doc is None:
            continue
        if seed is not None:
            sims.append((doc, apps, dict(spec.sim, seed=seed)))
        result = json.dumps(doc["result"]["evaluation"], sort_keys=True) + json.dumps(doc["result"]["perm"])
        if pid in seen:
            if seen[pid] != result:
                chk.fail("duplicate_differs")
            continue
        seen[pid] = result
        chk.reevaluate(doc, apps)
        if doc["meta"]["cache"] == "miss":
            fillers.append((doc, apps))
    rng = np.random.default_rng(run.args.seed + 1)
    for i in rng.permutation(len(fillers))[:RESOLVE_SAMPLE]:
        chk.resolve(*fillers[int(i)])
    for i in rng.permutation(len(sims))[:RESIM_SAMPLE]:
        chk.resimulate(*sims[int(i)])
    run.attempted += len(answered) - len(run.warm_responses)
    run.record["checked"] = {
        "responses": len(answered),
        "distinct_bodies": len(seen),
        "resolved": min(RESOLVE_SAMPLE, len(fillers)),
        "resimulated": min(RESIM_SAMPLE, len(sims)),
        "failures": dict(chk.failures),
    }


def serve_untraced(run: Run, spec: ServeSpec) -> dict:
    reqs = Requests(run, spec)
    seconds = run.args.seconds
    setups = []
    for k in range(SETUP_SPAWNS):
        daemon, ready_s = run.daemon(f"{spec.name}-{k}")
        setups.append(ready_s)
        if k < SETUP_SPAWNS - 1:
            run.owner.stop(daemon)
    warm(run, reqs, daemon)
    if run.fail_mid_run:
        raise BenchError("failure injected mid-run (--fail-mid-run)")
    before = scrape(daemon.port)
    # Rounds of a low block, a high block and saturating bursts, so the
    # gated figures sample the host across the whole run; then the climb
    # rises until its first failing rung.
    block_s = spec.share * seconds / spec.blocks
    blocks = {"low": [], "high": []}
    bursts = []
    for _ in range(spec.blocks):
        for label, rate in (("low", spec.low_rps), ("high", spec.high_rps)):
            blocks[label].append(run_rung(run, reqs, daemon, label, rate, block_s))
        bursts += saturate(run, reqs, daemon, spec.burst, BURSTS_PER_ROUND)
    summaries = [load_point(blocks["low"]), load_point(blocks["high"])]
    climb_s = spec.climb_share * seconds
    best, worse = bracket(summaries, spec.limit_ms)
    rate = spec.high_rps
    for k in range(spec.max_climbs):
        if worse is not None:
            break
        rate *= spec.climb_factor
        summaries.append(run_rung(run, reqs, daemon, f"climb{k + 1}", rate, climb_s).summary())
        best, worse = bracket(summaries, spec.limit_ms)
    after = scrape(daemon.port)
    hwm = proc_hwm_mb(daemon.pid)
    run.owner.stop(daemon)
    lay = counts(before, after)
    n_bursts = sum(len(b.stream.completed) for b in bursts)
    run.record.update({
        "rungs": summaries,
        "setup_samples_s": setups,
        "cache_hit_share": lay["cache.hit_ratio"],
        "distinct_problems": len({reqs.base_of[k[0]] for r in run.responses for k in r.keys}),
        "lru_entries": LRU_ENTRIES,
        "mean_batch_occupancy": lay["batcher.occupancy"],
        "generator_late_p99_ms": max(s["late_p99_ms"] for s in summaries),
        "generator_late_limit_ms": LATE_LIMIT_MS,
        "counts": lay,
        "max_rate_rps": max_rate(best, worse, spec.limit_ms),
        "max_rate_between": [best and best["label"], worse and worse["label"]],
        # [answers/s, host speed] of each burst
        "saturated_bursts": [[b.summary()["throughput_rps"], b.speed] for b in bursts],
        "saturated_rps": statistics.median(b.summary()["throughput_rps"] for b in bursts),
        "cpu_ms_per_op": 1e3 * sum(b.cpu_s for b in bursts) / n_bursts,
    })
    check_serve(run, reqs)
    return {
        "setup_s": statistics.median(setups),
        "saturated_rps_at_ref": statistics.median(
            b.summary()["throughput_rps"] / b.speed for b in bursts
        ),
        "cpu_ms_per_op_at_ref": 1e3 * sum(b.cpu_s * b.speed for b in bursts) / n_bursts,
        "rss_mb": hwm,
    }


def serve_traced(run: Run, spec: ServeSpec) -> dict:
    """The low rung on an untraced daemon, then on a traced one.

    Both phases draw from a fresh generator at the run's seed, so they
    send the same problems on the same schedule.  Counts come from the
    untraced daemon's ``/metrics``; timings from the traced daemon's
    span trace (and, for SSS swap windows, its ``/metrics``).
    """
    seconds = run.args.seconds * spec.share
    phase = {}
    for traced in (False, True):
        run.rng = np.random.default_rng(run.args.seed)
        run.responses, run.warm_responses = [], []
        reqs = Requests(run, spec)
        trace_out = os.path.join(run.workdir, f"{spec.name}.trace.jsonl") if traced else None
        daemon, _ = run.daemon(f"{spec.name}-{'traced' if traced else 'untraced'}", trace_out)
        warm(run, reqs, daemon)
        before = scrape(daemon.port)
        rung = run_rung(run, reqs, daemon, "low", spec.low_rps, seconds)
        after = scrape(daemon.port)
        run.owner.stop(daemon)  # the trace is written as the daemon exits
        check_serve(run, reqs)
        s = rung.stream
        phase[traced] = {
            "p50_ms": rung.summary()["p50_ms"],
            "client_ms": float(np.mean([(s.done[i] - s.sent[i]) * 1e3 for i in s.completed])),
            "counts": counts(before, after),
            "warm": len(run.warm_responses),
            "trace_out": trace_out,
        }
    traced, untraced = phase[True], phase[False]
    events = spans.read_trace(traced["trace_out"])
    timed = {ev["trace_id"] for ev in events if ev["trace_id"] >= traced["warm"]}
    layers = spans.layer_report(events, timed)
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(untraced["counts"])
    metrics["sss.swap_accept_ratio"] = traced["counts"]["sss.swap_accept_ratio"]
    metrics.update({k: v for k, v in layers.items() if k in PER_LAYER})
    metrics["app.http_ms"] = traced["client_ms"] - layers["app.server_ms"]
    metrics["obs.trace_overhead"] = traced["p50_ms"] / untraced["p50_ms"]
    coverage = layers["obs.trace_coverage"]
    if coverage < spans.COVERAGE_TARGET:
        print(f"perfbench: stage spans cover {coverage:.3f} of server time, "
              f"below the {spans.COVERAGE_TARGET} target", file=sys.stderr)
    run.record.update({
        "traced_requests": layers["requests"],
        "trace_coverage": coverage,
        "trace_coverage_met": coverage >= spans.COVERAGE_TARGET,
        "tracer_share": layers["tracer_share"],
        "trace_overhead": metrics["obs.trace_overhead"],
        "self_ms_per_request": layers["self_ms"],
        "counts": untraced["counts"],
    })
    return metrics


def run_serve(run: Run) -> dict:
    spec = SERVE[run.args.workload]
    run.responses = []
    run.warm_responses = []
    if run.args.trace:
        return serve_traced(run, spec)
    return serve_untraced(run, spec)


# -- sim-batch -------------------------------------------------------------------


def sim_pairs(run: Run):
    """16 mapped instances: C1-C8 (seeded rate scaling) x SSS and Global."""
    from repro.core.baselines import global_mapping
    from repro.core.sss import sort_select_swap

    configs = problems.base_configs()
    pairs = []
    for pid in range(len(configs)):
        inst = run.checker.instance(problems.scaled_problem(configs, run.rng, pid))
        pairs.append((inst, sort_select_swap(inst).mapping))
        pairs.append((inst, global_mapping(inst).mapping))
    seeds = [int(s) for s in run.rng.integers(0, 2**31, size=len(pairs))]
    return pairs, seeds


def sim_setup(run: Run):
    """Everything before the first timed call (also the setup probe's work)."""
    from repro.noc.vector_engine import simulate_batch

    pairs, seeds = sim_pairs(run)
    simulate_batch(pairs[:2], seeds=seeds[:2], warmup=10, measure=50)
    return pairs, seeds


def timed_call(pairs, seeds) -> tuple:
    from repro.noc.vector_engine import simulate_batch

    w0, c0 = time.perf_counter(), time.process_time()
    results = simulate_batch(pairs, seeds=seeds, **SIM_WINDOWS)
    return time.perf_counter() - w0, time.process_time() - c0, results


def steady_call(run: Run, pairs, seeds) -> tuple:
    """A timed call, made again while the hypervisor stole CPU time during it.

    The same rule as a serve block's (:func:`run_rung`), on the same budget.
    Returns ``(wall_s, cpu_s, results, speed)``, ``speed`` being the host's
    speed around the call relative to the reference (see :class:`Rung`).
    """
    while True:
        before = calibrate.probe_ms()
        ticks0 = host_ticks()
        call = timed_call(pairs, seeds)
        steal = steal_since(ticks0)
        call += (calibrate.speed(before + calibrate.probe_ms()),)
        if steal <= STEAL_LIMIT:
            return call
        if run.remeasure_s < call[0]:
            run.record["stolen_blocks_kept"] += 1
            return call
        run.record["invalid_calls"] = run.record.get("invalid_calls", 0) + 1
        run.remeasure_s -= call[0]


def setup_probe_s(run: Run, k: int) -> float:
    """Seconds from spawning a fresh process to its first timed call."""
    argv = [
        sys.executable, os.path.join(run.root, "perfbench", "run.py"),
        "--workload", "sim-batch", "--seed", str(run.args.seed), "--setup-probe",
    ]
    child = run.owner.spawn(argv, env=run.env, name=f"sim-setup-{k}")
    try:
        code = child.proc.wait(120)
    except subprocess.TimeoutExpired:
        raise BenchError("setup probe did not finish in 120 s") from None
    elapsed = time.perf_counter() - child.t_spawn
    run.owner.stop(child)
    if code != 0:
        raise BenchError(f"setup probe exited {code} (see sim-setup-{k}.log)")
    return elapsed


def resimulate_member(run: Run, pair, seed, result) -> None:
    """One batch member re-run alone must equal its batched result exactly."""
    from repro.service.app import measured_payload

    _, _, [alone] = timed_call([pair], [seed])
    same = (
        json.dumps(measured_payload(alone), sort_keys=True)
        == json.dumps(measured_payload(result), sort_keys=True)
        and alone.counts == result.counts
    )
    if not same:
        run.checker.fail("resimulate_mismatch")


def run_sim_batch(run: Run) -> dict:
    if run.args.trace:
        return sim_batch_traced(run)
    seconds = run.args.seconds
    setups = [setup_probe_s(run, k) for k in range(SETUP_SPAWNS)]
    pairs, seeds = sim_setup(run)
    high = [steady_call(run, pairs, seeds) for _ in range(max(2, round(0.6 * seconds / HIGH_CALL_S)))]
    low_pairs, low_seeds = pairs[:SIM_BATCH_LOW], seeds[:SIM_BATCH_LOW]
    low = [steady_call(run, low_pairs, low_seeds) for _ in range(SIM_LOW_CALLS)]
    rng = np.random.default_rng(run.args.seed + 1)
    for b in rng.permutation(len(pairs))[:RESIM_SAMPLE]:
        b = int(b)
        resimulate_member(run, pairs[b], seeds[b], high[0][2][b])
    resimulate_member(run, pairs[1], seeds[1], low[0][2][1])
    for _, _, results, _ in high + low:
        for r in results:
            if r.packets_delivered <= 0:
                run.checker.fail("empty_simulation")
    sims = len(high) * len(pairs) + len(low) * SIM_BATCH_LOW
    run.attempted += sims
    high_ms = [1e3 * c[0] for c in high]
    low_ms = [1e3 * c[0] for c in low]
    run.record.update({
        "setup_samples_s": setups,
        "calls": {"high": len(high), "low": len(low)},
        "call_ms": {"high": high_ms, "low": low_ms},
        "p50_ms": {"high": pct(high_ms, 50), "low": pct(low_ms, 50)},
        "p90_ms": {"high": pct(high_ms, TAIL_PCT), "low": pct(low_ms, TAIL_PCT)},
        "batch_sizes": {"high": len(pairs), "low": SIM_BATCH_LOW},
        "windows": SIM_WINDOWS,
        "checked": {"resimulated": RESIM_SAMPLE + 1, "failures": dict(run.checker.failures)},
    })
    return {
        "setup_s": statistics.median(setups),
        "saturated_rps_at_ref": statistics.median(len(pairs) / (c[0] * c[3]) for c in high),
        "cpu_ms_per_op_at_ref": 1e3 * sum(c[1] * c[3] for c in high + low) / sims,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def sim_batch_traced(run: Run) -> dict:
    """Two untraced 16-instance calls, then two traced ones."""
    from repro.obs.reqtrace import SpanTracer

    pairs, seeds = sim_setup(run)
    untraced = [timed_call(pairs, seeds)[0] for _ in range(2)]
    spans.install()
    tracer = SpanTracer(buffer=65_536)
    traced = []
    for _ in range(2):
        with tracer.trace("sim.batch"):
            wall, _, results = timed_call(pairs, seeds)
        traced.append(wall)
    b = int(np.random.default_rng(run.args.seed + 1).integers(len(pairs)))
    resimulate_member(run, pairs[b], seeds[b], results[b])
    run.attempted += 4 * len(pairs)
    layers = spans.layer_report(list(tracer.events()))
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update({k: v for k, v in layers.items() if k in PER_LAYER})
    metrics["obs.trace_overhead"] = statistics.median(traced) / statistics.median(untraced)
    run.record.update({
        "trace_coverage": layers["obs.trace_coverage"],
        "trace_overhead": metrics["obs.trace_overhead"],
        "self_ms_per_call": layers["self_ms"],
    })
    return metrics


#: name -> unit of every end-to-end metric (printed with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "saturated_rps_at_ref": "1/s",
    "cpu_ms_per_op_at_ref": "ms",
    "rss_mb": "MB",
}

#: name -> unit of every per-layer metric (printed with ``--trace 1``).
PER_LAYER = {
    "app.server_ms": "ms",
    "app.http_ms": "ms",
    "canonical.ms": "ms",
    "cache.key_ms": "ms",
    "nearest.put_ms": "ms",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "workers.queue_ms": "ms",
    "workers.busy_ms": "ms",
    "workers.failures": "count",
    "batcher.wait_ms": "ms",
    "batcher.occupancy": "count",
    "admission.wait_ms": "ms",
    "admission.shed": "count",
    "degrade.not_full": "count",
    "sss.ms": "ms",
    "sss.sort_ms": "ms",
    "sss.select_ms": "ms",
    "sss.swap_ms": "ms",
    "sss.polish_ms": "ms",
    "sss.swap_accept_ratio": "ratio",
    "bounds.ms": "ms",
    "hungarian.calls_per_solve": "count",
    "hungarian.ms_per_solve": "ms",
    "traffic.build_ms": "ms",
    "vector.build_ms": "ms",
    "vector.step_us_per_sim_cycle": "us",
    "vector.batch_size": "count",
    "vector.sim_cycles_per_s": "1/s",
    "obs.trace_overhead": "ratio",
    "obs.trace_coverage": "ratio",
}

WORKLOADS = {name: run_serve for name in SERVE} | {"sim-batch": run_sim_batch}
