"""The repository's benchmark: served ``/map`` latency and NoC simulation throughput.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-unique --seed 1 --seconds 20 --trace 0

Workloads: ``serve-unique``, ``serve-repeat``, ``serve-sim``, ``sim-batch``
(see :mod:`perfbench.workloads`).  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run.
The line before it (``# record ...``) is the workload record: rates,
sample counts, cache-hit share, distinct problems, batch occupancy,
generator lateness, environment and check counts.

Exit codes: 0 on a correct run; 1 when an output check failed (the
result is still printed, with ``correct: false``) or the run could not
be measured validly, e.g. its load generator fell behind (no result is
printed); 2 when the program is not there to measure.
Every process the run starts is stopped before it exits, also on
errors and on SIGINT/SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the sim-batch set-up probe (a fresh process timed by its parent).
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # For the ownership check: fail after the first daemon is serving.
    p.add_argument("--fail-mid-run", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def environment_record(backend: str) -> dict:
    import numpy

    return {
        "kernel_backend": backend,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure under {ROOT}/src", file=sys.stderr)
        return 2
    # Run as a script: the repository root replaces this directory on the
    # path, so no benchmark module can shadow a standard-library one.
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))
    workdir = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(workdir, exist_ok=True)
    # The compiled solver kernels are cached inside the checkout.
    os.environ["REPRO_CC_CACHE"] = os.path.join(workdir, "cc")

    from perfbench import procs, workloads
    from repro.core import permkernels

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    # Builds the kernel .so on a fresh checkout, before anything is timed.
    backend = permkernels.warmup()["backend"]
    with open(os.path.join(HERE, "environment.json")) as fh:
        recorded = json.load(fh)
    if backend != recorded["kernel_backend"]:
        print(f"perfbench: kernel backend is {backend!r}, recorded environment has "
              f"{recorded['kernel_backend']!r}; refusing to run", file=sys.stderr)
        return 1

    # A set-up probe is a child of a sim-batch run: it starts nothing and
    # must keep the parent's record of the children it started.
    owner = procs.Owner(workdir, fresh=not args.setup_probe)
    procs.install_signal_handlers()
    run = None
    ticks0 = workloads.host_ticks()
    try:
        run = workloads.Run(args, owner, ROOT, recorded)
        if args.setup_probe:
            workloads.sim_setup(run)
            return 0
        metrics = workloads.WORKLOADS[args.workload](run)
    except (procs.BenchError, procs.Interrupted) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        owner.close()
    run.record["environment"] = environment_record(backend)
    # Time the hypervisor ran something else while this machine wanted
    # to run: the share of interference from outside, for the record.
    run.record["environment"]["steal_share"] = workloads.steal_since(ticks0)
    failed = run.checker.failed
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    print("# record " + json.dumps(run.record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
