"""Seeded mapping problems and request bodies.

Every problem is an 8x8, four-application PARSEC configuration (C1-C8)
whose per-application rates are scaled by a seeded factor, so two seeds
give two distinct problem sets and one seed always gives the same one.
A *relabelled duplicate* poses the same problem with the applications
reordered and renamed and the threads inside each application permuted;
the daemon's canonicalization must serve it from the cache.
"""

from __future__ import annotations

import json

import numpy as np

from perfbench import client

MESH = 8
THREADS_PER_APP = MESH * MESH // 4


def base_configs() -> list:
    """The eight PARSEC workloads as ``[(name, [(cache, mem), ...]), ...]``."""
    from repro.workloads.parsec import CONFIG_NAMES, parsec_config

    out = []
    for name in CONFIG_NAMES:
        wl = parsec_config(name, threads_per_app=THREADS_PER_APP)
        out.append((name, [(a.cache_rates.copy(), a.mem_rates.copy()) for a in wl.applications]))
    return out


def scaled_problem(configs, rng, index: int) -> list[dict]:
    """Problem ``index``: config ``index % 8`` with seeded per-app scaling."""
    name, apps = configs[index % len(configs)]
    doc = []
    for k, (cache, mem) in enumerate(apps):
        scale = float(rng.uniform(0.95, 1.05))
        doc.append({
            "name": f"{name.lower()}-{index}-{k}",
            "cache_rates": (cache * scale).tolist(),
            "mem_rates": (mem * scale).tolist(),
        })
    return doc


def relabel(apps: list[dict], rng, tag: str) -> list[dict]:
    """The same problem, apps reordered and renamed, threads permuted."""
    out = []
    for k, app_index in enumerate(rng.permutation(len(apps))):
        app = apps[int(app_index)]
        order = rng.permutation(len(app["cache_rates"]))
        out.append({
            "name": f"{tag}-{k}",
            "cache_rates": [app["cache_rates"][int(t)] for t in order],
            "mem_rates": [app["mem_rates"][int(t)] for t in order],
        })
    return out


def map_body(apps: list[dict], sim: dict | None = None) -> dict:
    body = {"mesh": MESH, "algorithm": "sss", "bounds": True, "apps": apps}
    if sim is not None:
        body["simulate"] = True
        body["sim"] = sim
    return body


def wire(body: dict) -> bytes:
    """The complete HTTP request for one ``/map`` body."""
    return client.encode("POST", "/map", json.dumps(body).encode())


def poisson_schedule(rng, rate: float, seconds: float) -> list[float]:
    """Poisson arrivals at ``rate`` per second over ``seconds``, count fixed.

    A Poisson process conditioned on its count is that many uniform
    arrival times, sorted: the gaps stay exponential-like, while the
    offered rate is exactly ``rate`` in every run.
    """
    n = max(1, round(rate * seconds))
    return np.sort(rng.uniform(0.0, seconds, size=n)).tolist()


def zipf_weights(n: int, s: float = 1.1) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** s
    return w / w.sum()
