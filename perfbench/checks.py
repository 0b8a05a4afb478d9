"""Output checks: every served answer is verified against the program itself.

* every response: status 200, not degraded, a valid permutation, and
  ``bounds.value <= max_apl``;
* the served permutation, re-evaluated on the request's own instance,
  reproduces the served APLs (this covers relabelled duplicates, whose
  answer was translated from another request's labels);
* a seeded sample of the requests that filled the cache is re-solved
  directly with ``sort_select_swap`` + ``max_apl_lower_bound`` and must
  match bit for bit;
* a seeded sample of simulations is re-run with ``simulate_batch`` at
  the same seed and must match exactly.
"""

from __future__ import annotations

import json
import math

from perfbench import problems

#: Re-evaluation sums per-thread latencies in the requester's thread
#: order, which can differ from the filler's in the last bits.
APL_REL_TOL = 1e-9


class Checker:
    """Builds instances the way the daemon does and counts failures."""

    def __init__(self) -> None:
        from repro.core.latency import LatencyParams, Mesh, MeshLatencyModel
        from repro.service.canonical import canonicalize

        params = canonicalize(problems.map_body([{"cache_rates": [1.0], "mem_rates": [1.0]}])).problem.params
        self.model = MeshLatencyModel(Mesh(problems.MESH, problems.MESH), LatencyParams(*params))
        self.failures: dict[str, int] = {}

    def fail(self, kind: str) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def instance(self, apps):
        from repro.core.problem import OBMInstance
        from repro.core.workload import Application, Workload

        return OBMInstance(
            self.model,
            Workload(
                tuple(
                    Application(f"app{i}", a["cache_rates"], a["mem_rates"])
                    for i, a in enumerate(apps)
                ),
                name="request",
            ),
        )

    def response(self, status, body: bytes, apps) -> dict | None:
        """Check one ``/map`` answer; returns the parsed document or None."""
        if status != 200:
            self.fail(f"status_{status}")
            return None
        try:
            doc = json.loads(body)
            result, meta = doc["result"], doc["meta"]
        except (ValueError, KeyError, TypeError):
            self.fail("malformed")
            return None
        if meta.get("degraded") or result.get("degraded"):
            self.fail("degraded")
            return None
        perm = result.get("perm")
        n = sum(len(a["cache_rates"]) for a in apps)
        if not isinstance(perm, list) or sorted(perm) != list(range(n)):
            self.fail("bad_perm")
            return None
        bounds = result.get("bounds")
        if not bounds or not bounds["value"] <= result["evaluation"]["max_apl"]:
            self.fail("bound_above_max_apl")
            return None
        return doc

    def reevaluate(self, doc: dict, apps) -> None:
        """The served perm on the request's own instance gives the served APLs."""
        from repro.core.problem import Mapping

        ev = self.instance(apps).evaluate(Mapping(doc["result"]["perm"]))
        served = doc["result"]["evaluation"]
        ok = all(
            math.isclose(float(a), float(b), rel_tol=APL_REL_TOL, abs_tol=0.0)
            for a, b in zip(ev.apls, served["apls"])
        ) and math.isclose(ev.max_apl, served["max_apl"], rel_tol=APL_REL_TOL, abs_tol=0.0)
        if not ok:
            self.fail("apl_mismatch")

    def resolve(self, doc: dict, apps) -> None:
        """Bit-for-bit equality with a direct solve (cache fillers only)."""
        from repro.core.bounds import max_apl_lower_bound
        from repro.core.sss import sort_select_swap

        inst = self.instance(apps)
        direct = sort_select_swap(inst)
        lb = max_apl_lower_bound(inst)
        served = doc["result"]
        expect = {
            "perm": [int(t) for t in direct.mapping.perm],
            "max_apl": direct.evaluation.max_apl,
            "dev_apl": direct.evaluation.dev_apl,
            "bound": lb.value,
            "mean_bound": lb.mean_bound,
            "per_app_bound": lb.per_app_bound,
        }
        got = {
            "perm": served["perm"],
            "max_apl": served["evaluation"]["max_apl"],
            "dev_apl": served["evaluation"]["dev_apl"],
            "bound": served["bounds"]["value"],
            "mean_bound": served["bounds"]["mean_bound"],
            "per_app_bound": served["bounds"]["per_app_bound"],
        }
        if got != expect:
            self.fail("resolve_mismatch")

    def resimulate(self, doc: dict, apps, sim: dict) -> None:
        """A served simulation equals ``simulate_batch`` at the same seed."""
        from repro.core.problem import Mapping
        from repro.noc.vector_engine import simulate_batch
        from repro.service.app import measured_payload

        inst = self.instance(apps)
        [result] = simulate_batch(
            [(inst, Mapping(doc["result"]["perm"]))],
            seeds=[sim["seed"]],
            warmup=sim["warmup"],
            measure=sim["measure"],
            cycles_per_unit=1000.0,  # the daemon's MappedWorkloadTraffic default
            generate_replies=False,
        )
        expect = json.loads(json.dumps(measured_payload(result)))
        served = doc["result"]["measured"]
        same = (
            served["apls"] == [expect["apl_by_app"].get(str(i)) for i in range(len(apps))]
            and all(
                served[k] == expect[k]
                for k in ("cycles", "packets_offered", "packets_delivered", "max_apl", "dev_apl")
            )
        )
        if not same:
            self.fail("resimulate_mismatch")
