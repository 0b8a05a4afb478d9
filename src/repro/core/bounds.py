"""Lower bounds on the optimal max-APL of an OBM instance.

The OBM problem is NP-complete, so heuristic solutions (SSS, SA, MC) come
without quality certificates.  Two cheap, valid lower bounds close that
gap:

* **Mean bound** (``g_apl``): for any mapping, the maximum per-application
  APL is at least the volume-weighted mean of the APLs, which equals the
  global APL; the g-APL is itself minimised exactly by the Hungarian
  method (the *Global* baseline).  Hence ``opt(max-APL) >= min g-APL``.
* **Per-application bound** (``per_app``): application ``i``'s APL cannot
  beat what it achieves when handed the *globally best* tiles for it with
  an optimal (SAM) placement, ignoring all other applications.  The
  maximum of these per-application optima bounds the max-APL from below.

The combined bound is the max of the two.  On the paper's configurations
SSS lands within a few percent of it (see ``bench_bounds.py``), turning
"SSS is near-optimal" from a claim into a measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.hungarian import solve_rate_assignments
from repro.core.problem import Mapping, OBMInstance
from repro.core.sam import solve_sams

__all__ = ["OBMLowerBound", "max_apl_lower_bound"]


@dataclass(frozen=True)
class OBMLowerBound:
    """A certified lower bound on the optimal max-APL."""

    mean_bound: float  #: optimal g-APL (volume-weighted mean <= max)
    per_app_bound: float  #: max over apps of their isolated SAM optimum
    per_app_optima: np.ndarray  #: each application's isolated optimum

    @property
    def value(self) -> float:
        """The tightest of the available bounds."""
        return max(self.mean_bound, self.per_app_bound)

    def gap(self, achieved_max_apl: float) -> float:
        """Relative optimality gap of a heuristic solution (>= 0)."""
        if self.value <= 0:
            return 0.0
        return achieved_max_apl / self.value - 1.0


def max_apl_lower_bound(instance: OBMInstance) -> OBMLowerBound:
    """Compute both lower bounds for ``instance``.

    Two kernel crossings: the global (*Global* baseline) solve together
    with every application's unconstrained best-tile solve, then every
    application's SAM on its best tiles.

    The best tile set of one application is found exactly by solving the
    rectangular assignment of its threads against *all* tiles: because a
    thread's cost is ``c_j*TC(k) + m_j*TM(k)``, handing the application
    those tiles and placing optimally can only *under*-estimate its APL
    in any feasible mapping (where it competes with other applications
    for tiles).
    """
    wl = instance.workload
    tc, tm = instance.tc, instance.tm
    apps = [i for i in range(wl.n_apps) if wl.app_volumes[i] > 0]
    slices = [wl.thread_slice(i) for i in apps]
    # Global: all threads vs all tiles.  Best tiles: one app's n_threads
    # rows vs all N tile columns.
    solved = solve_rate_assignments(
        [(wl.cache_rates, wl.mem_rates, tc, tm)]
        + [(wl.cache_rates[sl], wl.mem_rates[sl], tc, tm) for sl in slices]
    )
    mean_bound = instance.evaluate(Mapping(solved[0].col_of_row)).g_apl

    optima = np.zeros(wl.n_apps)
    sams = solve_sams(
        [
            (wl.cache_rates[sl], wl.mem_rates[sl], best.col_of_row)
            for sl, best in zip(slices, solved[1:])
        ],
        tc,
        tm,
    )
    for i, res in zip(apps, sams):
        optima[i] = res.apl
    optima.setflags(write=False)
    return OBMLowerBound(
        mean_bound=mean_bound,
        per_app_bound=float(optima.max()),
        per_app_optima=optima,
    )
