"""Single-application mapping (SAM) — the paper's Algorithm 1.

Given a set of tiles reserved for one application, assigning its threads to
those tiles so the application's APL is minimal is an instance of the
linear assignment problem: each thread's latency contribution depends only
on its own tile (the interleaved L2 and proximity memory rules make tiles
independent).  The exact optimum therefore comes from the Hungarian method
on the cost matrix of eq. 13 restricted to the reserved tiles.

SAM problems are solved in batches (:func:`solve_sams`): sort-select-swap
places every application of its select phase, or of its final polish, in
one kernel crossing, and the lower bound does the same for its
per-application optima.  :func:`solve_sam` is a batch of one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.hungarian import solve_rate_assignments
from repro.obs import reqtrace

__all__ = ["SAMResult", "solve_sam", "solve_sams", "assign_apps_to_tiles"]


@dataclass(frozen=True)
class SAMResult:
    """Optimal assignment of one application's threads to reserved tiles."""

    tile_of_thread: np.ndarray  #: tile id (global) per local thread index
    apl: float  #: the minimised application APL
    total_latency: float  #: numerator of eq. 5 at the optimum


def solve_sam(
    cache_rates: np.ndarray,
    mem_rates: np.ndarray,
    tiles: np.ndarray,
    tc: np.ndarray,
    tm: np.ndarray,
) -> SAMResult:
    """Optimally map one application's threads onto ``tiles``.

    Parameters
    ----------
    cache_rates, mem_rates:
        Per-thread ``c_j`` and ``m_j`` of the application (length ``n_a``).
    tiles:
        Global tile indices reserved for this application (length ``n_a``).
    tc, tm:
        Full per-tile latency arrays of the chip.

    Returns
    -------
    SAMResult
        With ``tile_of_thread[j]`` the global tile of the application's
        ``j``-th thread and ``apl`` the (provably minimal) application APL.
    """
    return solve_sams([(cache_rates, mem_rates, tiles)], tc, tm)[0]


def solve_sams(
    problems: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    tc: np.ndarray,
    tm: np.ndarray,
) -> list[SAMResult]:
    """:func:`solve_sam` for every ``(cache_rates, mem_rates, tiles)``, in one crossing.

    Bit-identical to solving each problem alone.  An invalid problem
    raises the ``ValueError`` it raises alone; with several, the first
    one's.
    """
    blocks = []
    for index, (c, m, tiles) in enumerate(problems):
        c = np.asarray(c, dtype=float)
        m = np.asarray(m, dtype=float)
        tiles = np.asarray(tiles, dtype=np.int64)
        error = None
        if not (c.shape == m.shape == tiles.shape) or c.ndim != 1:
            error = (
                f"threads and tiles must be equal-length vectors, got "
                f"{c.shape}, {m.shape}, {tiles.shape}"
            )
        elif len(set(tiles.tolist())) != tiles.size:
            error = "reserved tiles must be distinct"
        if error is not None:
            # A bad problem's error must not hide an earlier problem's.
            solve_sams(problems[:index], tc, tm)
            raise ValueError(error)
        # Eq. 13 restricted to the reserved tiles.
        blocks.append((c, m, tiles))
    with reqtrace.span("sam.assign", problems=len(blocks)):
        solved = solve_rate_assignments(
            [(c, m, tc[tiles], tm[tiles]) for c, m, tiles in blocks]
        )
    out = []
    for (c, m, tiles), result in zip(blocks, solved):
        tile_of_thread = tiles[result.col_of_row]
        volume = float(c.sum() + m.sum())
        apl = result.total_cost / volume if volume > 0 else 0.0
        tile_of_thread.setflags(write=False)
        out.append(
            SAMResult(
                tile_of_thread=tile_of_thread,
                apl=apl,
                total_latency=result.total_cost,
            )
        )
    return out


def assign_apps_to_tiles(
    perm: np.ndarray,
    thread_slices: Sequence[slice],
    cache_rates: np.ndarray,
    mem_rates: np.ndarray,
    tile_sets: Sequence[np.ndarray],
    tc: np.ndarray,
    tm: np.ndarray,
) -> list[float]:
    """Solve SAM for several applications at once and write them into ``perm``.

    Used by both the select and polish phases of sort-select-swap.
    ``cache_rates``/``mem_rates`` are the *global* per-thread arrays;
    ``thread_slices[i]`` picks application ``i``'s rows and
    ``tile_sets[i]`` its reserved tiles.  Returns each application's
    optimal APL.
    """
    results = solve_sams(
        [
            (cache_rates[sl], mem_rates[sl], tiles)
            for sl, tiles in zip(thread_slices, tile_sets)
        ],
        tc,
        tm,
    )
    for sl, res in zip(thread_slices, results):
        perm[sl] = res.tile_of_thread
    return [res.apl for res in results]
