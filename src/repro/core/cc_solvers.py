"""Self-compiled C backend for the solver kernels (no dependencies).

This module carries the solver kernels as C source, builds them once per
machine with the system compiler (``cc -O2 -fPIC -shared``), and binds
them through ``ctypes`` — which releases the GIL for the duration of
every call, so the serve worker pool's threads scale solves across
cores.  It is one of three solver backends (`repro.core.permkernels`):
``cc`` here, the ``numpy`` fallback for machines without a compiler, and
the pure-Python ``reference`` measurement baseline.

Two entry points, one crossing per solve phase:

* ``sweep_pass`` — one whole SSS swap sweep (every window of every
  step);
* ``assign_batch`` — any number of assignment problems in one call: the
  select phase's or the polish phase's per-application SAMs, or the
  lower bound's global solve together with its per-application
  best-tile solves.  It builds the eq. 13 blocks itself from the rates
  and the columns' TC/TM values, with one workspace sized to the
  largest problem.

Bit-identity: the C loops are transliterations of the reference paths
(same expressions, same accumulation order, same strict-``<``
first-minimum tie-breaks), compiled with ``-ffp-contract=off`` so no
fused multiply-adds change IEEE rounding.  The golden and hypothesis
suites exercise this backend directly whenever a compiler is present.

Arrays cross as plain integer addresses.  :func:`address` checks each
array's dtype and C-contiguity first and raises ``ValueError`` otherwise,
so the kernels never index memory through a strided view or a
wrong-width element.

Environment knobs:

* ``REPRO_CC=0`` (or ``off``) disables the backend entirely (the solvers
  then run on ``numpy``); ``REPRO_CC=<path>`` selects a specific
  compiler binary.
* ``REPRO_CC_CACHE=<dir>`` overrides where the shared object is built
  (default: a per-user directory under the system temp dir).  The build
  is keyed by a hash of source + compiler so upgrades rebuild cleanly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import threading

import numpy as np

__all__ = [
    "CC_MAX_APPS",
    "CC_MAX_WINDOW",
    "address",
    "cc_assign_batch",
    "cc_sweep_pass",
    "compiler_path",
    "disabled",
    "load_library",
]

#: Stack-buffer limits baked into the C source; the dispatcher falls back
#: to another backend beyond them (never hit by the paper's workloads).
CC_MAX_APPS = 64
CC_MAX_WINDOW = 8

C_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

#define MAXW 8
#define MAXAPPS 64

void sweep_pass(
    const int64_t *sorted_tiles, int64_t n, int64_t w, int64_t max_step,
    const int64_t *perms, int64_t n_perms,
    int64_t *perm, int64_t *tile_thread,
    double *numerators,
    const double *c, const double *m,
    const double *tc, const double *tm,
    const int64_t *app_of_thread,
    const double *safe_volumes,
    const int64_t *active, int64_t n_active,
    int64_t n_apps,
    int64_t *counts)
{
    double cost[MAXW][MAXW];
    double base[MAXW];
    int64_t tiles[MAXW];
    int64_t threads[MAXW];
    int64_t apps[MAXW];
    int64_t new_tiles[MAXW];
    double app_delta[MAXAPPS];
    double best_delta[MAXAPPS];
    int64_t tried = 0, accepted = 0;

    for (int64_t step = 1; step <= max_step; step++) {
        int64_t span = (w - 1) * step;
        for (int64_t start = 0; start < n - span; start++) {
            for (int64_t a = 0; a < w; a++) {
                tiles[a] = sorted_tiles[start + step * a];
                threads[a] = tile_thread[tiles[a]];
                apps[a] = app_of_thread[threads[a]];
            }
            for (int64_t a = 0; a < w; a++) {
                double ca = c[threads[a]], ma = m[threads[a]];
                for (int64_t b = 0; b < w; b++)
                    cost[a][b] = ca * tc[tiles[b]] + ma * tm[tiles[b]];
                base[a] = cost[a][a];
            }
            /* Identity permutation (p = 0): exact zero delta, so the
               current max-APL seeds best_val and the strict < scan
               reproduces np.argmin's first-minimum tie-break. */
            double best_val = -INFINITY;
            for (int64_t k = 0; k < n_active; k++) {
                double vl = numerators[active[k]] / safe_volumes[active[k]];
                if (vl > best_val) best_val = vl;
            }
            int64_t best_p = 0;
            for (int64_t ap = 0; ap < n_apps; ap++) best_delta[ap] = 0.0;
            for (int64_t p = 1; p < n_perms; p++) {
                for (int64_t ap = 0; ap < n_apps; ap++) app_delta[ap] = 0.0;
                const int64_t *pp = perms + p * w;
                for (int64_t a = 0; a < w; a++)
                    app_delta[apps[a]] += cost[a][pp[a]] - base[a];
                double val = -INFINITY;
                for (int64_t k = 0; k < n_active; k++) {
                    int64_t ap = active[k];
                    double vl = (numerators[ap] + app_delta[ap]) / safe_volumes[ap];
                    if (vl > val) val = vl;
                }
                if (val < best_val) {
                    best_val = val;
                    best_p = p;
                    for (int64_t ap = 0; ap < n_apps; ap++) best_delta[ap] = app_delta[ap];
                }
            }
            tried++;
            if (best_p != 0) {
                accepted++;
                const int64_t *pp = perms + best_p * w;
                for (int64_t a = 0; a < w; a++) new_tiles[a] = tiles[pp[a]];
                for (int64_t a = 0; a < w; a++) perm[threads[a]] = new_tiles[a];
                for (int64_t a = 0; a < w; a++) tile_thread[new_tiles[a]] = threads[a];
                for (int64_t ap = 0; ap < n_apps; ap++) numerators[ap] += best_delta[ap];
            }
        }
    }
    counts[0] = tried;
    counts[1] = accepted;
}

/* Jonker-Volkgenant shortest augmenting path on one n x m block; op
   order matches repro.core.hungarian._solve_reference.  Each Dijkstra
   step is one pass over `free_cols`, the ascending list of unvisited
   columns: it lowers shortest/parent and tracks the strict-< first
   minimum in the same loop (every column's shortest is final when the
   scan reaches it, so the pick equals a separate ascending scan), then
   removes the chosen column keeping the order.  Returns 0 on success, 1
   if no finite augmenting path exists. */
static int64_t hungarian_block(
    const double *cost, int64_t n, int64_t m,
    int64_t *col_of_row, int64_t *row_of_col,
    double *u, double *v, double *shortest,
    int64_t *parent, int64_t *free_cols,
    uint8_t *in_row_tree, uint8_t *visited)
{
    for (int64_t i0 = 0; i0 < n; i0++) { col_of_row[i0] = -1; u[i0] = 0.0; }
    for (int64_t j = 0; j < m; j++) { row_of_col[j] = -1; v[j] = 0.0; parent[j] = -1; }

    for (int64_t cur_row = 0; cur_row < n; cur_row++) {
        for (int64_t j = 0; j < m; j++) {
            shortest[j] = INFINITY; visited[j] = 0; free_cols[j] = j;
        }
        int64_t n_free = m;
        for (int64_t i0 = 0; i0 < n; i0++) in_row_tree[i0] = 0;
        double min_val = 0.0;
        int64_t i = cur_row;
        int64_t sink = -1;
        while (sink == -1) {
            in_row_tree[i] = 1;
            double ui = u[i];
            const double *ci = cost + i * m;
            int64_t best_pos = -1;
            double best = INFINITY;
            for (int64_t p = 0; p < n_free; p++) {
                int64_t j = free_cols[p];
                double reduced = min_val + ci[j] - ui - v[j];
                double s = shortest[j];
                if (reduced < s) { s = reduced; shortest[j] = s; parent[j] = i; }
                if (s < best) { best = s; best_pos = p; }
            }
            if (best_pos == -1 || !isfinite(best)) return 1;
            int64_t jbest = free_cols[best_pos];
            for (int64_t p = best_pos + 1; p < n_free; p++) free_cols[p - 1] = free_cols[p];
            n_free--;
            min_val = best;
            visited[jbest] = 1;
            if (row_of_col[jbest] == -1) sink = jbest;
            else i = row_of_col[jbest];
        }
        u[cur_row] += min_val;
        for (int64_t r = 0; r < n; r++) {
            if (in_row_tree[r] && r != cur_row)
                u[r] += min_val - shortest[col_of_row[r]];
        }
        for (int64_t j = 0; j < m; j++) {
            if (visited[j])
                v[j] -= min_val - shortest[j];
        }
        int64_t j = sink;
        for (;;) {
            int64_t pi = parent[j];
            row_of_col[j] = pi;
            int64_t tmp = col_of_row[pi];
            col_of_row[pi] = j;
            j = tmp;
            if (pi == cur_row) break;
        }
    }
    return 0;
}

/* Solve k assignment problems in one call.  Problem p has n_p = ints[2p]
   rows and m_p = ints[2p + 1] columns; R = sum n_p, C = sum m_p.
   Inputs live back to back in `reals`:
     explicit (has_costs = 1): the row-major blocks, sum n_p * m_p values;
     eq. 13   (has_costs = 0): c[R], m[R], tc[C], tm[C], and the block is
              built here as c[r] * tc[t] + m[r] * tm[t].
   Outputs: the column of each row (local to its problem) goes to
   ints[2k ..], back to back, and that entry's cost to the R values after
   the inputs in `reals`.  One workspace, sized to the largest problem,
   serves the whole batch.  Returns 0 on success, 1 + p when problem p
   has a non-finite entry or no finite augmenting path, and -1 when the
   workspace cannot be allocated. */
int64_t assign_batch(int64_t k, int64_t *ints, double *reals, int64_t has_costs)
{
    int64_t rows = 0, cols = 0, entries = 0, max_n = 0, max_m = 0, max_nm = 0;
    for (int64_t p = 0; p < k; p++) {
        int64_t n = ints[2 * p], m = ints[2 * p + 1];
        rows += n; cols += m; entries += n * m;
        if (n > max_n) max_n = n;
        if (m > max_m) max_m = m;
        if (n * m > max_nm) max_nm = n * m;
    }
    int64_t block_len = has_costs ? 0 : max_nm;
    size_t n_doubles = (size_t)(block_len + max_n + 2 * max_m);
    size_t n_ints = (size_t)(3 * max_m);
    char *ws = malloc(8 * (n_doubles + n_ints) + (size_t)(max_n + max_m) + 1);
    if (ws == NULL) return -1;
    double *block = (double *)ws;
    double *u = block + block_len;
    double *v = u + max_n;
    double *shortest = v + max_m;
    int64_t *row_of_col = (int64_t *)(shortest + max_m);
    int64_t *parent = row_of_col + max_m;
    int64_t *free_cols = parent + max_m;
    uint8_t *in_row_tree = (uint8_t *)(free_cols + max_m);
    uint8_t *visited = in_row_tree + max_n;

    const double *c = reals, *mr = reals + rows;
    const double *tc = reals + 2 * rows, *tm = reals + 2 * rows + cols;
    double *row_cost = reals + (has_costs ? entries : 2 * (rows + cols));
    int64_t *col_of_row = ints + 2 * k;
    int64_t status = 0, r0 = 0, c0 = 0, e0 = 0;
    for (int64_t p = 0; p < k && status == 0; p++) {
        int64_t n = ints[2 * p], m = ints[2 * p + 1];
        const double *cost;
        if (has_costs) {
            cost = reals + e0;
        } else {
            for (int64_t i = 0; i < n; i++) {
                double ci = c[r0 + i], mi = mr[r0 + i];
                double *bi = block + i * m;
                for (int64_t j = 0; j < m; j++)
                    bi[j] = ci * tc[c0 + j] + mi * tm[c0 + j];
            }
            cost = block;
        }
        for (int64_t e = 0; e < n * m; e++) {
            if (!isfinite(cost[e])) { status = 1 + p; break; }
        }
        if (status == 0 && hungarian_block(
                cost, n, m, col_of_row + r0, row_of_col, u, v, shortest,
                parent, free_cols, in_row_tree, visited))
            status = 1 + p;
        if (status == 0) {
            for (int64_t i = 0; i < n; i++)
                row_cost[r0 + i] = cost[i * m + col_of_row[r0 + i]];
        }
        r0 += n; c0 += m; e0 += n * m;
    }
    free(ws);
    return status;
}
"""

_VOID = ctypes.c_void_p
_INT = ctypes.c_int64
_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)

_lock = threading.Lock()
_lib = None
_lib_error: str | None = None
_loaded = False


def disabled() -> bool:
    """True when ``REPRO_CC`` switches the backend off."""
    return os.environ.get("REPRO_CC", "").strip().lower() in ("0", "off", "none", "false")


def compiler_path() -> str | None:
    """The C compiler this backend would use, or ``None`` when disabled/absent."""
    if disabled():
        return None
    env = os.environ.get("REPRO_CC", "").strip()
    if env:
        return shutil.which(env) or (env if os.path.exists(env) else None)
    for name in ("cc", "gcc", "clang"):
        found = shutil.which(name)
        if found:
            return found
    return None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_CC_CACHE", "").strip()
    if override:
        return override
    tag = f"{os.getuid()}" if hasattr(os, "getuid") else "any"
    return os.path.join(tempfile.gettempdir(), f"repro-cc-{tag}")


def _build(compiler: str) -> str:
    """Compile the kernels into the cache dir; returns the .so path."""
    key = hashlib.sha256(
        (C_SOURCE + compiler + sys.platform).encode()
    ).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro_solvers_{key}.so")
    if os.path.exists(so_path):
        return so_path
    os.makedirs(cache, exist_ok=True)
    src_path = os.path.join(cache, f"repro_solvers_{key}.c")
    tmp_path = so_path + f".tmp{os.getpid()}"
    with open(src_path, "w") as f:
        f.write(C_SOURCE)
    cmd = [
        compiler, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
        "-o", tmp_path, src_path,
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd)} failed: {proc.stderr.strip()[:500]}"
        )
    os.replace(tmp_path, so_path)  # atomic: concurrent builders converge
    return so_path


def _bind(so_path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(so_path)
    lib.sweep_pass.restype = None
    lib.sweep_pass.argtypes = [
        _VOID, _INT, _INT, _INT,
        _VOID, _INT,
        _VOID, _VOID, _VOID,
        _VOID, _VOID, _VOID, _VOID,
        _VOID, _VOID,
        _VOID, _INT,
        _INT, _VOID,
    ]
    lib.assign_batch.restype = _INT
    lib.assign_batch.argtypes = [_INT, _VOID, _VOID, _INT]
    return lib


def load_library():
    """Build+bind the C kernels: ``(lib, None)`` or ``(None, reason)``.

    The first call compiles (once per machine, keyed by source hash);
    later calls reuse the cached shared object.  Failures are cached too,
    so a broken toolchain costs one attempt per process.
    """
    global _lib, _lib_error, _loaded
    if _loaded:
        return _lib, _lib_error
    with _lock:
        if _loaded:
            return _lib, _lib_error
        compiler = compiler_path()
        if compiler is None:
            _lib_error = "no C compiler found (set REPRO_CC, or install cc/gcc/clang)"
        else:
            try:
                _lib = _bind(_build(compiler))
            except Exception as exc:  # pragma: no cover - toolchain-specific
                _lib_error = f"C kernel build failed: {exc}"
        _loaded = True
    return _lib, _lib_error


def address(array: np.ndarray, dtype: np.dtype, name: str) -> int:
    """The data address of ``array``, once it is safe for a kernel to index.

    Raises ``ValueError`` unless ``array`` holds ``dtype`` elements in C
    order: a strided view would make the kernel read and write the base
    array's other slots, and a narrower dtype would make it run past the
    end of the buffer.
    """
    if array.dtype != dtype or not array.flags.c_contiguous:
        raise ValueError(
            f"{name} must be a C-contiguous {dtype} array, got a "
            f"{'' if array.flags.c_contiguous else 'strided '}{array.dtype} array"
        )
    return array.__array_interface__["data"][0]


def cc_sweep_pass(
    lib,
    sorted_tiles,
    w,
    max_step,
    perms,
    perm,
    tile_thread,
    numerators,
    c,
    m,
    tc,
    tm,
    app_of_thread,
    safe_volumes,
    active,
):
    """Call the C ``sweep_pass``; returns ``(windows_tried, windows_accepted)``.

    ``perm``, ``tile_thread`` and ``numerators`` are updated in place.
    Raises ``ValueError`` before the call when a length or an index
    entry would make the kernel reach outside an array.
    """
    n = sorted_tiles.shape[0]
    n_apps = numerators.shape[0]
    for name, array, size in (
        ("perm", perm, n), ("tile_thread", tile_thread, n), ("c", c, n),
        ("m", m, n), ("tc", tc, n), ("tm", tm, n),
        ("app_of_thread", app_of_thread, n), ("safe_volumes", safe_volumes, n_apps),
    ):
        if array.shape != (size,):
            raise ValueError(f"{name} must have shape ({size},), got {array.shape}")
    if perms.ndim != 2 or perms.shape[1] != w:
        raise ValueError(f"perms must have shape (K, {w}), got {perms.shape}")
    for name, array, bound in (
        ("sorted_tiles", sorted_tiles, n), ("tile_thread", tile_thread, n),
        ("perms", perms, w), ("app_of_thread", app_of_thread, n_apps),
        ("active", active, n_apps),
    ):
        if array.size and (array.min() < 0 or array.max() >= bound):
            raise ValueError(f"{name} entries must lie in [0, {bound})")
    counts = np.zeros(2, dtype=np.int64)
    lib.sweep_pass(
        address(sorted_tiles, _I64, "sorted_tiles"), sorted_tiles.shape[0],
        w, max_step,
        address(perms, _I64, "perms"), perms.shape[0],
        address(perm, _I64, "perm"),
        address(tile_thread, _I64, "tile_thread"),
        address(numerators, _F64, "numerators"),
        address(c, _F64, "c"), address(m, _F64, "m"),
        address(tc, _F64, "tc"), address(tm, _F64, "tm"),
        address(app_of_thread, _I64, "app_of_thread"),
        address(safe_volumes, _F64, "safe_volumes"),
        address(active, _I64, "active"), active.shape[0],
        numerators.shape[0], address(counts, _I64, "counts"),
    )
    return int(counts[0]), int(counts[1])


def cc_assign_batch(
    lib, k: int, ints: np.ndarray, reals: np.ndarray, has_costs: bool
) -> int:
    """Call the C ``assign_batch`` on packed buffers (layout in the C source).

    ``ints`` holds the ``k`` ``(n, m)`` shapes, then room for every row's
    column; ``reals`` holds the inputs, then room for every row's cost.
    Returns the kernel's status: 0, ``1 + p`` for a failed problem ``p``,
    or -1 when its workspace could not be allocated.  Raises
    ``ValueError`` when the buffers do not match that layout.
    """
    shapes = ints[: 2 * k].tolist()
    ns, ms = shapes[0::2], shapes[1::2]
    rows = sum(ns)
    if has_costs:
        n_reals = sum(n * m for n, m in zip(ns, ms)) + rows
    else:
        n_reals = 3 * rows + 2 * sum(ms)
    if len(ns) != k or min(shapes, default=0) < 1 or ints.shape != (2 * k + rows,) \
            or reals.shape != (n_reals,):
        raise ValueError(
            f"assignment buffers do not match {k} problems of shapes {shapes}"
        )
    return lib.assign_batch(
        k, address(ints, _I64, "ints"), address(reals, _F64, "reals"), int(has_costs)
    )
