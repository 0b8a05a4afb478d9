"""From-scratch Hungarian method for the linear assignment problem.

The paper's Algorithm 1 solves single-application mapping exactly with the
Hungarian method [Kuhn 1955] in O(n^3).  We implement the modern
shortest-augmenting-path formulation (Jonker--Volkgenant style, the same
scheme used by ``scipy.optimize.linear_sum_assignment``): one Dijkstra-like
search per row, maintaining dual potentials ``u``/``v`` so that reduced
costs stay non-negative.  Rectangular matrices (fewer rows than columns —
"choose which tiles to use" variants) are supported directly.

The implementation is validated against SciPy on thousands of random
instances in the test suite, including degenerate (tied) costs.

Problems are solved in batches: :func:`solve_assignments` takes explicit
cost matrices and :func:`solve_rate_assignments` takes eq. 13 blocks
(``c_i*TC(k) + m_i*TM(k)``) as rates and column values.  A batch is one
crossing into the self-compiled C kernel (`repro.core.cc_solvers`) and
one ``hungarian`` span; :func:`solve_assignment` is a batch of one.  The
``numpy`` and ``reference`` backends of `repro.core.permkernels` loop
their per-problem solvers behind the same API.  Every backend is a
transliteration of :func:`_solve_reference` with the identical reduced
cost expression and ascending-column first-minimum tie-break, so
degenerate instances pick the same assignment on every backend (pinned
by the property suite).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core import cc_solvers
from repro.obs import reqtrace

__all__ = [
    "AssignmentResult",
    "solve_assignment",
    "solve_assignments",
    "solve_rate_assignments",
]


@dataclass(frozen=True)
class AssignmentResult:
    """An optimal assignment: ``col_of_row[i]`` is the column given to row i."""

    col_of_row: np.ndarray
    total_cost: float

    @property
    def n_rows(self) -> int:
        return self.col_of_row.size

    def as_pairs(self) -> list[tuple[int, int]]:
        """``(row, column)`` pairs of the assignment."""
        return [(i, int(j)) for i, j in enumerate(self.col_of_row)]


def solve_assignment(cost: np.ndarray) -> AssignmentResult:
    """Minimise ``sum(cost[i, col_of_row[i]])`` over injective row->col maps.

    Parameters
    ----------
    cost:
        ``(n, m)`` matrix with ``n <= m``; entries must be finite.

    Raises
    ------
    ValueError
        If the matrix is empty, non-finite, or has more rows than columns.
    """
    return solve_assignments([cost])[0]


def solve_assignments(costs: Sequence[np.ndarray]) -> list[AssignmentResult]:
    """:func:`solve_assignment` for every matrix of ``costs``, in one crossing.

    Bit-identical to solving each matrix alone.  An invalid matrix raises
    the ``ValueError`` it raises alone; with several, the first one's.
    """
    blocks = []
    for cost in costs:
        cost = np.asarray(cost, dtype=float)
        if cost.ndim != 2:
            error = f"cost must be a 2-D matrix, got shape {cost.shape}"
        else:
            error = _shape_error(*cost.shape)
            if error is None and not np.all(np.isfinite(cost)):
                error = "cost matrix must be finite"
        if error is not None:
            raise ValueError(error)
        blocks.append(cost)
    if not blocks:
        return []
    dims = [cost.shape for cost in blocks]
    return _solve_batch(dims, [cost.ravel() for cost in blocks], has_costs=True)


def solve_rate_assignments(
    problems: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> list[AssignmentResult]:
    """Solve eq. 13 blocks ``(c, m, tc, tm)`` in one crossing.

    Problem ``(c, m, tc, tm)`` is the assignment on the matrix
    ``c[:, None] * tc[None, :] + m[:, None] * tm[None, :]``: rows are
    threads with cache/memory rates ``c``/``m``, columns are tiles with
    latencies ``tc``/``tm``.  The compiled kernel builds each block
    itself; the result is bit-identical to :func:`solve_assignment` on
    that matrix, errors included.
    """
    dims = []
    parts = []
    for index, (c, m, tc, tm) in enumerate(problems):
        c, m, tc, tm = (np.asarray(a, dtype=float) for a in (c, m, tc, tm))
        if not (c.ndim == tc.ndim == 1 and c.shape == m.shape and tc.shape == tm.shape):
            error = (
                f"rates and tile latencies must be 1-D pairs, got "
                f"{c.shape}, {m.shape}, {tc.shape}, {tm.shape}"
            )
        else:
            error = _shape_error(c.size, tc.size)
        if error is not None:
            # A bad block's error must not hide an earlier block's.
            solve_rate_assignments(problems[:index])
            raise ValueError(error)
        dims.append((c.size, tc.size))
        parts.append((c, m, tc, tm))
    if not dims:
        return []
    # Packed order: every c, then every m, every tc, every tm.
    flat = [part[col] for col in range(4) for part in parts]
    return _solve_batch(dims, flat, has_costs=False)


def _shape_error(n: int, m: int) -> str | None:
    if n == 0 or m == 0:
        return "cost matrix must be non-empty"
    if n > m:
        return (
            f"cost matrix has more rows ({n}) than columns ({m}); "
            "transpose it or pad with dummy columns"
        )
    return None


def _solve_batch(
    dims: list[tuple[int, int]], inputs: list[np.ndarray], has_costs: bool
) -> list[AssignmentResult]:
    """Backend-dispatching batch solve; every path is bit-identical.

    ``inputs`` are the cost blocks (``has_costs``) or the c, m, tc, tm
    pieces of every problem, in the packed order of the C kernel.
    """
    # Local import: permkernels imports nothing from this module, but the
    # function-level import keeps the module graph acyclic-by-construction.
    from repro.core.permkernels import resolve_backend

    backend = resolve_backend()
    k = len(dims)
    with reqtrace.span("hungarian", problems=k):
        if backend == "cc":
            lib, _ = cc_solvers.load_library()
            if lib is not None:
                return _solve_cc(lib, dims, inputs, has_costs)
        solve = _solve_reference if backend == "reference" else _solve_numpy_result
        return [
            solve(block, n, m)
            for block, (n, m) in zip(_blocks(dims, inputs, has_costs), dims)
        ]


def _blocks(dims, inputs, has_costs):
    """Each problem's cost matrix, built with the eq. 13 expression."""
    if has_costs:
        for flat, (n, m) in zip(inputs, dims):
            yield flat.reshape(n, m)
        return
    k = len(dims)
    for p in range(k):
        c, m, tc, tm = inputs[p], inputs[k + p], inputs[2 * k + p], inputs[3 * k + p]
        cost = c[:, None] * tc[None, :] + m[:, None] * tm[None, :]
        if not np.all(np.isfinite(cost)):
            raise ValueError("cost matrix must be finite")
        yield cost


def _solve_cc(lib, dims, inputs, has_costs) -> list[AssignmentResult]:
    k = len(dims)
    rows = sum(n for n, _ in dims)
    ints = np.empty(2 * k + rows, dtype=np.int64)
    ints[: 2 * k] = np.ravel(dims)
    reals = np.concatenate(inputs + [np.empty(rows)])
    status = cc_solvers.cc_assign_batch(lib, k, ints, reals, has_costs)
    if status < 0:  # pragma: no cover - allocation failure
        raise MemoryError("assignment kernel could not allocate its workspace")
    if status > 0:
        # Problem status - 1 failed and every earlier one is finite: name
        # the failure as the per-problem solvers do.
        for _ in itertools.islice(_blocks(dims, inputs, has_costs), status):
            pass
        raise ValueError("assignment problem is infeasible")  # pragma: no cover
    col_of_row = ints[2 * k :]
    row_cost = reals[reals.size - rows :]
    results = []
    r0 = 0
    for n, _ in dims:
        cols = col_of_row[r0 : r0 + n]
        cols.setflags(write=False)
        results.append(
            AssignmentResult(col_of_row=cols, total_cost=float(row_cost[r0 : r0 + n].sum()))
        )
        r0 += n
    return results


def _solve_numpy_result(cost: np.ndarray, n: int, m: int) -> AssignmentResult:
    col_of_row = _solve_numpy(cost, n, m)
    total = float(cost[np.arange(n), col_of_row].sum())
    col_of_row.setflags(write=False)
    return AssignmentResult(col_of_row=col_of_row, total_cost=total)


def _solve_numpy(cost: np.ndarray, n: int, m: int) -> np.ndarray:
    """Vectorised Dijkstra steps over a visited mask — the NumPy fallback.

    Identical float semantics to :func:`_solve_reference`: the reduced
    cost for every unvisited column is the same left-to-right expression,
    and ``argmin`` over masked values picks the same ascending-column
    first minimum as the reference's ``remaining`` subset scan.
    """
    col_of_row = np.full(n, -1, dtype=np.int64)
    row_of_col = np.full(m, -1, dtype=np.int64)
    u = np.zeros(n)
    v = np.zeros(m)
    parent = np.full(m, -1, dtype=np.int64)

    for cur_row in range(n):
        shortest = np.full(m, np.inf)
        in_row_tree = np.zeros(n, dtype=bool)
        unvisited = np.ones(m, dtype=bool)
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            in_row_tree[i] = True
            reduced = min_val + cost[i] - u[i] - v
            better = unvisited & (reduced < shortest)
            shortest[better] = reduced[better]
            parent[better] = i
            candidates = np.where(unvisited, shortest, np.inf)
            j = int(np.argmin(candidates))
            min_val = float(candidates[j])
            if not np.isfinite(min_val):  # pragma: no cover - finite input
                raise ValueError("assignment problem is infeasible")
            unvisited[j] = False
            if row_of_col[j] == -1:
                sink = j
            else:
                i = int(row_of_col[j])

        u[cur_row] += min_val
        others = in_row_tree.copy()
        others[cur_row] = False
        if others.any():
            rows = np.flatnonzero(others)
            u[rows] += min_val - shortest[col_of_row[rows]]
        cols = np.flatnonzero(~unvisited)
        v[cols] -= min_val - shortest[cols]

        j = sink
        while True:
            i = int(parent[j])
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == cur_row:
                break
    return col_of_row


def _solve_reference(cost: np.ndarray, n: int, m: int) -> AssignmentResult:
    col_of_row = np.full(n, -1, dtype=np.int64)
    row_of_col = np.full(m, -1, dtype=np.int64)
    u = np.zeros(n)  # row potentials
    v = np.zeros(m)  # column potentials
    # `parent[j]` is the row from which column j was reached in the current
    # shortest-path tree; used to trace the augmenting path back.
    parent = np.full(m, -1, dtype=np.int64)

    for cur_row in range(n):
        # Dijkstra over columns: find the cheapest augmenting path from
        # cur_row to an unassigned column under reduced costs.
        shortest = np.full(m, np.inf)
        in_row_tree = np.zeros(n, dtype=bool)
        in_col_tree = np.zeros(m, dtype=bool)
        remaining = np.arange(m)
        min_val = 0.0
        i = cur_row
        sink = -1
        while sink == -1:
            in_row_tree[i] = True
            reduced = min_val + cost[i, remaining] - u[i] - v[remaining]
            better = reduced < shortest[remaining]
            improved = remaining[better]
            shortest[improved] = reduced[better]
            parent[improved] = i
            pos = int(np.argmin(shortest[remaining]))
            j = int(remaining[pos])
            min_val = shortest[j]
            if not np.isfinite(min_val):  # pragma: no cover - finite input
                raise ValueError("assignment problem is infeasible")
            in_col_tree[j] = True
            remaining = np.delete(remaining, pos)
            if row_of_col[j] == -1:
                sink = j
            else:
                i = int(row_of_col[j])

        # Update dual potentials so all reduced costs stay non-negative.
        u[cur_row] += min_val
        others = in_row_tree.copy()
        others[cur_row] = False
        if others.any():
            rows = np.flatnonzero(others)
            u[rows] += min_val - shortest[col_of_row[rows]]
        cols = np.flatnonzero(in_col_tree)
        v[cols] -= min_val - shortest[cols]

        # Augment: flip matched/unmatched edges along the path to the sink.
        j = sink
        while True:
            i = int(parent[j])
            row_of_col[j] = i
            col_of_row[i], j = j, col_of_row[i]
            if i == cur_row:
                break

    total = float(cost[np.arange(n), col_of_row].sum())
    col_of_row.setflags(write=False)
    return AssignmentResult(col_of_row=col_of_row, total_cost=total)
