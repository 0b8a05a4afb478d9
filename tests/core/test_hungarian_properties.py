"""Property-based tests of the Hungarian solver against brute force.

For matrices small enough to enumerate (<= 6x6 there are at most 720
permutations; rectangular n < m cases enumerate m!/(m-n)! injections),
exhaustive search is the undisputable ground truth.  Hypothesis drives
the matrix shapes and entries — including adversarial regimes the
random-uniform tests never hit: massive ties, integer costs, huge
magnitude spreads, negative entries.

``derandomize=True`` keeps CI deterministic (no example database, no
flaky shrink sessions); the generator still covers the space because the
strategy, not the seed, defines it.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hungarian import solve_assignment, solve_assignments

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


def brute_force_optimum(cost: np.ndarray) -> float:
    """Exhaustive minimum over all injective row -> column maps."""
    n, m = cost.shape
    rows = np.arange(n)
    return min(
        float(cost[rows, list(cols)].sum())
        for cols in itertools.permutations(range(m), n)
    )


def _matrix(n: int, m: int, entries: st.SearchStrategy) -> st.SearchStrategy:
    return st.lists(
        st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n
    ).map(lambda rows: np.array(rows, dtype=float))


_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
# A tiny integer alphabet forces heavy cost ties — the regime where
# shortest-augmenting-path bookkeeping bugs (wrong tie-breaks, stale
# potentials) actually surface.
_tied_ints = st.integers(min_value=0, max_value=3).map(float)

_square_shapes = st.integers(min_value=1, max_value=6).map(lambda n: (n, n))
_rect_shapes = st.tuples(
    st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=6)
).filter(lambda nm: nm[0] < nm[1])


def _check_against_brute_force(cost: np.ndarray) -> None:
    result = solve_assignment(cost)
    n, m = cost.shape
    cols = result.col_of_row
    # Structural validity: an injective row -> column map.
    assert cols.size == n
    assert len(set(cols.tolist())) == n
    assert all(0 <= int(j) < m for j in cols)
    # The reported cost is the cost of the reported assignment...
    assert np.isclose(result.total_cost, float(cost[np.arange(n), cols].sum()))
    # ...and no assignment does better.
    assert np.isclose(result.total_cost, brute_force_optimum(cost), atol=1e-9)


@SETTINGS
@given(data=st.data(), shape=_square_shapes)
def test_square_matrices_hit_the_optimum(data, shape):
    n, m = shape
    _check_against_brute_force(data.draw(_matrix(n, m, _floats)))


@SETTINGS
@given(data=st.data(), shape=_rect_shapes)
def test_rectangular_matrices_hit_the_optimum(data, shape):
    n, m = shape
    _check_against_brute_force(data.draw(_matrix(n, m, _floats)))


@SETTINGS
@given(data=st.data(), shape=st.one_of(_square_shapes, _rect_shapes))
def test_tied_integer_costs_hit_the_optimum(data, shape):
    n, m = shape
    _check_against_brute_force(data.draw(_matrix(n, m, _tied_ints)))


@SETTINGS
@given(data=st.data(), n=st.integers(min_value=2, max_value=5))
def test_permuting_rows_permutes_the_assignment(data, n):
    """Row order must not affect optimality (only labels move)."""
    cost = data.draw(_matrix(n, n, _floats))
    perm = data.draw(st.permutations(range(n)))
    base = solve_assignment(cost)
    shuffled = solve_assignment(cost[list(perm), :])
    assert np.isclose(base.total_cost, shuffled.total_cost, atol=1e-9)


@SETTINGS
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=5),
    offset=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)
def test_constant_shift_shifts_cost_only(data, n, offset):
    """Adding c to every entry adds n*c to the optimum, nothing else."""
    cost = data.draw(_matrix(n, n, _floats))
    base = solve_assignment(cost)
    shifted = solve_assignment(cost + offset)
    assert np.isclose(shifted.total_cost, base.total_cost + n * offset, atol=1e-6)


@SETTINGS
@given(
    data=st.data(),
    shapes=st.lists(st.one_of(_square_shapes, _rect_shapes), min_size=1, max_size=4),
)
def test_ragged_batch_hits_every_optimum(data, shapes):
    """One batched crossing solves each problem exactly as a single solve."""
    costs = [data.draw(_matrix(n, m, _tied_ints)) for n, m in shapes]
    batch = solve_assignments(costs)
    assert len(batch) == len(costs)
    for cost, result in zip(costs, batch):
        single = solve_assignment(cost)
        assert result.col_of_row.tolist() == single.col_of_row.tolist()
        assert float(result.total_cost).hex() == float(single.total_cost).hex()
        assert np.isclose(result.total_cost, brute_force_optimum(cost), atol=1e-9)
