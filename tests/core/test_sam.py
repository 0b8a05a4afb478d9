"""Tests of the Hungarian-based single-application mapping (Algorithm 1)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sam import assign_apps_to_tiles, solve_sam


def brute_force_sam(c, m, tiles, tc, tm):
    best = np.inf
    for perm in itertools.permutations(tiles):
        perm = np.array(perm)
        total = float((c * tc[perm] + m * tm[perm]).sum())
        best = min(best, total)
    return best / float(c.sum() + m.sum())


class TestSolveSAM:
    def test_heaviest_thread_gets_best_tile(self):
        """With monotone rates and latencies the optimum is anti-sorted."""
        c = np.array([1.0, 2.0, 3.0])
        m = np.zeros(3)
        tc = np.array([10.0, 20.0, 30.0])
        tm = np.zeros(3)
        res = solve_sam(c, m, np.array([0, 1, 2]), tc, tm)
        # thread 2 (heaviest) -> tile 0 (fastest)
        assert list(res.tile_of_thread) == [2, 1, 0]
        assert res.apl == pytest.approx((1 * 30 + 2 * 20 + 3 * 10) / 6)

    def test_subset_of_tiles(self):
        c = np.array([1.0, 5.0])
        m = np.zeros(2)
        tc = np.array([10.0, 99.0, 20.0, 5.0])
        tm = np.zeros(4)
        res = solve_sam(c, m, np.array([1, 3]), tc, tm)
        assert list(res.tile_of_thread) == [1, 3]  # heavy thread on tile 3

    def test_memory_traffic_affects_choice(self):
        # Two tiles: one cache-good/memory-bad, one the reverse; the
        # memory-heavy thread must take the memory-good tile.
        c = np.array([1.0, 1.0])
        m = np.array([0.0, 10.0])
        tc = np.array([10.0, 12.0])
        tm = np.array([50.0, 1.0])
        res = solve_sam(c, m, np.array([0, 1]), tc, tm)
        assert list(res.tile_of_thread) == [0, 1]

    def test_total_latency_consistent(self):
        rng = np.random.default_rng(1)
        c, m = rng.random(5), rng.random(5)
        tc, tm = rng.random(8) * 20, rng.random(8) * 10
        tiles = np.array([0, 2, 4, 6, 7])
        res = solve_sam(c, m, tiles, tc, tm)
        recomputed = float(
            (c * tc[res.tile_of_thread] + m * tm[res.tile_of_thread]).sum()
        )
        assert res.total_latency == pytest.approx(recomputed)
        assert res.apl == pytest.approx(recomputed / (c.sum() + m.sum()))

    def test_zero_volume_app(self):
        res = solve_sam(
            np.zeros(2), np.zeros(2), np.array([0, 1]), np.ones(2), np.ones(2)
        )
        assert res.apl == 0.0

    def test_duplicate_tiles_rejected(self):
        with pytest.raises(ValueError):
            solve_sam(np.ones(2), np.ones(2), np.array([1, 1]), np.ones(2), np.ones(2))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            solve_sam(np.ones(2), np.ones(3), np.array([0, 1]), np.ones(2), np.ones(2))

    @given(n=st.integers(2, 6), seed=st.integers(0, 5_000))
    @settings(max_examples=60, deadline=None)
    def test_optimal_vs_brute_force(self, n, seed):
        rng = np.random.default_rng(seed)
        c, m = rng.random(n) * 5, rng.random(n)
        tc, tm = rng.random(10) * 30, rng.random(10) * 15
        tiles = rng.choice(10, size=n, replace=False)
        res = solve_sam(c, m, tiles, tc, tm)
        assert res.apl == pytest.approx(brute_force_sam(c, m, tiles, tc, tm))

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_never_worse_than_random_assignment(self, seed):
        rng = np.random.default_rng(seed)
        n = 8
        c, m = rng.random(n) * 5, rng.random(n)
        tc, tm = rng.random(16) * 30, rng.random(16) * 15
        tiles = rng.choice(16, size=n, replace=False)
        res = solve_sam(c, m, tiles, tc, tm)
        random_tiles = rng.permutation(tiles)
        random_apl = float(
            (c * tc[random_tiles] + m * tm[random_tiles]).sum() / (c.sum() + m.sum())
        )
        assert res.apl <= random_apl + 1e-9


class TestAssignAppToTiles:
    def test_writes_into_global_perm(self):
        perm = np.full(6, -1, dtype=np.int64)
        c = np.array([1.0, 1.0, 1.0, 2.0, 3.0, 4.0])
        m = np.zeros(6)
        tc = np.arange(6, dtype=float) * 10 + 5
        tm = np.zeros(6)
        (apl,) = assign_apps_to_tiles(
            perm, [slice(3, 6)], c, m, [np.array([0, 2, 4])], tc, tm
        )
        assert set(perm[3:6].tolist()) == {0, 2, 4}
        assert np.all(perm[:3] == -1)
        assert apl > 0
        # heaviest thread (rate 4) on the cheapest tile (0)
        assert perm[5] == 0
