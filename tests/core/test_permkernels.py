"""Property tests pinning the solver kernels to their reference paths.

Three bit-identity contracts, fuzzed with hypothesis:

* :func:`repro.core.permkernels.sweep_pass_inplace` (every backend) is
  the fused form of the per-window ``_SwapState.try_window`` sweep —
  same accept decisions, same float accumulation, same counters — on
  random workloads including zero-traffic padding apps and across the
  multi-pass ``recompute()`` float-drift cadence.
* :class:`repro.core.permkernels.PermutationBatchEvaluator` reproduces
  per-permutation :func:`repro.core.metrics.evaluate_mapping` bitwise.
* Every Hungarian backend returns the assignment of the pure-Python
  reference, including on heavily tied (degenerate) cost matrices.

Plus the deterministic tie-break contracts of Monte Carlo and
exhaustive search that ride on the batch evaluator.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hungarian, permkernels
from repro.core.baselines import _permutation_batch, monte_carlo
from repro.core.exact import branch_and_bound, exhaustive_search
from repro.core.latency import Mesh, MeshLatencyModel
from repro.core.metrics import evaluate_many, evaluate_mapping
from repro.core.problem import OBMInstance
from repro.core.sam import solve_sam, solve_sams
from repro.core.sss import _SwapState, _window_perms
from repro.core.workload import Application, Workload
from repro.utils.rng import as_rng

# numpy runs in any environment; cc joins when a compiler is present.
BACKENDS = ["numpy"]
if permkernels.backend_info()["cc"]:
    BACKENDS.append("cc")


def fuzz_instance(seed: int, side: int, n_apps: int, idle_apps: int) -> OBMInstance:
    """Random instance; the last ``idle_apps`` applications have zero traffic."""
    rng = np.random.default_rng(seed)
    model = MeshLatencyModel(Mesh.square(side))
    n = model.n_tiles
    total_apps = min(n_apps + idle_apps, n)  # every app needs >= 1 thread
    n_apps = min(n_apps, total_apps)
    # Random composition of n threads over the apps, >= 1 thread each.
    cuts = np.sort(rng.choice(n - 1, size=total_apps - 1, replace=False)) + 1
    counts = np.diff(np.concatenate(([0], cuts, [n])))
    apps = []
    for i, k in enumerate(counts):
        idle = i >= n_apps
        apps.append(
            Application(
                f"a{i}",
                np.zeros(k) if idle else rng.uniform(0.1, 5, k),
                np.zeros(k) if idle else rng.uniform(0.0, 1, k),
            )
        )
    return OBMInstance(model, Workload(tuple(apps)))


def _reference_sweep(state: _SwapState, sorted_tiles: np.ndarray, w: int, max_step: int) -> None:
    """The pre-kernel per-window sweep, verbatim (one pass)."""
    n = sorted_tiles.size
    for step in range(1, max_step + 1):
        span = (w - 1) * step
        for start in range(n - span):
            state.try_window(sorted_tiles[start + step * np.arange(w)])


class TestSweepKernel:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        side=st.integers(3, 4),
        n_apps=st.integers(1, 3),
        idle_apps=st.integers(0, 2),
        window=st.integers(2, 4),
        passes=st.integers(1, 2),
    )
    def test_matches_per_window_reference(
        self, seed, side, n_apps, idle_apps, window, passes
    ):
        instance = fuzz_instance(seed, side, n_apps, idle_apps)
        rng = np.random.default_rng(seed + 1)
        perm0 = rng.permutation(instance.n).astype(np.int64)
        sorted_tiles = np.argsort(instance.tc, kind="stable").astype(np.int64)
        max_step = max(1, instance.n // window)

        ref = _SwapState(instance, perm0, window)
        for _ in range(passes):
            _reference_sweep(ref, sorted_tiles, window, max_step)
            ref.recompute()

        for backend in BACKENDS:
            state = _SwapState(instance, perm0, window)
            for _ in range(passes):
                tried, accepted = permkernels.sweep_pass_inplace(
                    sorted_tiles, window, max_step, state.perms, state.perm,
                    state.tile_thread, state.numerators, state.c, state.m,
                    state.tc, state.tm, state.app_of_thread,
                    state._safe_volumes, state.active, backend=backend,
                )
                state.windows_tried += tried
                state.windows_accepted += accepted
                state.recompute()
            assert state.perm.tolist() == ref.perm.tolist(), backend
            assert state.tile_thread.tolist() == ref.tile_thread.tolist(), backend
            assert state.numerators.tobytes() == ref.numerators.tobytes(), backend
            assert state.windows_tried == ref.windows_tried, backend
            assert state.windows_accepted == ref.windows_accepted, backend

    @pytest.mark.parametrize("strided", ["perm", "tile_thread", "numerators"])
    def test_strided_inplace_array_is_never_written_silently(self, strided):
        """A view the kernel cannot index gives numpy's result or ValueError."""
        instance = fuzz_instance(7, 4, 3, 0)
        perm0 = np.random.default_rng(7).permutation(instance.n).astype(np.int64)
        sorted_tiles = np.argsort(instance.tc, kind="stable").astype(np.int64)
        max_step = max(1, instance.n // 4)

        def sweep(state, backend):
            return permkernels.sweep_pass_inplace(
                sorted_tiles, 4, max_step, state.perms, state.perm,
                state.tile_thread, state.numerators, state.c, state.m,
                state.tc, state.tm, state.app_of_thread,
                state._safe_volumes, state.active, backend=backend,
            )

        want = _SwapState(instance, perm0, 4)
        want_counts = sweep(want, "numpy")
        for backend in BACKENDS:
            state = _SwapState(instance, perm0, 4)
            inner = getattr(state, strided)
            before = inner.copy()
            base = np.full(2 * inner.size, -7, dtype=inner.dtype)
            base[::2] = inner
            setattr(state, strided, base[::2])
            try:
                counts = sweep(state, backend)
            except ValueError:
                assert base[::2].tobytes() == before.tobytes(), backend
            else:
                assert counts == want_counts, backend
                assert state.perm.tolist() == want.perm.tolist(), backend
                assert state.numerators.tobytes() == want.numerators.tobytes(), backend
            assert np.all(base[1::2] == -7), backend

    def test_wrong_dtype_inplace_array_is_rejected_or_exact(self):
        instance = fuzz_instance(8, 4, 2, 0)
        perm0 = np.random.default_rng(8).permutation(instance.n).astype(np.int64)
        sorted_tiles = np.argsort(instance.tc, kind="stable").astype(np.int64)
        want = _SwapState(instance, perm0, 4)
        args = lambda st, backend: (  # noqa: E731
            sorted_tiles, 4, 4, st.perms, st.perm, st.tile_thread,
            st.numerators, st.c, st.m, st.tc, st.tm, st.app_of_thread,
            st._safe_volumes, st.active, backend,
        )
        permkernels.sweep_pass_inplace(*args(want, "numpy"))
        for backend in BACKENDS:
            state = _SwapState(instance, perm0, 4)
            state.perm = state.perm.astype(np.int32)
            try:
                permkernels.sweep_pass_inplace(*args(state, backend))
            except ValueError:
                assert state.perm.tolist() == perm0.tolist(), backend
            else:
                assert state.perm.tolist() == want.perm.tolist(), backend

    @pytest.mark.skipif("cc" not in BACKENDS, reason="no C compiler")
    def test_out_of_range_inputs_are_rejected_before_the_kernel(self):
        instance = fuzz_instance(9, 4, 2, 0)
        sorted_tiles = np.argsort(instance.tc, kind="stable").astype(np.int64)

        def sweep(**change):
            state = _SwapState(instance, np.arange(instance.n), 4)
            args = dict(
                sorted_tiles=sorted_tiles, w=4, max_step=4, perms=state.perms,
                perm=state.perm, tile_thread=state.tile_thread,
                numerators=state.numerators, c=state.c, m=state.m, tc=state.tc,
                tm=state.tm, app_of_thread=state.app_of_thread,
                safe_volumes=state._safe_volumes, active=state.active,
            )
            args.update(change)
            permkernels.sweep_pass_inplace(**args, backend="cc")

        n = instance.n
        for change in (
            {"tile_thread": np.arange(n // 2, dtype=np.int64)},
            {"sorted_tiles": np.append(sorted_tiles[:-1], n)},
            {"c": np.ones(n - 1)},
            {"active": np.array([0, 5], dtype=np.int64)},
            {"perms": _window_perms(3)},
        ):
            with pytest.raises(ValueError):
                sweep(**change)

    def test_window_perms_identity_first(self):
        for w in (2, 3, 4):
            perms = _window_perms(w)
            assert perms[0].tolist() == list(range(w))
            assert perms.shape == (math.factorial(w), w)


class TestBatchEvaluator:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        side=st.integers(2, 4),
        n_apps=st.integers(1, 3),
        idle_apps=st.integers(0, 2),
        k=st.integers(1, 16),
    )
    def test_evaluations_match_evaluate_mapping(self, seed, side, n_apps, idle_apps, k):
        instance = fuzz_instance(seed, side, n_apps, idle_apps)
        rng = np.random.default_rng(seed + 2)
        perms = np.stack([rng.permutation(instance.n) for _ in range(k)]).astype(np.int64)
        wl = instance.workload
        batch = evaluate_many(wl, perms, instance.tc, instance.tm)
        assert len(batch) == k
        for row, got in zip(perms, batch):
            want = evaluate_mapping(wl, row, instance.tc, instance.tm)
            assert got.apls.tobytes() == want.apls.tobytes()
            assert float(got.max_apl).hex() == float(want.max_apl).hex()
            assert float(got.dev_apl).hex() == float(want.dev_apl).hex()
            assert float(got.g_apl).hex() == float(want.g_apl).hex()
            assert float(got.min_max_ratio).hex() == float(want.min_max_ratio).hex()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        side=st.integers(2, 4),
        n_apps=st.integers(1, 4),
        k=st.integers(1, 16),
    )
    def test_metrics_match_scalar_functions(self, seed, side, n_apps, k):
        from repro.core.metrics import dev_apl, g_apl, max_apl

        instance = fuzz_instance(seed, side, n_apps, 0)
        rng = np.random.default_rng(seed + 3)
        perms = np.stack([rng.permutation(instance.n) for _ in range(k)]).astype(np.int64)
        wl = instance.workload
        max_col, dev_col, g_col = instance.batch_evaluator.metrics(perms)
        for i, row in enumerate(perms):
            assert float(max_col[i]).hex() == float(max_apl(wl, row, instance.tc, instance.tm)).hex()
            assert float(dev_col[i]).hex() == float(dev_apl(wl, row, instance.tc, instance.tm)).hex()
            assert float(g_col[i]).hex() == float(g_apl(wl, row, instance.tc, instance.tm)).hex()

    def test_one_dimensional_promotion_and_shape_check(self):
        instance = fuzz_instance(0, 2, 2, 0)
        ev = instance.batch_evaluator
        single = ev.max_apls(np.arange(instance.n, dtype=np.int64))
        assert single.shape == (1,)
        with pytest.raises(ValueError):
            ev.max_apls(np.zeros((2, instance.n + 1), dtype=np.int64))

    def test_objective_values_chunking_is_invisible(self):
        instance = fuzz_instance(5, 3, 2, 1)
        rng = np.random.default_rng(9)
        perms = np.stack([rng.permutation(instance.n) for _ in range(7)]).astype(np.int64)
        ev = instance.batch_evaluator
        whole = ev.objective_values(perms, lambda e: e.dev_apl, chunk=512)
        tiny = ev.objective_values(perms, lambda e: e.dev_apl, chunk=2)
        assert whole.tobytes() == tiny.tobytes()


class TestHungarianBackends:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        n=st.integers(1, 8),
        extra_cols=st.integers(0, 3),
        levels=st.integers(1, 4),
    )
    def test_all_backends_match_reference(self, seed, n, extra_cols, levels):
        # Few distinct integer values => many exact ties: the tie-break
        # (ascending-column first minimum) must agree across backends.
        rng = np.random.default_rng(seed)
        cost = rng.integers(0, levels, size=(n, n + extra_cols)).astype(float)
        want = hungarian._solve_reference(cost, n, n + extra_cols)
        for backend in BACKENDS:
            with permkernels.force_backend(backend):
                got = hungarian.solve_assignment(cost)
            assert got.col_of_row.tolist() == want.col_of_row.tolist(), backend
            assert float(got.total_cost).hex() == float(want.total_cost).hex(), backend


def _tied_costs(rng, shapes, levels):
    return [rng.integers(0, levels, size=shape).astype(float) for shape in shapes]


_ragged_shapes = st.lists(
    st.tuples(st.integers(1, 8), st.integers(0, 3)).map(lambda t: (t[0], t[0] + t[1])),
    min_size=1,
    max_size=5,
)


def _raised(fn, *args) -> str:
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestAssignmentBatches:
    """Batches of assignment/SAM problems == the problems solved one by one."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), shapes=_ragged_shapes, levels=st.integers(1, 4))
    def test_batch_equals_single_solves(self, seed, shapes, levels):
        rng = np.random.default_rng(seed)
        costs = _tied_costs(rng, shapes, levels)
        # Eq. 13 blocks with tied integer rates and tile latencies.
        rates = [
            tuple(rng.integers(0, levels + 1, size=k).astype(float) for k in (n, n, m, m))
            for n, m in shapes
        ]
        for backend in [*BACKENDS, "reference"]:
            with permkernels.force_backend(backend):
                batch = hungarian.solve_assignments(costs)
                singles = [hungarian.solve_assignment(cost) for cost in costs]
                rate_batch = hungarian.solve_rate_assignments(rates)
                rate_singles = [
                    hungarian.solve_assignment(c[:, None] * tc[None, :] + m[:, None] * tm[None, :])
                    for c, m, tc, tm in rates
                ]
            for got, want in zip(batch + rate_batch, singles + rate_singles):
                assert got.col_of_row.tolist() == want.col_of_row.tolist(), backend
                assert float(got.total_cost).hex() == float(want.total_cost).hex(), backend

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), sizes=st.lists(st.integers(1, 6), min_size=1, max_size=4))
    def test_sam_batch_equals_single_solves(self, seed, sizes):
        rng = np.random.default_rng(seed)
        tc = rng.integers(1, 4, size=16).astype(float)
        tm = rng.integers(0, 3, size=16).astype(float)
        problems = [
            (
                rng.integers(0, 3, size=k).astype(float),
                rng.integers(0, 2, size=k).astype(float),
                rng.choice(16, size=k, replace=False),
            )
            for k in sizes
        ]
        for backend in [*BACKENDS, "reference"]:
            with permkernels.force_backend(backend):
                batch = solve_sams(problems, tc, tm)
                singles = [solve_sam(c, m, tiles, tc, tm) for c, m, tiles in problems]
            for got, want in zip(batch, singles):
                assert got.tile_of_thread.tolist() == want.tile_of_thread.tolist(), backend
                assert float(got.apl).hex() == float(want.apl).hex(), backend
                assert float(got.total_latency).hex() == float(want.total_latency).hex()

    @pytest.mark.skipif("cc" not in BACKENDS, reason="no C compiler")
    def test_kernel_buffers_must_match_their_layout(self):
        from repro.core import cc_solvers

        lib, _ = cc_solvers.load_library()
        ints = np.array([2, 2, 0, 0], dtype=np.int64)
        reals = np.concatenate([np.ones(4), np.empty(2)])
        assert cc_solvers.cc_assign_batch(lib, 1, ints, reals, True) == 0
        for bad_ints, bad_reals in (
            (ints[:3], reals),
            (ints, reals[:-1]),
            (np.array([0, 2, 0, 0], dtype=np.int64), reals),
            (ints, np.ones(6, dtype=np.float32)),
        ):
            with pytest.raises(ValueError):
                cc_solvers.cc_assign_batch(lib, 1, bad_ints, bad_reals, True)

    BAD_COSTS = {
        "empty": np.zeros((0, 3)),
        "more_rows": np.ones((3, 2)),
        "non_finite": np.array([[1.0, np.inf], [0.0, 1.0]]),
        "nan": np.array([[1.0, np.nan]]),
        "not_2d": np.ones(3),
    }

    @pytest.mark.parametrize("kind", sorted(BAD_COSTS))
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_batch_raises_the_single_solve_error(self, kind, position):
        bad = self.BAD_COSTS[kind]
        good = [np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([[3.0, 1.0, 2.0]])]
        batch = good[:position] + [bad] + good[position:]
        for backend in [*BACKENDS, "reference"]:
            with permkernels.force_backend(backend):
                want = _raised(hungarian.solve_assignment, bad)
                assert _raised(hungarian.solve_assignments, batch) == want, backend
                # Two bad problems: the first one's error wins.
                other = self.BAD_COSTS["more_rows" if kind != "more_rows" else "empty"]
                assert _raised(hungarian.solve_assignments, batch + [other]) == want

    BAD_SAMS = {
        "duplicate_tiles": (np.ones(2), np.ones(2), np.array([3, 3])),
        "length_mismatch": (np.ones(2), np.ones(3), np.array([1, 2])),
        "empty": (np.ones(0), np.ones(0), np.array([], dtype=np.int64)),
        "non_finite_rates": (np.array([1.0, np.inf]), np.ones(2), np.array([1, 2])),
        "overflow": (np.array([1e300, 1.0]), np.ones(2), np.array([1, 2])),
    }

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("kind", sorted(BAD_SAMS))
    @pytest.mark.parametrize("position", [0, 1])
    def test_sam_batch_raises_the_single_solve_error(self, kind, position):
        tc = np.linspace(1.0, 1e10, 8)
        tm = np.ones(8)
        bad = self.BAD_SAMS[kind]
        good = [(np.ones(3), np.zeros(3), np.array([0, 5, 7]))]
        batch = good[:position] + [bad] + good[position:]
        for backend in [*BACKENDS, "reference"]:
            with permkernels.force_backend(backend):
                want = _raised(solve_sam, *bad, tc, tm)
                assert _raised(solve_sams, batch, tc, tm) == want, backend
                other = self.BAD_SAMS["duplicate_tiles" if kind != "duplicate_tiles" else "empty"]
                assert _raised(solve_sams, batch + [other], tc, tm) == want, backend


class TestMonteCarloTieBreak:
    def test_constant_objective_returns_first_sample(self):
        """All samples tie => the first sampled permutation wins (satellite 1)."""
        instance = fuzz_instance(3, 3, 2, 0)
        result = monte_carlo(
            instance, n_samples=64, seed=11, objective=lambda ev: 0.0, batch=16
        )
        first = _permutation_batch(as_rng(11), 16, instance.n)[0]
        assert result.mapping.perm.tolist() == first.tolist()
        assert result.extra["objective_value"] == 0.0

    @pytest.mark.parametrize("name", ["max_apl", "dev_apl", "g_apl"])
    def test_callable_equals_named_objective(self, name):
        """The chunked-callable path is bit-identical to the named fast path."""
        from repro.core.baselines import OBJECTIVES

        instance = fuzz_instance(7, 3, 3, 1)
        named = monte_carlo(instance, n_samples=300, seed=5, objective=name)
        fn = OBJECTIVES[name]
        via_callable = monte_carlo(
            instance, n_samples=300, seed=5, objective=lambda ev: fn(ev)
        )
        assert via_callable.mapping.perm.tolist() == named.mapping.perm.tolist()
        assert (
            float(via_callable.extra["objective_value"]).hex()
            == float(named.extra["objective_value"]).hex()
        )


class TestExhaustiveSearch:
    def test_matches_branch_and_bound_optimum(self):
        for seed in (0, 1, 2):
            instance = fuzz_instance(seed, 2, 2, 0)
            exact = branch_and_bound(instance)
            brute = exhaustive_search(instance)
            assert (
                float(brute.evaluation.max_apl).hex()
                == float(exact.evaluation.max_apl).hex()
            )
            assert brute.extra["proved_optimal"]
            assert brute.extra["permutations"] == 24

    def test_chunking_does_not_change_the_winner(self):
        instance = fuzz_instance(4, 2, 2, 0)
        whole = exhaustive_search(instance)
        tiny = exhaustive_search(instance, chunk=5)
        assert tiny.mapping.perm.tolist() == whole.mapping.perm.tolist()

    def test_rejects_large_instances_and_bad_chunk(self):
        big = fuzz_instance(0, 4, 2, 0)  # 16 threads > 10
        with pytest.raises(ValueError):
            exhaustive_search(big)
        small = fuzz_instance(0, 2, 2, 0)
        with pytest.raises(ValueError):
            exhaustive_search(small, chunk=0)


class TestBackendPlumbing:
    def test_force_backend_rejects_unknown(self):
        with pytest.raises(ValueError):
            with permkernels.force_backend("fortran"):
                pass

    def test_resolve_backend_honours_force(self):
        with permkernels.force_backend("numpy"):
            assert permkernels.resolve_backend() == "numpy"
        with permkernels.force_backend("reference"):
            assert permkernels.resolve_backend() == "reference"

    def test_env_off_selects_numpy(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "0")
        assert permkernels.resolve_backend() == "numpy"
        for retired in ("numba", "interp"):
            with pytest.raises(ValueError):
                with permkernels.force_backend(retired):
                    pass

    def test_backend_info_shape(self):
        info = permkernels.backend_info()
        assert set(info) == {"backend", "cc", "cc_compiler", "cc_reason"}
        assert info["backend"] in ("cc", "numpy")

    def test_warmup_idempotent(self):
        first = permkernels.warmup()
        assert first == permkernels.warmup()
