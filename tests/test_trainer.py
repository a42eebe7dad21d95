import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from somimpute import (
    UNCLASSIFIABLE,
    CodeBook,
    DataMatrix,
    GridTopology,
    TrainingMode,
    TrainingSchedule,
    classify_supplementary,
    fit_standardizer,
    forgy_train,
    standardize,
    train,
)
from somimpute.metric import assign
from somimpute.synthetic import gaussian_blobs
from somimpute import trainer
from somimpute.data import _BLOCK_ROWS
from somimpute.trainer import (
    _LOCKSTEP_MAX_CELLS,
    _draw_initial_codes,
    _lockstep_updates,
    _neighbor_blocks,
    _online_updates,
    _schedule_arrays,
    _transposed,
    pool_mask,
    train_maps,
)
from conftest import random_incomplete
from helpers import (
    alpha_at,
    brute_masked_sq_distance,
    brute_neighbors,
    brute_winner,
    radius_at,
    reference_train_codes,
)


def _kernel_runs(codes, topo, data, draws, alpha, radius):
    """Codes after presenting the rows ``draws`` in order at a fixed
    ``alpha`` and ``radius``, once per training kernel: the window kernel
    on a transposed copy, and the lockstep kernel on two copies at once
    (K = 2)."""
    codes = np.asarray(codes, dtype=float)
    draws = np.asarray(draws)
    alphas, radii = np.full(draws.size, alpha), np.full(draws.size, radius)
    c3 = _transposed(codes, topo)
    _online_updates(c3, data.values, data.mask, draws, alphas, radii)
    C = np.ascontiguousarray(np.stack([codes, codes]).transpose(0, 2, 1))
    _lockstep_updates(C, data.values, data.mask, np.stack([draws, draws], axis=1),
                      alphas, radii, topo.distance_matrix())
    return [c3.reshape(codes.shape[1], -1).T, C[0].T, C[1].T]


class TestSchedule:
    def test_alpha_positive_and_non_increasing(self):
        s = TrainingSchedule(total_iters=500, alpha0=0.5, alpha_final=0.01, radius0=3)
        alphas = [alpha_at(s, t) for t in range(500)]
        assert all(a > 0 for a in alphas)
        assert all(a >= b for a, b in zip(alphas, alphas[1:]))
        assert alphas[0] == 0.5
        assert alphas[-1] == pytest.approx(0.01)

    def test_radius_steps_down_to_zero(self):
        s = TrainingSchedule(total_iters=100, radius0=2, zero_radius_fraction=0.4)
        radii = [radius_at(s, t) for t in range(100)]
        assert radii[0] == 2
        assert all(isinstance(r, int) for r in radii)
        assert all(a >= b for a, b in zip(radii, radii[1:]))
        # final 40% of iterations run at radius 0
        assert all(r == 0 for r in radii[60:])
        assert radii[-1] == 0

    def test_equal_plateau_lengths(self):
        s = TrainingSchedule(total_iters=100, radius0=2, zero_radius_fraction=0.4)
        radii = [radius_at(s, t) for t in range(100)]
        assert radii.count(2) == 30
        assert radii.count(1) == 30
        assert radii.count(0) == 40

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TrainingSchedule(total_iters=0)
        for bad in (0.0, -0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="alpha0"):
                TrainingSchedule(alpha0=bad)
        with pytest.raises(ValueError, match="alpha_final"):
            TrainingSchedule(alpha_final=0.0)
        with pytest.raises(ValueError):
            TrainingSchedule(alpha0=0.3, alpha_final=0.4)
        for bad in (-1, 1.5):
            with pytest.raises(ValueError, match="radius0"):
                TrainingSchedule(radius0=bad)
        with pytest.raises(ValueError):
            TrainingSchedule(zero_radius_fraction=1.5)
        with pytest.raises(ValueError):
            TrainingSchedule(rng_seed=-5)

    def test_schedule_that_never_reaches_zero_radius_rejected(self):
        with pytest.raises(ValueError, match="radius 0"):
            TrainingSchedule(total_iters=10, radius0=20, zero_radius_fraction=0.0)

    def test_schedule_error_names_the_real_condition(self):
        # the schedule is rejected exactly when the error says: more
        # iterations never help, since with no step reserved for radius 0
        # the last step still has a positive radius
        for total_iters in (*range(1, 13), 99, 1000, 10**6):
            for radius0 in (0, 1, 2, 3, 40):
                for zero_fraction in (0.0, 1e-9, 0.001, 0.1, 0.4, 0.5, 0.999, 1.0):
                    args = dict(total_iters=total_iters, radius0=radius0,
                                zero_radius_fraction=zero_fraction)
                    if radius0 > 0 and zero_fraction == 0.0:
                        with pytest.raises(ValueError, match=re.escape(
                                f"radius0={radius0} > 0 needs zero_radius_fraction > 0")):
                            TrainingSchedule(**args)
                    else:
                        s = TrainingSchedule(**args)
                        assert radius_at(s, total_iters - 1) == 0, args

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3000), st.integers(0, 40), st.floats(0.001, 0.999),
           st.floats(0.001, 1.0), st.floats(0.0, 1.0))
    @example(1, 0, 0.5, 0.02, 0.4)
    @example(3000, 2**53, 0.5, 0.02, 0.5)  # radius0 * decay_iters exceeds int64
    def test_schedule_arrays_equal_per_step_values(self, total_iters, radius0, alpha0,
                                                   shrink, zero_fraction):
        try:
            s = TrainingSchedule(total_iters=total_iters, alpha0=alpha0,
                                 alpha_final=alpha0 * shrink, radius0=radius0,
                                 zero_radius_fraction=zero_fraction)
        except ValueError:
            assume(False)
        alphas, radii = _schedule_arrays(s)
        assert alphas.tolist() == [alpha_at(s, t) for t in range(total_iters)]
        assert radii.tolist() == [radius_at(s, t) for t in range(total_iters)]


class TestInitCodebook:
    def test_degenerate_range_pins_component(self):
        values = np.array([[2.0, 1.0], [2.0, 5.0], [2.0, 3.0]])
        data = DataMatrix.from_nan(values)
        codes = _draw_initial_codes(np.random.default_rng(0), data, GridTopology(2, 2))
        assert np.all(codes[:, 0] == 2.0)

    def test_same_seed_same_codes(self, small_incomplete):
        topo = GridTopology(2, 3)
        a = _draw_initial_codes(np.random.default_rng(9), small_incomplete, topo)
        b = _draw_initial_codes(np.random.default_rng(9), small_incomplete, topo)
        assert np.array_equal(a, b)

    def test_components_stay_in_observed_ranges(self):
        for seed in range(100):
            data = random_incomplete(seed)
            lo, hi = data.column_ranges()
            codes = _draw_initial_codes(np.random.default_rng(seed), data, GridTopology(2, 2))
            assert np.all(codes >= lo) and np.all(codes <= hi)


class TestSgdStep:
    """One online step, as both training kernels make it (see _kernel_runs)."""

    def test_alpha_one_copies_observed_components(self):
        values = np.array([[2.0, np.nan], [1.0, 1.0]])
        data = DataMatrix(values, np.isfinite(values), ("a", "b"), ("x", "y"))
        for out in _kernel_runs([[5.0, 5.0]], GridTopology(1, 1), data, [0], 1.0, 0):
            assert out[0, 0] == 2.0
            assert out[0, 1] == 5.0  # missing component untouched

    def test_half_step_hand_case(self):
        data = DataMatrix.from_nan(np.array([[2.0]]))
        for out in _kernel_runs([[0.0]], GridTopology(1, 1), data, [0], 0.5, 0):
            assert out[0, 0] == 1.0

    def test_missing_column_leaves_codebook_column_bit_identical(self):
        rng = np.random.default_rng(0)
        codes = rng.normal(size=(4, 3))
        values = np.array([[1.0, np.nan, 2.0], [0.5, 3.0, 0.5]])
        data = DataMatrix(values, np.isfinite(values), ("a", "b"), ("x", "y", "z"))
        for out in _kernel_runs(codes, GridTopology(1, 4), data, [0], 0.7, 3):
            assert np.array_equal(out[:, 1], codes[:, 1])

    def test_non_neighbors_untouched(self):
        codes = np.array([[0.0], [10.0], [20.0]])
        data = DataMatrix.from_nan(np.array([[1.0]]))
        for out in _kernel_runs(codes, GridTopology(1, 3), data, [0], 0.5, 0):
            assert out[0, 0] == 0.5
            assert np.array_equal(out[1:], codes[1:])
        # radius 1 moves the winner's grid neighbour too, and nothing beyond it
        for out in _kernel_runs(codes, GridTopology(1, 3), data, [0], 0.5, 1):
            assert out.ravel().tolist() == [0.5, 5.5, 20.0]
        for out in _kernel_runs([[0.0], [3.0]], GridTopology(1, 2), data, [0], 0.5, 1):
            assert out.ravel().tolist() == [0.5, 2.0]

    def test_input_codebook_not_modified(self):
        # each kernel updates its own transposed or stacked copy in place
        codes = np.array([[0.0], [4.0]])
        data = DataMatrix.from_nan(np.array([[2.0]]))
        before = codes.copy(), data.values.copy()
        outs = _kernel_runs(codes, GridTopology(1, 2), data, [0], 0.5, 1)
        assert all(out.ravel().tolist() == [1.0, 3.0] for out in outs)
        assert np.array_equal(codes, before[0])
        assert np.array_equal(data.values, before[1])

    def test_all_missing_row_rejected(self):
        # the training pool leaves such a row out, and a kernel handed one
        # anyway moves nothing
        codes = np.array([[0.0, 0.0], [3.0, 3.0]])
        values = np.array([[np.nan, np.nan], [1.0, 1.0]])
        data = DataMatrix(values, np.isfinite(values), ("a", "b"), ("x", "y"))
        for mode in TrainingMode:
            assert pool_mask(data, mode).tolist() == [False, True]
        for out in _kernel_runs(codes, GridTopology(1, 2), data, [0], 0.5, 1):
            assert np.array_equal(out, codes)

    def test_training_on_rows_missing_a_column_isolates_it(self):
        # every presented row misses column 1: that codebook column never moves
        rng = np.random.default_rng(2)
        codes = rng.normal(size=(3, 3))
        values = rng.normal(size=(6, 3))
        values[:, 1] = np.nan
        values[0, 1] = 4.0  # keeps the column constructible; row 0 is never presented
        data = DataMatrix(values, np.isfinite(values), tuple("abcdef"), ("x", "y", "z"))
        draws = [1, 2, 3, 4, 5, 1, 2, 3]
        for out in _kernel_runs(codes, GridTopology(1, 3), data, draws, 0.3, 1):
            assert np.array_equal(out[:, 1], codes[:, 1])
            assert not np.array_equal(out, codes)

    def test_winner_is_the_assign_winner_bit_for_bit(self):
        # The online winner adds the observed squared differences in ascending
        # order, as assign does.  Two near codes whose differences to the row
        # are permutations of each other tie up to summation order, and a
        # duplicated code ties exactly (lowest unit wins).
        rng = np.random.default_rng(11)
        for case in range(300):
            p = int(rng.integers(8, 41))
            n_units = int(rng.integers(9, 101))
            m = np.ones(p, dtype=bool)
            m[rng.choice(p, size=int(rng.integers(0, p - 7)), replace=False)] = False
            obs = np.flatnonzero(m)
            x = np.where(m, 0.0, np.nan)
            codes = rng.normal(size=(n_units, p))
            u, v, z = rng.choice(n_units, size=3, replace=False)
            codes[u] *= 0.1
            codes[v, obs] = codes[u, obs][rng.permutation(obs.size)]
            if case % 3 == 0:
                codes[z] = codes[u]
            data = DataMatrix.from_nan(np.vstack([x, np.ones(p)]))
            expected = assign(codes, x[None], m[None]).units[0]
            assert expected == brute_winner(x, m, codes)
            for out in _kernel_runs(codes, GridTopology(1, n_units), data, [0], 0.5, 0):
                moved = np.flatnonzero((out != codes).any(axis=1))
                assert moved.tolist() == [expected], f"case {case}"


class TestTrain:
    def test_modes_coincide_on_complete_data(self):
        data = DataMatrix.from_nan(np.random.default_rng(4).normal(size=(30, 3)))
        topo = GridTopology(2, 2)
        sched = TrainingSchedule(total_iters=300, radius0=1, rng_seed=7)
        a = train(data, topo, sched, TrainingMode.INCLUDE_INCOMPLETE)
        b = train(data, topo, sched, TrainingMode.COMPLETE_ONLY)
        assert np.array_equal(a.codebook.codes, b.codebook.codes)
        assert np.array_equal(a.assignment.units, b.assignment.units)

    def test_trajectory_matches_unmasked_reference_step_for_step(self):
        # replays the documented sampling protocol one draw per kernel call,
        # through both kernels, and compares against a plain unmasked loop
        # after every step
        rng = np.random.default_rng(14)
        raw = rng.normal(size=(20, 3))
        data = DataMatrix.from_nan(raw)
        topo = GridTopology(2, 2)
        sched = TrainingSchedule(total_iters=60, radius0=1, zero_radius_fraction=0.5,
                                 rng_seed=5)
        g = np.random.default_rng(sched.rng_seed)
        ref = g.uniform(raw.min(axis=0), raw.max(axis=0), size=(4, 3))
        c3 = _transposed(ref, topo)
        C = np.ascontiguousarray(np.stack([ref, ref]).transpose(0, 2, 1))
        cheb = topo.distance_matrix()
        for t in range(sched.total_iters):
            i = int(g.integers(raw.shape[0]))
            step = np.array([alpha_at(sched, t)]), np.array([radius_at(sched, t)])
            _online_updates(c3, data.values, data.mask, np.array([i]), *step)
            _lockstep_updates(C, data.values, data.mask, np.array([[i, i]]), *step, cheb)
            x = raw[i]
            w = int(np.argmin(((ref - x) ** 2).sum(axis=1)))
            nb = np.flatnonzero(cheb[w] <= radius_at(sched, t))
            ref[nb] = ref[nb] + alpha_at(sched, t) * (x - ref[nb])
            assert np.array_equal(c3.reshape(3, -1).T, ref), f"diverged at step {t}"
            assert np.array_equal(C[0].T, ref) and np.array_equal(C[1].T, ref), f"step {t}"

    def test_train_matches_sgd_step_replay_on_holed_data(self):
        # replaying the documented draws one window-kernel call per step must
        # give train's codebook bit for bit, here with holes in every one of
        # 12 columns
        topo = GridTopology(3, 3)
        for seed in range(6):
            data = random_incomplete(seed, n=40, p=12, missing=0.3)
            sched = TrainingSchedule(total_iters=300, radius0=2, rng_seed=seed)
            pool = np.flatnonzero(data.mask.any(axis=1))
            g = np.random.default_rng(sched.rng_seed)
            lo, hi = data.column_ranges()
            c3 = _transposed(g.uniform(lo, hi, size=(topo.n_units, data.n_cols)), topo)
            for t in range(sched.total_iters):
                i = int(pool[g.integers(pool.size)])
                _online_updates(c3, data.values, data.mask, np.array([i]),
                                np.array([alpha_at(sched, t)]), np.array([radius_at(sched, t)]))
            fit = train(data, topo, sched)
            assert np.array_equal(c3.reshape(data.n_cols, -1).T, fit.codebook.codes), f"seed {seed}"

    def test_fixed_seed_is_bit_reproducible(self):
        data = random_incomplete(31, n=20, p=4)
        topo = GridTopology(2, 3)
        sched = TrainingSchedule(total_iters=400, radius0=2, rng_seed=123)
        a = train(data, topo, sched)
        b = train(data, topo, sched)
        assert np.array_equal(a.codebook.codes, b.codebook.codes)
        assert np.array_equal(a.assignment.units, b.assignment.units)
        assert np.array_equal(
            a.assignment.sq_distances, b.assignment.sq_distances, equal_nan=True
        )

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(1, 30), st.integers(1, 40),
           st.sampled_from([0.0, 0.2, 0.5]), st.integers(1, 150), st.integers(0, 14),
           st.floats(0.01, 1.0), st.booleans(), st.integers(0, 2**32 - 1))
    @example(1, 1, 5, 3, 0.2, 1, 0, 0.4, False, 0)
    @example(1, 7, 12, 9, 0.5, 120, 14, 0.3, False, 1)
    @example(10, 1, 20, 40, 0.2, 150, 12, 0.4, True, 2)
    def test_train_matches_reference_trainer_bit_for_bit(
        self, rows, cols, n, p, missing, total_iters, radius0, zero_fraction,
        complete_only, seed,
    ):
        rng = np.random.default_rng(seed)
        mask = rng.random((n, p)) >= missing
        mask[0] = True  # every column observed, one complete row
        data = DataMatrix.from_nan(np.where(mask, rng.normal(size=(n, p)), np.nan))
        topo = GridTopology(rows, cols)
        sched = TrainingSchedule(total_iters=total_iters, radius0=radius0,
                                 zero_radius_fraction=zero_fraction, rng_seed=seed)
        mode = TrainingMode.COMPLETE_ONLY if complete_only else TrainingMode.INCLUDE_INCOMPLETE
        fit = train(data, topo, sched, mode)
        ref = reference_train_codes(data, topo, sched, complete_only)
        assert fit.codebook.codes.tobytes() == ref.tobytes()

    def test_neighbor_windows_match_topology_neighbors(self):
        # each unit's slice window holds exactly the units within the radius
        # on the grid, enumerated one by one, as views into the codebook so
        # that updates land in place; so does each lockstep ball
        for rows in range(1, 8):
            for cols in range(1, 8):
                topo = GridTopology(rows, cols)
                units = np.arange(topo.n_units, dtype=float).reshape(1, rows, cols)
                for radius in range(max(rows, cols) + 1):
                    blocks = _neighbor_blocks(units, radius)
                    balls = topo.distance_matrix() <= radius
                    assert len(blocks) == topo.n_units
                    for u, block in enumerate(blocks):
                        expected = brute_neighbors(rows, cols, u, radius)
                        assert np.shares_memory(block, units)
                        assert block.ravel().tolist() == expected
                        assert np.flatnonzero(balls[u]).tolist() == expected

    def test_two_clusters_codes_land_on_cluster_means(self):
        data, labels = gaussian_blobs(
            np.array([[-3.0, -3.0], [3.0, 3.0]]), 40, noise=0.5, seed=3
        )
        std = standardize(data, fit_standardizer(data))
        sched = TrainingSchedule(
            total_iters=2000, alpha0=0.5, alpha_final=0.01, radius0=1,
            zero_radius_fraction=0.5, rng_seed=21,
        )
        fit = train(std, GridTopology(1, 2), sched)
        means = np.array([std.values[labels == g].mean(axis=0) for g in (0, 1)])
        matched = {int(np.argmin(((means - c) ** 2).sum(axis=1))) for c in fit.codebook.codes}
        assert matched == {0, 1}  # one code per cluster
        for c in fit.codebook.codes:
            nearest = means[int(np.argmin(((means - c) ** 2).sum(axis=1)))]
            assert np.abs(c - nearest).max() < 0.1
        # stated oracle: batch masked clustering converges to the same means
        forgy = forgy_train(std, 2, seed=9)
        for c in forgy.centroids.codes:
            nearest = means[int(np.argmin(((means - c) ** 2).sum(axis=1)))]
            assert np.abs(c - nearest).max() < 1e-9

    def test_all_missing_rows_skipped_and_flagged(self, small_incomplete):
        sched = TrainingSchedule(total_iters=50, radius0=1, zero_radius_fraction=0.5, rng_seed=0)
        fit = train(small_incomplete, GridTopology(1, 2), sched)
        assert np.flatnonzero(fit.assignment.units == UNCLASSIFIABLE).tolist() == [2]
        assert not pool_mask(small_incomplete, TrainingMode.INCLUDE_INCOMPLETE)[2]

    def test_complete_only_needs_a_complete_row(self):
        values = np.array([[1.0, np.nan], [np.nan, 2.0]])
        data = DataMatrix(values, np.isfinite(values), ("a", "b"), ("x", "y"))
        sched = TrainingSchedule(total_iters=10, radius0=0, rng_seed=0)
        with pytest.raises(ValueError, match="complete"):
            train(data, GridTopology(1, 1), sched, TrainingMode.COMPLETE_ONLY)

    def test_complete_only_classifies_incomplete_rows_as_supplementary(self):
        data = random_incomplete(17, n=25, p=3, missing=0.2)
        sched = TrainingSchedule(total_iters=200, radius0=1, rng_seed=5)
        fit = train(data, GridTopology(2, 2), sched, TrainingMode.COMPLETE_ONLY)
        complete = data.mask.all(axis=1)
        assert np.array_equal(pool_mask(data, TrainingMode.COMPLETE_ONLY), complete)
        incomplete_but_classifiable = ~complete & data.mask.any(axis=1)
        assert np.all(fit.assignment.units[incomplete_but_classifiable] >= 0)

    def test_codes_stay_in_observed_column_ranges(self):
        for seed in range(10):
            data = random_incomplete(seed, n=25, p=4, missing=0.5)
            lo, hi = data.column_ranges()
            sched = TrainingSchedule(total_iters=300, radius0=1, rng_seed=seed)
            fit = train(data, GridTopology(2, 2), sched)
            assert np.all(fit.codebook.codes >= lo)
            assert np.all(fit.codebook.codes <= hi)

    def test_assignment_is_winner_under_final_codes(self):
        data = random_incomplete(8, n=15, p=3)
        sched = TrainingSchedule(total_iters=150, radius0=1, rng_seed=2)
        fit = train(data, GridTopology(2, 2), sched)
        for i in range(data.n_rows):
            obs = data.mask[i]
            if not obs.any():
                continue
            assert fit.assignment.units[i] == brute_winner(data.values[i], obs,
                                                           fit.codebook.codes)

    def test_sgd_reduces_total_distortion(self):
        # statistical check: final distortion under the trained codes never
        # exceeds the distortion under the initial codes, over several seeds
        data, _ = gaussian_blobs(np.array([[0.0, 0.0], [6.0, 6.0]]), 25, noise=0.8, seed=1)
        std = standardize(data, fit_standardizer(data))
        topo = GridTopology(1, 2)
        for seed in range(5):
            sched = TrainingSchedule(total_iters=800, radius0=1, zero_radius_fraction=0.5,
                                     rng_seed=seed)
            init = _draw_initial_codes(np.random.default_rng(seed), std, topo)
            fit = train(std, topo, sched)

            def distortion(codes):
                total = 0.0
                for i in range(std.n_rows):
                    w = brute_winner(std.values[i], std.mask[i], codes)
                    total += brute_masked_sq_distance(std.values[i], std.mask[i], codes[w])
                return total

            assert distortion(fit.codebook.codes) <= distortion(init)


def _holed_tables(seed, n_maps, shared, p, missing):
    """``n_maps`` holed tables of width ``p``: one shared table, or distinct
    tables of 2-30 rows and missing shares up to ``missing``.  Row 0 is
    complete, and in a distinct table the last row may be all missing."""
    rng = np.random.default_rng(seed)
    tables = []
    for _ in range(1 if shared else n_maps):
        n = int(rng.integers(2, 31))
        mask = rng.random((n, p)) >= rng.uniform(0.0, missing)
        mask[0] = True
        if not shared and rng.random() < 0.3:
            mask[-1] = False
        tables.append(DataMatrix.from_nan(np.where(mask, rng.normal(size=(n, p)), np.nan)))
    return tables * n_maps if shared else tables


class TestTrainMaps:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.booleans(), st.integers(1, 10), st.integers(1, 10),
           st.integers(1, 60), st.sampled_from([0.0, 0.3, 0.6]), st.integers(1, 120),
           st.integers(0, 14), st.booleans(), st.integers(0, 2**32 - 1))
    @example(12, False, 3, 3, 11, 0.6, 1, 0, False, 0)  # total_iters = 1
    @example(5, True, 6, 6, 20, 0.0, 80, 9, True, 1)  # radius0 beyond the grid
    @example(3, False, 10, 10, 45, 0.3, 60, 3, False, 2)  # above the lockstep cap
    def test_each_map_matches_the_reference_trainer_bit_for_bit(
        self, n_maps, shared, rows, cols, p, missing, total_iters, radius0, complete_only, seed,
    ):
        datas = _holed_tables(seed, n_maps, shared, p, missing)
        topo = GridTopology(rows, cols)
        base = TrainingSchedule(total_iters=total_iters, radius0=radius0,
                                zero_radius_fraction=0.5, rng_seed=0)
        schedules = [replace(base, rng_seed=seed % 1000 + 7 * k) for k in range(n_maps)]
        mode = TrainingMode.COMPLETE_ONLY if complete_only else TrainingMode.INCLUDE_INCOMPLETE
        codebooks = train_maps(datas, topo, base, [s.rng_seed for s in schedules], mode)
        assert len(codebooks) == n_maps
        for k, (data, sched, cb) in enumerate(zip(datas, schedules, codebooks)):
            ref = reference_train_codes(data, topo, sched, complete_only)
            assert cb.codes.tobytes() == ref.tobytes(), f"map {k}"
            one = train(data, topo, sched, mode)
            assert cb.codes.tobytes() == one.codebook.codes.tobytes()
            assert cb.topology == one.codebook.topology
            assert cb.col_names == one.codebook.col_names == data.col_names
            # train alone classifies, against the codebook train_maps returns
            asg = assign(cb.codes, data.values, data.mask)
            assert np.array_equal(one.assignment.units, asg.units)
            assert one.assignment.sq_distances.tobytes() == asg.sq_distances.tobytes()
            all_missing = ~data.mask.any(axis=1)
            assert np.array_equal(one.assignment.units == UNCLASSIFIABLE, all_missing)
            pool = data.mask.all(axis=1) if complete_only else data.mask.any(axis=1)
            assert np.array_equal(pool_mask(data, mode), pool)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.booleans(), st.integers(1, 10), st.integers(1, 10),
           st.integers(1, 60), st.sampled_from([0.0, 0.3, 0.6]), st.integers(1, 120),
           st.integers(0, 14), st.booleans(), st.integers(0, 2**32 - 1))
    @example(1, False, 10, 10, 60, 0.3, 50, 12, False, 3)  # one map, above the cap
    @example(12, True, 1, 1, 5, 0.0, 1, 0, True, 4)
    def test_lockstep_kernel_matches_the_reference_trainer_bit_for_bit(
        self, n_maps, shared, rows, cols, p, missing, total_iters, radius0, complete_only, seed,
    ):
        # called directly, so the kernel is checked on every shape, whichever
        # kernel train_maps would pick for it
        datas = _holed_tables(seed, n_maps, shared, p, missing)
        topo = GridTopology(rows, cols)
        sched = TrainingSchedule(total_iters=total_iters, radius0=radius0,
                                 zero_radius_fraction=0.5, rng_seed=0)
        schedules = [replace(sched, rng_seed=seed % 1000 + k) for k in range(n_maps)]
        tables = list({id(d): d for d in datas}.values())
        first_row = dict(zip(map(id, tables), np.cumsum([0] + [t.n_rows for t in tables])))
        codes, draws = [], []
        for data, s in zip(datas, schedules):
            # the documented protocol: initial codes, then every draw, one stream
            keep = data.mask.all(axis=1) if complete_only else data.mask.any(axis=1)
            pool = np.flatnonzero(keep)
            g = np.random.default_rng(s.rng_seed)
            lo, hi = data.column_ranges()
            codes.append(g.uniform(lo, hi, size=(topo.n_units, p)))
            draws.append(pool[g.integers(pool.size, size=total_iters)] + first_row[id(data)])
        C = np.ascontiguousarray(np.stack(codes).transpose(0, 2, 1))
        rows_table = np.ascontiguousarray(np.stack(draws, axis=1))
        _lockstep_updates(C, np.concatenate([t.values for t in tables]),
                          np.concatenate([t.mask for t in tables]), rows_table,
                          *_schedule_arrays(sched), topo.distance_matrix())
        for k, (data, s) in enumerate(zip(datas, schedules)):
            ref = reference_train_codes(data, topo, s, complete_only)
            assert C[k].T.tobytes() == ref.tobytes(), f"map {k}"

    def test_lockstep_winner_is_the_assign_winner_bit_for_bit(self):
        # As for the window kernel: near codes whose differences to the row
        # are permutations of each other tie up to summation order, and a
        # duplicated code ties exactly (lowest unit wins).  Each call steps
        # six maps once at radius 0, some on complete rows and some not.
        rng = np.random.default_rng(12)
        n_maps = 6
        for case in range(60):
            p = int(rng.integers(9, 41))
            n_units = int(rng.integers(9, 101))
            xs, ms, stack = [], [], []
            for k in range(n_maps):
                m = np.ones(p, dtype=bool)
                if k % 2:
                    m[rng.choice(p, size=int(rng.integers(1, p - 7)), replace=False)] = False
                obs = np.flatnonzero(m)
                codes = rng.normal(size=(n_units, p))
                u, v, z = rng.choice(n_units, size=3, replace=False)
                codes[u] *= 0.1
                codes[v, obs] = codes[u, obs][rng.permutation(obs.size)]
                if (case + k) % 3 == 0:
                    codes[z] = codes[u]
                xs.append(np.where(m, 0.0, np.nan))
                ms.append(m)
                stack.append(codes)
            C = np.ascontiguousarray(np.stack(stack).transpose(0, 2, 1))
            before = C.copy()
            _lockstep_updates(C, np.array(xs), np.array(ms), np.arange(n_maps)[None],
                              np.array([0.5]), np.array([0]),
                              GridTopology(1, n_units).distance_matrix())
            for k in range(n_maps):
                moved = np.flatnonzero((C[k] != before[k]).any(axis=0))
                expected = assign(before[k].T, xs[k][None], ms[k][None]).units[0]
                assert expected == brute_winner(xs[k], ms[k], before[k].T)
                assert moved.tolist() == [expected], f"case {case}, map {k}"

    def test_selection_rule(self, monkeypatch):
        # lockstep runs for two maps or more on tables of one width, with at
        # most _LOCKSTEP_MAX_CELLS code cells per map
        calls = []
        monkeypatch.setattr(trainer, "_lockstep_updates",
                            lambda C, *args: calls.append(C.shape) or _lockstep_updates(C, *args))
        data = random_incomplete(3, n=20, p=4)
        topo = GridTopology(2, 3)
        sched = TrainingSchedule(total_iters=50, radius0=1)
        train_maps([data] * 3, topo, sched, range(3))
        assert calls == [(3, 4, 6)]
        train_maps([data], topo, sched, [0])
        train_maps([data, random_incomplete(5, n=20, p=3)], topo, sched, [0, 1])
        wide = random_incomplete(4, n=20, p=_LOCKSTEP_MAX_CELLS // 6 + 1)
        train_maps([wide] * 2, topo, sched, [0, 1])
        assert calls == [(3, 4, 6)]

    def test_returns_codebooks_and_classifies_no_row(self, monkeypatch, small_incomplete):
        calls = []
        monkeypatch.setattr(trainer, "classify_supplementary", lambda *a: calls.append(a))
        monkeypatch.setattr(trainer, "assign", lambda *a: calls.append(a))
        sched = TrainingSchedule(total_iters=20, radius0=1)
        codebooks = train_maps([small_incomplete] * 3, GridTopology(1, 2), sched, range(3))
        assert [type(cb) for cb in codebooks] == [CodeBook] * 3
        assert calls == []

    def test_inputs_rejected(self, small_incomplete):
        topo = GridTopology(1, 2)
        sched = TrainingSchedule(total_iters=20, radius0=1)
        with pytest.raises(ValueError, match="at least one map"):
            train_maps([], topo, sched, [])
        with pytest.raises(ValueError, match="2 tables but 1 seeds"):
            train_maps([small_incomplete] * 2, topo, sched, [0])
        with pytest.raises(ValueError, match="1 tables but 2 seeds"):
            train_maps([small_incomplete], topo, sched, [0, 1])

    def test_untrainable_map_raises_trains_message(self, small_incomplete):
        complete = DataMatrix.from_nan(np.random.default_rng(0).normal(size=(6, 3)))
        topo = GridTopology(1, 2)
        sched = TrainingSchedule(total_iters=20, radius0=1)
        mode = TrainingMode.COMPLETE_ONLY
        holed = DataMatrix(small_incomplete.values[[1, 3]], small_incomplete.mask[[1, 3]],
                           ("a", "b"), small_incomplete.col_names)
        with pytest.raises(ValueError) as single:
            train(holed, topo, sched, mode)
        with pytest.raises(ValueError) as batch:
            train_maps([complete, holed, complete], topo, sched, [0] * 3, mode)
        assert str(batch.value) == str(single.value)
        assert "complete-only mode requires at least one complete row" in str(single.value)


class TestKernelSegments:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.booleans(), st.integers(1, 6), st.integers(1, 6),
           st.integers(1, 12), st.sampled_from([0.0, 0.3, 0.6]), st.integers(1, 120),
           st.integers(0, 8), st.lists(st.integers(0, 120), max_size=6),
           st.integers(0, 2**32 - 1))
    @example(2, True, 3, 3, 4, 0.3, 40, 2, [10, 25], 0)  # radius 2, 1, 0 across the cuts
    def test_segmented_calls_equal_one_whole_call(
        self, n_maps, shared, rows, cols, p, missing, total_iters, radius0, cuts, seed,
    ):
        # Cutting the draws anywhere and running each segment in turn, with
        # the rate and radius arrays sliced to match, gives the codes of one
        # whole call bit for bit, in both kernels.  The segments run before
        # the whole call, so that state one call leaves behind (a radius
        # cache, say) would reach the whole call and show.
        datas = _holed_tables(seed, n_maps, shared, p, missing)
        topo = GridTopology(rows, cols)
        sched = TrainingSchedule(total_iters=total_iters, radius0=radius0,
                                 zero_radius_fraction=0.5, rng_seed=seed % 1000)
        alphas, radii = _schedule_arrays(sched)
        bounds = sorted({0, total_iters, *(c % (total_iters + 1) for c in cuts)})
        segments = list(zip(bounds, bounds[1:]))
        # each map's start as train documents it: one seeded stream draws
        # the initial codes, then the rows
        codes, draws = [], []
        for k, d in enumerate(datas):
            rng = np.random.default_rng(sched.rng_seed + k)
            pool = trainer._pool(d, TrainingMode.INCLUDE_INCOMPLETE)
            codes.append(trainer._draw_initial_codes(rng, d, topo))
            draws.append(pool[rng.integers(pool.size, size=total_iters)])

        for data, code, drawn in zip(datas, codes, draws):
            parts, whole = _transposed(code, topo), _transposed(code, topo)
            for a, b in segments:
                _online_updates(parts, data.values, data.mask, drawn[a:b], alphas[a:b],
                                radii[a:b])
            _online_updates(whole, data.values, data.mask, drawn, alphas, radii)
            assert parts.tobytes() == whole.tobytes()

        values, mask, offsets = trainer._shared_table(datas)
        table = np.stack([d + off for d, off in zip(draws, offsets)], axis=1)
        start = np.ascontiguousarray(np.stack(codes).transpose(0, 2, 1))
        parts, whole = start.copy(), start.copy()
        cheb = topo.distance_matrix()
        for a, b in segments:
            _lockstep_updates(parts, values, mask, table[a:b], alphas[a:b], radii[a:b], cheb)
        _lockstep_updates(whole, values, mask, table, alphas, radii, cheb)
        assert parts.tobytes() == whole.tobytes()


class TestStepBlocks:
    @pytest.mark.parametrize("total_iters", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                             2 * _BLOCK_ROWS + 1])
    @pytest.mark.parametrize("complete_only", [False, True])
    def test_train_in_blocks_of_steps_equals_the_reference_bit_for_bit(
            self, total_iters, complete_only):
        # a map trains a block of steps at a time: its draws, rates and
        # radii are made for one block, then the kernel runs it
        data = random_incomplete(3, n=60, p=5, missing=0.3)
        topo = GridTopology(3, 4)
        sched = TrainingSchedule(total_iters=total_iters, radius0=3, rng_seed=11)
        mode = TrainingMode.COMPLETE_ONLY if complete_only else TrainingMode.INCLUDE_INCOMPLETE
        ref = reference_train_codes(data, topo, sched, complete_only)
        assert train(data, topo, sched, mode).codebook.codes.tobytes() == ref.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3000), st.integers(0, 40), st.sampled_from([0.0, 0.4, 1.0]),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @example(1, 0, 0.4, 0.0, 1.0)  # one step
    @example(1, 3, 1.0, 0.0, 1.0)  # one step, decay_iters == 0
    @example(50, 2, 1.0, 0.2, 0.7)  # decay_iters == 0
    def test_schedule_arrays_of_a_step_range_are_the_slice_of_the_whole(
            self, total_iters, radius0, zero_fraction, a, b):
        try:
            s = TrainingSchedule(total_iters=total_iters, radius0=radius0,
                                 zero_radius_fraction=zero_fraction)
        except ValueError:
            assume(False)
        lo, hi = sorted(round(x * total_iters) for x in (a, b))
        alphas, radii = _schedule_arrays(s)
        part_alphas, part_radii = _schedule_arrays(s, lo, hi)
        assert part_alphas.tobytes() == alphas[lo:hi].tobytes()
        assert part_radii.tobytes() == radii[lo:hi].tobytes()
        assert part_radii.dtype == radii.dtype


class TestClassifySupplementary:
    def test_row_equal_to_a_code_lands_there(self):
        codes = np.arange(8.0).reshape(4, 2)
        cb = CodeBook(codes, GridTopology(2, 2), ("x", "y"))
        data = DataMatrix.from_nan(codes[2][None, :])
        asg = classify_supplementary(cb, data)
        assert asg.units[0] == 2
        assert asg.sq_distances[0] == 0.0

    def test_single_observed_component_is_a_1d_argmin(self):
        codes = np.array([[9.0, 0.0, 9.0], [9.0, 5.0, 9.0]])
        cb = CodeBook(codes, GridTopology(1, 2), ("x", "y", "z"))
        values = np.array([[np.nan, 2.0, np.nan], [9.0, 1.0, 9.0]])
        data = DataMatrix(values, np.isfinite(values), ("a", "b"), ("x", "y", "z"))
        asg = classify_supplementary(cb, data)
        assert asg.units[0] == 0  # |2-0| < |2-5|

    def test_all_missing_row_is_unclassifiable(self, small_incomplete):
        cb = CodeBook(np.zeros((2, 3)), GridTopology(1, 2), ("x", "y", "z"))
        asg = classify_supplementary(cb, small_incomplete)
        assert asg.units[2] == UNCLASSIFIABLE
        assert np.isnan(asg.sq_distances[2])
        assert np.flatnonzero(asg.units == UNCLASSIFIABLE).tolist() == [2]

    def test_codebook_not_modified(self, small_incomplete):
        codes = np.random.default_rng(0).normal(size=(4, 3))
        cb = CodeBook(codes, GridTopology(2, 2), ("x", "y", "z"))
        before = cb.codes.copy()
        classify_supplementary(cb, small_incomplete)
        assert np.array_equal(cb.codes, before)

    def test_dimension_mismatch(self, small_incomplete):
        cb = CodeBook(np.zeros((1, 2)), GridTopology(1, 1), ("x", "y"))
        with pytest.raises(ValueError):
            classify_supplementary(cb, small_incomplete)


@st.composite
def _forgy_tables(draw):
    """Small tables with scattered holes, possibly whole-row ones; every
    column keeps an observed value."""
    n = draw(st.integers(1, 8))
    p = draw(st.integers(1, 3))
    cell = st.floats(-100, 100, allow_nan=False)
    values = np.array(draw(st.lists(cell, min_size=n * p, max_size=n * p))).reshape(n, p)
    mask = np.array(draw(st.lists(st.booleans(), min_size=n * p, max_size=n * p))).reshape(n, p)
    mask[0, ~mask.any(axis=0)] = True
    return DataMatrix(values, mask, tuple(f"r{i}" for i in range(n)),
                      tuple(f"c{j}" for j in range(p)))


class TestForgy:
    def test_complete_data_matches_classical_lloyd(self):
        rng = np.random.default_rng(6)
        values = np.vstack([rng.normal(0, 1, (20, 3)), rng.normal(8, 1, (20, 3))])
        data = DataMatrix.from_nan(values)
        res = forgy_train(data, 2, max_iters=50, seed=0)

        # plain Lloyd reference, started from the rows forgy_train draws
        init = values[np.random.default_rng(0).choice(np.arange(40), 2, replace=False)]
        cents = init.copy()
        for _ in range(50):
            d = ((values[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
            labels = d.argmin(axis=1)
            new = np.array([values[labels == c].mean(axis=0) for c in range(2)])
            if np.allclose(new, cents, rtol=0, atol=0):
                break
            cents = new
        assert np.allclose(res.centroids.codes, cents, rtol=0, atol=1e-12)
        d = ((values[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assert np.array_equal(res.assignment.units, d.argmin(axis=1))

    @settings(max_examples=150, deadline=None)
    @given(data=_forgy_tables(), n_classes=st.integers(1, 4), k=st.integers(0, 4),
           seed=st.integers(0, 2**16))
    @example(data=DataMatrix(np.array([[0.0, np.nan], [10.0, 5.0]]),
                             np.array([[True, False], [True, True]]), ("a", "b"), ("x", "y")),
             n_classes=2, k=0, seed=0)
    def test_unobserved_component_keeps_previous_value(self, data, n_classes, k, seed):
        # one more round from the k-round result: each (class, component) that
        # no member of the class observes keeps its value bit for bit, every
        # other one becomes the mean of its members' observed values, summed
        # in row order
        assume(n_classes <= int(data.mask.any(axis=1).sum()))
        before = forgy_train(data, n_classes, max_iters=k, seed=seed)
        after = forgy_train(data, n_classes, max_iters=k + 1, seed=seed)
        for c in range(n_classes):
            members = before.assignment.units == c
            for j in range(data.n_cols):
                observed = data.values[members & data.mask[:, j], j]
                if observed.size == 0:
                    assert after.centroids.codes[c, j] == before.centroids.codes[c, j]
                    continue
                total = 0.0
                for v in observed:
                    total += v
                assert after.centroids.codes[c, j] == total / observed.size

    def test_two_point_clusters_recover_exact_means(self):
        a, b = np.array([1.0, 2.0]), np.array([10.0, 20.0])
        values = np.vstack([a, a, a, a, b, b, b, b])
        data = DataMatrix.from_nan(values)
        res = forgy_train(data, 2, seed=3)
        got = {tuple(c) for c in res.centroids.codes}
        assert got == {tuple(a), tuple(b)}

    def test_distortion_history_non_increasing(self):
        data = random_incomplete(77, n=30, p=4, missing=0.3)
        res = forgy_train(data, 3, seed=1)
        assert all(x >= y for x, y in zip(res.distortion, res.distortion[1:]))

    def test_all_missing_rows_stay_unclassified(self, small_incomplete):
        res = forgy_train(small_incomplete, 2, seed=0)
        assert res.assignment.units[2] == UNCLASSIFIABLE

    def test_argument_validation(self, small_incomplete):
        with pytest.raises(ValueError):
            forgy_train(small_incomplete, 0)
        with pytest.raises(ValueError):
            forgy_train(small_incomplete, 4)  # only 3 classifiable rows
