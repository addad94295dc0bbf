"""Stern-Gerlach ensemble statistics and the hidden-value demonstrations."""

import math

import numpy as np
import pytest

from ksparadox.linalg import Ray3, context_for_direction
from ksparadox.simulate import (
    GENERATOR_NAME,
    EnsembleSpec,
    check_additivity_relation,
    empirical_spin_average,
    expected_spin_average,
    run_sequence,
    sample_context_tables,
    vn_continuity_scan,
    vn_value_additivity_failure,
)

N = 100_000


def binom_sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


class TestRunSequence:
    def test_prepared_remeasured_same_axis_exact(self):
        spec = EnsembleSpec.prepared(0.0, +1, N, seed=7)
        counts = run_sequence(spec, [0.0])
        assert counts[0].n_plus == N
        assert counts[0].n_minus == 0

    def test_quarter_turn_splits_evenly(self):
        spec = EnsembleSpec.prepared(0.0, +1, N, seed=7)
        c = run_sequence(spec, [math.pi / 2])[0]
        assert abs(c.fraction_plus - 0.5) <= 4 * binom_sigma(0.5, N)

    def test_unpolarized_always_splits_evenly(self):
        for theta_deg in (0.0, 37.0, 90.0, 215.0):
            spec = EnsembleSpec.unpolarized(N, seed=11)
            c = run_sequence(spec, [math.radians(theta_deg)])[0]
            assert abs(c.fraction_plus - 0.5) <= 4 * binom_sigma(0.5, N)

    def test_repeat_measurement_idempotent_no_exceptions(self):
        spec = EnsembleSpec.unpolarized(N, seed=7)
        counts, branches = run_sequence(
            spec, [math.radians(45.0)] * 2, return_branches=True
        )
        assert counts[0].n_plus == counts[1].n_plus
        assert int(np.count_nonzero(branches[0] != branches[1])) == 0

    def test_stage_frequencies_match_half_angle_law(self):
        for deg in (0.0, 30.0, 45.0, 90.0, 180.0):
            theta = math.radians(deg)
            spec = EnsembleSpec.prepared(0.0, +1, N, seed=7)
            c = run_sequence(spec, [theta])[0]
            p = math.cos(theta / 2.0) ** 2
            assert abs(c.fraction_plus - p) <= 4 * binom_sigma(p, N) + 1e-12

    def test_same_seed_bitwise_identical(self):
        spec = EnsembleSpec.unpolarized(5000, seed=123)
        thetas = [0.3, 1.1, 2.0]
        a, br_a = run_sequence(spec, thetas, return_branches=True)
        b, br_b = run_sequence(spec, thetas, return_branches=True)
        assert a == b
        assert all(np.array_equal(x, y) for x, y in zip(br_a, br_b))

    def test_counts_sum_to_ensemble_size(self):
        spec = EnsembleSpec.unpolarized(999, seed=5)
        for c in run_sequence(spec, [0.1, 0.2, 0.3]):
            assert c.total == 999

    def test_empty_apparatus_list_rejected(self):
        with pytest.raises(ValueError):
            run_sequence(EnsembleSpec.unpolarized(10, seed=0), [])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(n=0, prep_theta=0.0)
        with pytest.raises(ValueError):
            EnsembleSpec(n=5, prep_theta=float("inf"))
        with pytest.raises(ValueError):
            EnsembleSpec(n=5, prep_theta=0.0, prep_sign=2)


class TestSpinAverages:
    def test_all_up(self):
        from ksparadox.simulate import EnsembleCounts

        assert empirical_spin_average(EnsembleCounts(1, 0.0, 10, 0)) == 0.5

    def test_balanced(self):
        from ksparadox.simulate import EnsembleCounts

        assert empirical_spin_average(EnsembleCounts(1, 0.0, 5, 5)) == 0.0

    def test_converges_to_half_cosine(self):
        for deg in (20.0, 60.0, 135.0):
            theta = math.radians(deg)
            spec = EnsembleSpec.prepared(0.0, +1, N, seed=13)
            c = run_sequence(spec, [theta])[0]
            expected = 0.5 * math.cos(theta)
            p = math.cos(theta / 2.0) ** 2
            assert abs(empirical_spin_average(c) - expected) <= 4 * binom_sigma(p, N)

    def test_expected_average_closed_form(self):
        spec = EnsembleSpec.prepared(0.0, +1, 10, seed=0)
        for deg in range(0, 360, 15):
            theta = math.radians(deg)
            assert expected_spin_average(spec, theta) == pytest.approx(
                0.5 * math.cos(theta), abs=1e-12
            )


class TestAdditivity:
    def test_exact_expectations_satisfy_the_relation(self):
        spec = EnsembleSpec.prepared(0.0, +1, 10, seed=0)
        exact = [expected_spin_average(spec, t) for t in (0.0, math.pi / 4, math.pi / 2)]
        residual = exact[1] - (exact[0] + exact[2]) / math.sqrt(2.0)
        assert abs(residual) <= 1e-12

    def test_residual_within_four_sigma(self):
        result = check_additivity_relation(EnsembleSpec.prepared(0.0, +1, N, seed=7))
        assert abs(result.residual) <= 4 * result.sigma
        assert result.generator == GENERATOR_NAME

    def test_residual_shrinks_with_ensemble_size(self):
        def mean_abs_residual(n):
            spec = EnsembleSpec.prepared(0.0, +1, n)
            vals = [
                abs(
                    check_additivity_relation(
                        EnsembleSpec.prepared(0.0, +1, n, seed=s)
                    ).residual
                )
                for s in range(8)
            ]
            return float(np.mean(vals))

        small, large = mean_abs_residual(10**3), mean_abs_residual(10**5)
        assert small > large * 3  # sigma ratio is 10; leave slack for 8 seeds

    def test_sub_ensembles_are_disjoint_streams(self):
        # changing the master seed changes all three draws
        a = check_additivity_relation(EnsembleSpec.prepared(0.0, +1, 1000, seed=1))
        b = check_additivity_relation(EnsembleSpec.prepared(0.0, +1, 1000, seed=2))
        assert a.averages != b.averages


class TestVnReports:
    def test_all_four_combinations_fail(self):
        report = vn_value_additivity_failure()
        assert len(report.rows) == 4
        assert report.consistent_count == 0
        assert report.summary() == "0 of 4 value combinations consistent"

    def test_specific_combinations(self):
        report = vn_value_additivity_failure()
        by_pair = {(r.a, r.b): r.combined for r in report.rows}
        assert by_pair[(0.5, 0.5)] == pytest.approx(0.7071067811865476, abs=1e-15)
        assert by_pair[(0.5, -0.5)] == 0.0
        assert all(v not in (0.5, -0.5) for v in by_pair.values())

    def test_continuity_scan_endpoints_and_midpoint(self):
        grid = [0.0, math.pi / 2, math.pi]
        vals = vn_continuity_scan(0.0, grid)
        assert vals[0] == 1.0
        assert vals[1] == pytest.approx(0.5, abs=1e-12)
        assert vals[2] == pytest.approx(0.0, abs=1e-12)

    def test_continuity_scan_fills_the_interval(self):
        grid = [math.radians(d) for d in range(0, 361)]
        vals = vn_continuity_scan(0.0, grid)
        assert any(0.01 < v < 0.99 for v in vals)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            vn_continuity_scan(0.0, [])


PREP = Ray3.from_vector((1.0, 1.0, 1.0))
CTX_Z = context_for_direction(Ray3.from_vector((0, 0, 1), "z"))
CTX_X = context_for_direction(Ray3.from_vector((1, 0, 0), "x"))


class TestContextualModel:
    def test_rows_one_hot(self):
        picks = sample_context_tables(PREP, [CTX_Z, CTX_X], 1, seed=3)[0]
        for row in np.eye(3, dtype=int)[picks]:
            assert sum(row) == 1
            assert set(row) <= {0, 1}

    def test_eigenpreparation_deterministic(self):
        prep = Ray3.from_vector((0, 0, 1))
        for seed in range(20):
            picks = sample_context_tables(prep, [CTX_Z], 1, seed=seed)
            assert picks[0, 0] == 0

    def test_same_seed_identical_tables(self):
        a = sample_context_tables(PREP, [CTX_Z, CTX_X], 1, seed=5)
        b = sample_context_tables(PREP, [CTX_Z, CTX_X], 1, seed=5)
        assert np.array_equal(a, b)

    def test_marginals_match_overlaps(self):
        from ksparadox.linalg import spin1_overlap

        picks = sample_context_tables(PREP, [CTX_Z], N, seed=7)
        for k in range(3):
            p = spin1_overlap(PREP, CTX_Z.triad[k])
            f = float(np.mean(picks[:, 0] == k))
            assert abs(f - p) <= 4 * binom_sigma(p, N)

    def test_shared_ray_disagrees_at_independence_rate(self):
        # both contexts contain the y axis; under independent per-context
        # draws the shared ray differs with frequency 2 p (1 - p)
        y_axis = Ray3.from_vector((0, 1, 0))
        jz = next(k for k, r in enumerate(CTX_Z.triad) if r == y_axis)
        jx = next(k for k, r in enumerate(CTX_X.triad) if r == y_axis)
        picks = sample_context_tables(PREP, [CTX_Z, CTX_X], N, seed=7)
        differ = float(np.mean((picks[:, 0] == jz) != (picks[:, 1] == jx)))
        p = 1.0 / 3.0
        predicted = 2 * p * (1 - p)
        assert differ > 0.0
        assert abs(differ - predicted) <= 4 * binom_sigma(predicted, N)

    def test_shared_ray_disagreement_also_for_tilted_pair(self):
        # a pair sharing exactly one ray: rotate the z context by 45 degrees
        # about the shared y axis
        from ksparadox.ksgraph import rotate_ray
        from ksparadox.linalg import Context

        y_axis = Ray3.from_vector((0, 1, 0))
        tilted = Context.spin1(
            tuple(rotate_ray(r, y_axis, math.pi / 4) for r in CTX_Z.triad)
        )
        shared = [r for r in tilted.triad if r in CTX_Z.triad]
        assert shared == [y_axis]
        jz = CTX_Z.triad.index(y_axis)
        jt = tilted.triad.index(y_axis)
        picks = sample_context_tables(PREP, [CTX_Z, tilted], 20_000, seed=9)
        differ = float(np.mean((picks[:, 0] == jz) != (picks[:, 1] == jt)))
        assert differ > 0.0

    def test_spin_half_context_rejected(self):
        from ksparadox.linalg import Context

        with pytest.raises(ValueError):
            sample_context_tables(PREP, [Context.spin_half(0.0)], 1, seed=0)
