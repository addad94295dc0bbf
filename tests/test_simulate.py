"""Stern-Gerlach ensemble statistics and the hidden-value demonstrations."""

import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from ksparadox import simulate
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
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
            EnsembleSpec(n=5, prep_theta=0.0, seed=-3)
        with pytest.raises(TypeError, match="ensemble size must be an integer, got 2.5"):
            EnsembleSpec(n=2.5, prep_theta=0.0)
        with pytest.raises(TypeError, match="seed must be an integer, got 2.5"):
            EnsembleSpec(n=5, prep_theta=0.0, seed=2.5)
        assert EnsembleSpec(n=np.int64(5), prep_theta=0.0).n == 5


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_angles_rejected(self, bad):
        with pytest.raises(ValueError, match="psi angle must be finite"):
            vn_continuity_scan(bad, [0.0, 1.0])
        with pytest.raises(ValueError, match="grid angles must be finite"):
            vn_continuity_scan(0.0, [0.0, bad])


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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            sample_context_tables(PREP, [CTX_Z], 1, seed=-1)

    def test_sample_count_validation(self):
        with pytest.raises(ValueError, match="n_samples must be a non-negative integer, got -1"):
            sample_context_tables(PREP, [CTX_Z], -1, seed=0)
        with pytest.raises(TypeError, match="n_samples must be an integer, got 2.5"):
            sample_context_tables(PREP, [CTX_Z], 2.5, seed=0)
        with pytest.raises(TypeError, match="seed must be an integer, got 2.5"):
            sample_context_tables(PREP, [CTX_Z], 1, seed=2.5)


BLOCK = 1 << 16  # simulate.DRAW_BLOCK; literal here so the golden values stand alone
GOLDEN_THETAS = (0.3, 1.1, 1.1, 2.0, 4.5)
GOLDEN_SPECS = {
    "up": lambda n: EnsembleSpec.prepared(0.7, +1, n, seed=3),
    "down": lambda n: EnsembleSpec.prepared(0.7, -1, n, seed=3),
    "unpolarized": lambda n: EnsembleSpec.unpolarized(n, seed=3),
}
# per-stage (n_plus, n_minus) and the sha256 of the concatenated int8 branch
# arrays, recorded from the whole-array engine (one rng.random(n) per stage)
GOLDEN_RUNS = {
    ("up", 1): (
        [(1, 0), (1, 0), (1, 0), (1, 0), (1, 0)],
        "377a23f52c6b357696238c3318f677a082dd3430bb6691042bd550a5cda28ebb",
    ),
    ("up", 1000): (
        [(965, 35), (819, 181), (819, 181), (684, 316), (356, 644)],
        "27ad4cee07912ac23d8b3e4a0b040aed73c6139df13dc3491b587e4fc48f9553",
    ),
    ("up", 2 * BLOCK): (
        [(125933, 5139), (107731, 23341), (107731, 23341), (91542, 39530), (44757, 86315)],
        "b90dd5b0fec6e207678da342fe8bdd4550f78533d2bf4be8362e70b87736fa2c",
    ),
    ("up", 3 * BLOCK + 7): (
        [(188856, 7759), (161258, 35357), (161258, 35357), (137466, 59149), (66908, 129707)],
        "485fee4f068bd50bf79fbee3a408ddeba5cadbd022cd4278bf25a200547ba42d",
    ),
    ("down", 1): (
        [(0, 1), (0, 1), (0, 1), (0, 1), (0, 1)],
        "132369a3b7f24fa619785c4e2eee68855f5d46cbe0aaa19eadd0dbc2dd592c39",
    ),
    ("down", 1000): (
        [(35, 965), (181, 819), (181, 819), (316, 684), (644, 356)],
        "e055eb052aa32050d522ee743a3d28b4942be37447c9a4fecd10c11c9c3fcfcb",
    ),
    ("down", 2 * BLOCK): (
        [(5139, 125933), (23341, 107731), (23341, 107731), (39530, 91542), (86315, 44757)],
        "b1ee55e5a6c46fc0f567c093d48fb8d01afefe1c18541bda65063dda95c4aee9",
    ),
    ("down", 3 * BLOCK + 7): (
        [(7759, 188856), (35357, 161258), (35357, 161258), (59149, 137466), (129707, 66908)],
        "b14597f02b0ba30c9ac24325f63b21df16d2f0a49c49c5b07fcc7d5485642b14",
    ),
    ("unpolarized", 1): (
        [(1, 0), (1, 0), (1, 0), (1, 0), (1, 0)],
        "377a23f52c6b357696238c3318f677a082dd3430bb6691042bd550a5cda28ebb",
    ),
    ("unpolarized", 1000): (
        [(502, 498), (492, 508), (492, 508), (495, 505), (511, 489)],
        "784c9fb8275228a16626657a597f7789448b73e343fbe79bb0797c7aaf1ffe0c",
    ),
    ("unpolarized", 2 * BLOCK): (
        [(65447, 65625), (65393, 65679), (65393, 65679), (65404, 65668), (65555, 65517)],
        "7635b4acdb8ec5015990ba43630484e381fbb434b715f435f6b1faf91d59ab49",
    ),
    ("unpolarized", 3 * BLOCK + 7): (
        [(98077, 98538), (98329, 98286), (98329, 98286), (98365, 98250), (98295, 98320)],
        "4ccc8e25980278a37604d6943383563ae401c41f4f4fb6a7aaf20668f1569048",
    ),
}
GOLDEN_ADDITIVITY = [
    (
        EnsembleSpec.prepared(0.4, -1, 3 * BLOCK + 7, seed=11),
        ("-0x1.d759b42eb0e86p-2", "-0x1.db6efffd00070p-2", "-0x1.8d786091c9568p-3"),
        "-0x1.9c90860d23e00p-10",
    ),
    (
        EnsembleSpec.unpolarized(2 * BLOCK, seed=12),
        ("0x1.3c00000000000p-10", "-0x1.9800000000000p-11", "0x1.8800000000000p-11"),
        "-0x1.1b04f333f9de6p-9",
    ),
]
# five contexts do not divide the block, and 40,000 rows span four blocks
GOLDEN_CONTEXTS = [
    context_for_direction(Ray3.from_vector(d))
    for d in ((1, 2, 3), (0, 0, 1), (-1, 0.5, 2), (3, -1, 0.2), (0.1, 0.1, 1))
]
GOLDEN_PICKS = "947407cdad410910af3ab2eb52936c1c92230d5441d562a684ffe615010f8cb8"


class TestGoldenStreams:
    """Results pinned across commits: a kernel change must keep every draw."""

    def test_sizes_straddle_the_draw_block(self):
        assert simulate.DRAW_BLOCK == BLOCK

    @pytest.mark.parametrize("key", list(GOLDEN_RUNS), ids=lambda k: f"{k[0]}-n{k[1]}")
    def test_run_sequence(self, key):
        name, n = key
        counts, branches = run_sequence(
            GOLDEN_SPECS[name](n), GOLDEN_THETAS, return_branches=True
        )
        digest = hashlib.sha256(b"".join(b.tobytes() for b in branches)).hexdigest()
        assert ([(c.n_plus, c.n_minus) for c in counts], digest) == GOLDEN_RUNS[key]

    @pytest.mark.parametrize("spec, averages, residual", GOLDEN_ADDITIVITY)
    def test_additivity(self, spec, averages, residual):
        result = check_additivity_relation(spec)
        assert tuple(a.hex() for a in result.averages) == averages
        assert result.residual.hex() == residual

    def test_context_tables(self):
        picks = sample_context_tables(PREP, GOLDEN_CONTEXTS, 40_000, seed=17)
        assert picks.shape == (40_000, 5) and picks.dtype == np.int8
        assert hashlib.sha256(picks.tobytes()).hexdigest() == GOLDEN_PICKS

    @pytest.mark.parametrize(
        "contexts, n_samples", [([], 7), (GOLDEN_CONTEXTS[:2], 0), ([], 0)]
    )
    def test_empty_context_tables(self, contexts, n_samples):
        picks = sample_context_tables(PREP, contexts, n_samples, seed=0)
        assert picks.shape == (n_samples, len(contexts))
        assert picks.dtype == np.int8


@pytest.mark.parametrize("name", list(GOLDEN_SPECS))
def test_branch_arrays_agree_with_counts(name):
    counts, branches = run_sequence(
        GOLDEN_SPECS[name](3 * BLOCK + 7), GOLDEN_THETAS, return_branches=True
    )
    assert len(branches) == len(counts)
    for c, b in zip(counts, branches):
        assert b.dtype == np.int8 and b.shape == (c.total,)
        assert set(np.unique(b).tolist()) <= {-1, 1}
        assert int(np.count_nonzero(b == 1)) == c.n_plus


WORKER_COUNTS = (2, 3, 5)
PARALLEL_SIZES = (1, BLOCK, BLOCK + 1, 3 * BLOCK + 7, 200_003)
PARALLEL_CONTEXTS = [
    context_for_direction(Ray3.from_vector(d))
    for d in ((1, 2, 3), (0, 0, 1), (-1, 0.5, 2), (3, -1, 0.2)) * 5
]


def _with_workers(monkeypatch, count, call):
    # up to five workers on any host, switching as often as the
    # interpreter allows, so ranges interleave at every bytecode
    monkeypatch.setattr(simulate, "_worker_count", lambda: count)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return call()
    finally:
        sys.setswitchinterval(interval)


class TestParallelEngine:
    """Any worker count draws the one stream a single worker draws."""

    @pytest.mark.parametrize("n", PARALLEL_SIZES)
    @pytest.mark.parametrize("name", list(GOLDEN_SPECS))
    def test_run_sequence_independent_of_workers(self, monkeypatch, name, n):
        spec = GOLDEN_SPECS[name](n)

        def call():
            counts, branches = run_sequence(spec, GOLDEN_THETAS, return_branches=True)
            digest = hashlib.sha256(b"".join(b.tobytes() for b in branches)).hexdigest()
            return counts, digest

        expected = _with_workers(monkeypatch, 1, call)
        for count in WORKER_COUNTS:
            assert _with_workers(monkeypatch, count, call) == expected, count

    @pytest.mark.parametrize("n", PARALLEL_SIZES)
    @pytest.mark.parametrize("name", list(GOLDEN_SPECS))
    def test_additivity_independent_of_workers(self, monkeypatch, name, n):
        spec = GOLDEN_SPECS[name](n)

        def call():
            result = check_additivity_relation(spec)
            return [a.hex() for a in result.averages], result.residual.hex()

        expected = _with_workers(monkeypatch, 1, call)
        for count in WORKER_COUNTS:
            assert _with_workers(monkeypatch, count, call) == expected, count

    @pytest.mark.parametrize("n_samples", [0, 1, 65_537])
    @pytest.mark.parametrize("n_contexts", [1, 16, 17])
    def test_context_tables_independent_of_workers(self, monkeypatch, n_contexts, n_samples):
        contexts = PARALLEL_CONTEXTS[:n_contexts]

        def call():
            picks = sample_context_tables(PREP, contexts, n_samples, seed=21)
            return picks.shape, hashlib.sha256(picks.tobytes()).hexdigest()

        expected = _with_workers(monkeypatch, 1, call)
        assert expected[0] == (n_samples, n_contexts)
        for count in WORKER_COUNTS:
            assert _with_workers(monkeypatch, count, call) == expected, count

    def test_one_block_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(simulate, "_worker_count", lambda: 5)
        monkeypatch.setattr(simulate.threading, "Thread", no_thread)
        run_sequence(EnsembleSpec.unpolarized(BLOCK, seed=1), [0.5, 1.5])
        check_additivity_relation(EnsembleSpec.prepared(0.2, -1, BLOCK, seed=1))
        sample_context_tables(PREP, PARALLEL_CONTEXTS[:1], BLOCK, seed=1)
        sample_context_tables(PREP, PARALLEL_CONTEXTS[:16], BLOCK // 16, seed=1)

    def test_exception_in_a_later_range_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(simulate, "_worker_count", lambda: 3)
        seen = []

        def work(lo, hi, rng):
            seen.append((lo, hi))
            if lo == 2 * BLOCK:
                raise RuntimeError(f"range at {lo} failed")
            return lo

        threads_before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"range at {2 * BLOCK} failed"):
            simulate._in_ranges(3 * BLOCK, BLOCK, 1, 0, work)
        assert sorted(seen) == [(0, BLOCK), (BLOCK, 2 * BLOCK), (2 * BLOCK, 3 * BLOCK)]
        assert threading.active_count() == threads_before
