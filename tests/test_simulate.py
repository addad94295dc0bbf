"""Stern-Gerlach ensemble statistics and the hidden-value demonstrations."""

import hashlib
import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from ksparadox import cli, simulate
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
        spec = EnsembleSpec(N, 0.0, +1, seed=7)
        counts = run_sequence(spec, [0.0])
        assert counts[0].n_plus == N
        assert counts[0].n_minus == 0

    def test_quarter_turn_splits_evenly(self):
        spec = EnsembleSpec(N, 0.0, +1, seed=7)
        c = run_sequence(spec, [math.pi / 2])[0]
        assert abs(c.fraction_plus - 0.5) <= 4 * binom_sigma(0.5, N)

    def test_unpolarized_always_splits_evenly(self):
        for theta_deg in (0.0, 37.0, 90.0, 215.0):
            spec = EnsembleSpec(N, None, seed=11)
            c = run_sequence(spec, [math.radians(theta_deg)])[0]
            assert abs(c.fraction_plus - 0.5) <= 4 * binom_sigma(0.5, N)

    def test_repeat_measurement_idempotent_no_exceptions(self):
        spec = EnsembleSpec(N, None, seed=7)
        counts, branches = run_sequence(
            spec, [math.radians(45.0)] * 2, return_branches=True
        )
        assert counts[0].n_plus == counts[1].n_plus
        assert int(np.count_nonzero(branches[0] != branches[1])) == 0

    def test_stage_frequencies_match_half_angle_law(self):
        for deg in (0.0, 30.0, 45.0, 90.0, 180.0):
            theta = math.radians(deg)
            spec = EnsembleSpec(N, 0.0, +1, seed=7)
            c = run_sequence(spec, [theta])[0]
            p = math.cos(theta / 2.0) ** 2
            assert abs(c.fraction_plus - p) <= 4 * binom_sigma(p, N) + 1e-12

    def test_same_seed_bitwise_identical(self):
        spec = EnsembleSpec(5000, None, seed=123)
        thetas = [0.3, 1.1, 2.0]
        a, br_a = run_sequence(spec, thetas, return_branches=True)
        b, br_b = run_sequence(spec, thetas, return_branches=True)
        assert a == b
        assert all(np.array_equal(x, y) for x, y in zip(br_a, br_b))

    def test_counts_sum_to_ensemble_size(self):
        spec = EnsembleSpec(999, None, seed=5)
        for c in run_sequence(spec, [0.1, 0.2, 0.3]):
            assert c.total == 999

    def test_empty_apparatus_list_rejected(self):
        with pytest.raises(ValueError):
            run_sequence(EnsembleSpec(10, None, seed=0), [])

    def test_array_of_angles_reads_as_its_list(self):
        # the same stream; every stored theta a float, also from a
        # one-element array, and an empty array is rejected like []
        spec = EnsembleSpec(n=999, prep_theta=0.3, seed=5)
        for angles in ([0.1, 0.2], [0.7]):
            counts = run_sequence(spec, np.array(angles))
            assert counts == run_sequence(spec, angles)
            assert all(type(c.theta) is float for c in counts)
        with pytest.raises(ValueError, match="apparatus list must be nonempty"):
            run_sequence(spec, np.array([]))

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

    def test_ensemble_size_limit(self):
        with pytest.raises(
            ValueError, match=r"ensemble size must be at most 2\*\*63 - 1, got 9223372036854775808"
        ):
            EnsembleSpec(2**63, None)
        # the counts take no memory per particle, so the largest size runs
        spec = EnsembleSpec(2**63 - 1, 0.0, -1, seed=1)
        counts = run_sequence(spec, [0.0, 1.0, 2.5])
        assert counts[0].n_minus == 2**63 - 1
        assert all(c.total == 2**63 - 1 and 0 < c.n_plus < c.total for c in counts[1:])


class TestSpinAverages:
    def test_all_up(self):
        from ksparadox.simulate import EnsembleCounts

        assert empirical_spin_average(EnsembleCounts(1, 0.0, 10, 0)) == 0.5

    def test_balanced(self):
        from ksparadox.simulate import EnsembleCounts

        assert empirical_spin_average(EnsembleCounts(1, 0.0, 5, 5)) == 0.0

    def test_negative_count_rejected(self):
        from ksparadox.simulate import EnsembleCounts

        with pytest.raises(ValueError, match="^branch counts must be nonnegative$"):
            EnsembleCounts(1, 0.0, -1, 2)

    def test_converges_to_half_cosine(self):
        for deg in (20.0, 60.0, 135.0):
            theta = math.radians(deg)
            spec = EnsembleSpec(N, 0.0, +1, seed=13)
            c = run_sequence(spec, [theta])[0]
            expected = 0.5 * math.cos(theta)
            p = math.cos(theta / 2.0) ** 2
            assert abs(empirical_spin_average(c) - expected) <= 4 * binom_sigma(p, N)

    def test_expected_average_closed_form(self):
        spec = EnsembleSpec(10, 0.0, +1, seed=0)
        for deg in range(0, 360, 15):
            theta = math.radians(deg)
            assert expected_spin_average(spec, theta) == pytest.approx(
                0.5 * math.cos(theta), abs=1e-12
            )

    def test_expected_average_unpolarized_is_zero(self):
        assert expected_spin_average(EnsembleSpec(10, None), 0.3) == 0.0


class TestAdditivity:
    def test_exact_expectations_satisfy_the_relation(self):
        spec = EnsembleSpec(10, 0.0, +1, seed=0)
        exact = [expected_spin_average(spec, t) for t in (0.0, math.pi / 4, math.pi / 2)]
        residual = exact[1] - (exact[0] + exact[2]) / math.sqrt(2.0)
        assert abs(residual) <= 1e-12

    def test_residual_within_four_sigma(self):
        result = check_additivity_relation(EnsembleSpec(N, 0.0, +1, seed=7))
        assert abs(result.residual) <= 4 * result.sigma
        assert result.generator == GENERATOR_NAME

    def test_residual_shrinks_with_ensemble_size(self):
        def mean_abs_residual(n):
            spec = EnsembleSpec(n, 0.0, +1)
            vals = [
                abs(
                    check_additivity_relation(
                        EnsembleSpec(n, 0.0, +1, seed=s)
                    ).residual
                )
                for s in range(8)
            ]
            return float(np.mean(vals))

        small, large = mean_abs_residual(10**3), mean_abs_residual(10**5)
        assert small > large * 3  # sigma ratio is 10; leave slack for 8 seeds

    def test_sub_ensembles_are_disjoint_streams(self):
        # changing the master seed changes all three draws
        a = check_additivity_relation(EnsembleSpec(1000, 0.0, +1, seed=1))
        b = check_additivity_relation(EnsembleSpec(1000, 0.0, +1, seed=2))
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

    def test_array_grid_reads_as_its_list(self):
        grid = [0.1, 0.2]
        vals = vn_continuity_scan(0.0, np.array(grid))
        assert vals == vn_continuity_scan(0.0, grid)
        assert all(type(v) is float for v in vals)
        with pytest.raises(ValueError, match="grid must be nonempty"):
            vn_continuity_scan(0.0, np.array([]))

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
        from ksparadox.ksgraph import _transformed, rotation_matrix
        from ksparadox.linalg import Context

        y_axis = Ray3.from_vector((0, 1, 0))
        rows = np.array([r.vec for r in CTX_Z.triad])
        turned = _transformed(rotation_matrix(y_axis.vec, math.pi / 4), rows).tolist()
        tilted = Context(tuple(Ray3(*row) for row in turned))
        shared = [r for r in tilted.triad if r in CTX_Z.triad]
        assert shared == [y_axis]
        jz = CTX_Z.triad.index(y_axis)
        jt = tilted.triad.index(y_axis)
        picks = sample_context_tables(PREP, [CTX_Z, tilted], 20_000, seed=9)
        differ = float(np.mean((picks[:, 0] == jz) != (picks[:, 1] == jt)))
        assert differ > 0.0

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
    "up": lambda n, seed=3: EnsembleSpec(n, 0.7, +1, seed=seed),
    "down": lambda n, seed=3: EnsembleSpec(n, 0.7, -1, seed=seed),
    "unpolarized": lambda n, seed=3: EnsembleSpec(n, None, seed=seed),
}
# per-stage (n_plus, n_minus) and the sha256 of the concatenated int8 branch
# arrays, recorded from the two-binomial engine (counts from the first child
# of SeedSequence(seed), branch flips from the second)
GOLDEN_RUNS = {
    ("up", 1): (
        [(1, 0), (1, 0), (1, 0), (0, 1), (1, 0)],
        "078402939744a5931334fb664d958ab2ce258e2fc409a1b3735b70a8e1a166a8",
    ),
    ("up", 1000): (
        [(964, 36), (844, 156), (844, 156), (714, 286), (323, 677)],
        "14f06c73e15e1f4713addd925a0805a6b154a971d283feba8823b6e19ea66aae",
    ),
    ("up", 2 * BLOCK): (
        [(125847, 5225), (107585, 23487), (107585, 23487), (91538, 39534), (44533, 86539)],
        "dd2bfaf0fa204cae621b4c4a6c176eb4c71c78dfb0900814bd2a474c54c650a5",
    ),
    ("up", 3 * BLOCK + 7): (
        [(188791, 7824), (161385, 35230), (161385, 35230), (137350, 59265), (66818, 129797)],
        "ebaa876bd4165f9b7241b8b13db1e1f98763e94992ce5055e0763b77399a281e",
    ),
    ("down", 1): (
        [(0, 1), (0, 1), (0, 1), (1, 0), (0, 1)],
        "0b275f0b5d486c955ba2e5e614404bb139ce9c4461b163c77839dcbeae773f21",
    ),
    ("down", 1000): (
        [(36, 964), (156, 844), (156, 844), (286, 714), (677, 323)],
        "845bd3aec5a39f27e42f725577609308150c58428c836bf9611c76572ada94cd",
    ),
    ("down", 2 * BLOCK): (
        [(5225, 125847), (23487, 107585), (23487, 107585), (39534, 91538), (86539, 44533)],
        "bf6fb7636c776eaf6063e134fe1648c51bc4fe8ea2867e1d61fd90d59ca517b0",
    ),
    ("down", 3 * BLOCK + 7): (
        [(7824, 188791), (35230, 161385), (35230, 161385), (59265, 137350), (129797, 66818)],
        "7530d4c9573c85e499e35f425168f2bbc5b99f90e67caeef8691bc4ad29f373a",
    ),
    ("unpolarized", 1): (
        [(0, 1), (0, 1), (0, 1), (1, 0), (0, 1)],
        "0b275f0b5d486c955ba2e5e614404bb139ce9c4461b163c77839dcbeae773f21",
    ),
    ("unpolarized", 1000): (
        [(487, 513), (490, 510), (490, 510), (493, 507), (504, 496)],
        "8a2c307c40df04cf4c30e6b35794231009e8692318d52373bd0674c8c5e3862a",
    ),
    ("unpolarized", 2 * BLOCK): (
        [(65402, 65670), (65453, 65619), (65453, 65619), (65383, 65689), (65474, 65598)],
        "ef00da5f3ef55fa1bfcba807ea26de5f9279cef84469518861fc9e5ca1474cab",
    ),
    ("unpolarized", 3 * BLOCK + 7): (
        [(98143, 98472), (98207, 98408), (98207, 98408), (98121, 98494), (98230, 98385)],
        "0da7a13f92faed08b9f232d51e397b9fa29002da8b72a5ef0535aeba1e377683",
    ),
}
GOLDEN_ADDITIVITY = [
    (
        EnsembleSpec(3 * BLOCK + 7, 0.4, -1, seed=11),
        ("-0x1.d6f30a739247bp-2", "-0x1.daf9abb96f4f5p-2", "-0x1.8e485eac786d9p-3"),
        "-0x1.264ae8c0a2e00p-10",
    ),
    (
        EnsembleSpec(2 * BLOCK, None, seed=12),
        ("-0x1.6400000000000p-10", "-0x1.2600000000000p-9", "-0x1.6600000000000p-10"),
        "-0x1.4c80c6c424670p-12",
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
# sha256 of sample_context_tables(PREP, PARALLEL_CONTEXTS[:n_contexts],
# n_samples, seed=21), recorded from the engine that split the rows across
# CPU threads: the one-stream sampler must keep every draw
PARALLEL_PICKS = {
    (1, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (1, 1): "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d",
    (1, 65_537): "5d2e6383ebeb0131382275d07c52e569699f696a799d9d909f1a383938c4a4fd",
    (16, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (16, 1): "757bd28908ade917e47ec72024d5ade0e2c5df9e4df2c579083a644b4b2472fd",
    (16, 65_537): "a2f8e195b45cc8b5400a922bc75a0f8d4c271e95fe8773a2b05b5142e54693e4",
    (17, 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (17, 1): "dacd11e8f71e3c623d74d405dbf6be4cce36a713ab2ebfa20259d26246e7878e",
    (17, 65_537): "520bd2fdb8997f31a9b2aa4dcf505e5128f22f85b251af08713bcb3ff95ea947",
}


def _in_workers(count, call):
    # count threads make the call at once, switching as often as the
    # interpreter allows, so the calls interleave at every bytecode
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=count) as pool:
            return [f.result() for f in [pool.submit(call) for _ in range(count)]]
    finally:
        sys.setswitchinterval(interval)


class TestParallelEngine:
    """Calls made from several threads at once each draw the stream that
    one call draws alone: the engine keeps no state between calls."""

    @pytest.mark.parametrize("n", PARALLEL_SIZES)
    @pytest.mark.parametrize("name", list(GOLDEN_SPECS))
    def test_run_sequence_independent_of_workers(self, name, n):
        spec = GOLDEN_SPECS[name](n)

        def call():
            counts, branches = run_sequence(spec, GOLDEN_THETAS, return_branches=True)
            digest = hashlib.sha256(b"".join(b.tobytes() for b in branches)).hexdigest()
            return counts, digest

        expected = call()
        for count in WORKER_COUNTS:
            assert _in_workers(count, call) == [expected] * count, count

    @pytest.mark.parametrize("n", PARALLEL_SIZES)
    @pytest.mark.parametrize("name", list(GOLDEN_SPECS))
    def test_additivity_independent_of_workers(self, name, n):
        spec = GOLDEN_SPECS[name](n)

        def call():
            result = check_additivity_relation(spec)
            return [a.hex() for a in result.averages], result.residual.hex()

        expected = call()
        for count in WORKER_COUNTS:
            assert _in_workers(count, call) == [expected] * count, count

    @pytest.mark.parametrize("n_samples", [0, 1, 65_537])
    @pytest.mark.parametrize("n_contexts", [1, 16, 17])
    def test_context_tables_independent_of_workers(self, n_contexts, n_samples):
        contexts = PARALLEL_CONTEXTS[:n_contexts]

        def call():
            picks = sample_context_tables(PREP, contexts, n_samples, seed=21)
            return picks.shape, hashlib.sha256(picks.tobytes()).hexdigest()

        expected = ((n_samples, n_contexts), PARALLEL_PICKS[n_contexts, n_samples])
        assert call() == expected
        for count in WORKER_COUNTS:
            assert _in_workers(count, call) == [expected] * count, count


def test_cli_simulate_matches_library(capsys):
    degrees = ("0", "45", "45", "130")
    n = 3 * BLOCK + 7
    spec = GOLDEN_SPECS["unpolarized"](n)
    counts = run_sequence(spec, [math.radians(float(d)) for d in degrees])
    argv = ["simulate", "--n", str(n), "--seed", "3"]
    for d in degrees:
        argv += ["--measure", d]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"generator: {GENERATOR_NAME}, seed: 3"
    assert [line.split(": ")[1].split(" up-fraction")[0] for line in lines[1:]] == [
        f"n+={c.n_plus} n-={c.n_minus}" for c in counts
    ]


EXACT_LAW_SEEDS = 2_000
EXACT_LAW_N = 1_000
EXACT_LAW_Z = 5.0  # a true law fails a given check with probability below 1e-6


def _flipped_fractions(spec, thetas):
    """The closed-form fraction r of particles whose sign differs from the
    base sign after each stage: r' = r (1 - q) + (1 - r) q."""
    r, prev, fractions = 0.0, spec.prep_theta, []
    for theta in thetas:
        q = 0.5 if prev is None else math.sin((theta - prev) / 2.0) ** 2
        r = r * (1.0 - q) + (1.0 - r) * q
        prev = theta
        fractions.append(r)
    return fractions


class TestExactLaw:
    """Each particle's sign is a two-state Markov chain that flips with the
    same probability q from either sign, so the flipped count after a stage
    is Binomial(n, r) with r from the closed-form recursion."""

    @pytest.mark.parametrize("name", list(GOLDEN_SPECS))
    def test_flipped_count_mean_and_variance_per_stage(self, name):
        n, seeds = EXACT_LAW_N, EXACT_LAW_SEEDS
        specs = [GOLDEN_SPECS[name](n, seed) for seed in range(seeds)]
        base = specs[0].prep_sign if specs[0].prep_theta is not None else +1
        flipped = np.array(
            [
                [c.n_minus if base == +1 else c.n_plus for c in run_sequence(spec, GOLDEN_THETAS)]
                for spec in specs
            ]
        )
        for stage, r in enumerate(_flipped_fractions(specs[0], GOLDEN_THETAS)):
            f = flipped[:, stage]
            var = n * r * (1.0 - r)
            # binomial fourth central moment, and the standard error of the
            # unbiased sample variance
            mu4 = var * (1.0 + 3.0 * (n - 2) * r * (1.0 - r))
            var_se = math.sqrt((mu4 - var**2 * (seeds - 3) / (seeds - 1)) / seeds)
            z_mean = (f.mean() - n * r) / math.sqrt(var / seeds)
            z_var = (f.var(ddof=1) - var) / var_se
            assert abs(z_mean) <= EXACT_LAW_Z, (stage, z_mean)
            assert abs(z_var) <= EXACT_LAW_Z, (stage, z_var)

    def test_flips_fall_uniformly_on_the_particles(self):
        # given a stage's flipped count f, the flipped particles are a
        # uniform f-subset, so the number of them in a fixed half of the
        # particles is hypergeometric with mean f / 2
        n = EXACT_LAW_N
        halves = {"low": np.arange(n) < n // 2, "even": np.arange(n) % 2 == 0}
        excess = {name: [] for name in halves}
        variance = []
        for seed in range(200):
            spec = GOLDEN_SPECS["up"](n, seed)
            _, branches = run_sequence(spec, GOLDEN_THETAS, return_branches=True)
            for b in branches:
                f = int(np.count_nonzero(b == -1))
                variance.append(f * (n - f) / (4.0 * (n - 1)))
                for name, half in halves.items():
                    excess[name].append(np.count_nonzero(b[half] == -1) - f / 2)
        for name in halves:
            z = sum(excess[name]) / math.sqrt(sum(variance))
            assert abs(z) <= EXACT_LAW_Z, (name, z)

    @pytest.mark.parametrize("name", list(GOLDEN_SPECS))
    def test_counts_do_not_depend_on_branches(self, name):
        for n in (1, 1000, 3 * BLOCK + 7):
            spec = GOLDEN_SPECS[name](n)
            counts, _ = run_sequence(spec, GOLDEN_THETAS, return_branches=True)
            assert run_sequence(spec, GOLDEN_THETAS) == counts

    @pytest.mark.parametrize("sign", [+1, -1])
    def test_repeated_orientation_flips_no_branch(self, sign):
        spec = EnsembleSpec(3 * BLOCK + 7, 0.7, sign, seed=5)
        counts, branches = run_sequence(spec, [0.7, 2.0, 2.0, 2.0], return_branches=True)
        assert np.all(branches[0] == sign)
        assert counts[0].n_plus == (spec.n if sign == +1 else 0)
        assert 0 < counts[1].n_plus < spec.n
        for (c, b), (c_next, b_next) in itertools.pairwise(zip(counts[1:], branches[1:])):
            assert c_next.n_plus == c.n_plus
            assert np.array_equal(b_next, b)
