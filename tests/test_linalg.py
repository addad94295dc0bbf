"""Spin-1/2 and spin-1 algebra: eigenvectors, projectors, completion."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksparadox.ksgraph import RaySet
from ksparadox.linalg import (
    SIGN_EPS,
    Context,
    NormalizationError,
    Ray3,
    _signed,
    context_for_direction,
    projector_from_vector,
    spin1_overlap,
    spin_half_eigenvectors,
    spin_operator,
    transition_probability_spin_half,
    verify_completion,
)

angles = st.floats(
    min_value=-10 * math.pi, max_value=10 * math.pi, allow_nan=False, allow_infinity=False
)


class TestRay3:
    def test_canonical_sign_first_significant_component(self):
        assert Ray3.from_vector((-1, 1, -1)) == Ray3.from_vector((1, -1, 1))
        r = Ray3.from_vector((0.0, 0.0, -1.0))
        assert (r.x, r.y, r.z) == (0.0, 0.0, 1.0)

    def test_antipodal_pairs_identified(self):
        v = (0.3, -0.4, 0.5)
        assert Ray3.from_vector(v) == Ray3.from_vector(tuple(-c for c in v))

    def test_unit_norm(self):
        r = Ray3.from_vector((3.0, 4.0, 12.0))
        assert abs(np.linalg.norm(r.vec) - 1.0) <= 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(NormalizationError):
            Ray3.from_vector((0.0, 0.0, 0.0))

    def test_label_not_part_of_identity(self):
        assert Ray3.from_vector((1, 0, 0), "a") == Ray3.from_vector((1, 0, 0), "b")

    @pytest.mark.parametrize(
        "xyz",
        [
            (2.0, 0.0, 0.0),
            (1.0 + 2e-12, 0.0, 0.0),
            (0.0, 0.0, 0.0),
            (math.nan, 0.0, 0.0),
            (math.inf, 0.0, 0.0),
            (math.nan, 1.0, 0.0),
        ],
        ids=["long", "off-by-2e-12", "zero", "nan", "infinite", "nan-beside-unit"],
    )
    def test_constructor_rejects_non_unit_directions(self, xyz):
        # a long preparation would weigh its overlaps past 1, and a NaN ray
        # would pass a triad's orthogonality test (a NaN dot fails ">")
        with pytest.raises(NormalizationError, match="is not a finite unit vector"):
            Ray3(*xyz)

    @pytest.mark.parametrize(
        "xyz, canonical",
        [((-1.0, 0.0, 0.0), (1.0, 0.0, 0.0)), ((-0.6, 0.8, 0.0), (0.6, -0.8, 0.0))],
        ids=["x-axis", "first-component-negative"],
    )
    def test_constructor_fixes_the_sign(self, xyz, canonical):
        # the tables command's shared-ray test compares rays by value
        r, c = Ray3(*xyz), Ray3(*canonical)
        assert r == c and hash(r) == hash(c)
        assert (r.x, r.y, r.z) == canonical

    def test_constructor_accepts_unit_within_1e_12(self):
        assert Ray3(1.0 + 5e-13, 0.0, 0.0).x == 1.0 + 5e-13
        assert Ray3(*np.eye(3)[2], "z") == Ray3.from_vector((0.0, 0.0, 1.0))

    @pytest.mark.parametrize(
        "row",
        [
            (0.5, -math.sqrt(0.75), 0.0),
            (-0.5, math.sqrt(0.75), -0.0),
            (2 * SIGN_EPS, -0.6, 0.8),
            (-2 * SIGN_EPS, 0.6, -0.8),
            (-0.5 * SIGN_EPS, -0.6, 0.8),
            (-0.0, -0.6, 0.8),
            (0.0, -0.0, -1.0),
            (-1.0, 0.0, -0.0),
            (-0.0, -1.0, 0.0),
            (-0.0, 0.0, -1.0),
        ],
    )
    def test_constructor_keeps_the_array_sign_rule(self, row):
        # Ray3 keeps a scalar copy of _signed's rule: both give the same
        # bits, signed zeros included
        r = Ray3(*row)
        got = [c.hex() for c in (r.x, r.y, r.z)]
        assert got == [c.hex() for c in _signed(np.array([row]))[0].tolist()]

    def test_row_rayset_accepts_reads_back_from_rays(self):
        # |norm - 1| is just under 1e-12 by RaySet's sum of squares and just
        # over it by math.hypot, which Ray3 used to call
        row = (0.42300424485906396, 0.02219165835174431, 0.9058559152165495)
        (ray,) = RaySet(np.array([row]), ("a",)).rays
        assert (ray.x, ray.y, ray.z) == row

    def test_row_rayset_rejects_is_rejected(self):
        # the other way round: just over 1e-12 by the sum of squares
        row = (-0.9550695429044218, 0.16399408147072175, -0.24687670902074393)
        with pytest.raises(ValueError, match="row 0 is not a finite unit vector"):
            RaySet(np.array([row]), ("a",))
        with pytest.raises(NormalizationError, match="is not a finite unit vector"):
            Ray3(*row)

    def test_overflowing_row_rejected_without_a_numpy_warning(self):
        # 1e200 squared overflows; pyproject turns a RuntimeWarning into an error
        message = r"^row 0 is not a finite unit vector: \[1e\+200, 0.0, 0.0\]$"
        with pytest.raises(NormalizationError, match=message):
            Ray3(1e200, 0.0, 0.0)
        with pytest.raises(NormalizationError, match=message):
            RaySet(np.array([[1e200, 0.0, 0.0]]), ("a",))

    @given(
        v=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: math.hypot(*v) > 0.1),
        sign=st.sampled_from([+1.0, -1.0]),
        delta=st.floats(-2e-13, 2e-13),
    )
    @settings(max_examples=500)
    def test_accepts_exactly_the_rows_rayset_accepts(self, v, sign, delta):
        # rows within a few ulps of the 1e-12 bound: Ray3 and RaySet judge
        # them with the same expression
        scale = (1.0 + sign * (1e-12 + delta)) / math.hypot(*v)
        row = [c * scale for c in v]
        try:
            RaySet(np.array([row]), ("a",))
        except ValueError:
            with pytest.raises(NormalizationError):
                Ray3(*row)
        else:
            Ray3(*row)


class TestSpinHalfEigenvectors:
    @given(theta=angles)
    def test_pair_is_two_float_arrays(self, theta):
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        plus, minus = spin_half_eigenvectors(theta)
        assert plus.dtype == minus.dtype == np.float64
        assert plus.shape == minus.shape == (2,)
        assert plus.tolist() == [c, s] and minus.tolist() == [-s, c]

    def test_identity_orientation(self):
        plus, minus = spin_half_eigenvectors(0.0)
        assert tuple(plus.tolist()) == (1.0, 0.0)
        assert tuple(minus.tolist()) == (-0.0, 1.0)

    def test_quarter_turn(self):
        plus, _ = spin_half_eigenvectors(math.pi / 2)
        root_half = math.sqrt(0.5)
        assert plus[0] == pytest.approx(root_half, abs=1e-12)
        assert plus[1] == pytest.approx(root_half, abs=1e-12)

    def test_minus_at_quarter_equals_plus_at_three_quarters(self):
        _, minus = spin_half_eigenvectors(math.pi / 2)
        plus, _ = spin_half_eigenvectors(3 * math.pi / 2)
        assert np.max(np.abs(minus - plus)) <= 1e-12

    @given(theta=angles)
    @settings(max_examples=200)
    def test_orthonormal_pair(self, theta):
        plus, minus = spin_half_eigenvectors(theta)
        assert plus @ plus == pytest.approx(1.0, abs=1e-12)
        assert minus @ minus == pytest.approx(1.0, abs=1e-12)
        assert plus @ minus == pytest.approx(0.0, abs=1e-12)


class TestProjectors:
    def test_axis_projector(self):
        p = projector_from_vector((1.0, 0.0))
        assert np.array_equal(p, [[1.0, 0.0], [0.0, 0.0]])

    def test_entries_from_half_angle_pattern(self):
        theta = 0.7
        plus, _ = spin_half_eigenvectors(theta)
        p = projector_from_vector(plus)
        expected = np.array(
            [
                [math.cos(theta / 2) ** 2, 0.5 * math.sin(theta)],
                [0.5 * math.sin(theta), math.sin(theta / 2) ** 2],
            ]
        )
        assert np.max(np.abs(p - expected)) <= 1e-12

    def test_non_unit_input_rejected(self):
        with pytest.raises(NormalizationError):
            projector_from_vector((1.0, 1.0))

    @pytest.mark.parametrize(
        "v, shape", [(np.eye(2), "(2, 2)"), ([1.0, 0, 0, 0], "(4,)")], ids=["matrix", "length-4"]
    )
    def test_wrong_shape_rejected(self, v, shape):
        with pytest.raises(ValueError, match=re.escape(f"length 2 or 3, got shape {shape}")):
            projector_from_vector(v)

    @pytest.mark.parametrize(
        "v",
        [(math.nan, 0.0), (math.inf, 0.0, 0.0), (math.nan, math.inf)],
        ids=["nan", "inf", "nan-and-inf"],
    )
    def test_non_finite_input_rejected(self, v):
        with pytest.raises(NormalizationError, match="must be unit length"):
            projector_from_vector(v)

    def test_projector_identities_on_degree_grid(self):
        # one-degree grid over a full turn
        for k in range(360):
            theta = math.radians(k)
            for vec in spin_half_eigenvectors(theta):
                p = projector_from_vector(vec)
                assert np.trace(p) == pytest.approx(1.0, abs=1e-12)
                assert np.max(np.abs(p - p.T)) <= 1e-12
                assert np.max(np.abs(p @ p - p)) <= 1e-12

    @given(theta=angles)
    @settings(max_examples=200)
    def test_rank1_trace(self, theta):
        plus, _ = spin_half_eigenvectors(theta)
        assert np.trace(projector_from_vector(plus)) == pytest.approx(1.0, abs=1e-12)


class TestSpinOperator:
    def test_z_orientation(self):
        assert np.max(np.abs(spin_operator(0.0) - [[0.5, 0.0], [0.0, -0.5]])) == 0.0

    def test_quarter_average_identity(self):
        lhs = spin_operator(math.pi / 4)
        rhs = (spin_operator(0.0) + spin_operator(math.pi / 2)) / math.sqrt(2.0)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_eigen_relation_on_random_orientations(self):
        rng = np.random.default_rng(42)
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, 100):
            s = spin_operator(theta)
            plus, minus = spin_half_eigenvectors(theta)
            assert np.max(np.abs(s @ plus - 0.5 * plus)) <= 1e-12
            assert np.max(np.abs(s @ minus + 0.5 * minus)) <= 1e-12


class TestTransitionProbability:
    def test_aligned(self):
        assert transition_probability_spin_half(0.0, +1, 0.0, +1) == 1.0

    def test_quarter_turn(self):
        assert transition_probability_spin_half(0.0, +1, math.pi / 2, +1) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_opposite(self):
        assert transition_probability_spin_half(0.0, +1, math.pi, +1) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize(
        "prep_sign, meas_sign, name", [(0, 1, "prep_sign"), (1, 2, "meas_sign")]
    )
    def test_sign_other_than_one_rejected(self, prep_sign, meas_sign, name):
        with pytest.raises(ValueError, match=f"^{name} must be \\+1 or -1$"):
            transition_probability_spin_half(0.0, prep_sign, 0.0, meas_sign)

    @given(prep=angles, meas=angles, sign=st.sampled_from([+1, -1]))
    @settings(max_examples=300)
    def test_outcomes_sum_to_one_exactly(self, prep, meas, sign):
        same = transition_probability_spin_half(prep, sign, meas, sign)
        other = transition_probability_spin_half(prep, sign, meas, -sign)
        assert same + other == 1.0
        assert 0.0 <= same <= 1.0


class TestSpin1Overlap:
    def test_eigenstate(self):
        r = Ray3.from_vector((0.2, -0.3, 0.93))
        assert spin1_overlap(r, r) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert spin1_overlap(Ray3.from_vector((1, 0, 0)), Ray3.from_vector((0, 1, 0))) == 0.0

    def test_axes_triad_overlaps(self):
        state = Ray3.from_vector((1.0, 0.0, 0.0))
        triad = [Ray3.from_vector(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
        overlaps = [spin1_overlap(state, r) for r in triad]
        assert overlaps == [1.0, 0.0, 0.0]

    @given(data=st.data())
    @settings(max_examples=200)
    def test_overlaps_over_triad_sum_to_one(self, data):
        seed = data.draw(st.integers(min_value=0, max_value=2**31))
        rng = np.random.default_rng(seed)
        state = Ray3.from_vector(rng.normal(size=3))
        triad = _random_triad(rng)
        total = sum(spin1_overlap(state, r) for r in triad.triad)
        assert total == pytest.approx(1.0, abs=1e-9)


# the coordinate axes as labeled rays: the labels name them in error messages
X, Y = (Ray3.from_vector(v, name) for v, name in zip(np.eye(3), "xy"))


def _random_triad(rng) -> Context:
    from ksparadox.ksgraph import rotation_matrix

    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    rot = rotation_matrix(axis, rng.uniform(0, 2 * math.pi))
    return Context(tuple(Ray3.from_vector(rot[:, k]) for k in range(3)))


class TestContexts:
    def test_axes_triad_completion_exact(self):
        ctx = Context(
            tuple(Ray3.from_vector(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        )
        assert verify_completion([r.vec for r in ctx.triad]) == 0.0

    def test_rotated_triads_complete(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            assert verify_completion([r.vec for r in _random_triad(rng).triad]) <= 1e-12

    def test_spin_half_pair_completes(self):
        for k in range(0, 360, 7):
            assert verify_completion(spin_half_eigenvectors(math.radians(k))) <= 1e-12

    def test_non_orthogonal_triad_rejected(self):
        rays = tuple(
            Ray3.from_vector(v) for v in ((1, 0, 0), (0.6, 0.8, 0), (0, 0, 1))
        )
        with pytest.raises(ValueError):
            Context(rays)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"triad": (X, X, Y)}, "'x' and 'x' are not orthogonal"),
            ({"triad": (X, Y)}, "exactly three rays"),
        ],
        ids=["repeated-ray", "two-rays"],
    )
    def test_constructor_rejects_malformed_contexts(self, fields, message):
        with pytest.raises(ValueError, match=message):
            Context(**fields)

    def test_context_for_direction_orthonormal(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ctx = context_for_direction(Ray3.from_vector(rng.normal(size=3)))
            assert verify_completion([r.vec for r in ctx.triad]) <= 1e-12

    def test_ray_projector_three_by_three(self):
        p = projector_from_vector(Ray3.from_vector((0, 0, 1)).vec)
        assert p.shape == (3, 3)
        assert np.trace(p) == pytest.approx(1.0, abs=1e-12)
