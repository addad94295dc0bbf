"""The ten-ray gadget: orthogonality algebra, angle law, forcing enumeration."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksparadox.gadget import (
    GADGET_EDGES,
    GADGET_ROLES,
    GADGET_TRIADS,
    MAX_GADGET_ANGLE,
    MIN_GADGET_ANGLE,
    AngleRangeError,
    DegenerateParameterError,
    build_gadget,
    enumerate_gadget_assignments,
    gadget_angle,
    gadget_for_angle,
    minimize_gadget_cosine,
    offdiagonal_parameters_for_angle,
    solve_parameter_for_angle,
)

params = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)

BOUND_COSINE = math.sqrt(8.0) / 3.0


class TestBuildGadget:
    def test_unit_parameters_apex(self):
        g = build_gadget(1.0, 1.0)
        c = 1.0 / math.sqrt(3.0)
        assert np.max(np.abs(g.ray("apex").vec - [c, -c, c])) <= 1e-12

    def test_edge_count(self):
        edges = build_gadget(0.3, -1.2).to_dict()["edges"]
        assert len(edges) == 15
        assert len({tuple(sorted(e)) for e in edges}) == 15

    @given(x=params, y=params)
    @settings(max_examples=300)
    def test_all_fifteen_relations(self, x, y):
        g = build_gadget(x, y)
        assert g.max_edge_residual() <= 1e-9

    def test_apex_b2_orthogonality_tight(self):
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(-2, 2, size=(200, 2)):
            g = build_gadget(x, y)
            assert abs(g.ray("apex").dot(g.ray("b2"))) <= 1e-12

    def test_zero_parameters_collapse_apex_onto_c3(self):
        g = build_gadget(0.0, 0.0)
        assert g.ray("apex") == g.ray("c3")
        assert g.ray("apex").vec[2] == 1.0
        assert gadget_angle(0.0, 0.0) == 0.0

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(DegenerateParameterError):
            build_gadget(float("nan"), 1.0)
        with pytest.raises(DegenerateParameterError):
            build_gadget(1.0, float("inf"))

    def test_serialization_shape(self):
        doc = build_gadget(1.0, 0.5).to_dict()
        json.dumps(doc)
        assert set(doc) == {"x", "y", "rays", "edges"}
        assert len(doc["rays"]) == 10
        assert len(doc["edges"]) == 15
        assert doc["rays"][0]["label"] == "apex"


class TestGadgetAngle:
    def test_unit_parameters_hit_the_bound(self):
        angle = gadget_angle(1.0, 1.0)
        assert angle == pytest.approx(math.acos(BOUND_COSINE), abs=1e-12)
        assert angle == pytest.approx(0.339837, abs=1e-6)
        assert math.degrees(angle) == pytest.approx(19.4712206, abs=1e-3)

    def test_small_parameters_small_angle(self):
        assert gadget_angle(1e-4, 1e-4) < 1e-3

    @given(x=params, y=params)
    @settings(max_examples=500)
    def test_angle_never_exceeds_bound(self, x, y):
        assert gadget_angle(x, y) <= math.acos(BOUND_COSINE) + 1e-9

    @given(x=params, y=params)
    @settings(max_examples=300)
    def test_formula_matches_constructed_rays(self, x, y):
        g = build_gadget(x, y)
        cos_from_rays = abs(g.ray("apex").dot(g.ray("c3")))
        assert math.cos(gadget_angle(x, y)) == pytest.approx(cos_from_rays, abs=1e-12)
        # arccos is ill-conditioned where the rays almost coincide; compare
        # angles only away from that corner
        if gadget_angle(x, y) > 1e-6:
            from_rays = g.ray("apex").angle_to(g.ray("c3"))
            assert gadget_angle(x, y) == pytest.approx(from_rays, abs=1e-9)


class TestBoundMinimization:
    def test_grid_and_refinement(self):
        report = minimize_gadget_cosine()
        assert report.min_cosine == pytest.approx(BOUND_COSINE, abs=1e-6)
        assert abs(abs(report.argmin[0]) - 1.0) <= 1e-6
        assert abs(abs(report.argmin[1]) - 1.0) <= 1e-6
        assert set(report.grid_minima) == {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)}

    def test_coarse_grid_stays_above_bound(self):
        report = minimize_gadget_cosine(grid_n=11)
        assert report.min_cosine >= BOUND_COSINE - 1e-3


class TestParameterSolvers:
    def test_bound_angle_gives_unit_parameter(self):
        t = solve_parameter_for_angle(MAX_GADGET_ANGLE)
        assert t == pytest.approx(1.0, abs=1e-6)

    def test_eighteen_degrees(self):
        target = math.radians(18.0)
        t = solve_parameter_for_angle(target)
        assert 0.0 < t < 1.0
        assert gadget_angle(t, t) == pytest.approx(target, abs=1e-9)
        g = build_gadget(t, t)
        assert g.ray("apex").angle_to(g.ray("c3")) == pytest.approx(target, abs=1e-9)

    def test_out_of_range_targets(self):
        with pytest.raises(AngleRangeError):
            solve_parameter_for_angle(math.radians(25.0))
        with pytest.raises(AngleRangeError):
            solve_parameter_for_angle(0.0)
        with pytest.raises(AngleRangeError):
            solve_parameter_for_angle(-0.1)

    def test_offdiagonal_solver(self):
        target = math.radians(18.0)
        x, y = offdiagonal_parameters_for_angle(target)
        assert x == 1.0
        assert abs(y - 1.0) > 0.1  # genuinely off the diagonal
        assert gadget_angle(x, y) == pytest.approx(target, abs=1e-9)

    @pytest.mark.parametrize(
        "family", [lambda t: (t, t), lambda y: (1.0, y)], ids=["diagonal", "x=1"]
    )
    def test_angle_rises_to_the_bound_on_unit_interval(self, family):
        # the solvers bisect on (0, 1] without checking that it brackets the
        # root; below p = 1e-3 the angle's steps near 0 fall under acos's
        # resolution, so there it need only never fall
        grid = np.linspace(0.0, 1.0, 20001)[1:]
        angles = [gadget_angle(*family(p)) for p in grid]
        steps = np.diff(angles)
        assert np.all(steps >= 0.0)
        assert np.all(steps[grid[1:] > 1e-3] > 0.0)
        assert angles[-1] == pytest.approx(MAX_GADGET_ANGLE, abs=1e-12)

    @pytest.mark.parametrize(
        "deg, y, t",
        [
            (18.0, 0.6591534292378007, 0.7861513777574232),
            (3.75, 0.09350284394068298, 0.26519077665329516),
            (2.25, 0.05573722129294165, 0.20231806910722439),
        ],
    )
    def test_solved_parameters_are_pinned(self, deg, y, t):
        # the census prints coordinates to their last bits, so these must not move
        assert offdiagonal_parameters_for_angle(math.radians(deg)) == (1.0, y)
        assert solve_parameter_for_angle(math.radians(deg)) == t


class TestGadgetForAngle:
    @pytest.mark.parametrize("deg", [25.0, 0.0, -5.0, math.nan])
    def test_out_of_range_angle_named_in_degrees(self, deg):
        with pytest.raises(AngleRangeError, match=r"19\.4712206\] deg") as err:
            gadget_for_angle(math.radians(deg), (1.0, 1.0))
        assert f"{deg:.9g} deg" in str(err.value)

    @pytest.mark.parametrize("target", [1e-9, 1e-7])
    def test_tiny_angle_fails_the_range_check(self, target):
        # below MIN_GADGET_ANGLE the solved gadget would miss by more than
        # REALIZE_TOL; the range check says so before any solve
        with pytest.raises(AngleRangeError, match=r"outside \[0\.00010177775, 19\.4712206\] deg"):
            gadget_for_angle(target, None)

    def test_every_angle_above_the_lower_end_is_realized(self):
        # the realized angle misses by up to about 3 eps / angle, which
        # MIN_GADGET_ANGLE keeps below the tolerance with room to spare
        for target in np.geomspace(MIN_GADGET_ANGLE, 1e-4, 200):
            gadget_for_angle(float(target), None)
            t = solve_parameter_for_angle(float(target))
            gadget_for_angle(float(target), (t, t))

    def test_nan_angle_fails_realize_check(self):
        # (1e200, 1) overflows the closed form to nan, which must not pass
        with pytest.raises(AngleRangeError, match="realizes nan deg, not 18 deg"):
            gadget_for_angle(math.radians(18.0), (1e200, 1.0))


class TestForcingEnumeration:
    def test_pairs_at_unit_parameters(self):
        pairs = enumerate_gadget_assignments(build_gadget(1.0, 1.0))
        assert pairs.pairs == frozenset({(0, 0), (0, 1), (1, 1)})
        assert pairs.assignment_count == 22
        assert pairs.forced_one_way
        assert not pairs.forced_symmetric

    def test_pairs_at_eighteen_degree_parameters(self):
        t = solve_parameter_for_angle(math.radians(18.0))
        pairs = enumerate_gadget_assignments(build_gadget(t, t))
        assert (1, 0) not in pairs.pairs
        assert pairs.assignment_count == 22

    def test_pairs_nonempty_within_bound(self):
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(-2, 2, size=(20, 2)):
            assert enumerate_gadget_assignments(build_gadget(x, y)).pairs

    def test_count_matches_independent_enumeration(self):
        # brute force over explicit tuples, written without the bitmask helper
        survivors = 0
        pair_set = set()
        for m in range(2**10):
            v = [(m >> k) & 1 for k in range(10)]
            if any(sum(v[i] for i in t) != 1 for t in GADGET_TRIADS):
                continue
            if any(v[i] + v[j] == 2 for i, j in GADGET_EDGES):
                continue
            survivors += 1
            pair_set.add((v[0], v[9]))
        result = enumerate_gadget_assignments(build_gadget(0.7, -1.3))
        assert survivors == result.assignment_count
        assert frozenset(pair_set) == result.pairs

    def test_lemma_shared_across_coordinates(self):
        # the lemma depends only on the role graph, so it is computed once
        a = enumerate_gadget_assignments(build_gadget(1.0, 1.0))
        assert enumerate_gadget_assignments(build_gadget(0.7, -1.3)) is a

    def test_role_order(self):
        assert GADGET_ROLES[0] == "apex"
        assert GADGET_ROLES[9] == "c3"
