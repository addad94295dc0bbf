"""The ten-ray gadget: orthogonality algebra, angle law, forcing enumeration."""

import copy
import dataclasses
import json
import math
import pickle
import re

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
    GadgetSet,
    build_gadget,
    copy_margins,
    enumerate_gadget_assignments,
    gadget_angle,
    gadget_for_angle,
    minimize_gadget_cosine,
    offdiagonal_parameters_for_angle,
    raw_gadget_vectors,
    solve_parameter_for_angle,
)
from ksparadox.ksgraph import _align_gadget, build_orthogonality_graph
from ksparadox.linalg import NormalizationError, Ray3

params = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)

BOUND_COSINE = math.sqrt(8.0) / 3.0


def _hexed(rays):
    return [(r.x.hex(), r.y.hex(), r.z.hex()) for r in rays]


def _ray(g, role):
    """The gadget's ray of that role, read from its units."""
    return Ray3(*g.units[GADGET_ROLES.index(role)].tolist())


def _rays(g):
    return [Ray3(*row) for row in g.units.tolist()]


class TestBuildGadget:
    def test_unit_parameters_apex(self):
        g = build_gadget(1.0, 1.0)
        c = 1.0 / math.sqrt(3.0)
        assert np.max(np.abs(_ray(g, "apex").vec - [c, -c, c])) <= 1e-12

    def test_edge_count(self):
        edges = build_gadget(0.3, -1.2).to_dict()["edges"]
        assert len(edges) == 15
        assert len({tuple(sorted(e)) for e in edges}) == 15

    @given(x=params, y=params)
    @settings(max_examples=300)
    def test_all_fifteen_relations(self, x, y):
        g = build_gadget(x, y)
        assert copy_margins(g.units[None])[0][0] <= 1e-9

    def test_apex_b2_orthogonality_tight(self):
        rng = np.random.default_rng(1)
        for x, y in rng.uniform(-2, 2, size=(200, 2)):
            g = build_gadget(x, y)
            assert abs(_ray(g, "apex").dot(_ray(g, "b2"))) <= 1e-12

    def test_zero_parameters_collapse_apex_onto_c3(self):
        g = build_gadget(0.0, 0.0)
        assert _ray(g, "apex") == _ray(g, "c3")
        assert _ray(g, "apex").vec[2] == 1.0
        assert gadget_angle(0.0, 0.0) == 0.0

    def test_nonfinite_parameters_rejected(self):
        with pytest.raises(DegenerateParameterError):
            build_gadget(float("nan"), 1.0)
        with pytest.raises(DegenerateParameterError):
            build_gadget(1.0, float("inf"))

    def test_nonfinite_parameters_have_no_angle(self):
        message = re.escape("parameters must be finite, got (inf, 1.0)")
        with pytest.raises(DegenerateParameterError, match=f"^{message}$"):
            gadget_angle(math.inf, 1.0)
        with pytest.raises(DegenerateParameterError, match=f"^{message}$"):
            gadget_for_angle(math.radians(18), (math.inf, 1.0))

    @pytest.mark.parametrize("x", [1e200, 1.0])
    def test_overflowing_y_cubed_rejected(self, x):
        # y**3 of a Python float raises OverflowError, whose text is an errno tuple
        message = re.escape(f"parameters ({x}, 1e+200) overflow the construction vectors")
        with pytest.raises(DegenerateParameterError, match=f"^{message}$"):
            build_gadget(x, 1e200)

    def test_rays_match_the_per_ray_rebuild(self):
        # one _canonical_units call over the (10, 3) array keeps the bits of
        # Ray3.from_vector applied to each construction vector in turn
        grid = (-3.0, -1.0, -0.37, -1e-9, -1e-300, 0.0, 1e-300, 1e-9, 0.37, 1.0, 2.9)
        for x in grid:
            for y in grid:
                rebuilt = map(Ray3.from_vector, raw_gadget_vectors(x, y), GADGET_ROLES)
                assert _hexed(_rays(build_gadget(x, y))) == _hexed(rebuilt), (x, y)

    def test_units_are_the_stored_form(self):
        # the graph, the sweep and the JSON document read the (10, 3) array
        g = build_gadget(*offdiagonal_parameters_for_angle(math.radians(18.0)))
        assert g.units.shape == (10, 3) and not g.units.flags.writeable
        assert build_orthogonality_graph(g).labels == GADGET_ROLES
        assert _align_gadget(g).shape == (10, 3)
        assert [r["xyz"] for r in g.to_dict()["rays"]] == g.units.tolist()

    def test_gadget_is_its_parameters(self):
        # the constructor builds the units from (x, y); none can be given
        x, y = offdiagonal_parameters_for_angle(math.radians(18.0))
        g = GadgetSet(x, y)
        assert g == build_gadget(x, y) and hash(g) == hash(build_gadget(x, y))
        assert g != GadgetSet(x, -y)
        assert repr(g) == f"GadgetSet(x={x!r}, y={y!r})"
        assert g.units.tolist() == build_gadget(x, y).units.tolist()
        with pytest.raises(TypeError):
            GadgetSet(1.0, 1.0, np.zeros((10, 3)))
        with pytest.raises(TypeError):
            GadgetSet(1.0, 1.0, units=np.zeros((10, 3)))
        for rebuilt in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), dataclasses.replace(g)):
            assert rebuilt == g and rebuilt.units.tolist() == g.units.tolist()
            assert not rebuilt.units.flags.writeable

    def test_margins_keep_the_ray_path_bits(self):
        # one stacked call gives each copy the residual and apex-c3 angle of
        # a Ray3 loop, bit for bit
        rng = np.random.default_rng(11)
        gadgets = [build_gadget(x, y) for x, y in rng.uniform(-3, 3, size=(500, 2)).tolist()]
        margins = copy_margins(np.stack([g.units for g in gadgets]))
        assert [m[0] for m in margins] == [copy_margins(g.units[None])[0][0] for g in gadgets]
        expected = [
            (max(abs(rays[i].dot(rays[j])) for i, j in GADGET_EDGES),
             _ray(g, "apex").angle_to(_ray(g, "c3")))
            for g, rays in zip(gadgets, map(_rays, gadgets))
        ]
        assert margins == expected

    def test_overflowing_norm_names_the_first_vector(self):
        # at (1, 1e100) the first vector whose norm overflows is c2's
        vecs = raw_gadget_vectors(1.0, 1e100)
        with pytest.raises(NormalizationError) as per_ray:
            for v in vecs:
                Ray3.from_vector(v)
        assert str(per_ray.value).startswith(f"cannot normalize {vecs[8]!r} of norm inf")
        with pytest.raises(NormalizationError, match=f"^{re.escape(str(per_ray.value))}$"):
            build_gadget(1.0, 1e100)

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
        cos_from_rays = abs(_ray(g, "apex").dot(_ray(g, "c3")))
        assert math.cos(gadget_angle(x, y)) == pytest.approx(cos_from_rays, abs=1e-12)
        # arccos is ill-conditioned where the rays almost coincide; compare
        # angles only away from that corner
        if gadget_angle(x, y) > 1e-6:
            from_rays = _ray(g, "apex").angle_to(_ray(g, "c3"))
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
        assert _ray(g, "apex").angle_to(_ray(g, "c3")) == pytest.approx(target, abs=1e-9)

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
