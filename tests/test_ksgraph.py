"""Rotation sweep, deduplication, and the orthogonality graph."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksparadox.gadget import (
    GADGET_EDGES,
    GADGET_ROLES,
    GADGET_TRIADS,
    build_gadget,
    offdiagonal_parameters_for_angle,
    solve_parameter_for_angle,
)
from ksparadox.ksgraph import (
    DEDUP_TOL,
    DEFAULT_STEP_ANGLE,
    OrthogonalityGapError,
    RotationStep,
    ScheduleError,
    _edge_bound,
    assemble_ks_set,
    build_orthogonality_graph,
    dedupe_rays,
    rotate_ray,
)
from ksparadox.linalg import Context, Ray3, verify_completion
from ksparadox.solver import check_colorability

AXES = tuple(Ray3.from_vector(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


class TestRotateRay:
    def test_quarter_turn_about_z(self):
        out = rotate_ray(AXES[0], AXES[2], math.pi / 2)
        assert out.angle_to(AXES[1]) <= 1e-12

    def test_axis_is_fixed_point(self):
        r = Ray3.from_vector((0.1, 0.5, -2.0))
        for angle in (0.3, 1.0, 2.5, 3.7):
            assert rotate_ray(r, r, angle).angle_to(r) <= 1e-12

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=200)
    def test_common_rotation_preserves_angles(self, seed):
        rng = np.random.default_rng(seed)
        a = Ray3.from_vector(rng.normal(size=3))
        b = Ray3.from_vector(rng.normal(size=3))
        axis = Ray3.from_vector(rng.normal(size=3))
        angle = rng.uniform(0, 2 * math.pi)
        before = a.angle_to(b)
        after = rotate_ray(a, axis, angle).angle_to(rotate_ray(b, axis, angle))
        assert after == pytest.approx(before, abs=1e-12)


class TestDedupeRays:
    def test_antipodal_merge(self):
        rs = dedupe_rays([Ray3.from_vector((1, 2, 3)), Ray3.from_vector((-1, -2, -3))])
        assert len(rs.rays) == 1
        assert len(rs.merges) == 1

    def test_disjoint_axes_unmerged(self):
        rs = dedupe_rays(list(AXES))
        assert len(rs.rays) == 3
        assert rs.merges == ()

    def test_first_occurrence_representative(self):
        rays = [
            Ray3.from_vector((1, 0, 0), "first"),
            Ray3.from_vector((0, 1, 0), "other"),
            Ray3.from_vector((-1, 0, 0), "dup"),
        ]
        rs = dedupe_rays(rays)
        assert rs.rays[0].label == "first"
        assert rs.label_to_index["dup"] == 0
        assert ("dup", "first") in rs.merges

    def test_matches_pairwise_scan(self):
        # jittered copies of 20 directions, well inside or outside the
        # tolerance; then a ray within tolerance of two representatives, and
        # near-antipodes whose canonical signs differ (first component about
        # SIGN_EPS), against a plain first-occurrence scan
        rng = np.random.default_rng(5)
        picks = rng.normal(size=(20, 3))[rng.integers(0, 20, size=60)]
        jitter = rng.normal(size=(60, 3)) * rng.choice([1e-9, 1e-6], size=(60, 1))
        t = DEDUP_TOL
        edge_cases = [(1, 0, 0), (1, 1.5 * t, 0), (1, 0.75 * t, 0), (1.1e-12, -1, 0), (0.9e-12, 1, 0)]
        rays = [Ray3.from_vector(v) for v in [*(picks + jitter), *edge_cases]]
        expected, reps = {}, []
        for idx, r in enumerate(rays):
            k = next((k for k, u in enumerate(reps) if u.angle_to(r) <= DEDUP_TOL), len(reps))
            if k == len(reps):
                reps.append(r)
            expected[f"r{idx}"] = k
        rs = dedupe_rays(rays)
        assert rs.label_to_index == expected
        assert 20 < len(rs.rays) < 60
        k = rs.label_to_index["r60"]
        assert [rs.label_to_index[f"r{i}"] for i in range(60, 65)] == [k, k + 1, k, k + 2, k + 2]


@pytest.fixture(scope="module")
def rayset():
    return assemble_ks_set()


class TestAssembleDefault:
    def test_117_distinct_rays(self, rayset):
        assert len(rayset.rays) == 117

    def test_135_labeled_triad_rays(self, rayset):
        assert rayset.triad_label_count == 135
        assert len(rayset.copies) == 15

    def test_18_triad_label_merges(self, rayset):
        triad_merges = [
            m for m in rayset.merges if not m[0].endswith("apex")
        ]
        assert len(triad_merges) == 18

    def test_chain_links_shared(self, rayset):
        copies = rayset.copies
        for k in range(len(copies) - 1):
            assert copies[k]["c3"] == copies[k + 1]["apex"]
        assert copies[-1]["c3"] == copies[0]["apex"]  # closed sweep

    def test_axes_present_each_seven_triad_labels(self, rayset):
        for axis in AXES:
            idx = rayset.index_of(axis)
            assert idx is not None
            hits = [
                lb
                for lb, k in rayset.label_to_index.items()
                if k == idx and not lb.endswith("apex")
            ]
            assert len(hits) == 7

    def test_apex_labels_all_duplicate_chain_rays(self, rayset):
        # every copy's apex coincides with some copy's c3, so apex labels
        # never create new rays
        apex_merges = [m for m in rayset.merges if m[0].endswith("apex")]
        assert len(apex_merges) == len(rayset.copies)

    def test_provenance_records_parameters(self, rayset):
        assert rayset.provenance["gadget_x"] == 1.0
        assert rayset.provenance["step_angle"] == DEFAULT_STEP_ANGLE

    def test_distinct_rays_well_separated(self, rayset):
        # the closest distinct rays sit 3.2e-3 rad apart at k = 5
        vecs = np.array([r.vec for r in rayset.rays])
        dots = np.abs(vecs @ vecs.T)
        np.fill_diagonal(dots, 0.0)
        closest = math.acos(min(1.0, float(np.max(dots))))
        assert closest > 1e-4


class TestAssembleVariants:
    def test_single_copy_empty_schedule(self):
        rs = assemble_ks_set(schedule=())
        assert len(rs.rays) == 10
        assert len(rs.copies) == 1

    def test_diagonal_parameters_collapse_extra_rays(self):
        # the x = y family has an internal symmetry: swept copies share four
        # extra rays per leg, trimming the census from 117 to 105
        t = solve_parameter_for_angle(math.radians(18.0))
        rs = assemble_ks_set(gadget_params=(t, t))
        assert len(rs.rays) == 105
        copies = rs.copies
        assert all(copies[k]["c3"] == copies[k + 1]["apex"] for k in range(14))

    def test_unknown_axis_role_rejected(self):
        with pytest.raises(ScheduleError):
            assemble_ks_set(schedule=(RotationStep("s99", 0.3, 1),))

    def test_mismatched_params_and_angle_rejected(self):
        from ksparadox.gadget import AngleRangeError

        with pytest.raises(AngleRangeError):
            assemble_ks_set(step_angle=math.radians(18.0), gadget_params=(1.0, 1.0))

    def test_step_angle_out_of_range(self):
        from ksparadox.gadget import AngleRangeError

        with pytest.raises(AngleRangeError):
            assemble_ks_set(step_angle=math.radians(25.0))

    def test_default_schedule_at_18_degrees(self, rayset):
        pivot = ["c3", math.pi / 2.0, 1, False]
        assert rayset.provenance["schedule"] == [
            ["c2", DEFAULT_STEP_ANGLE, 4, True],
            pivot,
            ["c2", DEFAULT_STEP_ANGLE, 5, True],
            pivot,
            ["c2", DEFAULT_STEP_ANGLE, 5, True],
        ]

    @pytest.mark.parametrize("deg", [17.0, 7.0])
    def test_step_not_dividing_90_rejected(self, deg):
        with pytest.raises(ScheduleError, match="does not divide 90"):
            assemble_ks_set(step_angle=math.radians(deg))

    def test_closed_k24_census(self):
        rs = assemble_ks_set(step_angle=math.radians(90.0 / 24))
        g = build_orthogonality_graph(rs)
        assert (len(rs.rays), len(rs.merges)) == (573, 147)
        assert (len(g.edges), len(g.triads)) == (1002, 214)
        assert tuple(rs.index_of(a) for a in AXES) == (192, 7, 191)

    @pytest.mark.parametrize("k", [5, 24])
    def test_dedup_guard_band(self, k):
        # every merge already holds at a third of the tolerance (merged
        # labels sit at angle 0), and distinct rays stay ten tolerances apart
        step = math.radians(90.0 / k)
        rs = assemble_ks_set(step_angle=step)
        tight = assemble_ks_set(step_angle=step, dedup_tol=DEDUP_TOL / 3)
        assert tight.label_to_index == rs.label_to_index
        assert tight.merges == rs.merges
        vecs = np.array([r.vec for r in rs.rays])
        dots = np.abs(vecs @ vecs.T)
        np.fill_diagonal(dots, 0.0)
        assert math.acos(min(1.0, float(np.max(dots)))) >= 10 * DEDUP_TOL


class TestOrthogonalityGraph:
    def test_axes_triangle(self):
        g = build_orthogonality_graph(AXES)
        assert g.node_count == 3
        assert len(g.edges) == 3
        assert g.triads == ((0, 1, 2),)

    def test_single_gadget_graph(self):
        gadget = build_gadget(*offdiagonal_parameters_for_angle(math.radians(18.0)))
        g = build_orthogonality_graph(gadget.rays)
        assert g.node_count == 10
        assert len(g.edges) == 15
        assert len(g.triads) == 3

    def test_edge_relation_symmetric_irreflexive(self):
        g = build_orthogonality_graph(AXES)
        for i, j in g.edges:
            assert i < j

    def test_full_graph_census(self):
        rs = assemble_ks_set()
        g = build_orthogonality_graph(rs)
        assert g.node_count == 117
        assert len(g.edges) == 204
        assert len(g.triads) == 43
        axes_nodes = tuple(sorted(rs.index_of(a) for a in AXES))
        assert axes_nodes in g.triads

    def test_every_triad_completes(self):
        rs = assemble_ks_set()
        g = build_orthogonality_graph(rs)
        for a, b, c in g.triads:
            ctx = Context.spin1((g.rays[a], g.rays[b], g.rays[c]))
            assert verify_completion(ctx) <= 1e-6

    def test_loose_triangle_gives_no_edges(self):
        # pairwise |dot| of 5e-8 is far outside the float error of a ray list
        e = 2.5e-8
        rays = [Ray3.from_vector(v) for v in ((1, e, e), (e, 1, e), (e, e, 1))]
        g = build_orthogonality_graph(rays)
        assert (g.edges, g.triads) == ((), ())

    def test_gadget_set_and_its_rays_give_one_graph(self):
        gadget = build_gadget(*offdiagonal_parameters_for_angle(math.radians(18.0)))
        assert build_orthogonality_graph(gadget) == build_orthogonality_graph(gadget.rays)

    def test_abstract_structure(self):
        from ksparadox.ksgraph import OrthogonalityGraph

        g = OrthogonalityGraph.from_structure(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert g.triads == ((0, 1, 2),)
        assert g.rays is None


def _sweep(name):
    if name == "open-k40":  # legs of 39, 40 and 38 steps of 2.25 degrees: an open chain
        step = math.radians(2.25)
        pivot = RotationStep("c3", math.pi / 2.0, 1, emit=False)
        legs = [RotationStep("c2", step, n) for n in (39, 40, 38)]
        return assemble_ks_set(step, schedule=(legs[0], pivot, legs[1], pivot, legs[2]))
    return assemble_ks_set(math.radians(90.0 / int(name[2:])))


def _construction(rs, relations):
    return {
        tuple(sorted(cp[GADGET_ROLES[i]] for i in rel)) for cp in rs.copies for rel in relations
    }


SWEEPS = ("k=5", "k=24", "open-k40")


@pytest.fixture(scope="module", params=SWEEPS)
def sweep(request):
    rs = _sweep(request.param)
    return rs, build_orthogonality_graph(rs)


class TestConstructionCertificate:
    def test_graph_is_the_construction(self, sweep):
        rs, g = sweep
        assert set(g.edges) == _construction(rs, GADGET_EDGES)
        assert set(g.triads) == _construction(rs, GADGET_TRIADS)

    def test_measured_margins(self, sweep):
        # construction pairs sit ten times below the bound, all other pairs ten
        # times above it
        rs, g = sweep
        bound = _edge_bound(len(rs.copies))
        vecs = np.array([r.vec for r in rs.rays])
        dots = np.abs(vecs @ vecs.T)
        e = np.array(g.edges)
        assert dots[e[:, 0], e[:, 1]].max() <= bound / 10
        dots[e[:, 0], e[:, 1]] = dots[e[:, 1], e[:, 0]] = np.inf
        np.fill_diagonal(dots, np.inf)
        assert dots.min() >= 10 * bound

    def test_k24_near_orthogonal_pairs_are_not_edges(self):
        # within 1e-7 but not orthogonal: |dot| 3.0e-8 and 8.1e-8
        rs = _sweep("k=24")
        g = build_orthogonality_graph(rs)
        pairs = [(13, 364), (14, 478), (96, 206), (172, 395), (205, 554), (288, 396)]
        for i, j in pairs:
            assert 1e-8 < abs(rs.rays[i].dot(rs.rays[j])) < 1e-7
        assert not set(pairs) & set(g.edges)

    def test_tampered_copies_rejected(self):
        rs = assemble_ks_set()
        copies = list(rs.copies)
        tampered = dict(copies[7])
        tampered["apex"] = copies[7]["c3"]
        copies[7] = tampered
        with pytest.raises(OrthogonalityGapError, match=r"^\d+ construction pairs have \|dot\| >"):
            build_orthogonality_graph(dataclasses.replace(rs, copies=tuple(copies)))

    def test_exact_extra_pair_becomes_edge(self):
        # one more ray, orthogonal to node 0 only: a pair no copy accounts for
        rs = assemble_ks_set()
        extra = Ray3.from_vector(np.cross(rs.rays[0].vec, (0.3, 0.5, 0.7)))
        assert abs(extra.dot(rs.rays[0])) <= _edge_bound(len(rs.copies))
        g = build_orthogonality_graph(dataclasses.replace(rs, rays=rs.rays + (extra,)))
        n = len(rs.rays)
        assert set(g.edges) == _construction(rs, GADGET_EDGES) | {(0, n)}

    def test_diagonal_sweep_keeps_exact_extra_pairs(self):
        # the x = y gadget's symmetry makes 27 more pairs exactly orthogonal
        # (|dot| <= 2e-16) than the copies account for; they are edges too
        t = solve_parameter_for_angle(math.radians(18.0))
        rs = assemble_ks_set(gadget_params=(t, t))
        g = build_orthogonality_graph(rs)
        assert (len(rs.rays), len(g.edges), len(g.triads)) == (105, 216, 43)
        assert len(set(g.edges) - _construction(rs, GADGET_EDGES)) == 27
        assert check_colorability(g).outcome == "UNSAT"
