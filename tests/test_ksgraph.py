"""Rotation sweep, deduplication, and the orthogonality graph."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksparadox import ksgraph
from ksparadox.emit import census_text
from ksparadox.gadget import (
    C3,
    GADGET_EDGES,
    GADGET_ROLES,
    GADGET_TRIADS,
    build_gadget,
    gadget_for_angle,
    offdiagonal_parameters_for_angle,
    solve_parameter_for_angle,
)
from ksparadox.ksgraph import (
    DEDUP_TOL,
    DEFAULT_STEP_ANGLE,
    OrthogonalityGapError,
    RaySet,
    RotationStep,
    ScheduleError,
    _edge_bound,
    _NearIndex,
    _transformed,
    assemble_ks_set,
    build_orthogonality_graph,
    dedupe_rays,
    default_schedule,
    rotate_ray,
    rotation_matrix,
)
from ksparadox.linalg import SIGN_EPS, Context, Ray3, verify_completion
from ksparadox.solver import check_colorability

AXES = tuple(Ray3.from_vector(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _plain_scan(rays):
    """label -> representative index by a plain first-occurrence loop over
    all representatives, at the current ksgraph.DEDUP_TOL."""
    expected, reps = {}, []
    for idx, r in enumerate(rays):
        k = next((k for k, u in enumerate(reps) if u.angle_to(r) <= ksgraph.DEDUP_TOL), len(reps))
        if k == len(reps):
            reps.append(r)
        expected[r.label or f"r{idx}"] = k
    return expected, reps


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
        rs = dedupe_rays(rays)
        assert rs.label_to_index == _plain_scan(rays)[0]
        assert 20 < len(rs.rays) < 60
        k = rs.label_to_index["r60"]
        assert [rs.label_to_index[f"r{i}"] for i in range(60, 65)] == [k, k + 1, k, k + 2, k + 2]

    @pytest.mark.parametrize(
        "first, second", [("a", "a"), ("r1", "")], ids=["explicit", "generated"]
    )
    def test_repeated_label_rejected(self, first, second):
        # the second ray's label, explicit or generated from its position,
        # is already the first ray's
        rays = [Ray3.from_vector((1, 0, 0), first), Ray3.from_vector((0, 1, 0), second)]
        with pytest.raises(ValueError, match=f"label '{first}' of input ray 1"):
            dedupe_rays(rays)


def _jittered(rng, base, angle):
    """base turned by angle in a random direction."""
    b = np.asarray(base, dtype=float)
    b = b / np.linalg.norm(b)
    p = np.cross(b, rng.normal(size=3))
    return math.cos(angle) * b + math.sin(angle) * p / np.linalg.norm(p)


def _near_cell_faces(rng, reach, side):
    """A unit direction whose x and y sit within reach of a cell face."""
    x, y = (round(c / side) * side + rng.uniform(-reach, reach) for c in rng.uniform(-0.6, 0.6, 2))
    return (x, y, rng.choice([-1.0, 1.0]) * math.sqrt(1.0 - x * x - y * y))


class TestGridMatchesPlainScan:
    # the grid lookup must return the plain scan's first occurrence: labels
    # jittered around the tolerance, bases near the grid's cell faces, and
    # near-antipodes whose first components straddle SIGN_EPS

    @pytest.mark.parametrize("scale", [1.0, 1 / 3], ids=["tol", "tol/3"])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_dedupe_equals_plain_scan(self, scale, seed):
        rng = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ksgraph, "DEDUP_TOL", DEDUP_TOL * scale)
            tol = ksgraph.DEDUP_TOL
            probe = _NearIndex([])
            assert probe.tol == tol  # the grid reads the tolerance when built
            # bases in the plane x = 0 jitter to either canonical sign
            bases = [rng.normal(size=3) for _ in range(3)]
            bases += [_near_cell_faces(rng, probe.reach, probe.side) for _ in range(3)]
            bases += [(0.0, *rng.normal(size=2)) for _ in range(2)]
            factors = rng.choice([0.0, 0.3, 0.6, 0.9, 1.1, 3.0], 64)
            vecs = [_jittered(rng, bases[i], f * tol) for i, f in zip(rng.integers(0, 8, 64), factors)]
            for a in rng.choice([0.5, 0.9, 1.1, 2.0], 4) * SIGN_EPS:
                y, z = rng.normal(size=2)
                vecs += [(a, y, z), (-a, -y, -z), (a, -y, -z), _jittered(rng, (a, y, z), 0.9 * tol)]
            rays = [Ray3.from_vector(v) for v in rng.permutation(vecs)]
            expected, reps = _plain_scan(rays)
            rs = dedupe_rays(rays)
            assert rs.label_to_index == expected
            assert rs.rays == tuple(reps)
            assert [rs.index_of(r) for r in rays] == [expected[f"r{i}"] for i in range(len(rays))]


@pytest.fixture(scope="module")
def rayset():
    return assemble_ks_set()


class TestIndexOf:
    def test_hand_built_set_builds_its_index_once(self):
        rs = RaySet(rays=AXES, label_to_index={}, merges=())
        assert rs.grid is None
        assert [rs.index_of(a) for a in AXES] == [0, 1, 2]
        grid = rs.grid
        assert rs.index_of(Ray3.from_vector((0.5e-12, -1, 1e-8))) == 1  # a near-antipode of y
        assert rs.index_of(Ray3.from_vector((1, 1, 0))) is None
        assert rs.grid is grid

    def test_dedupe_leaves_the_index_it_built(self, rayset):
        grid = rayset.grid
        assert grid is not None and grid.rays is rayset.rays
        assert [rayset.index_of(a) for a in AXES] == [40, 7, 39]
        assert rayset.grid is grid

    def test_replace_carries_or_rebuilds_the_index(self, rayset):
        same = dataclasses.replace(rayset, copies=())
        assert same.grid is rayset.grid
        assert [same.index_of(a) for a in AXES] == [40, 7, 39]
        # new rays: the carried index no longer fits and is rebuilt
        grown = dataclasses.replace(rayset, rays=AXES + rayset.rays)
        assert [grown.index_of(a) for a in AXES] == [0, 1, 2]
        assert grown.grid is not rayset.grid and grown.grid.rays is grown.rays


def _sweep_args(name):
    if name == "open-k40":  # legs of 39, 40 and 38 steps of 2.25 degrees: an open chain
        step = math.radians(2.25)
        pivot = RotationStep("c3", math.pi / 2.0, 1, emit=False)
        legs = [RotationStep("c2", step, n) for n in (39, 40, 38)]
        return step, (legs[0], pivot, legs[1], pivot, legs[2])
    step = math.radians(90.0 / int(name[2:]))
    return step, default_schedule(step)


def _sweep(name):
    return assemble_ks_set(*_sweep_args(name))


class TestBitsKept:
    # coordinates are printed to their last bits, and OpenBLAS picks its
    # kernels per CPU: compare on this host, never against stored floats

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100)
    def test_copy_rotation_equals_per_ray_rotation(self, seed):
        rng = np.random.default_rng(seed)
        copy = [Ray3.from_vector(rng.normal(size=3)) for _ in range(10)]
        m = rotation_matrix(Ray3.from_vector(rng.normal(size=3)).vec, rng.uniform(0, 2 * math.pi))
        rows = _transformed(m, np.array([(r.x, r.y, r.z) for r in copy]))
        expected = [Ray3.from_vector(m @ r.vec) for r in copy]
        assert [[c.hex() for c in row] for row in rows] == [
            [e.x.hex(), e.y.hex(), e.z.hex()] for e in expected
        ]

    @pytest.mark.parametrize("name", ["k=5", "k=24", "open-k40"])
    def test_sweep_equals_ray_by_ray_rebuild(self, name):
        # the sweep rebuilt one Ray3 at a time with rotate_ray, deduped by
        # the plain first-occurrence scan
        step_angle, schedule = _sweep_args(name)
        gadget = gadget_for_angle(step_angle, None)
        w, u = gadget.ray("apex").vec, gadget.ray("c2").vec
        copy = [Ray3.from_vector(np.stack([np.cross(u, w), u, w]) @ r.vec) for r in gadget.rays]
        if copy[C3].x < 0.0:
            copy = [Ray3.from_vector(np.diag([-1.0, -1.0, 1.0]) @ r.vec) for r in copy]
        copies = [copy]
        for step in schedule:
            a = GADGET_ROLES.index(step.axis_role)
            for _ in range(step.repetitions):
                copy = [rotate_ray(r, copy[a], step.angle) for r in copy]
                if step.emit:
                    copies.append(copy)
        labeled = [  # triad labels first, apex labels last
            cp[ri].relabel(f"g{ci + 1:02d}:{GADGET_ROLES[ri]}")
            for ci, cp in enumerate(copies)
            for ri in range(1, len(GADGET_ROLES))
        ] + [cp[0].relabel(f"g{ci + 1:02d}:apex") for ci, cp in enumerate(copies)]
        expected, reps = _plain_scan(labeled)
        merges = [
            [lb, reps[expected[lb]].label] for lb in expected if reps[expected[lb]].label != lb
        ]
        rs = assemble_ks_set(step_angle, schedule)
        d = rs.to_dict()
        assert d["rays"] == [{"label": r.label, "xyz": [r.x, r.y, r.z]} for r in reps]
        assert [[x.hex() for x in r["xyz"]] for r in d["rays"]] == [
            [r.x.hex(), r.y.hex(), r.z.hex()] for r in reps
        ]
        assert d["merges"] == merges
        assert d["copies"] == [
            {role: expected[f"g{ci + 1:02d}:{role}"] for role in GADGET_ROLES}
            for ci in range(len(copies))
        ]
        assert rs.label_to_index == expected


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

    @pytest.mark.parametrize("k", [91, 95])
    def test_sweep_above_k90_rejected(self, k):
        with pytest.raises(ScheduleError, match="holds up to 90"):
            default_schedule(math.radians(90.0 / k))

    def test_k90_schedule_accepted(self):
        legs = default_schedule(math.radians(1.0))
        assert [step.repetitions for step in legs] == [89, 1, 90, 1, 90]

    def test_closed_k24_census(self):
        rs = assemble_ks_set(step_angle=math.radians(90.0 / 24))
        g = build_orthogonality_graph(rs)
        assert (len(rs.rays), len(rs.merges)) == (573, 147)
        assert (len(g.edges), len(g.triads)) == (1002, 214)
        assert tuple(rs.index_of(a) for a in AXES) == (192, 7, 191)

    @pytest.mark.parametrize("k", [5, 24])
    def test_dedup_guard_band(self, k, monkeypatch):
        # every merge already holds at a third of the tolerance (merged
        # labels sit at angle 0), and distinct rays stay ten tolerances apart
        step = math.radians(90.0 / k)
        rs = assemble_ks_set(step_angle=step)
        monkeypatch.setattr(ksgraph, "DEDUP_TOL", DEDUP_TOL / 3)
        tight = assemble_ks_set(step_angle=step)
        assert tight.label_to_index == rs.label_to_index
        assert tight.merges == rs.merges
        vecs = np.array([r.vec for r in rs.rays])
        dots = np.abs(vecs @ vecs.T)
        np.fill_diagonal(dots, 0.0)
        assert math.acos(min(1.0, float(np.max(dots)))) >= 10 * DEDUP_TOL


class TestCensusGoldens:
    """sha256 of census_text beyond the paper117 reference: a sweep with
    merges off the axes, the diagonal family's shared rays, and an open
    chain whose x axis is absent and whose z axis is only an apex label."""

    def test_closed_10_degree_sweep(self):
        rs = assemble_ks_set(math.radians(10.0))
        text = census_text(rs)
        assert len(rs.rays) == 213
        assert "labeled triad rays: 243 (30 merged)" in text
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "9e66f4e48daadba8f1d94ffd7fc9596d5447025af622b392f048e32afd04b9b5"
        )

    def test_diagonal_18_degree_set(self):
        t = solve_parameter_for_angle(math.radians(18.0))
        rs = assemble_ks_set(math.radians(18.0), gadget_params=(t, t))
        assert len(rs.rays) == 105
        assert hashlib.sha256(census_text(rs).encode()).hexdigest() == (
            "b10d21dfc45eb098fe639179cf7b337cdab090688b9421b46e752c9967ff1def"
        )

    def test_open_chain_absent_and_apex_only_axes(self):
        step = math.radians(18.0)
        rs = assemble_ks_set(step, schedule=(RotationStep("c2", step, 2),))
        text = census_text(rs)
        assert rs.index_of(AXES[0]) is None
        assert rs.index_of(AXES[2]) is not None
        assert "axis x: 0 triad labels ()\n" in text
        assert "axis z: 0 triad labels ()\n" in text
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3931b3ff0e6865d224c9c5ea3c343fcd9e73dc31ef37a1bd40b52ee791ba8c59"
        )


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

    @pytest.mark.parametrize(
        "edges, triads, message",
        [
            ([(1, 1)], None, r"edge \(1, 1\) repeats a node"),
            ([(0, 1), (1, 0)], None, r"edge \(0, 1\) is listed twice"),
            ([(-1, 0)], None, r"edge \(-1, 0\) has a node outside \[0, 3\)"),
            ([(0, 5)], None, r"edge \(0, 5\) has a node outside \[0, 3\)"),
            ([(0, 1)], [(0, 1, 3)], r"triad \(0, 1, 3\) has a node outside \[0, 3\)"),
            ([(0, 1)], [(0, 1, 1)], r"triad \(0, 1, 1\) repeats a node"),
        ],
        ids=["self-loop", "repeated-edge", "negative-node", "node-past-count",
             "triad-node-past-count", "triad-repeats-node"],
    )
    def test_abstract_structure_rejects_bad_nodes(self, edges, triads, message):
        from ksparadox.ksgraph import OrthogonalityGraph

        with pytest.raises(ValueError, match=message):
            OrthogonalityGraph.from_structure(3, edges, triads)


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
