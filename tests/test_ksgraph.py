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
    GADGET_EDGES,
    GADGET_ROLES,
    GADGET_TRIADS,
    build_gadget,
    gadget_for_angle,
    offdiagonal_parameters_for_angle,
    solve_parameter_for_angle,
)
from ksparadox.ksgraph import (
    DEFAULT_STEP_ANGLE,
    OrthogonalityGapError,
    RaySet,
    RotationStep,
    ScheduleError,
    _edge_bound,
    _transformed,
    assemble_ks_set,
    build_orthogonality_graph,
    dedupe_rays,
    default_schedule,
    rotate_ray,
    rotation_matrix,
)
from ksparadox.linalg import SIGN_EPS, Context, Ray3, _canonical_units, verify_completion
from ksparadox.solver import check_colorability, forcing_chain_check

AXES = tuple(Ray3.from_vector(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _cross_norm(u, v):
    """|u x v| of two rays, one pair at a time in plain floats (np.cross per
    pair made the open-k40 rebuild take 15 s)."""
    return math.hypot(u.y * v.z - u.z * v.y, u.z * v.x - u.x * v.z, u.x * v.y - u.y * v.x)


def _plain_scan(rays, bound):
    """label -> representative index by a plain first-occurrence loop over
    all representatives, merging at |u x v| <= bound."""
    expected, reps = {}, []
    for idx, r in enumerate(rays):
        k = next((k for k, u in enumerate(reps) if _cross_norm(u, r) <= bound), len(reps))
        if k == len(reps):
            reps.append(r)
        expected[r.label or f"r{idx}"] = k
    return expected, reps


def _is_equivalence(rays, expected, bound):
    """Whether the plain scan's clusters are exactly the classes of the
    relation |u x v| <= bound, read from the full n x n cross products."""
    mat = np.array([r.vec for r in rays]).reshape(-1, 3)
    related = np.linalg.norm(np.cross(mat[:, None], mat[None]), axis=-1) <= bound
    cls = np.array([expected[r.label or f"r{i}"] for i, r in enumerate(rays)])
    return bool(np.array_equal(related, cls[:, None] == cls[None]))


def _assert_dedup_is_reference(rays):
    """dedupe_rays gives the plain scan when the rule is an equivalence on
    the rays, and raises otherwise; returns which of the two held."""
    bound = ksgraph._edge_bound(0)
    expected, reps = _plain_scan(rays, bound)
    if not _is_equivalence(rays, expected, bound):
        with pytest.raises(ValueError, match="is not transitive here"):
            dedupe_rays(rays)
        return False
    rs = dedupe_rays(rays)
    assert rs.label_to_index == expected
    assert rs.rays == tuple(reps)
    assert [rs.index_of(r) for r in rays] == [expected[f"r{i}"] for i in range(len(rays))]
    return True


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
        # jittered copies of 20 directions, well inside or outside the bound;
        # then rays within and beyond the bound of (1, 0, 0), and
        # near-antipodes whose canonical signs differ (first components
        # straddle SIGN_EPS, |u x v| half the bound), against a plain
        # first-occurrence scan
        rng = np.random.default_rng(5)
        b = _edge_bound(0)
        picks = rng.normal(size=(20, 3))[rng.integers(0, 20, size=60)]
        jitter = rng.normal(size=(60, 3)) * rng.choice([1e-2 * b, 10 * b], size=(60, 1))
        edge_cases = [
            (1, 0, 0),
            (1, 0.5 * b, 0),
            (1, 3 * b, 0),
            (SIGN_EPS + b / 4, -1, 0),
            (b / 4 - SIGN_EPS, 1, 0),
        ]
        rays = [Ray3.from_vector(v) for v in [*(picks + jitter), *edge_cases]]
        assert _assert_dedup_is_reference(rays)
        rs = dedupe_rays(rays)
        assert 20 < len(rs.rays) < 60
        k = rs.label_to_index["r60"]
        assert [rs.label_to_index[f"r{i}"] for i in range(60, 65)] == [k, k, k + 1, k + 2, k + 2]

    @pytest.mark.parametrize(
        "ys",
        [(0, 1.5, 3), (1.5, 0, 3), (0, 3, 1.5), (0, -1.9, 1.9, 3.8)],
        ids=["chain", "star", "chain-reordered", "star-and-tail"],
    )
    def test_non_transitive_rule_rejected(self, ys):
        # rays (1, y 1e-14, 0): those 1.5e-14 or 1.9e-14 apart are within
        # _edge_bound(0) = 2.1e-14, those 3e-14 or more apart are not; in the
        # last, the three merged pairs number as many as a 3-clique has
        with pytest.raises(ValueError, match="is not transitive here"):
            dedupe_rays([Ray3.from_vector((1, y * 1e-14, 0)) for y in ys])

    @pytest.mark.parametrize(
        "first, second", [("a", "a"), ("r1", "")], ids=["explicit", "generated"]
    )
    def test_repeated_label_rejected(self, first, second):
        # the second ray's label, explicit or generated from its position,
        # is already the first ray's
        rays = [Ray3.from_vector((1, 0, 0), first), Ray3.from_vector((0, 1, 0), second)]
        with pytest.raises(ValueError, match=f"label '{first}' of input ray 1"):
            dedupe_rays(rays)


def _jittered(rng, base, angle, toward=None):
    """base turned by angle on its great circle through toward (random by
    default)."""
    b = np.asarray(base, dtype=float)
    b = b / np.linalg.norm(b)
    p = np.cross(b, rng.normal(size=3) if toward is None else toward)
    return math.cos(angle) * b + math.sin(angle) * p / np.linalg.norm(p)


def _jittered_set(rng, factors, great_circles):
    """Rays jittered by factors of the current ksgraph._edge_bound(0) about
    five bases, on one great circle per base or in random directions, in
    either sign; then near-antipodes whose first components straddle
    SIGN_EPS within 0.8 bounds, and one 2e-12 off each; shuffled."""
    b = ksgraph._edge_bound(0)
    # bases whose first component is SIGN_EPS jitter to either canonical sign
    bases = [rng.normal(size=3) for _ in range(3)]
    bases += [(SIGN_EPS, math.cos(t), math.sin(t)) for t in rng.uniform(0, 2 * math.pi, 2)]
    toward = [rng.normal(size=3) if great_circles else None for _ in bases]
    picks = rng.integers(0, len(bases), 64)
    vecs = [
        rng.choice([-1.0, 1.0]) * _jittered(rng, bases[i], f * b, toward[i])
        for i, f in zip(picks, rng.choice(factors, 64))
    ]
    for s in rng.choice([-0.4, -0.2, 0.2, 0.4], 4):
        a, t = SIGN_EPS + s * b, rng.uniform(0, 2 * math.pi)
        y, z = math.cos(t), math.sin(t)
        vecs += [(a, y, z), (-a, -y, -z), (a - 2 * SIGN_EPS, -y, -z), (a, -y, -z)]
    return [Ray3.from_vector(v) for v in rng.permutation(vecs)]


class TestDedupeMatchesPlainScan:
    # the shared pair scan, its 1 - bound floor, the cross-norm rule and the
    # clique check must give the plain scan's first occurrence, or raise
    # where the rule is not transitive: labels jittered around the bound, at
    # three scales of it, and near-antipodes that straddle SIGN_EPS

    @pytest.mark.parametrize("scale", [3.0, 1.0, 1 / 3], ids=["3tol", "tol", "tol/3"])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_dedupe_equals_plain_scan(self, scale, seed):
        # on a great circle the positions 0, 0.4 and 0.8, then 2 and 2.9,
        # then 5 bounds form three cliques, each at most 0.9 bounds wide and
        # 1.2 bounds or more from the next, so every draw is transitive
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ksgraph, "_edge_bound", lambda copies: scale * _edge_bound(copies))
            rays = _jittered_set(np.random.default_rng(seed), [0.0, 0.4, 0.8, 2.0, 2.9, 5.0], True)
            assert _assert_dedup_is_reference(rays)

    @pytest.mark.parametrize("scale", [3.0, 1.0, 1 / 3], ids=["3tol", "tol", "tol/3"])
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), tight=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_dedupe_in_random_directions_equals_plain_scan_or_raises(self, scale, seed, tight):
        # jitters of at most 0.45 bounds and of 3 bounds keep the rule
        # transitive on about four draws in five; 0.6 to 1.1 bounds break it
        # on nearly every draw
        factors = [0.0, 0.3, 0.45, 3.0] if tight else [0.0, 0.3, 0.6, 0.9, 1.1, 3.0]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ksgraph, "_edge_bound", lambda copies: scale * _edge_bound(copies))
            _assert_dedup_is_reference(_jittered_set(np.random.default_rng(seed), factors, False))

    @pytest.mark.parametrize("count", [0, 1, 128, 129])
    def test_block_edges_of_the_pair_scan(self, count):
        # from 128 rays on, the last two are a near-repeat and a near-antipode
        # of ray 0; at 129 the antipode is row 128, in the scan's second block
        rng = np.random.default_rng(count)
        rays = _frame_rays(count, seed=count)
        if count >= 128:
            v = rays[0].vec
            b = _edge_bound(0)
            rays[-2:] = [Ray3.from_vector(_jittered(rng, s * v, 0.3 * b)) for s in (1, -1)]
        expected, reps = _plain_scan(rays, _edge_bound(0))
        rs = dedupe_rays(rays)
        assert rs.label_to_index == expected
        assert rs.rays == tuple(reps)
        if count >= 128:
            assert rs.merges == ((f"r{count - 2}", "r0"), (f"r{count - 1}", "r0"))
        else:
            assert rs.merges == ()


@pytest.fixture(scope="module")
def rayset():
    return assemble_ks_set()


class TestIndexOf:
    # index_of is a first-occurrence scan with the dedup rule; each test
    # below asserts its results on one kind of set

    def test_hand_built_set_builds_its_index_once(self):
        rs = RaySet(rays=AXES, label_to_index={}, merges=())
        assert [rs.index_of(a) for a in AXES] == [0, 1, 2]
        assert rs.index_of(Ray3.from_vector((5e-15, -1, 1e-14))) == 1  # a near-antipode of y
        assert rs.index_of(Ray3.from_vector((0, 1, 3e-14))) is None  # beyond _edge_bound(0)
        assert rs.index_of(Ray3.from_vector((1, 1, 0))) is None
        assert [rs.index_of(a) for a in AXES] == [0, 1, 2]

    def test_dedupe_leaves_the_index_it_built(self, rayset):
        assert [rayset.index_of(a) for a in AXES] == [40, 7, 39]

    def test_replace_carries_or_rebuilds_the_index(self, rayset):
        same = dataclasses.replace(rayset, copies=())
        assert [same.index_of(a) for a in AXES] == [40, 7, 39]
        grown = dataclasses.replace(rayset, rays=AXES + rayset.rays)
        assert [grown.index_of(a) for a in AXES] == [0, 1, 2]


def _sweep_args(name):
    """assemble_ks_set's (step_angle, schedule, gadget_params) for a named sweep."""
    if name == "open-k40":  # legs of 39, 40 and 38 steps of 2.25 degrees: an open chain
        step = math.radians(2.25)
        pivot = RotationStep("c3", math.pi / 2.0, 1, emit=False)
        legs = [RotationStep("c2", step, n) for n in (39, 40, 38)]
        return step, (legs[0], pivot, legs[1], pivot, legs[2]), None
    if name == "diagonal":  # the closed 18-degree sweep of the x = y gadget
        t = solve_parameter_for_angle(DEFAULT_STEP_ANGLE)
        return DEFAULT_STEP_ANGLE, default_schedule(), (t, t)
    step = math.radians(90.0 / int(name[2:]))
    return step, default_schedule(step), None


def _sweep(name):
    return assemble_ks_set(*_sweep_args(name))


def _reference_rows(m, vecs):
    """Canonical coordinates of m @ v (or v, when m is None) one vector at a
    time: math.sqrt(w.dot(w)), divide, then make the first component above
    SIGN_EPS positive."""
    out = []
    for v in vecs:
        w = np.array(v) if m is None else m @ np.array(v)
        u = (w / math.sqrt(w.dot(w))).tolist()
        lead = next(c for c in u if abs(c) > SIGN_EPS)
        out.append([-c for c in u] if lead < 0.0 else u)
    return out


def _hexed(rows):
    return [[c.hex() for c in row] for row in rows]


# components the sign rule must skip (|c| <= SIGN_EPS) or must not skip
TINY = (0.0, 1e-13, -1e-13, 2e-12, -2e-12)


class TestBitsKept:
    # coordinates are printed to their last bits, and OpenBLAS picks its
    # kernels per CPU: compare on this host, never against stored floats

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.sampled_from([1, 10]),
        turn=st.booleans(),
    )
    @settings(max_examples=200)
    def test_stacked_rotation_equals_per_row_reference(self, seed, rows, turn):
        rng = np.random.default_rng(seed)
        vecs = rng.normal(size=(rows, 3))
        # tiny components ahead of a normal last one; a zero angle keeps them
        tiny = rng.random((rows, 3)) < 0.5
        tiny[:, 2] = False
        vecs[tiny] = rng.choice(TINY, size=int(tiny.sum()))
        vecs *= rng.choice([1e-3, 1.0, 1e3], size=(rows, 1))
        axis = Ray3.from_vector(rng.normal(size=3)).vec
        m = rotation_matrix(axis, rng.uniform(0, 2 * math.pi) if turn else 0.0)
        assert _hexed(_canonical_units(vecs).tolist()) == _hexed(_reference_rows(None, vecs))
        assert _hexed(_transformed(m, vecs).tolist()) == _hexed(_reference_rows(m, vecs))

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

    @pytest.mark.parametrize("name", ["k=5", "k=24", "diagonal", "open-k40"])
    def test_sweep_equals_ray_by_ray_rebuild(self, name):
        # the sweep rebuilt one ray at a time by _reference_rows, which
        # shares no code with the stacked path, and deduped by the plain
        # first-occurrence scan
        step_angle, schedule, params = _sweep_args(name)
        gadget = gadget_for_angle(step_angle, params)
        w, u, c3 = gadget.ray("apex").vec, gadget.ray("c2").vec, gadget.ray("c3").vec
        rot = np.stack([np.cross(u, w), u, w])
        if (rot[0] @ c3) * (rot[2] @ c3) < 0.0:
            rot[:2] = -rot[:2]
        copy = [Ray3(*row) for row in _reference_rows(rot, [r.vec for r in gadget.rays])]
        copies = [copy]
        for step in schedule:
            a = GADGET_ROLES.index(step.axis_role)
            for _ in range(step.repetitions):
                m = rotation_matrix(copy[a].vec, step.angle)
                copy = [Ray3(*row) for row in _reference_rows(m, [r.vec for r in copy])]
                if step.emit:
                    copies.append(copy)
        labeled = [  # triad labels first, apex labels last
            cp[ri].relabel(f"g{ci + 1:02d}:{GADGET_ROLES[ri]}")
            for ci, cp in enumerate(copies)
            for ri in range(1, len(GADGET_ROLES))
        ] + [cp[0].relabel(f"g{ci + 1:02d}:apex") for ci, cp in enumerate(copies)]
        expected, reps = _plain_scan(labeled, _edge_bound(len(copies)))
        merges = [
            [lb, reps[expected[lb]].label] for lb in expected if reps[expected[lb]].label != lb
        ]
        rs = assemble_ks_set(step_angle, schedule, params)
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

    @pytest.mark.parametrize("k", range(5, 91))
    def test_closed_sweep_closed_form_census(self, k):
        # every closed sweep has 24k - 3 rays, 42k - 6 edges and 9k - 2
        # triads, and its chain closes: a wrong merge or a missing edge breaks
        # one.  The audit's link residuals sit at most 1.2% of the set's bound
        # (k = 41)
        step = math.radians(90.0 / k)
        rs = assemble_ks_set(step)
        g = build_orthogonality_graph(rs)
        assert (len(rs.rays), len(g.edges), len(g.triads)) == (24 * k - 3, 42 * k - 6, 9 * k - 2)
        report = forcing_chain_check(step, rs)
        assert report.contradiction_confirmed
        worst = max(link.max_edge_residual for link in report.links)
        assert worst <= _edge_bound(len(rs.copies)) / 50

    def test_closed_k24_census(self):
        rs = assemble_ks_set(step_angle=math.radians(90.0 / 24))
        g = build_orthogonality_graph(rs)
        assert (len(rs.rays), len(rs.merges)) == (573, 147)
        assert (len(g.edges), len(g.triads)) == (1002, 214)
        assert tuple(rs.index_of(a) for a in AXES) == (192, 7, 191)


class TestSweepOrientation:
    """(+-x, +-y) realize the same apex-c3 angle; each sign choice must seed
    the sweep with c3 where the first step about c2 carries the apex."""

    @pytest.mark.parametrize(
        "deg, census", [(18.0, (117, 204, 43)), (10.0, (213, 372, 79))], ids=["18deg", "10deg"]
    )
    @pytest.mark.parametrize(
        "sx, sy", [(1, 1), (-1, 1), (1, -1), (-1, -1)], ids=["+x+y", "-x+y", "+x-y", "-x-y"]
    )
    def test_every_sign_gives_the_closed_sweep(self, deg, census, sx, sy):
        step = math.radians(deg)
        x, y = offdiagonal_parameters_for_angle(step)
        rs = assemble_ks_set(step, gadget_params=(sx * x, sy * y))
        g = build_orthogonality_graph(rs)
        assert (len(rs.rays), len(g.edges), len(g.triads)) == census
        verdict = check_colorability(g)
        reference = check_colorability(build_orthogonality_graph(assemble_ks_set(step)))
        assert verdict.outcome == "UNSAT"
        assert verdict.stats == reference.stats
        assert forcing_chain_check(step, rs).contradiction_confirmed


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

    def test_abstract_structure_without_edges_has_no_triads(self):
        from ksparadox.ksgraph import OrthogonalityGraph

        assert OrthogonalityGraph.from_structure(3, []).triads == ()

    def test_abstract_structure_rejects_negative_node_count(self):
        from ksparadox.ksgraph import OrthogonalityGraph

        with pytest.raises(ValueError, match="node_count -2 is negative"):
            OrthogonalityGraph.from_structure(-2, [])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(1, 1)], r"edge \(1, 1\) repeats a node"),
            ([(0, 1), (1, 0)], r"edge \(0, 1\) is listed twice"),
            ([(-1, 0)], r"edge \(-1, 0\) has a node outside \[0, 3\)"),
            ([(0, 5)], r"edge \(0, 5\) has a node outside \[0, 3\)"),
        ],
        ids=["self-loop", "repeated-edge", "negative-node", "node-past-count"],
    )
    def test_abstract_structure_rejects_bad_nodes(self, edges, message):
        from ksparadox.ksgraph import OrthogonalityGraph

        with pytest.raises(ValueError, match=message):
            OrthogonalityGraph.from_structure(3, edges)


def _reference_edges(rays, copies):
    """The pairs within _edge_bound(copies), from the full n x n product."""
    mat = np.array([(r.x, r.y, r.z) for r in rays], dtype=float).reshape(-1, 3)
    close = np.triu(np.abs(mat @ mat.T) <= _edge_bound(copies), 1)
    return tuple((int(i), int(j)) for i, j in np.argwhere(close))


def _frame_rays(count, seed):
    """count rays from seeded orthonormal frames, shuffled so that the
    orthogonal pairs straddle the 128-row blocks of the edge scan."""
    rng = np.random.default_rng(seed)
    rays = []
    for _ in range(-(-count // 3)):
        rot = rotation_matrix(Ray3.from_vector(rng.normal(size=3)).vec, rng.uniform(0, 2 * math.pi))
        rays += [Ray3.from_vector(rot[:, k]) for k in range(3)]
    return [rays[k] for k in rng.permutation(len(rays))[:count]]


def _construction(rs, relations):
    return {
        tuple(sorted(cp[GADGET_ROLES[i]] for i in rel)) for cp in rs.copies for rel in relations
    }


SWEEPS = ("k=5", "k=24", "open-k40")


@pytest.fixture(scope="module", params=SWEEPS)
def sweep(request):
    rs = _sweep(request.param)
    return rs, build_orthogonality_graph(rs)


def _dedup_input(name):
    """A sweep's RaySet, and the labeled rays that its assembly deduped and
    the bound it deduped them by."""
    seen = []

    def spy(mat, labels, bound):
        seen.append(([Ray3(*xyz, lb) for xyz, lb in zip(mat.tolist(), labels)], bound))
        return dedupe(mat, labels, bound)

    dedupe = ksgraph._dedupe
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ksgraph, "_dedupe", spy)
        rs = _sweep(name)
    return (rs, *seen[0])


@pytest.mark.parametrize("name", [*SWEEPS, "k=90"])
def test_measured_dedup_margins(name):
    # by |u x v|: merged labels sit within a fiftieth of the bound of their
    # representative (7.7e-15 at k = 90, 0.4% of the bound), distinct rays
    # 1e5 bounds apart or more (3.7e-7 at k = 90, 1.9e5 bounds)
    rs, labeled, bound = _dedup_input(name)
    assert bound == _edge_bound(len(rs.copies))
    reps = [rs.rays[rs.label_to_index[r.label]].vec for r in labeled]
    merged = np.linalg.norm(np.cross([r.vec for r in labeled], reps), axis=1).max()
    vecs = np.array([r.vec for r in rs.rays])
    closest = min(
        np.linalg.norm(np.cross(v, vecs[i + 1 :]), axis=1).min() for i, v in enumerate(vecs[:-1])
    )
    assert merged <= bound / 50
    assert closest >= 1e5 * bound


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

    @pytest.mark.parametrize("count", [0, 1, 2, 127, 128, 129, 257])
    def test_ray_list_edges_equal_full_product(self, count):
        rays = _frame_rays(count, seed=count)
        g = build_orthogonality_graph(rays)
        assert g.edges == _reference_edges(rays, 0)
        assert len(g.edges) >= count - 2  # frames cut by the shuffle lose a few pairs

    @pytest.mark.parametrize("name", ["k=5", "k=24", "k=90", "diagonal", "open-k40"])
    def test_sweep_edges_equal_full_product(self, name):
        rs = _sweep(name)
        assert build_orthogonality_graph(rs).edges == _reference_edges(rs.rays, len(rs.copies))

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

    @pytest.mark.parametrize(
        "index, moves, count",
        [
            (7, {"apex": "c3"}, 2),
            (3, {"b3": "a2"}, 3),  # one of the three is the self-pair (a2, a2)
            (0, {"a1": "b1", "a3": "b1"}, 3),  # (a2, b1) arises twice, counts once
        ],
    )
    def test_tampered_copy_counts_distinct_missing_pairs(self, index, moves, count):
        rs = assemble_ks_set()
        copies = list(rs.copies)
        copies[index] = {**copies[index], **{r: copies[index][m] for r, m in moves.items()}}
        tampered = dataclasses.replace(rs, copies=tuple(copies))
        edges = _reference_edges(rs.rays, len(copies))
        assert len(_construction(tampered, GADGET_EDGES) - set(edges)) == count
        with pytest.raises(OrthogonalityGapError, match=rf"^{count} construction pairs have "):
            build_orthogonality_graph(tampered)

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
