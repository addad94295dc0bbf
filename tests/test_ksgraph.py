"""Rotation sweep, deduplication, and the orthogonality graph."""

import copy
import dataclasses
import hashlib
import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksparadox import ksgraph
from ksparadox.emit import census_text, graph_to_dot
from ksparadox.gadget import (
    APEX,
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
    rotation_matrix,
)
from ksparadox.linalg import (
    SIGN_EPS,
    UNIT_ROW_TOL,
    Ray3,
    _canonical_units,
    verify_completion,
)
from ksparadox.solver import check_colorability, forcing_chain_check

AXES = tuple(Ray3.from_vector(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
#: the coordinate axes as a hand-built RaySet's fields, labeled x, y and z
AXES_FIELDS = {"matrix": np.eye(3), "labels": ("x", "y", "z")}


def _listed(rays):
    """A Ray3 list as dedupe_rays' and RaySet's (matrix, labels); the test
    names an unlabeled ray r<i>."""
    labels = [r.label or f"r{i}" for i, r in enumerate(rays)]
    return np.reshape([(r.x, r.y, r.z) for r in rays], (-1, 3)), labels


def _rotated(r, axis, angle):
    """r turned about the axis ray by the sweep's one rotation helper."""
    ((x, y, z),) = _transformed(rotation_matrix(axis.vec, angle), r.vec[None]).tolist()
    return Ray3(x, y, z)


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
            dedupe_rays(*_listed(rays))
        return False
    rs = dedupe_rays(*_listed(rays))
    assert rs.label_to_index == expected
    assert rs.rays == tuple(reps)
    return True


class TestRotation:
    def test_quarter_turn_about_z(self):
        out = _rotated(AXES[0], AXES[2], math.pi / 2)
        assert out.angle_to(AXES[1]) <= 1e-12

    def test_axis_is_fixed_point(self):
        r = Ray3.from_vector((0.1, 0.5, -2.0))
        for angle in (0.3, 1.0, 2.5, 3.7):
            assert _rotated(r, r, angle).angle_to(r) <= 1e-12

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=200)
    def test_common_rotation_preserves_angles(self, seed):
        rng = np.random.default_rng(seed)
        a = Ray3.from_vector(rng.normal(size=3))
        b = Ray3.from_vector(rng.normal(size=3))
        axis = Ray3.from_vector(rng.normal(size=3))
        angle = rng.uniform(0, 2 * math.pi)
        before = a.angle_to(b)
        after = _rotated(a, axis, angle).angle_to(_rotated(b, axis, angle))
        assert after == pytest.approx(before, abs=1e-12)


class TestDedupeRays:
    def test_antipodal_merge(self):
        rs = dedupe_rays(*_listed([Ray3.from_vector((1, 2, 3)), Ray3.from_vector((-1, -2, -3))]))
        assert len(rs.rays) == 1
        assert len(rs.merges) == 1

    def test_disjoint_axes_unmerged(self):
        rs = dedupe_rays(**AXES_FIELDS)
        assert len(rs.rays) == 3
        assert rs.merges == ()

    def test_first_occurrence_representative(self):
        rays = [
            Ray3.from_vector((1, 0, 0), "first"),
            Ray3.from_vector((0, 1, 0), "other"),
            Ray3.from_vector((-1, 0, 0), "dup"),
        ]
        rs = dedupe_rays(*_listed(rays))
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
        rs = dedupe_rays(*_listed(rays))
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
            dedupe_rays(*_listed([Ray3.from_vector((1, y * 1e-14, 0)) for y in ys]))

    def test_repeated_label_rejected(self):
        with pytest.raises(ValueError, match="^label 'a' is already taken$"):
            dedupe_rays(np.eye(2, 3), ("a", "a"))


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
        rs = dedupe_rays(*_listed(rays))
        assert rs.label_to_index == expected
        assert rs.rays == tuple(reps)
        if count >= 128:
            assert rs.merges == ((f"r{count - 2}", "r0"), (f"r{count - 1}", "r0"))
        else:
            assert rs.merges == ()


@pytest.fixture(scope="module")
def rayset():
    return assemble_ks_set()


class TestAxisNodes:
    # axis_nodes is a first-occurrence scan of the three axes with the dedup
    # rule; each test below asserts its results on one kind of set

    def test_hand_built_set(self):
        assert RaySet(**AXES_FIELDS).axis_nodes == (0, 1, 2)
        # no axis, beyond _edge_bound(0) of y, a near-antipode of y, then
        # the axes: y's first occurrence is the near-antipode
        rows = [(1, 1, 0), (0, 1, 3e-14), (5e-15, -1, 1e-14), (1, 0, 0), (0, -1, 0), (0, 0, 1)]
        rs = RaySet(_canonical_units(np.array(rows, dtype=float)), [f"r{i}" for i in range(6)])
        assert rs.axis_nodes == (3, 2, 5)

    def test_assembled_set(self, rayset):
        assert rayset.axis_nodes == (40, 7, 39)

    def test_replaced_set_reads_its_own_rows(self, rayset):
        same = dataclasses.replace(rayset, copies=())
        assert same.axis_nodes == (40, 7, 39)
        grown = dataclasses.replace(
            rayset,
            matrix=np.concatenate([AXES_FIELDS["matrix"], rayset.matrix]),
            labels=AXES_FIELDS["labels"] + rayset.labels,
        )
        assert grown.axis_nodes == (0, 1, 2)

    def test_ray_matrix_built_once_and_read_only(self, rayset):
        rs = dataclasses.replace(rayset)
        mat = rs.matrix
        assert rs.matrix is mat
        assert mat.tolist() == [[r.x, r.y, r.z] for r in rs.rays]
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0
        assert rs.axis_nodes == (40, 7, 39)
        assert rs.matrix is mat


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
        w, u, c3 = gadget.units[[APEX, GADGET_ROLES.index("c2"), C3]]
        rot = np.stack([np.cross(u, w), u, w])
        if (rot[0] @ c3) * (rot[2] @ c3) < 0.0:
            rot[:2] = -rot[:2]
        copy = [Ray3(*row) for row in _reference_rows(rot, gadget.units)]
        copies = [copy]
        for step in schedule:
            a = GADGET_ROLES.index(step.axis_role)
            for _ in range(step.repetitions):
                m = rotation_matrix(copy[a].vec, step.angle)
                copy = [Ray3(*row) for row in _reference_rows(m, [r.vec for r in copy])]
                if step.emit:
                    copies.append(copy)
        labeled = [  # triad labels first, apex labels last
            Ray3(r.x, r.y, r.z, f"g{ci + 1:02d}:{role}")
            for ci, cp in enumerate(copies)
            for r, role in zip(cp[1:], GADGET_ROLES[1:])
        ] + [Ray3(cp[0].x, cp[0].y, cp[0].z, f"g{ci + 1:02d}:apex") for ci, cp in enumerate(copies)]
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
        assert len(rayset.triad_index) == 135
        assert len(rayset.copies) == 15

    def test_18_triad_label_merges(self, rayset):
        triad_merges = [
            m for m in rayset.merges if not m[0].endswith("apex")
        ]
        assert len(triad_merges) == 18

    def test_chain_links_shared(self, rayset):
        copies = rayset.copies
        for k in range(len(copies) - 1):
            assert copies[k, C3] == copies[k + 1, APEX]
        assert copies[-1, C3] == copies[0, APEX]  # closed sweep

    def test_axes_present_each_seven_triad_labels(self, rayset):
        for idx in rayset.axis_nodes:
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


B3 = GADGET_ROLES.index("b3")


def _role_dicts(table):
    return tuple(dict(zip(GADGET_ROLES, row)) for row in table.tolist())


class TestCopyTable:
    """RaySet.copies: one row of ray indices per copy, in GADGET_ROLES
    order, checked once when the set is built."""

    def test_assembled_table_is_read_only_intp(self, rayset):
        table = rayset.copies
        assert table.dtype == np.intp and table.shape == (15, 10)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1
        assert rayset.to_dict()["copies"] == list(_role_dicts(table))

    @pytest.mark.parametrize("copies", [(), np.empty((0, 10), dtype=np.int32)])
    def test_no_copies_give_an_empty_table(self, copies):
        rs = RaySet(**AXES_FIELDS, copies=copies)
        assert rs.copies.dtype == np.intp and rs.copies.shape == (0, 10)
        assert dedupe_rays(**AXES_FIELDS).copies.shape == (0, 10)

    def test_table_is_kept_apart_from_its_input(self, rayset):
        table = np.array(rayset.copies, dtype=np.int32)
        rs = dataclasses.replace(rayset, copies=table)
        table[0, 0] = 5
        assert rs.copies.dtype == np.intp and rs.copies[0, 0] == rayset.copies[0, 0]

    def test_last_ray_named_minus_one_rejected(self, rayset):
        # copy 15's b3 is the last ray; as -1 it would still index that ray,
        # and the chain audit would confirm the contradiction on a table that
        # names no ray
        table = np.array(rayset.copies)
        assert table[14, B3] == len(rayset.rays) - 1 == 116
        table[14, B3] = -1
        with pytest.raises(ValueError, match=r"^copy 14 names a ray outside \[0, 117\): "):
            dataclasses.replace(rayset, copies=table)

    @pytest.mark.parametrize("node", [117, 233])
    def test_ray_past_the_set_rejected(self, rayset, node):
        table = np.array(rayset.copies)
        table[9, B3] = node
        with pytest.raises(ValueError, match=r"^copy 9 names a ray outside \[0, 117\): "):
            dataclasses.replace(rayset, copies=table)

    @pytest.mark.parametrize(
        "reshape, shape",
        [
            (lambda t: t[:, :9], r"\(15, 9\)"),
            (lambda t: np.column_stack([t, t[:, :1]]), r"\(15, 11\)"),
            (lambda t: t.astype(float), r"\(15, 10\)"),
            (lambda t: t.astype(bool), r"\(15, 10\)"),
            (_role_dicts, r"\(15,\)"),
            (lambda t: t[None], r"\(1, 15, 10\)"),
        ],
        ids=["9-columns", "11-columns", "float", "bool", "role-dicts", "3-d"],
    )
    def test_table_not_integer_or_ten_wide_rejected(self, rayset, reshape, shape):
        with pytest.raises(ValueError, match=rf"^copies must be a \(copies, 10\) .* {shape}$"):
            dataclasses.replace(rayset, copies=reshape(np.array(rayset.copies)))


def _scaled_row(rs, factor):
    matrix = np.array(rs.matrix)
    matrix[5] *= factor
    return {"matrix": matrix}


class TestRaySetFields:
    """RaySet stores its rays once, as matrix and labels, and checks every
    stored field when it is built."""

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (lambda rs: _scaled_row(rs, 1 + 1e-11), r"^row 5 is not a finite unit vector: "),
            (lambda rs: _scaled_row(rs, math.nan), r"^row 5 is not a finite unit vector: "),
            (lambda rs: _scaled_row(rs, math.inf), r"^row 5 is not a finite unit vector: "),
            (lambda rs: {"matrix": rs.matrix[:, :2]}, r"^matrix must be an \(n, 3\) array"),
            (lambda rs: {"labels": rs.labels[:-1]}, r"^116 labels for 117 rays$"),
            (
                lambda rs: {"labels": ("g01:a2",) + rs.labels[1:]},
                r"^label 'g01:a2' is already taken$",
            ),
            (
                # g03:c2 is itself absorbed, so a chain of merges names no row
                lambda rs: {"merges": (("g02:c2", "g03:c2"),) + rs.merges[1:]},
                r"^merge 'g02:c2' -> 'g03:c2' names no ray$",
            ),
            (
                lambda rs: {"merges": rs.merges + ("g99:c2",)},
                r"^merge 'g99:c2' is not a \(label, representative\) pair$",
            ),
            (
                lambda rs: {"merges": rs.merges + (("g01:a3", "g01:a1"),)},
                r"^label 'g01:a3' is already taken$",
            ),
            (
                lambda rs: {"merges": rs.merges + (rs.merges[0],)},
                r"^label 'g02:c2' is already taken$",
            ),
            (lambda rs: {"labels": (1,) + rs.labels[1:]}, r"^label 1 is not a string$"),
            (lambda rs: {"labels": ("",) + rs.labels[1:]}, r"^label '' is empty$"),
            (
                lambda rs: {"merges": rs.merges + ((["w"], "x"),)},
                r"^label \['w'\] is not a string$",
            ),
            (
                lambda rs: {"merges": rs.merges + (("w", ["x"]),)},
                r"^merge 'w' -> \['x'\] names no ray$",
            ),
        ],
        ids=[
            "row-off-unit",
            "row-nan",
            "row-inf",
            "two-columns",
            "labels-one-short",
            "label-used-twice",
            "labels-map-outside",
            "merge-not-a-pair",
            "own-label-elsewhere",
            "merged-label-used-twice",
            "label-not-a-string",
            "label-empty",
            "merged-label-unhashable",
            "representative-unhashable",
        ],
    )
    def test_tampered_field_rejected(self, rayset, tamper, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(rayset, **tamper(rayset))

    @pytest.mark.parametrize(
        "rows",
        [-np.eye(3), np.array([[-5e-13, -0.6, 0.8]])],
        ids=["negative-axes", "first-component-below-1e-12"],
    )
    def test_rows_stored_sign_canonical(self, rows):
        # matrix, rays and to_dict agree on each row's sign, which is Ray3's
        rs = RaySet(rows, [f"r{i}" for i in range(len(rows))])
        canonical = _hexed(_canonical_units(rows).tolist())
        assert _hexed(rs.matrix.tolist()) == canonical
        assert _hexed(r.vec.tolist() for r in rs.rays) == canonical
        assert _hexed(ray["xyz"] for ray in rs.to_dict()["rays"]) == canonical

    def test_integer_labels_rejected(self):
        with pytest.raises(ValueError, match=r"^label 1 is not a string$"):
            RaySet(np.eye(3), (1, 2, 3))

    def test_provenance_is_a_read_only_copy(self, rayset):
        expected = json.dumps(rayset.to_dict())
        with pytest.raises(TypeError):
            rayset.provenance["step_angle"] = 0.0
        with pytest.raises(TypeError):  # nested lists are stored as tuples
            rayset.provenance["schedule"][0][1] = 0.0
        rayset.to_dict()["provenance"]["step_angle"] = 0.0  # to_dict hands out a copy
        assert json.dumps(rayset.to_dict()) == expected
        provenance = dict(rayset.provenance, schedule=[[]])
        rs = dataclasses.replace(rayset, provenance=provenance)
        provenance["step_angle"] = 0.0
        provenance["schedule"][0].append("c2")  # the caller's dict stays the caller's
        assert rs.provenance["step_angle"] == DEFAULT_STEP_ANGLE
        assert rs.provenance["schedule"] == ((),)
        assert dataclasses.replace(rs).to_dict() == rs.to_dict()

    def test_pickle_rebuilds_through_the_checks(self, rayset):
        for rs in (pickle.loads(pickle.dumps(rayset)), copy.deepcopy(rayset)):
            assert rs.to_dict() == rayset.to_dict()
            assert not (rs.matrix.flags.writeable or rs.copies.flags.writeable)
            assert rs.provenance is not rayset.provenance

    def test_matrix_is_a_read_only_copy(self, rayset):
        matrix = np.array(rayset.matrix)
        rs = dataclasses.replace(rayset, matrix=matrix)
        matrix[0] = matrix[1]
        assert not rs.matrix.flags.writeable
        assert rs.matrix.tolist() == rayset.matrix.tolist()

    def test_label_maps_are_views(self, rayset):
        # writing into a derived map changes no stored field
        census, merges = census_text(rayset), rayset.merges
        rayset.label_to_index["g01:a1"] = 999
        rayset.triad_index["g02:c2"] = 999
        assert census_text(rayset) == census
        assert rayset.merges == merges
        assert (rayset.label_to_index["g01:a1"], rayset.triad_index["g02:c2"]) == (0, 7)

    def test_fields_are_the_json_document(self, rayset):
        # the stored fields hold what to_dict writes, so its lists rebuild the set
        d = rayset.to_dict()
        rs = RaySet(
            matrix=[r["xyz"] for r in d["rays"]],
            labels=[r["label"] for r in d["rays"]],
            merges=d["merges"],
            copies=[[row[role] for role in GADGET_ROLES] for row in d["copies"]],
            provenance=d["provenance"],
        )
        assert rs.merges == rayset.merges and isinstance(rs.merges[0], tuple)
        assert rs.to_dict() == d
        assert rs.label_to_index == rayset.label_to_index

    def test_pipeline_builds_no_ray_objects(self):
        # the check-coloring, build-set and emit-diagram path from assembly
        # to output reads matrix and labels only
        rs = assemble_ks_set()
        graph = build_orthogonality_graph(rs)
        check_colorability(graph)
        forcing_chain_check(DEFAULT_STEP_ANGLE, rs)
        census_text(rs)
        graph_to_dot(graph)
        rs.to_dict()
        assert "rays" not in vars(rs)
        assert graph.labels == rs.labels
        assert len(rs.rays) == 117 and "rays" in vars(rs)  # an API caller's read builds them


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
        assert all(copies[k, C3] == copies[k + 1, APEX] for k in range(14))

    def test_unknown_axis_role_rejected(self):
        with pytest.raises(ScheduleError):
            assemble_ks_set(schedule=(RotationStep("s99", 0.3, 1),))

    @pytest.mark.parametrize(
        "step",
        [
            RotationStep("c2", math.radians(18.0), -3),
            RotationStep("c2", math.inf, 1),
            RotationStep("c2", math.nan, 1),
        ],
        ids=["negative-repetitions", "infinite-angle", "nan-angle"],
    )
    def test_bad_step_rejected(self, step):
        # range(-3) is empty, so a negative count once returned one copy
        with pytest.raises(ScheduleError, match=r"RotationStep\(axis_role='c2'"):
            assemble_ks_set(math.radians(18.0), schedule=(step,))

    def test_zero_repetitions_emit_no_copy(self):
        # a leg of k - 1 steps is empty at k = 1
        rs = assemble_ks_set(schedule=(RotationStep("c2", math.radians(18.0), 0),))
        assert len(rs.copies) == 1
        assert rs.rays == assemble_ks_set(schedule=()).rays

    def test_mismatched_params_and_angle_rejected(self):
        from ksparadox.gadget import AngleRangeError

        with pytest.raises(AngleRangeError):
            assemble_ks_set(step_angle=math.radians(18.0), gadget_params=(1.0, 1.0))

    def test_step_angle_out_of_range(self):
        from ksparadox.gadget import AngleRangeError

        with pytest.raises(AngleRangeError):
            assemble_ks_set(step_angle=math.radians(25.0))

    def test_default_schedule_at_18_degrees(self, rayset):
        pivot = ("c3", math.pi / 2.0, 1, False)
        assert rayset.provenance["schedule"] == (
            ("c2", DEFAULT_STEP_ANGLE, 4, True),
            pivot,
            ("c2", DEFAULT_STEP_ANGLE, 5, True),
            pivot,
            ("c2", DEFAULT_STEP_ANGLE, 5, True),
        )

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
        assert rs.axis_nodes == (192, 7, 191)


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
        assert rs.axis_nodes[0] is None
        assert rs.axis_nodes[2] is not None
        assert "axis x: 0 triad labels ()\n" in text
        assert "axis z: 0 triad labels ()\n" in text
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3931b3ff0e6865d224c9c5ea3c343fcd9e73dc31ef37a1bd40b52ee791ba8c59"
        )


# the constructor's four rejections of nodes, each naming the edge
BAD_NODES = [
    ([(1, 1)], r"edge \(1, 1\) repeats a node"),
    ([(0, 1), (1, 0)], r"edge \(0, 1\) is listed twice"),
    ([(-1, 0)], r"edge \(-1, 0\) has a node outside \[0, 3\)"),
    ([(0, 5)], r"edge \(0, 5\) has a node outside \[0, 3\)"),
]
BAD_NODE_IDS = ["self-loop", "repeated-edge", "negative-node", "node-past-count"]


class TestOrthogonalityGraph:
    def test_axes_triangle(self):
        g = build_orthogonality_graph(RaySet(**AXES_FIELDS))
        assert g.node_count == 3
        assert len(g.edges) == 3
        assert g.triads == ((0, 1, 2),)

    def test_single_gadget_graph(self):
        gadget = build_gadget(*offdiagonal_parameters_for_angle(math.radians(18.0)))
        g = build_orthogonality_graph(gadget)
        assert g.node_count == 10
        assert len(g.edges) == 15
        assert len(g.triads) == 3

    def test_edge_relation_symmetric_irreflexive(self):
        g = build_orthogonality_graph(RaySet(**AXES_FIELDS))
        for i, j in g.edges:
            assert i < j

    def test_full_graph_census(self):
        rs = assemble_ks_set()
        g = build_orthogonality_graph(rs)
        assert g.node_count == 117
        assert len(g.edges) == 204
        assert len(g.triads) == 43
        axes_nodes = tuple(sorted(rs.axis_nodes))
        assert axes_nodes in g.triads

    def test_every_triad_completes(self):
        # on the set's own rows; measured maxima 8.9e-16 (k = 5, 43 triads),
        # 2.4e-15 (k = 24, 214) and 3.6e-15 (open-k40, 353)
        for name in ("k=5", "k=24", "open-k40"):
            rs = _sweep(name)
            for a, b, c in build_orthogonality_graph(rs).triads:
                assert verify_completion(rs.matrix[[a, b, c]]) <= 1e-12

    def test_loose_triangle_gives_no_edges(self):
        # pairwise |dot| of 5e-8 is far outside the float error of a set
        # without copies
        e = 2.5e-8
        rays = [Ray3.from_vector(v) for v in ((1, e, e), (e, 1, e), (e, e, 1))]
        g = build_orthogonality_graph(RaySet(*_listed(rays)))
        assert (g.edges, g.triads) == ((), ())

    def test_rows_that_are_not_unit_rejected(self):
        # orthogonal to all three axes, the short row would close them into
        # K4; the long one, parallel to x, would merge into it unchecked
        for row in ([1e-14, 1e-14, 0.0], [2.0, 0.0, 0.0]):
            message = rf"^row 3 is not a finite unit vector: \[{row[0]}, {row[1]}, {row[2]}\]$"
            for read in (RaySet, dedupe_rays):
                with pytest.raises(ValueError, match=message):
                    read(np.vstack([np.eye(3), row]), ("x", "y", "z", "w"))

    def test_only_ray_sets_and_gadgets_are_read(self):
        with pytest.raises(TypeError, match="^expected a RaySet or a GadgetSet, not list$"):
            build_orthogonality_graph(list(AXES))
        empty = RaySet(np.empty((0, 3)), ())
        assert build_orthogonality_graph(empty) == ksgraph.OrthogonalityGraph(0, (), ())

    def test_a_ray_set_has_one_graph(self, rayset):
        # built on first read and kept; a rebuilt set builds its own
        graph = build_orthogonality_graph(rayset)
        assert graph is rayset.graph is build_orthogonality_graph(rayset)
        rebuilt = pickle.loads(pickle.dumps(rayset))
        assert rebuilt.graph == graph and rebuilt.graph is not graph

    def test_gadget_set_is_read_as_its_units_by_role(self):
        gadget = build_gadget(*offdiagonal_parameters_for_angle(math.radians(18.0)))
        assert build_orthogonality_graph(gadget) == RaySet(gadget.units, GADGET_ROLES).graph

    def test_abstract_structure(self):
        from ksparadox.ksgraph import OrthogonalityGraph

        g = OrthogonalityGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert g.triads == ((0, 1, 2),)
        assert g.labels is None

    def test_abstract_structure_without_edges_has_no_triads(self):
        from ksparadox.ksgraph import OrthogonalityGraph

        assert OrthogonalityGraph(3, []).triads == ()

    def test_triads_are_derived_not_given(self):
        from ksparadox.ksgraph import OrthogonalityGraph

        edges = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
        direct = OrthogonalityGraph(4, edges)
        assert direct.triads == ((0, 1, 2), (1, 2, 3))
        assert direct == OrthogonalityGraph(4, [(j, i) for i, j in reversed(edges)])
        with pytest.raises(TypeError):
            OrthogonalityGraph(3, (), triads=((0, 1, 2),))

    def test_constructor_sorts_pairs_and_edges(self):
        from ksparadox.ksgraph import OrthogonalityGraph

        g = OrthogonalityGraph(3, ((0, 1), (1, 2), (2, 0)))
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert g.triads == ((0, 1, 2),)

    def test_neighbours_ascend_and_list_every_edge(self, rayset):
        from ksparadox.ksgraph import OrthogonalityGraph

        g = OrthogonalityGraph(4, [(2, 3), (1, 0), (3, 0), (2, 1), (0, 2)])
        assert g.neighbours == ((1, 2, 3), (0, 2), (0, 1, 3), (0, 2))
        graph = build_orthogonality_graph(rayset)
        assert all(list(ns) == sorted(set(ns)) for ns in graph.neighbours)
        pairs = {(i, j) for i, ns in enumerate(graph.neighbours) for j in ns}
        assert pairs == set(graph.edges) | {(j, i) for i, j in graph.edges}
        with pytest.raises(TypeError):
            OrthogonalityGraph(3, (), neighbours=((), (), ()))

    @pytest.mark.parametrize("seed", range(4))
    def test_triads_are_every_triangle_in_order(self, seed):
        from ksparadox.ksgraph import OrthogonalityGraph

        rng = np.random.default_rng(seed)
        n = 12
        pairs = [(i, j) for i in range(n) for j in range(n) if i < j]
        keep = rng.random(len(pairs)) < 0.4
        edges = {p for p, k in zip(pairs, keep) if k}
        shuffled = [(j, i) if rng.random() < 0.5 else (i, j) for i, j in edges]
        g = OrthogonalityGraph(n, [shuffled[k] for k in rng.permutation(len(shuffled))])
        triangles = tuple(
            (a, b, c)
            for a in range(n)
            for b in range(a + 1, n)
            for c in range(b + 1, n)
            if {(a, b), (a, c), (b, c)} <= edges
        )
        assert len(triangles) > 5
        assert g.triads == triangles

    def test_labels_of_another_count_rejected(self):
        from ksparadox.ksgraph import OrthogonalityGraph

        with pytest.raises(ValueError, match="2 labels for 3 nodes"):
            OrthogonalityGraph(3, [(0, 1)], labels=("x", "y"))

    @pytest.mark.parametrize(
        "labels, message",
        [
            (("a", "a"), r"^label 'a' is already taken$"),
            (("x", 3), r"^label 3 is not a string$"),
            ((None, 3), r"^label None is not a string$"),
            (("", "r0"), r"^label '' is empty$"),
        ],
    )
    def test_labels_repeated_or_not_strings_rejected(self, labels, message):
        # RaySet's rule and messages: DOT would draw two nodes labeled a
        with pytest.raises(ValueError, match=message):
            ksgraph.OrthogonalityGraph(2, [(0, 1)], labels)

    def test_abstract_structure_rejects_negative_node_count(self):
        from ksparadox.ksgraph import OrthogonalityGraph

        with pytest.raises(ValueError, match="node_count -2 is negative"):
            OrthogonalityGraph(-2, [])

    @pytest.mark.parametrize(
        "count", [3.0, 2.5, np.float64(3.0), True], ids=["float", "fraction", "numpy-float", "bool"]
    )
    def test_abstract_structure_rejects_a_node_count_that_is_not_an_integer(self, count):
        # numpy would index with it, or read True as 1
        message = rf"^node_count {re.escape(repr(count))} is not an integer$"
        with pytest.raises(ValueError, match=message):
            ksgraph.OrthogonalityGraph(count, [(0, 1)])

    def test_abstract_structure_stores_a_numpy_node_count_as_int(self):
        g = ksgraph.OrthogonalityGraph(np.int64(3), [(0, 1), (1, 2), (0, 2)])
        assert type(g.node_count) is int and g.node_count == 3
        assert g.triads == ((0, 1, 2),)

    @pytest.mark.parametrize("edges, message", BAD_NODES, ids=BAD_NODE_IDS)
    def test_abstract_structure_rejects_bad_nodes(self, edges, message):
        from ksparadox.ksgraph import OrthogonalityGraph

        with pytest.raises(ValueError, match=message):
            OrthogonalityGraph(3, edges)

    @pytest.mark.parametrize("edges, message", BAD_NODES, ids=BAD_NODE_IDS)
    def test_array_input_rejects_bad_nodes(self, edges, message):
        from ksparadox.ksgraph import OrthogonalityGraph

        for dtype in (np.int64, np.int32, np.int8):
            with pytest.raises(ValueError, match=message):
                OrthogonalityGraph(3, np.array(edges, dtype=dtype))

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1.5)], r"edge \(0, 1\.5\) is not a pair of integers"),
            (np.array([[0, 1.5]]), r"edge \[0\.0, 1\.5\] is not a pair of integers"),
            ([(0, 1), (0, 2.0)], r"edge \(0, 2\.0\) is not a pair of integers"),
            ([(0, 1), (0, "2")], r"edge \(0, '2'\) is not a pair of integers"),
            ([(0, 1, 2)], r"edge \(0, 1, 2\) is not a pair of integers"),
            ([(0, 1), (2,)], r"edge \(2,\) is not a pair of integers"),
            (np.array([0, 1]), r"edge 0 is not a pair of integers"),
            (np.array([[0, 1, 2]]), r"edge \[0, 1, 2\] is not a pair of integers"),
            (np.array([[True, False]]), r"the edges are not pairs of integers"),
        ],
        ids=["float", "float-array", "integral-float", "string", "triple", "single",
             "flat-array", "triple-array", "bool-array"],
    )
    def test_edges_that_are_not_pairs_of_integers_rejected(self, edges, message):
        # numpy would truncate 1.5 to 1 and read a flat array as no pairs at
        # all; each such input raises, naming the edge where there is one
        from ksparadox.ksgraph import OrthogonalityGraph

        with pytest.raises(ValueError, match=message):
            OrthogonalityGraph(3, edges)

    @pytest.mark.parametrize("seed", range(4))
    def test_array_input_equals_pair_input(self, seed):
        from ksparadox.ksgraph import OrthogonalityGraph

        rng = np.random.default_rng(seed)
        n = 12
        pairs = [(i, j) for i in range(n) for j in range(n) if i < j]
        kept = [p for p, k in zip(pairs, rng.random(len(pairs))) if k < 0.4]
        edges = [p[::-1] if rng.random() < 0.5 else p for p in kept]
        edges = [edges[k] for k in rng.permutation(len(edges))]
        g = OrthogonalityGraph(n, edges)
        for dtype in (np.intp, np.int32, np.uint8):
            h = OrthogonalityGraph(n, np.array(edges, dtype=dtype))
            assert (h.edges, h.triads, h.neighbours) == (g.edges, g.triads, g.neighbours)
            assert h == g
            _assert_python_ints(h)
        assert len(g.triads) > 5

    def test_empty_array_input(self):
        from ksparadox.ksgraph import OrthogonalityGraph

        for edges in (np.empty((0, 2), dtype=np.intp), np.empty((0, 2)), [], ()):
            assert OrthogonalityGraph(0, edges) == OrthogonalityGraph(0, ())
            g = OrthogonalityGraph(3, edges)
            assert (g.edges, g.triads, g.neighbours) == ((), (), ((), (), ()))

    def test_ray_built_graph_holds_python_ints(self, rayset):
        # the graph is built from the scan's index arrays; json needs ints
        from ksparadox.ksgraph import OrthogonalityGraph

        graph = build_orthogonality_graph(rayset)
        _assert_python_ints(graph)
        json.dumps([graph.edges, graph.triads, graph.neighbours])
        assert graph == OrthogonalityGraph(graph.node_count, graph.edges, graph.labels)


def _assert_python_ints(g):
    """Every node of g's edges, triads and neighbours is a Python int."""
    nodes = [v for group in (g.edges, g.triads, g.neighbours) for t in group for v in t]
    assert {type(v) for v in nodes} <= {int}
    assert all(type(t) is tuple for group in (g.edges, g.triads, g.neighbours) for t in group)
    assert type(g.edges) is type(g.triads) is type(g.neighbours) is tuple


def _upper_pairs_reference(mat, keep):
    """The pairs i < j whose |dot| passes keep, from the full n x n product,
    in ascending (i, j) order."""
    return np.argwhere(np.triu(keep(np.abs(mat @ mat.T)), 1)).T


@pytest.mark.parametrize("count", [0, 1, 127, 128, 129, 257])
def test_upper_pairs_equal_full_product(count):
    # frames give orthogonal pairs; repeated and negated rows give |dot| = 1
    # pairs, some of them across the 128-row blocks
    rng = np.random.default_rng(count)
    mat, _ = _listed(_frame_rays(count, seed=count))
    copied = rng.choice(count, size=count // 8, replace=False)
    signs = rng.choice([-1.0, 1.0], (len(copied), 1))
    mat[copied] = mat[rng.choice(count, size=len(copied))] * signs
    bound = _edge_bound(0)
    found = 0
    for keep in (lambda d: d <= bound, lambda d: d >= 1.0 - bound):
        first, second = ksgraph._upper_pairs(mat, keep)
        expected = _upper_pairs_reference(mat, keep)
        assert first.dtype == second.dtype == np.intp
        assert np.array_equal(np.stack([first, second]), expected)
        keys = first * max(count, 1) + second
        assert (second > first).all() and (np.diff(keys) > 0).all()  # ascending (i, j)
        found += len(first)
    assert found >= count - 2


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
        tuple(sorted(cp[list(rel)].tolist())) for cp in rs.copies for rel in relations
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


def test_measured_unit_row_margin():
    # every assembled row is a unit vector to 2.2e-16 by RaySet's row norm,
    # over 1e3 times inside the unit-row tolerance
    sets = [assemble_ks_set(math.radians(90.0 / k)) for k in range(5, 91)]
    worst = max(
        np.abs(np.sqrt((rs.matrix * rs.matrix).sum(axis=1)) - 1.0).max()
        for rs in [*sets, _sweep("open-k40")]
    )
    assert worst <= UNIT_ROW_TOL / 1e3


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
        g = build_orthogonality_graph(RaySet(*_listed(rays)))
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
        copies = np.array(rs.copies)
        copies[7, APEX] = copies[7, C3]
        with pytest.raises(OrthogonalityGapError, match=r"^\d+ construction pairs have \|dot\| >"):
            build_orthogonality_graph(dataclasses.replace(rs, copies=copies))

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
        copies = np.array(rs.copies)
        for r, m in moves.items():
            copies[index, GADGET_ROLES.index(r)] = copies[index, GADGET_ROLES.index(m)]
        tampered = dataclasses.replace(rs, copies=copies)
        edges = _reference_edges(rs.rays, len(copies))
        assert len(_construction(tampered, GADGET_EDGES) - set(edges)) == count
        with pytest.raises(OrthogonalityGapError, match=rf"^{count} construction pairs have "):
            build_orthogonality_graph(tampered)

    def test_exact_extra_pair_becomes_edge(self):
        # one more ray, orthogonal to node 0 only: a pair no copy accounts for
        rs = assemble_ks_set()
        extra = Ray3.from_vector(np.cross(rs.rays[0].vec, (0.3, 0.5, 0.7)))
        assert abs(extra.dot(rs.rays[0])) <= _edge_bound(len(rs.copies))
        grown = dataclasses.replace(
            rs,
            matrix=np.concatenate([rs.matrix, [extra.vec]]),
            labels=rs.labels + ("extra",),
        )
        g = build_orthogonality_graph(grown)
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
