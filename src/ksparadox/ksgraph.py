"""Assembly of the full chained ray set and its orthogonality graph.

The construction sweeps a ten-ray gadget around the first octant in three
legs of steps of 90/k degrees (k = 5, 18-degree steps, by default).  The
seed gadget is aligned so that its c2 ray points along +y and its apex
along +z; leg one rotates it k - 1 times about c2 (the apex walks from z
toward x, each copy's c3 landing on the next copy's apex), a 90-degree pivot
about the current c3 starts leg two about the new c2 (= z), and a second
pivot starts leg three (about x), closing a cycle of 3k copies whose apex
sequence passes through all three coordinate axes.  At an 18-degree step
the 135 labeled triad rays collapse to 117 distinct rays: the three
coordinate axes each occur seven times (five as c2 of one leg, once as a
c3, once as a c1); every other ray is unique to its copy.

Each copy is rotated as one (10, 3) array V by the stacked product
m @ V[:, :, None] and renormalised by the roots of the stacked squared
norms V[:, None, :] @ V[:, :, None].  numpy's matmul loop calls per row
the same BLAS kernels (dgemv, ddot) as m @ v and v.dot(v), so every
coordinate keeps the bits of the one-vector computation the census
prints: over 20,000 random 10-row copies none differed.  V @ m.T sums
in another order and changed a coordinate in 99.96% of them;
einsum('ij,ij->i') norms differed from v.dot(v) in 96.5%.

Dedup and the edges share one float-error rule: one scan (_upper_pairs)
of the pairs i < j and one bound, 32 (copies + 3) machine epsilons
(_edge_bound).  Two labels name one ray when their cross product has norm
|u x v| within the bound; two rays are an edge when |u . v| is.  Per
rotation, with u half an epsilon, a coordinate of a unit ray gains at most
6u sqrt(3) from rotation_matrix's entries (cos or sin to 2u, four
roundings), 3u from m @ v and 3u from renormalising, so the |dot| of two
rays moves by under 17u (|a|_1 + |b|_1) <= 34 sqrt(3) u < 32 epsilons.
The last copy has had copies + 2 rotations (alignment, steps, two pivots),
plus one term for the gadget's own vectors.  At k = 90 (bound 1.9e-12)
edges measure <= 7.4e-15 and the closest non-edge 2.8e-12.  Labels sit at
most 1.2% of the bound from their representative (1.0e-14 at k = 41) and
distinct rays 1.9e5 bounds apart or more (3.7e-7 at k = 90).  At k = 95
three pairs outside the construction measure within the bound, so
default_schedule stops at MAX_SWEEP_K = 90.

Dedup scans the copies' stacked rows for |dot| >= 1 - bound, which misses
no merge: a pair within the bound has 1 - |dot| of bound^2 / 2 plus a few
units in the last place.  np.cross gives the norm; sqrt(1 - dot^2), like
acos, cannot resolve less than about 1.5e-8.  Each row joins the first
row it merges with (one np.minimum.at), and each cluster must be a
clique, or dedup raises ValueError: the rule is not transitive on that
input.  The graph finds the construction pairs among the edges with one
np.searchsorted on the ascending keys i n + j; np.unique, np.setdiff1d
and np.isin would import numpy.ma (numpy 2.4) on every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

import numpy as np

from .gadget import APEX, C3, GADGET_EDGES, GADGET_ROLES, GadgetSet, gadget_for_angle
from .linalg import Ray3, _canonical_units

DEFAULT_STEP_ANGLE = math.radians(18.0)
#: most steps per leg; from k = 95 on, non-construction pairs fall within _edge_bound
MAX_SWEEP_K = 90


class ScheduleError(ValueError):
    """A rotation schedule referenced a missing axis or broke the sweep, or
    a step angle does not divide 90 degrees or is below 90 / MAX_SWEEP_K."""


class OrthogonalityGapError(ValueError):
    """A construction pair of a swept set's copies lies beyond the float-error bound."""


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a unit axis."""
    x, y, z = axis
    c, s = math.cos(angle), math.sin(angle)
    k = 1.0 - c
    return np.array(
        [
            [c + x * x * k, x * y * k - z * s, x * z * k + y * s],
            [y * x * k + z * s, c + y * y * k, y * z * k - x * s],
            [z * x * k - y * s, z * y * k + x * s, c + z * z * k],
        ]
    )


def _transformed(m: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """The canonical coordinates of m @ v for each row v of an (n, 3) array."""
    # the stacked product runs m @ v's kernel once per row and keeps its
    # bits; V @ m.T sums in another order (module docstring)
    return _canonical_units((m @ vecs[:, :, None])[:, :, 0])


def rotate_ray(r: Ray3, axis: Ray3, angle: float) -> Ray3:
    """Rotate a ray about an axis ray; norms and pairwise angles are
    preserved to 1e-12 (the result is re-canonicalized)."""
    ((x, y, z),) = _transformed(rotation_matrix(axis.vec, angle), r.vec[None]).tolist()
    return Ray3(x, y, z, r.label)


def _ray_matrix(rays: Sequence[Ray3]) -> np.ndarray:
    """(n, 3) array of the rays' unit vectors."""
    return np.array([[r.x for r in rays], [r.y for r in rays], [r.z for r in rays]]).T.copy()


@dataclass(frozen=True)
class RotationStep:
    """One schedule step: rotate the current copy about one of its own rays.

    axis_role names a gadget role ("c2", "c3", ...), resolved against the
    current copy each time the step is applied.  Steps with emit=False are
    intermediate re-orientations (the pivots between sweep legs) whose
    result is not itself kept as a copy.
    """

    axis_role: str
    angle: float
    repetitions: int = 1
    emit: bool = True


def default_schedule(step_angle: float = DEFAULT_STEP_ANGLE) -> tuple[RotationStep, ...]:
    """The closed three-leg first-octant sweep at k = 90 degrees / step_angle:
    k - 1 steps about c2, a 90-degree pivot about c3 then k steps about the
    new c2, and once more (legs 4/5/5 at the default 18 degrees).

    Raises ScheduleError unless k is a positive integer to within 1e-9 and
    at most MAX_SWEEP_K.
    """
    k = math.pi / 2.0 / step_angle if step_angle > 0.0 else 0.0
    if not (math.isfinite(k) and k >= 1.0 and abs(k - round(k)) <= 1e-9):
        raise ScheduleError(
            f"step angle {math.degrees(step_angle)} deg does not divide 90 deg"
        )
    k = round(k)
    if k > MAX_SWEEP_K:
        raise ScheduleError(
            f"step angle {math.degrees(step_angle)} deg gives {k} steps per leg; "
            f"the edge rule holds up to {MAX_SWEEP_K} (steps of 1 deg)"
        )
    pivot = RotationStep("c3", math.pi / 2.0, 1, emit=False)
    return (
        RotationStep("c2", step_angle, k - 1),
        pivot,
        RotationStep("c2", step_angle, k),
        pivot,
        RotationStep("c2", step_angle, k),
    )


@dataclass(frozen=True)
class RaySet:
    """Deduplicated canonical rays with full label provenance.

    rays holds one Ray3 per distinct direction, labeled by first occurrence.
    label_to_index maps every original label (all ten roles of every copy)
    to its distinct-ray index; merges records (absorbed label, representative
    label) pairs; copies maps each gadget copy's roles to ray indices, in
    sweep order.
    """

    rays: tuple[Ray3, ...]
    label_to_index: Mapping[str, int]
    merges: tuple[tuple[str, str], ...]
    copies: tuple[Mapping[str, int], ...] = ()
    provenance: Mapping[str, Any] = field(default_factory=dict)

    @property
    def triad_label_count(self) -> int:
        """Number of input labels excluding the apex role (nine per copy)."""
        return sum(1 for lb in self.label_to_index if not lb.endswith("apex"))

    def index_of(self, r: Ray3) -> int | None:
        """Index of the first ray that dedup merges with r (by the set's bound), or None."""
        near = np.linalg.norm(np.cross(_ray_matrix(self.rays), r.vec), axis=-1)
        return next(iter(np.flatnonzero(near <= _edge_bound(len(self.copies))).tolist()), None)

    def to_dict(self) -> dict:
        return {
            "rays": [{"label": r.label, "xyz": [r.x, r.y, r.z]} for r in self.rays],
            "copies": [dict(c) for c in self.copies],
            "merges": [list(m) for m in self.merges],
            "provenance": dict(self.provenance),
        }


def dedupe_rays(rays: Sequence[Ray3]) -> RaySet:
    """Merge rays within |u x v| <= _edge_bound(0), the bound of a ray list,
    into their first occurrence.  Unlabeled rays are labeled by input
    position.  Raises ValueError for a label taken twice, generated ones
    included, and where the rule is not transitive (module docstring)."""
    labels = [r.label or f"r{i}" for i, r in enumerate(rays)]
    return _dedupe(_ray_matrix(rays), labels, _edge_bound(0))[0]


def _dedupe(mat: np.ndarray, labels: Sequence[str], bound: float) -> tuple[RaySet, np.ndarray]:
    """The RaySet of (m, 3) coordinate rows, one label each, and each row's ray index."""
    first, second = _upper_pairs(mat, lambda d: d >= 1.0 - bound)
    same = np.linalg.norm(np.cross(mat[first], mat[second]), axis=-1) <= bound
    first, second = first[same], second[same]
    rep = np.arange(len(mat))  # row of each row's representative
    np.minimum.at(rep, second, first)
    sizes = np.bincount(rep)  # a clique of m rays shares its rep and has m (m - 1) / 2 pairs
    if (rep[first] != rep[second]).any() or len(first) != (sizes * (sizes - 1) // 2).sum():
        raise ValueError(f"merging rays within |u x v| <= {bound:.3g} is not transitive here")
    kept = rep == np.arange(len(mat))
    index = (np.cumsum(kept) - 1)[rep]
    label_to_index = dict(zip(labels, index.tolist()))
    if len(label_to_index) < len(labels):
        taken = next(i for i, label in enumerate(labels) if labels.index(label) < i)
        raise ValueError(f"label {labels[taken]!r} of input ray {taken} is already taken")
    rays = tuple(Ray3(*mat[i].tolist(), labels[i]) for i in np.flatnonzero(kept).tolist())
    merges = tuple((labels[i], labels[r]) for i, r in enumerate(rep.tolist()) if r != i)
    return RaySet(rays=rays, label_to_index=label_to_index, merges=merges), index


def _align_gadget(g: GadgetSet) -> np.ndarray:
    """The gadget's coordinates rotated so c2 lies on the y axis, the apex
    on z, and c3 on the ray (sin a, 0, cos a) for the apex-c3 angle a: the
    ray onto which a turn by +a about c2 carries the apex.  That holds for
    parameters (x, y) of either sign."""
    w = g.rays[APEX].vec
    u = g.rays[GADGET_ROLES.index("c2")].vec
    c3 = g.rays[C3].vec
    rot = np.stack([np.cross(u, w), u, w])  # maps u x w -> x, u -> y, w -> z
    if (rot[0] @ c3) * (rot[2] @ c3) < 0.0:
        rot[:2] = -rot[:2]  # then a half turn about z, exact in floating point
    return _transformed(rot, _ray_matrix(g.rays))


def assemble_ks_set(
    step_angle: float = DEFAULT_STEP_ANGLE,
    schedule: Sequence[RotationStep] | None = None,
    gadget_params: tuple[float, float] | None = None,
) -> RaySet:
    """Sweep the gadget per the schedule and dedupe into a RaySet.

    With default arguments this is the 18-degree three-leg sweep over an
    off-diagonal gadget realization (x fixed at 1, y bisected on (0, 1], over
    which the angle rises to its bound) and yields exactly 117 distinct rays
    from 135 labeled triad rays.  Explicit gadget_params must realize
    step_angle (checked to 1e-9 by gadget_for_angle, which also rejects
    steps outside the gadget's range).

    Every step turns the current copy by +angle about its own axis ray; about
    c2 that carries the copy's apex onto its c3, where the next copy's apex
    sits.  forcing_chain_check audits those links.
    """
    gadget = gadget_for_angle(step_angle, gadget_params)
    if schedule is None:
        schedule = default_schedule(step_angle)

    # each copy is a (10, 3) array of coordinate rows
    copies = [_align_gadget(gadget)]
    current = copies[0]
    for step in schedule:
        if step.axis_role not in GADGET_ROLES:
            raise ScheduleError(f"schedule references unknown axis role {step.axis_role!r}")
        axis_index = GADGET_ROLES.index(step.axis_role)
        for _ in range(step.repetitions):
            m = rotation_matrix(current[axis_index].tolist(), step.angle)
            current = _transformed(m, current)
            if step.emit:
                copies.append(current)

    # triad rows first, apex rows last: in a chained sweep every apex ray
    # already occurs as some copy's c3 (or c1), so representatives stay triad
    # labels and the merge census counts triad-label overlaps directly
    n = len(copies)
    mat = np.concatenate([cp[1:] for cp in copies] + [cp[APEX, None] for cp in copies])
    labels = [f"g{ci + 1:02d}:{role}" for ci in range(n) for role in GADGET_ROLES[1:]]
    labels += [f"g{ci + 1:02d}:apex" for ci in range(n)]
    deduped, index = _dedupe(mat, labels, _edge_bound(n))
    roles = np.column_stack([index[-n:], index[:-n].reshape(n, -1)])
    copy_maps = tuple(dict(zip(GADGET_ROLES, row)) for row in roles.tolist())
    return replace(
        deduped,
        copies=copy_maps,
        provenance={
            "step_angle": step_angle,
            "gadget_x": gadget.x,
            "gadget_y": gadget.y,
            "schedule": [
                [s.axis_role, s.angle, s.repetitions, s.emit] for s in schedule
            ],
        },
    )


@dataclass(frozen=True)
class OrthogonalityGraph:
    """Rays, orthogonal-pair edges, and triads (all triangles).

    Edges are sorted index pairs; the relation is symmetric and irreflexive
    by construction.  For graphs built from rays, every edge, and so every
    triangle, is orthogonal to within the float error of the construction.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    triads: tuple[tuple[int, int, int], ...]
    rays: tuple[Ray3, ...] | None = None

    @classmethod
    def from_structure(
        cls, node_count: int, edges: Sequence[tuple[int, int]]
    ) -> "OrthogonalityGraph":
        """Abstract graph (no geometry); its triads are all its triangles.

        Raises ValueError for a negative node_count, for an edge with a node
        outside [0, node_count) or a repeated member, and for an edge listed
        twice.
        """
        if node_count < 0:
            raise ValueError(f"node_count {node_count} is negative")
        norm_edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        for e in norm_edges:
            if not (0 <= e[0] and e[1] < node_count):
                raise ValueError(f"edge {e} has a node outside [0, {node_count})")
            if e[0] == e[1]:
                raise ValueError(f"edge {e} repeats a node")
        twice = next((e for e, f in zip(norm_edges, norm_edges[1:]) if e == f), None)
        if twice is not None:
            raise ValueError(f"edge {twice} is listed twice")
        return cls(node_count, norm_edges, _triangles(node_count, norm_edges))

    def adjacency(self) -> list[set[int]]:
        return _adjacency(self.node_count, self.edges)


def _adjacency(node_count: int, edges: Sequence[tuple[int, int]]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(node_count)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def _triangles(
    node_count: int, edges: Sequence[tuple[int, int]]
) -> tuple[tuple[int, int, int], ...]:
    adj = _adjacency(node_count, edges)
    return tuple(
        (i, j, k) for i, j in edges for k in sorted(adj[i] & adj[j]) if k > j
    )


def _upper_pairs(mat: np.ndarray, keep) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of mat's rows whose |dot| passes keep, as two index
    arrays in ascending (i, j) order."""
    firsts, seconds = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, len(mat), 128):  # row blocks of the upper triangle: no n x n float matrix
        dots = mat[lo : lo + 128] @ mat[lo:].T
        # nonzero walks each block row by row, so the pairs ascend
        rows, cols = np.nonzero(keep(np.abs(dots, out=dots)))
        upper = cols > rows
        firsts.append(rows[upper] + lo)
        seconds.append(cols[upper] + lo)
    return np.concatenate(firsts), np.concatenate(seconds)


def _edge_bound(copies: int) -> float:
    """Float-error bound on |dot| after copies gadget copies (module docstring)."""
    return 32 * (copies + 3) * float(np.finfo(float).eps)


def build_orthogonality_graph(source: RaySet | GadgetSet | Sequence[Ray3]) -> OrthogonalityGraph:
    """Edges = all ray pairs with |dot| <= _edge_bound(copies); triads = all
    triangles.  A ray list or GadgetSet counts 0 copies: pass a swept set as
    its RaySet.  Every construction pair of the copies must be an edge, or
    OrthogonalityGapError counts the missing ones; other pairs within the
    bound (the diagonal gadget's exact extra orthogonalities) stay edges.
    """
    rays = tuple(getattr(source, "rays", source))
    copies = getattr(source, "copies", ())
    bound = _edge_bound(len(copies))
    n = len(rays)
    first, second = _upper_pairs(_ray_matrix(rays), lambda d: d <= bound)
    # keys ascend with the pairs; the sentinel n * n exceeds every pair's
    # key, so each search lands on an entry
    keys = np.append(first * n + second, n * n)
    roles = np.array([[cp[r] for r in GADGET_ROLES] for cp in copies], dtype=np.intp)
    pairs = roles.reshape(-1, len(GADGET_ROLES))[:, np.array(GADGET_EDGES)]
    wanted = pairs.min(axis=2) * n + pairs.max(axis=2)
    missing = set(wanted[keys[np.searchsorted(keys, wanted)] != wanted].tolist())
    if missing:
        raise OrthogonalityGapError(f"{len(missing)} construction pairs have |dot| > {bound:.3g}")
    edges = tuple(zip(first.tolist(), second.tolist()))
    return OrthogonalityGraph(n, edges, _triangles(n, edges), rays)
