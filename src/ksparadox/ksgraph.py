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
input.  The scan reads each 128-row block of the upper triangle (no n x n
array) with np.flatnonzero, a tenth of 2-D np.nonzero's cost, and a divmod
by the block's width: a C-ordered block's flat indices ascend by row, then
column.  RaySet.copies, one (copies, 10) table of ray indices by role,
gives the copies' pairs as copies[:, GADGET_EDGES], and the graph finds
them among the edges with one np.searchsorted on the ascending keys i n + j
and passes the scan's arrays to OrthogonalityGraph, which checks them in
numpy; np.unique, np.setdiff1d and np.isin would import numpy.ma (numpy
2.4) on every run.
"""

from __future__ import annotations

import contextlib
import copy
import math
from dataclasses import astuple, dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Any, Mapping, Sequence

import numpy as np

from .gadget import APEX, C3, GADGET_EDGES, GADGET_ROLES, GadgetSet, gadget_for_angle
from .linalg import Ray3, _canonical_units, _unit_rows

DEFAULT_STEP_ANGLE = math.radians(18.0)
#: most steps per leg; from k = 95 on, non-construction pairs fall within _edge_bound
MAX_SWEEP_K = 90


class ScheduleError(ValueError):
    """A rotation schedule referenced a missing axis, or had a step with a
    non-finite angle or negative repetitions, or a step angle does not
    divide 90 degrees or is below 90 / MAX_SWEEP_K."""


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


@dataclass(frozen=True, eq=False)
class RaySet:
    """Deduplicated canonical rays with full label provenance.

    matrix, the rays' one stored form, is a read-only (n, 3) float array of
    unit rows, stored sign-canonical by linalg._unit_rows (as is each Ray3),
    each named in labels by its first occurrence; merges pairs
    every other input label, in input order, with the label of its ray, as
    to_dict writes them.  rays, graph, label_to_index, triad_index and
    axis_nodes are built from these, rays and graph when first read.
    copies, the role table, is a read-only (copies, 10) intp array: row k
    holds gadget copy k's ray indices in GADGET_ROLES order (copies[k, C3]
    is its c3), in sweep order.  provenance is a read-only mapping over a
    deep copy of the caller's, its lists stored as tuples.
    ValueError rejects rows that are not finite unit vectors (to UNIT_ROW_TOL),
    labels not one per row, a label that is not a string, is empty or is
    taken twice, a merge that is not a pair or names no row, and a table
    that is not integer, not ten columns wide, or names a ray outside it.
    """

    matrix: np.ndarray
    labels: tuple[str, ...]
    merges: tuple[tuple[str, str], ...] = ()
    copies: np.ndarray = ()
    provenance: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=float)  # a copy, made read-only below
        labels, merges = tuple(self.labels), tuple(self.merges)
        if mat.ndim != 2 or mat.shape[1] != 3:
            raise ValueError(f"matrix must be an (n, 3) array, not of shape {mat.shape}")
        mat, n = _unit_rows(mat), len(mat)
        if len(labels) != n:
            raise ValueError(f"{len(labels)} labels for {n} rays")
        for pair in merges:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise ValueError(f"merge {pair!r} is not a (label, representative) pair")
        _check_labels((*labels, *(absorbed for absorbed, _ in merges)))
        rows = set(labels)
        for absorbed, rep in merges:
            if not (isinstance(rep, str) and rep in rows):
                raise ValueError(f"merge {absorbed!r} -> {rep!r} names no ray")
        table = np.asarray(self.copies)
        if table.shape[:1] == (0,):  # no copies
            table = np.empty((0, len(GADGET_ROLES)), dtype=np.intp)
        if table.dtype.kind not in "iu" or table.shape[1:] != (len(GADGET_ROLES),):
            raise ValueError(
                f"copies must be a (copies, {len(GADGET_ROLES)}) table of ray indices, "
                f"not {table.dtype} of shape {table.shape}"
            )
        for k in np.flatnonzero(((table < 0) | (table >= n)).any(axis=1))[:1].tolist():
            raise ValueError(f"copy {k} names a ray outside [0, {n}): {table[k].tolist()}")
        merges, table = tuple(map(tuple, merges)), table.astype(np.intp)
        provenance = MappingProxyType({k: _frozen(v) for k, v in dict(self.provenance).items()})
        stored = dict(matrix=mat, labels=labels, merges=merges, copies=table, provenance=provenance)
        for name, value in stored.items():
            object.__setattr__(self, name, value)
        self.matrix.flags.writeable = self.copies.flags.writeable = False

    def __reduce__(self):  # pickle and deepcopy rebuild the set through the checks above
        return RaySet, (self.matrix, self.labels, self.merges, self.copies, dict(self.provenance))

    @cached_property
    def rays(self) -> tuple[Ray3, ...]:
        """The rows as Ray3, each with its label, built when first read."""
        return tuple(map(Ray3, *self.matrix.T.tolist(), self.labels))

    @cached_property
    def graph(self) -> OrthogonalityGraph:
        """The set's one orthogonality graph, which the search and the chain
        audit both read: edges = all ray pairs with |dot| <= _edge_bound(copies),
        triads = all triangles, labels = the set's.  Every construction pair of
        the copies must be an edge, or OrthogonalityGapError counts the missing
        ones; other pairs within the bound (the diagonal gadget's exact extra
        orthogonalities) stay edges."""
        n, bound = len(self.labels), _edge_bound(len(self.copies))
        first, second = _upper_pairs(self.matrix, lambda d: d <= bound)
        # keys ascend with the pairs; the sentinel n * n exceeds every pair's
        # key, so each search lands on an entry
        keys = np.append(first * n + second, n * n)
        pairs = self.copies[:, GADGET_EDGES]  # (copies, 15, 2) ray indices
        wanted = pairs.min(axis=2) * n + pairs.max(axis=2)
        gaps = len(set(wanted[keys[np.searchsorted(keys, wanted)] != wanted].tolist()))
        if gaps:
            raise OrthogonalityGapError(f"{gaps} construction pairs have |dot| > {bound:.3g}")
        return OrthogonalityGraph(n, np.column_stack([first, second]), self.labels)

    @property
    def label_to_index(self) -> dict[str, int]:
        """Ray index of every input label, built from labels and merges on each read."""
        rows = dict(zip(self.labels, range(len(self.labels))))
        return {**rows, **{absorbed: rows[rep] for absorbed, rep in self.merges}}

    @property
    def triad_index(self) -> dict[str, int]:
        """Ray index of every input label except the apex role's (nine per copy)."""
        return {lb: k for lb, k in self.label_to_index.items() if not lb.endswith("apex")}

    @property
    def axis_nodes(self) -> tuple[int | None, int | None, int | None]:
        """For each of the x, y and z axes, the index of the first ray that
        dedup would merge with it (|u x v| within the set's bound), or None
        for an absent axis.  Only the census reads it: the chain audit
        finds its closing triad on the graph, in any frame."""
        near = np.linalg.norm(np.cross(self.matrix[:, None], np.eye(3)), axis=-1)
        hits = (near <= _edge_bound(len(self.copies))).T
        return tuple(next(iter(np.flatnonzero(hit).tolist()), None) for hit in hits)

    def to_dict(self) -> dict:
        return {
            "rays": [{"label": lb, "xyz": v} for lb, v in zip(self.labels, self.matrix.tolist())],
            "copies": [dict(zip(GADGET_ROLES, row)) for row in self.copies.tolist()],
            "merges": [list(m) for m in self.merges],
            "provenance": copy.deepcopy(dict(self.provenance)),
        }


def dedupe_rays(matrix: np.ndarray, labels: Sequence[str]) -> RaySet:
    """Merge the labeled (n, 3) rows within |u x v| <= _edge_bound(0), the
    bound of a set without copies, into their first occurrence.  The input
    is checked as RaySet(matrix, labels) is; ValueError also rejects a rule
    that is not transitive on it (module docstring)."""
    listed = RaySet(matrix, labels)
    return RaySet(*_dedupe(listed.matrix, listed.labels, _edge_bound(0))[0])


def _dedupe(mat: np.ndarray, labels: Sequence[str], bound: float) -> tuple[tuple, np.ndarray]:
    """The first three RaySet fields of labeled (m, 3) rows, and each row's ray index."""
    first, second = _upper_pairs(mat, lambda d: d >= 1.0 - bound)
    same = np.linalg.norm(np.cross(mat[first], mat[second]), axis=-1) <= bound
    first, second = first[same], second[same]
    rep = np.arange(len(mat))  # row of each row's representative
    np.minimum.at(rep, second, first)
    sizes = np.bincount(rep)  # a clique of m rays shares its rep and has m (m - 1) / 2 pairs
    if (rep[first] != rep[second]).any() or len(first) != (sizes * (sizes - 1) // 2).sum():
        raise ValueError(f"merging rays within |u x v| <= {bound:.3g} is not transitive here")
    kept = rep == np.arange(len(mat))
    rows, absorbed = np.flatnonzero(kept), np.flatnonzero(~kept)
    merges = [(labels[i], labels[k]) for i, k in zip(absorbed.tolist(), rep[absorbed].tolist())]
    return (mat[rows], [labels[i] for i in rows.tolist()], merges), (np.cumsum(kept) - 1)[rep]


def _align_gadget(g: GadgetSet) -> np.ndarray:
    """The gadget's coordinates rotated so c2 lies on the y axis, the apex
    on z, and c3 on the ray (sin a, 0, cos a) for the apex-c3 angle a: the
    ray onto which a turn by +a about c2 carries the apex.  That holds for
    parameters (x, y) of either sign."""
    vecs = g.units
    w, u, c3 = vecs[APEX], vecs[GADGET_ROLES.index("c2")], vecs[C3]
    rot = np.stack([np.cross(u, w), u, w])  # maps u x w -> x, u -> y, w -> z
    if (rot[0] @ c3) * (rot[2] @ c3) < 0.0:
        rot[:2] = -rot[:2]  # then a half turn about z, exact in floating point
    return _transformed(rot, vecs)


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
        if not (math.isfinite(step.angle) and step.repetitions >= 0):
            raise ScheduleError(f"{step} needs a finite angle and repetitions >= 0")
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
    fields, index = _dedupe(mat, labels, _edge_bound(n))
    return RaySet(
        *fields,
        copies=np.column_stack([index[-n:], index[:-n].reshape(n, -1)]),
        provenance={
            "step_angle": step_angle,
            "gadget_x": gadget.x,
            "gadget_y": gadget.y,
            "schedule": [astuple(s) for s in schedule],
        },
    )


@dataclass(frozen=True)
class OrthogonalityGraph:
    """Nodes, orthogonal-pair edges, and triads: all triangles of the edges.

    The one constructor takes the edges as pairs or as an (m, 2) integer
    array, sorts each edge and the edge list, stores Python ints (node_count
    too), and raises ValueError for a node_count that is not an integer (a
    float or a bool) or is negative, an edge that is not a pair of integers,
    a node outside [0, node_count), a repeated member, an edge listed twice,
    labels not one per node, and a label that is not a string, is empty or
    is taken twice.  The triads, each a sorted triple, are derived from
    the edges, so every graph's triads are exactly its triangles; neighbours
    holds each node's neighbours in ascending order, the graph's one
    adjacency build.  A graph built from rays keeps their labels, and every
    edge, and so every triangle, is orthogonal to within the float error;
    its coordinates stay with its source.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]
    triads: tuple[tuple[int, int, int], ...] = field(init=False)
    neighbours: tuple[tuple[int, ...], ...] = field(init=False)
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        n = self.node_count
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"node_count {n!r} is not an integer")
        if n < 0:
            raise ValueError(f"node_count {n} is negative")
        n = int(n)
        if self.labels is not None and len(self.labels) != n:
            raise ValueError(f"{len(self.labels)} labels for {n} nodes")
        _check_labels(self.labels or ())
        pairs = np.sort(_edge_array(self.edges), axis=1)
        bad = pairs[(pairs[:, 0] < 0) | (pairs[:, 1] >= n) | (pairs[:, 0] == pairs[:, 1])].tolist()
        if bad:
            (i, j), outside = bad[0], f"has a node outside [0, {n})"
            raise ValueError(f"edge {(i, j)} " + (outside if i < 0 or j >= n else "repeats a node"))
        keys = np.sort(pairs.astype(np.intp) @ np.array([n, 1]))
        first, second = np.divmod(keys, n)
        for key in keys[1:][keys[1:] == keys[:-1]][:1].tolist():
            raise ValueError(f"edge {divmod(key, n)} is listed twice")
        # each edge (i, j) and each edge (j, k), k > j, in the run of keys from
        # j n on, form a wedge; it closes into a triad when i n + k is a key
        starts = np.searchsorted(keys, second * n)
        runs = np.searchsorted(keys, second * n + n) - starts
        ij = np.repeat(np.arange(len(keys)), runs)
        jk = np.arange(len(ij)) + np.repeat(starts - np.cumsum(runs) + runs, runs)
        ik = first[ij] * n + second[jk]
        closed = np.append(keys, n * n)[np.searchsorted(keys, ik)] == ik
        ij, jk = ij[closed], jk[closed]
        nodes = np.arange(n).astype(object)  # one Python int per node, shared by every tuple
        triads = zip(*(nodes[a].tolist() for a in (first[ij], second[ij], second[jk])))
        # both directions of every edge, sorted once: each node's neighbours ascend
        node, other = np.divmod(np.sort(np.concatenate([keys, second * n + first])), n)
        ends, flat = np.cumsum(np.bincount(node, minlength=n)).tolist(), nodes[other].tolist()
        neighbours = (flat[a:b] for a, b in zip([0, *ends], ends))
        object.__setattr__(self, "node_count", n)
        object.__setattr__(self, "edges", tuple(zip(nodes[first].tolist(), nodes[second].tolist())))
        object.__setattr__(self, "triads", tuple(triads))
        object.__setattr__(self, "neighbours", tuple(map(tuple, neighbours)))


def _edge_array(edges) -> np.ndarray:
    """edges as an (m, 2) integer array; ValueError names an edge that is
    not a pair of integers, which numpy would truncate (1.5 to 1)."""
    with contextlib.suppress(ValueError):  # numpy rejects ragged input
        pairs = np.asarray(edges) if len(edges) else np.empty((0, 2), dtype=np.intp)
        if pairs.ndim == 2 and pairs.shape[1] == 2 and pairs.dtype.kind in "iu":
            return pairs
    rows, ints = edges.tolist() if isinstance(edges, np.ndarray) else edges, (int, np.integer)
    for e in rows:
        if np.asarray(e, dtype=object).shape != (2,) or not all(isinstance(v, ints) for v in e):
            raise ValueError(f"edge {e} is not a pair of integers")
    raise ValueError("the edges are not pairs of integers")


def _check_labels(labels: Sequence) -> None:
    """ValueError names the first label that is not a string, is empty or
    repeats an earlier one."""
    taken = set()
    for label in labels:
        if not isinstance(label, str):
            raise ValueError(f"label {label!r} is not a string")
        if not label:
            raise ValueError("label '' is empty")
        if label in taken:
            raise ValueError(f"label {label!r} is already taken")
        taken.add(label)


def _upper_pairs(mat: np.ndarray, keep) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of mat's rows whose |dot| passes keep, as two index
    arrays in ascending (i, j) order."""
    firsts, seconds = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for lo in range(0, len(mat), 128):  # row blocks of the upper triangle: no n x n float matrix
        dots = mat[lo : lo + 128] @ mat[lo:].T
        # a C-ordered block's flat indices ascend by row, then column
        rows, cols = np.divmod(np.flatnonzero(keep(np.abs(dots, out=dots))), len(mat) - lo)
        upper = cols > rows
        firsts.append(rows[upper] + lo)
        seconds.append(cols[upper] + lo)
    return np.concatenate(firsts), np.concatenate(seconds)


def _edge_bound(copies: int) -> float:
    """Float-error bound on |dot| after copies gadget copies (module docstring)."""
    return 32 * (copies + 3) * float(np.finfo(float).eps)


def _frozen(value: Any) -> Any:
    """A deep copy of value with every list or tuple in it stored as a tuple."""
    return tuple(map(_frozen, value)) if isinstance(value, (list, tuple)) else copy.deepcopy(value)


def build_orthogonality_graph(source: RaySet | GadgetSet) -> OrthogonalityGraph:
    """source.graph, a GadgetSet read as a RaySet of 0 copies labeled by
    role; a RaySet gets its one graph on every call.  TypeError names the
    type of any other source."""
    if isinstance(source, GadgetSet):
        source = RaySet(source.units, GADGET_ROLES)
    elif not isinstance(source, RaySet):
        raise TypeError(f"expected a RaySet or a GadgetSet, not {type(source).__name__}")
    return source.graph
