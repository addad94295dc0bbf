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

The 1e-7 dedup tolerance sits well inside the measured guard band.  Labels
that merge sit at angle 0 from their representative, or at most 2.1e-8 rad
(k = 36), because acos near 1 cannot resolve less than about 1.5e-8.  The
smallest separation between distinct rays shrinks with k: 3.2e-3 rad at
k = 5, 7.5e-5 at k = 24 and 9.6e-6 on the open 2.25-degree chain.

Dedup finds a label's representative in a grid (_NearIndex), not by a
scan.  With tau = DEDUP_TOL when the grid is built, each representative is
filed in every cube of side 1000 tau that its box of +-10 tau touches; a
query q reads the cubes of q and -q and tests their rays in index order by
the scan's own rule, acos(min(1, |dot|)) <= tau.  It returns the scan's
first occurrence, because every ray that passes is filed there: with |dot|
off by a few epsilons, a ray passing the test lies within angle
tau + 5e-8 of q or -q, and the chord is shorter than the angle, so inside
the 10 tau reach for any tau above 6e-9 (tenfold at 1e-7).  On the sweeps
up to k = 90 a ray is filed in 1.3 to 1.5 cubes (a zero coordinate straddles
a face) and no cube holds more than three rays.  dedupe_rays leaves its
grid on the RaySet for index_of.

Graph edges are the ray pairs with |dot| within the construction's float
error, 32 (copies + 3) machine epsilons (_edge_bound).  Per rotation, with u
half an epsilon, a coordinate of a unit ray gains at most 6u sqrt(3) from
rotation_matrix's entries (cos or sin to 2u, four roundings), 3u from m @ v
and 3u from renormalising, so the |dot| of two rays moves by under
17u (|a|_1 + |b|_1) <= 34 sqrt(3) u < 32 epsilons.  The last copy has had
copies + 2 rotations (alignment, steps, two pivots), plus one term for the
gadget's own vectors.  At k = 90 (bound 1.9e-12) edges measure <= 7.4e-15
and the closest non-edge 2.8e-12.  At k = 95 three pairs outside the
construction measure within the bound, so default_schedule stops at
MAX_SWEEP_K = 90.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .gadget import APEX, C3, GADGET_EDGES, GADGET_ROLES, GadgetSet, gadget_for_angle
from .linalg import Ray3, _canonical_units

DEFAULT_STEP_ANGLE = math.radians(18.0)
DEDUP_TOL = 1e-7
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


def _transformed(m: np.ndarray, vecs: Iterable[np.ndarray]) -> list[list[float]]:
    """The canonical coordinates of m @ v for each vector v."""
    # one 3x3 product per vector: batching as V @ m.T sums in another order
    # and changes the last bits of the coordinates the census prints
    return _canonical_units([m @ v for v in vecs])


def rotate_ray(r: Ray3, axis: Ray3, angle: float) -> Ray3:
    """Rotate a ray about an axis ray; norms and pairwise angles are
    preserved to 1e-12 (the result is re-canonicalized)."""
    ((x, y, z),) = _transformed(rotation_matrix(axis.vec, angle), [r.vec])
    return Ray3(x, y, z, r.label)


def _ray_matrix(rays: Sequence[Ray3]) -> np.ndarray:
    """(n, 3) array of the rays' unit vectors."""
    return np.array([(r.x, r.y, r.z) for r in rays], dtype=float).reshape(-1, 3)


class _NearIndex:
    """Grid lookup of the first ray within angle DEDUP_TOL of a query (see
    the module docstring).  rays is the list that add extends, or the fixed
    tuple the index was built over."""

    def __init__(self, rays: Sequence[Ray3]):
        self.rays = rays
        self.tol = DEDUP_TOL
        self.reach = 10.0 * self.tol
        self.side = 100.0 * self.reach
        self.cells: dict[tuple[int, int, int], list[int]] = {}
        for k, r in enumerate(rays):
            self._file(k, r)

    def _file(self, k: int, r: Ray3) -> None:
        s, d = self.side, self.reach
        spans = (range(math.floor((c - d) / s), math.floor((c + d) / s) + 1) for c in (r.x, r.y, r.z))
        for key in itertools.product(*spans):
            self.cells.setdefault(key, []).append(k)

    def add(self, r: Ray3) -> int:
        self.rays.append(r)
        self._file(len(self.rays) - 1, r)
        return len(self.rays) - 1

    def find(self, q: Ray3) -> int | None:
        """Index of the first ray with acos(min(1, |dot|)) <= tol, or None."""
        s, x, y, z = self.side, q.x, q.y, q.z
        same = self.cells.get((math.floor(x / s), math.floor(y / s), math.floor(z / s)), [])
        opposite = self.cells.get((math.floor(-x / s), math.floor(-y / s), math.floor(-z / s)))
        for k in sorted(same + opposite) if opposite else same:
            if math.acos(min(1.0, abs(self.rays[k].dot(q)))) <= self.tol:
                return k
        return None


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
    grid: _NearIndex | None = field(default=None, compare=False, repr=False)

    @property
    def triad_label_count(self) -> int:
        """Number of input labels excluding the apex role (nine per copy)."""
        return sum(1 for lb in self.label_to_index if not lb.endswith("apex"))

    def index_of(self, r: Ray3) -> int | None:
        """Index of the first ray within angle DEDUP_TOL of r, or None.  The
        grid is built on first use unless dedupe_rays left one for these
        very rays (dataclasses.replace carries it over)."""
        grid = self.grid
        if grid is None or grid.rays is not self.rays:
            grid = _NearIndex(self.rays)
            object.__setattr__(self, "grid", grid)
        return grid.find(r)

    def to_dict(self) -> dict:
        return {
            "rays": [{"label": r.label, "xyz": [r.x, r.y, r.z]} for r in self.rays],
            "copies": [dict(c) for c in self.copies],
            "merges": [list(m) for m in self.merges],
            "provenance": dict(self.provenance),
        }


def dedupe_rays(rays: Sequence[Ray3]) -> RaySet:
    """Merge rays within angle DEDUP_TOL; representative = first occurrence.

    Unlabeled rays are labeled by input position.  Raises ValueError when
    two rays carry the same label, generated ones included.
    """
    grid = _NearIndex([])
    label_to_index: dict[str, int] = {}
    merges: list[tuple[str, str]] = []
    for idx, ray in enumerate(rays):
        label = ray.label or f"r{idx}"
        if label in label_to_index:
            raise ValueError(f"label {label!r} of input ray {idx} is already taken")
        k = grid.find(ray)
        if k is None:
            k = grid.add(ray if ray.label else ray.relabel(label))
        else:
            merges.append((label, grid.rays[k].label))
        label_to_index[label] = k
    grid.rays = tuple(grid.rays)  # the RaySet's own rays, so index_of reuses the grid
    return RaySet(
        rays=grid.rays,
        label_to_index=label_to_index,
        merges=tuple(merges),
        grid=grid,
    )


def _align_gadget(g: GadgetSet) -> list[list[float]]:
    """The gadget's coordinates rotated so c2 lies on the +y axis and the
    apex on +z, with c3 in the x > 0 half of the x-z plane."""
    w = g.rays[APEX].vec
    u = g.rays[GADGET_ROLES.index("c2")].vec
    rot = np.stack([np.cross(u, w), u, w])  # maps u x w -> x, u -> y, w -> z
    rows = _transformed(rot, [r.vec for r in g.rays])
    if rows[C3][0] < 0.0:
        flip = np.diag([-1.0, -1.0, 1.0])  # half turn about z; same rays for axis images
        rows = _transformed(flip, np.array(rows))
    return rows


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

    # each copy is a list of ten coordinate rows; a step rotates one copy
    # as a (10, 3) array
    copies = [_align_gadget(gadget)]
    current = copies[0]
    for step in schedule:
        if step.axis_role not in GADGET_ROLES:
            raise ScheduleError(f"schedule references unknown axis role {step.axis_role!r}")
        axis_index = GADGET_ROLES.index(step.axis_role)
        for _ in range(step.repetitions):
            m = rotation_matrix(current[axis_index], step.angle)
            current = _transformed(m, np.array(current))
            if step.emit:
                copies.append(current)

    # triad labels first, apex labels last: in a chained sweep every apex ray
    # already occurs as some copy's c3 (or c1), so representatives stay triad
    # labels and the merge census counts triad-label overlaps directly
    labeled = [
        Ray3(*cp[ri], f"g{ci + 1:02d}:{GADGET_ROLES[ri]}")
        for ci, cp in enumerate(copies)
        for ri in range(1, len(GADGET_ROLES))
    ] + [Ray3(*cp[APEX], f"g{ci + 1:02d}:apex") for ci, cp in enumerate(copies)]
    deduped = dedupe_rays(labeled)
    copy_maps = tuple(
        {
            role: deduped.label_to_index[f"g{ci + 1:02d}:{role}"]
            for role in GADGET_ROLES
        }
        for ci in range(len(copies))
    )
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
            "dedup_tol": DEDUP_TOL,
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
        cls,
        node_count: int,
        edges: Sequence[tuple[int, int]],
        triads: Sequence[tuple[int, int, int]] | None = None,
    ) -> "OrthogonalityGraph":
        """Abstract graph (no geometry); triads default to all triangles.

        Raises ValueError for an edge or triad with a node outside
        [0, node_count) or a repeated member, and for an edge listed twice.
        """
        norm_edges = tuple(sorted(tuple(sorted(e)) for e in edges))
        norm_triads = () if triads is None else tuple(sorted(tuple(sorted(t)) for t in triads))
        for kind, members in [("edge", e) for e in norm_edges] + [("triad", t) for t in norm_triads]:
            if not (0 <= members[0] and members[-1] < node_count):
                raise ValueError(f"{kind} {members} has a node outside [0, {node_count})")
            if len(set(members)) < len(members):
                raise ValueError(f"{kind} {members} repeats a node")
        twice = next((e for e, f in zip(norm_edges, norm_edges[1:]) if e == f), None)
        if twice is not None:
            raise ValueError(f"edge {twice} is listed twice")
        if triads is None:
            norm_triads = _triangles(node_count, norm_edges)
        return cls(node_count=node_count, edges=norm_edges, triads=norm_triads)

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
    n, mat = len(rays), _ray_matrix(rays)
    edges: list[tuple[int, int]] = []
    for lo in range(0, n, 128):  # row blocks: no n x n float matrix
        rows, cols = np.nonzero(np.abs(mat[lo : lo + 128] @ mat.T) <= bound)
        upper = cols > rows + lo
        edges += zip((rows[upper] + lo).tolist(), cols[upper].tolist())
    built = ((cp[GADGET_ROLES[a]], cp[GADGET_ROLES[b]]) for cp in copies for a, b in GADGET_EDGES)
    missing = {tuple(sorted(pair)) for pair in built}.difference(edges)
    if missing:
        raise OrthogonalityGapError(f"{len(missing)} construction pairs have |dot| > {bound:.3g}")
    return OrthogonalityGraph(n, tuple(edges), _triangles(n, edges), rays)
