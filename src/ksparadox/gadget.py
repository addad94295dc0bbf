"""The parametrized ten-ray forcing gadget.

For arbitrary finite parameters (x, y) the family

    apex = -xy i + x j - k
    a1 = j + x k          a2 = i                 a3 = -x j + k
    b1 = y i - j          b2 = i + y j           b3 = k
    c1 = -i - y j - xy k
    c2 = -y(1+x^2) i + (1-x^2 y^2) j + x(1+y^2) k
    c3 = -x y^3 (1+x^2) i + x(1+2y^2+x^2 y^2) j - (1+y^2) k

forms three mutually orthogonal triads {a1,a2,a3}, {b1,b2,b3}, {c1,c2,c3}
plus six extra orthogonal pairs:

    apex _|_ a1, b2, c2        c1 _|_ a3, b1        a2 _|_ b3

The angle between apex and c3 obeys

    cos(angle) = [1 + x^2 + y^2 + x^2 y^2 (2 + x^2 + y^2 + x^2 y^2)]
                 / (|apex| |c3|)

which is minimized at sqrt(8)/3 for x = y = +-1, so the apex-to-c3 angle
never exceeds arccos(sqrt(8)/3) ~ 19.47 degrees.  Under the coloring rules
(exactly one ray of each triad valued 1, never two orthogonal rays both 1)
exhaustive enumeration of all 2^10 assignments shows the pair
(value(apex), value(c3)) = (1, 0) is impossible: a 1 on the apex forces a 1
on c3.  That one-way forcing is the engine of the chained ray-set
construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import Ray3

GADGET_ROLES = ("apex", "a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3")
APEX, C3 = 0, 9

# index triples into GADGET_ROLES order
GADGET_TRIADS = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
# the six extra orthogonal pairs listed in the module docstring
GADGET_EXTRA_PAIRS = ((0, 1), (0, 5), (0, 8), (7, 3), (7, 4), (2, 6))
GADGET_EDGES = tuple(
    (t[i], t[j]) for t in GADGET_TRIADS for i in range(3) for j in range(i + 1, 3)
) + GADGET_EXTRA_PAIRS

#: largest achievable apex-to-c3 angle, arccos(sqrt(8)/3)
MAX_GADGET_ANGLE = math.acos(math.sqrt(8.0) / 3.0)
#: how closely a gadget must realize its target angle
REALIZE_TOL = 1e-9
#: smallest angle realizable to REALIZE_TOL.  Near cos = 1 an error of one
#: epsilon in the closed-form cosine moves the angle by about eps / angle.
#: Solved gadgets miss by up to 3 eps / angle (measured on 20,000 angles in
#: [1e-6, 1e-2] rad), and some below 6e-7 rad failed the realize check, so
#: the range starts at 8 eps / REALIZE_TOL (1.8e-6 rad), a factor of 2.7.
MIN_GADGET_ANGLE = 8 * float(np.finfo(float).eps) / REALIZE_TOL


class DegenerateParameterError(ValueError):
    """Gadget parameters produced a ray that cannot be normalized."""


class AngleRangeError(ValueError):
    """A requested gadget angle lies outside [MIN_GADGET_ANGLE,
    MAX_GADGET_ANGLE], or explicit parameters do not realize it."""


def raw_gadget_vectors(x: float, y: float) -> tuple[np.ndarray, ...]:
    """The ten construction vectors before normalization, in role order.

    Raises DegenerateParameterError when y**3 overflows a float."""
    try:
        y3 = y**3
    except OverflowError:
        raise DegenerateParameterError(
            f"parameters ({x}, {y}) overflow the construction vectors"
        ) from None
    return (
        np.array([-x * y, x, -1.0]),
        np.array([0.0, 1.0, x]),
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, -x, 1.0]),
        np.array([y, -1.0, 0.0]),
        np.array([1.0, y, 0.0]),
        np.array([0.0, 0.0, 1.0]),
        np.array([-1.0, -y, -x * y]),
        np.array([-y * (1 + x * x), 1 - x * x * y * y, x * (1 + y * y)]),
        np.array([-x * y3 * (1 + x * x), x * (1 + 2 * y * y + x * x * y * y), -(1 + y * y)]),
    )


@dataclass(frozen=True)
class GadgetSet:
    """Ten labeled rays; their fifteen orthogonality edges are GADGET_EDGES."""

    x: float
    y: float
    rays: tuple[Ray3, ...]

    def ray(self, role: str) -> Ray3:
        return self.rays[GADGET_ROLES.index(role)]

    def max_edge_residual(self) -> float:
        """Largest |dot| over GADGET_EDGES."""
        return max(abs(self.rays[i].dot(self.rays[j])) for i, j in GADGET_EDGES)

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "rays": [
                {"label": r.label, "xyz": [r.x, r.y, r.z]} for r in self.rays
            ],
            "edges": [list(e) for e in GADGET_EDGES],
        }


def build_gadget(x: float, y: float) -> GadgetSet:
    """Construct the ten-ray gadget at parameters (x, y).

    Rays come back unit-normalized and sign-canonical, labeled by role.
    Raises DegenerateParameterError for non-finite parameters or when y**3
    overflows, and NormalizationError when a construction vector's norm
    overflows.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DegenerateParameterError(f"parameters must be finite, got ({x}, {y})")
    vecs = raw_gadget_vectors(x, y)
    return GadgetSet(x=x, y=y, rays=tuple(map(Ray3.from_vector, vecs, GADGET_ROLES)))


@np.errstate(over="ignore", invalid="ignore")
def gadget_cosine(x, y):
    """Cosine of the apex-to-c3 angle from the closed form (vectorizes);
    overflowing parameters give nan without a warning."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x2, y2 = x * x, y * y
    num = 1 + x2 + y2 + x2 * y2 * (2 + x2 + y2 + x2 * y2)
    n_apex = np.sqrt(x2 * y2 + x2 + 1)
    n_c3 = np.sqrt(
        (x * y**3 * (1 + x2)) ** 2 + (x * (1 + 2 * y2 + x2 * y2)) ** 2 + (1 + y2) ** 2
    )
    return num / (n_apex * n_c3)


def gadget_angle(x: float, y: float) -> float:
    """Apex-to-c3 angle in [0, pi/2], from the closed form.

    Agrees with the angle recomputed from the constructed rays to 1e-9.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DegenerateParameterError(f"parameters must be finite, got ({x}, {y})")
    return float(np.arccos(np.clip(gadget_cosine(x, y), -1.0, 1.0)))


def _check_angle(target: float) -> None:
    if not (MIN_GADGET_ANGLE <= target <= MAX_GADGET_ANGLE + 1e-12):
        raise AngleRangeError(
            f"angle {math.degrees(target):.9g} deg outside "
            f"[{math.degrees(MIN_GADGET_ANGLE):.9g}, {math.degrees(MAX_GADGET_ANGLE):.9g}] deg"
        )


def _solve_rising(params, target: float) -> float:
    """Point p of (0, 1] with gadget_angle(*params(p)) = target, bisected
    until the bracket stops shrinking; params maps p to (x, y)."""
    _check_angle(target)
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if gadget_angle(*params(mid)) < target:
            lo = mid
        else:
            hi = mid


def solve_parameter_for_angle(target: float) -> float:
    """Diagonal parameter t with gadget_angle(t, t) = target, by bisection.

    Valid targets lie in [MIN_GADGET_ANGLE, arccos(sqrt(8)/3)].  (0, 1]
    brackets the root because the angle rises strictly from 0 at t = 0 to
    that bound at t = 1.
    """
    return _solve_rising(lambda t: (t, t), target)


def offdiagonal_parameters_for_angle(target: float) -> tuple[float, float]:
    """Parameters (1, y) with gadget_angle(1, y) = target, solving for y.

    Same-angle alternative to the diagonal solver.  The diagonal family has
    an internal symmetry (within a gadget, several rays sit at equal polar
    angle from c2 with azimuths commensurate with the apex-to-c3 step), which
    makes swept copies of a diagonal gadget share more rays than the chained
    construction expects; fixing x = 1 away from y breaks it.  y is bisected
    on (0, 1], where the angle rises strictly from 0 to the bound at y = 1.
    """
    return 1.0, _solve_rising(lambda y: (1.0, y), target)


def gadget_for_angle(target: float, params: tuple[float, float] | None) -> GadgetSet:
    """The gadget whose apex-to-c3 angle is target.

    Raises AngleRangeError, in degrees, when target lies outside
    [MIN_GADGET_ANGLE, arccos(sqrt(8)/3)] or when explicit params (x, y) do
    not realize it to within REALIZE_TOL (a non-finite closed form
    included).  Without params, x = 1 and y is solved for.
    """
    _check_angle(target)
    x, y = params if params is not None else offdiagonal_parameters_for_angle(target)
    realized = gadget_angle(x, y)
    if not abs(realized - target) <= REALIZE_TOL:
        raise AngleRangeError(
            f"gadget at ({x}, {y}) realizes {math.degrees(realized):.9g} deg, "
            f"not {math.degrees(target):.9g} deg"
        )
    return build_gadget(x, y)


@dataclass(frozen=True)
class AdmissiblePairSet:
    """Surviving (value(apex), value(c3)) pairs of the exhaustive enumeration."""

    pairs: frozenset[tuple[int, int]]
    assignment_count: int

    @property
    def forced_one_way(self) -> bool:
        """True when apex = 1 forces c3 = 1, i.e. (1, 0) is excluded."""
        return (1, 0) not in self.pairs

    @property
    def forced_symmetric(self) -> bool:
        """True when apex and c3 are forced to the same value."""
        return (1, 0) not in self.pairs and (0, 1) not in self.pairs


def satisfying_masks(
    node_count: int, edges: Sequence[tuple[int, int]], triads: Sequence[tuple[int, int, int]]
) -> list[int]:
    """All 0/1 assignments of node_count nodes satisfying both coloring
    rules (exactly one 1 per triad, never two adjacent 1s), as bitmasks with
    node i in bit i, by a vectorized exhaustive 2^n scan."""
    survivors: list[int] = []
    chunk = 1 << 20
    for start in range(0, 1 << node_count, chunk):
        masks = np.arange(start, min(start + chunk, 1 << node_count), dtype=np.int64)
        ok = np.ones(masks.shape, dtype=bool)
        for i, j in edges:
            ok &= ((masks >> i) & 1) * ((masks >> j) & 1) == 0
        for a, b, c in triads:
            ok &= ((masks >> a) & 1) + ((masks >> b) & 1) + ((masks >> c) & 1) == 1
        survivors.extend(int(m) for m in masks[ok])
    return survivors


@functools.cache
def _gadget_lemma() -> AdmissiblePairSet:
    masks = satisfying_masks(len(GADGET_ROLES), GADGET_EDGES, GADGET_TRIADS)
    return AdmissiblePairSet(
        pairs=frozenset(((m >> APEX) & 1, (m >> C3) & 1) for m in masks),
        assignment_count=len(masks),
    )


def enumerate_gadget_assignments(g: GadgetSet) -> AdmissiblePairSet:
    """Exhaustively enumerate all 2^10 value maps over the gadget's roles.

    Keeps assignments where each triad has exactly one ray valued 1 and no
    orthogonal pair is doubly valued 1, and reports which (apex, c3) value
    pairs survive together with the survivor count.  The forcing property is
    read off the result, never asserted a priori.  The result depends only
    on the role graph, not on g's coordinates, so it is computed once.
    """
    return _gadget_lemma()


@dataclass(frozen=True)
class BoundReport:
    """Grid + refinement minimization of the apex-to-c3 cosine."""

    min_cosine: float
    argmin: tuple[float, float]
    grid_minima: tuple[tuple[float, float], ...]
    angle: float


#: zoom steps of minimize_gadget_cosine's local refinement
REFINE_ITERS = 6


def minimize_gadget_cosine(grid_n: int = 401) -> BoundReport:
    """Minimize the apex-to-c3 cosine over (x, y) in [-2, 2]^2.

    Coarse grid scan followed by local grid refinement (zoom factor 5 per
    iteration) around the best point.
    """
    if grid_n < 2:
        raise ValueError("grid needs at least 2 points")
    xs = np.linspace(-2.0, 2.0, grid_n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    cos = gadget_cosine(gx, gy)
    best = float(np.min(cos))
    hits = np.argwhere(cos <= best + 1e-12)
    grid_minima = tuple((float(xs[i]), float(xs[j])) for i, j in hits)
    bi, bj = hits[0]
    cx, cy = float(xs[bi]), float(xs[bj])
    half = float(xs[1] - xs[0])
    for _ in range(REFINE_ITERS):
        lx = np.linspace(cx - half, cx + half, 21)
        ly = np.linspace(cy - half, cy + half, 21)
        rx, ry = np.meshgrid(lx, ly, indexing="ij")
        rc = gadget_cosine(rx, ry)
        k = np.unravel_index(np.argmin(rc), rc.shape)
        cx, cy = float(rx[k]), float(ry[k])
        best = min(best, float(rc[k]))
        half /= 5.0
    return BoundReport(
        min_cosine=best,
        argmin=(cx, cy),
        grid_minima=grid_minima,
        angle=float(np.arccos(np.clip(best, -1.0, 1.0))),
    )
