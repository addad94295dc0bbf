"""Small fixed-size real linear algebra for spin-1/2 and spin-1 measurements.

Rays in R3 carry antipodal identification (v and -v name the same direction),
so every ray is stored unit-normalized with a canonical overall sign.  Rank-1
projectors built from unit vectors satisfy the usual completion (projectors of
a full context sum to the identity) and idempotence identities, and all of
that is checkable here at 1e-12 in plain 64-bit floats.

A measurement *context* is either a Stern-Gerlach orientation angle theta
(spin-1/2, two outcome branches) or an orthonormal triad of rays (spin-1,
three outcome branches).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

ATOL_CONTEXT = 1e-9
SIGN_EPS = 1e-12


class NormalizationError(ValueError):
    """A vector that must be unit length (or normalizable) is not."""


@np.errstate(over="ignore")
def _canonical_units(vecs: Iterable[np.ndarray]) -> list[list[float]]:
    """Normalize each vector and fix its overall sign: the first component
    of magnitude above SIGN_EPS is made positive (antipodal identification).
    An overflowing norm is rejected without a numpy warning; the errstate is
    entered once per call, not once per vector."""
    out = []
    for v in vecs:
        norm = math.sqrt(v.dot(v))  # np.linalg.norm's value, without its overhead
        if not 1e-9 < norm < math.inf:
            raise NormalizationError(f"cannot normalize {v!r} of norm {norm}")
        u = (v / norm).tolist()
        for c in u:
            if abs(c) > SIGN_EPS:
                if c < 0.0:
                    u = [-a for a in u]
                break
        out.append(u)
    return out


@dataclass(frozen=True)
class Ray3:
    """A direction in R3 with antipodal identification.

    Components are unit-normalized (within 1e-12) and sign-canonical: the
    first component of magnitude above 1e-12 is positive.  The label is
    bookkeeping only and does not participate in equality.
    """

    x: float
    y: float
    z: float
    label: str = field(default="", compare=False)

    @classmethod
    def from_vector(cls, v: Iterable[float], label: str = "") -> "Ray3":
        ((x, y, z),) = _canonical_units([np.asarray(tuple(v), dtype=float)])
        return cls(x, y, z, label)

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "Ray3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def angle_to(self, other: "Ray3") -> float:
        """Angle between the two rays in [0, pi/2]."""
        return math.acos(min(1.0, abs(self.dot(other))))

    def relabel(self, label: str) -> "Ray3":
        return Ray3(self.x, self.y, self.z, label)


X_AXIS = Ray3.from_vector((1.0, 0.0, 0.0), "x")
Y_AXIS = Ray3.from_vector((0.0, 1.0, 0.0), "y")
Z_AXIS = Ray3.from_vector((0.0, 0.0, 1.0), "z")


@dataclass(frozen=True)
class SpinHalfVector:
    """Eigenvector of a spin-1/2 measurement at orientation theta.

    The "+" branch is (cos theta/2, sin theta/2), the "-" branch is
    (-sin theta/2, cos theta/2); branch is +1 or -1 accordingly.
    """

    c0: float
    c1: float
    branch: int

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.c0, self.c1])

    def inner(self, other: "SpinHalfVector") -> float:
        return self.c0 * other.c0 + self.c1 * other.c1


def spin_half_eigenvectors(theta: float) -> tuple[SpinHalfVector, SpinHalfVector]:
    """Both outcome eigenvectors of the spin measurement at angle theta.

    Returns an orthonormal (plus, minus) pair.
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    plus = SpinHalfVector(c, s, +1)
    minus = SpinHalfVector(-s, c, -1)
    return plus, minus


@dataclass(frozen=True, eq=False)
class Projector:
    """Rank-1 symmetric idempotent matrix P = v v^T with unit trace."""

    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def symmetry_residual(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.T)))

    def idempotency_residual(self) -> float:
        return float(np.max(np.abs(self.entries @ self.entries - self.entries)))


def projector_from_vector(v: Sequence[float] | np.ndarray) -> Projector:
    """Build the rank-1 projector v v^T from a unit vector of length 2 or 3.

    Raises NormalizationError unless |v| = 1 within 1e-9.
    """
    u = np.asarray(v, dtype=float)
    if u.ndim != 1 or u.shape[0] not in (2, 3):
        raise ValueError(f"expected a vector of length 2 or 3, got shape {u.shape}")
    if abs(float(np.linalg.norm(u)) - 1.0) > ATOL_CONTEXT:
        raise NormalizationError(f"projector source must be unit length, |v| = {np.linalg.norm(u)}")
    return Projector(np.outer(u, u))


def spin_operator(theta: float) -> np.ndarray:
    """The spin observable at orientation theta, half the difference of the
    two branch projectors: (1/2) [[cos t, sin t], [sin t, -cos t]].

    Eigenvalues are +-1/2 with eigenvectors spin_half_eigenvectors(theta).
    """
    c, s = math.cos(theta), math.sin(theta)
    return 0.5 * np.array([[c, s], [s, -c]])


def transition_probability_spin_half(
    prep_theta: float, prep_sign: int, meas_theta: float, meas_sign: int | None = None
) -> float:
    """Probability that a (prep_theta, prep_sign) branch lands in meas_sign
    at a subsequent measurement along meas_theta.

    With phi = meas_theta - prep_theta the same-sign probability is
    cos^2(phi/2) and the opposite-sign one is its exact complement, so the
    two outcomes sum to 1.0 exactly.  meas_sign defaults to prep_sign.
    """
    if prep_sign not in (+1, -1):
        raise ValueError("prep_sign must be +1 or -1")
    if meas_sign is None:
        meas_sign = prep_sign
    elif meas_sign not in (+1, -1):
        raise ValueError("meas_sign must be +1 or -1")
    phi = meas_theta - prep_theta
    same = math.cos(phi / 2.0) ** 2
    return same if meas_sign == prep_sign else 1.0 - same


def spin1_overlap(state: Ray3, outcome: Ray3) -> float:
    """Squared direction cosine between a spin-1 preparation ray and an
    outcome ray; over any full triad the three overlaps sum to 1."""
    return state.dot(outcome) ** 2


@dataclass(frozen=True)
class Context:
    """A complete measurement arrangement.

    Spin-1: an orthonormal triad of outcome rays (pairwise dot below 1e-9).
    Spin-1/2: an orientation angle theta (rotation is taken about the
    laboratory y-axis).
    """

    triad: tuple[Ray3, Ray3, Ray3] | None = None
    theta: float | None = None

    @classmethod
    def spin1(cls, triad: Sequence[Ray3]) -> "Context":
        rays = tuple(triad)
        if len(rays) != 3:
            raise ValueError("a spin-1 context needs exactly three rays")
        for i in range(3):
            for j in range(i + 1, 3):
                if abs(rays[i].dot(rays[j])) > ATOL_CONTEXT:
                    raise ValueError(
                        f"triad rays {rays[i].label or i!r} and {rays[j].label or j!r} "
                        "are not orthogonal"
                    )
        return cls(triad=rays)

    @classmethod
    def spin_half(cls, theta: float) -> "Context":
        if not math.isfinite(theta):
            raise ValueError("theta must be finite")
        return cls(theta=theta)

    def projectors(self) -> tuple[Projector, ...]:
        if self.triad is not None:
            return tuple(projector_from_vector(r.vec) for r in self.triad)
        plus, minus = spin_half_eigenvectors(self.theta)
        return projector_from_vector(plus.vec), projector_from_vector(minus.vec)


def context_for_direction(direction: Ray3) -> Context:
    """Spin-1 context for a field direction: the direction plus a
    deterministic orthonormal completion."""
    zxd = np.cross([0.0, 0.0, 1.0], direction.vec)
    if np.linalg.norm(zxd) <= 1e-9:
        e1 = np.array([1.0, 0.0, 0.0])
    else:
        e1 = zxd / np.linalg.norm(zxd)
    e2 = np.cross(direction.vec, e1)
    return Context.spin1((direction, Ray3.from_vector(e1), Ray3.from_vector(e2)))


def verify_completion(context: Context) -> float:
    """Max absolute entry of (sum of context projectors - identity).

    Callers assert the result is below their tolerance (1e-9 for generic
    contexts; exact constructions land near 1e-16).
    """
    projs = context.projectors()
    total = sum(p.entries for p in projs)
    return float(np.max(np.abs(total - np.eye(projs[0].dim))))
