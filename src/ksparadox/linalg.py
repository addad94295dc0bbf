"""Small fixed-size real linear algebra for spin-1/2 and spin-1 measurements.

Rays in R3 carry antipodal identification (v and -v name the same direction),
so every ray is stored unit-normalized with a canonical overall sign.  Rank-1
projectors built from unit vectors satisfy the usual completion (projectors of
a full context sum to the identity) and idempotence identities, and all of
that is checkable here at 1e-12 in plain 64-bit floats.

A spin-1 measurement *context* is an orthonormal triad of rays (three
outcome branches); a spin-1/2 one is its Stern-Gerlach orientation angle
theta, whose two outcome vectors spin_half_eigenvectors returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

ATOL_CONTEXT = 1e-9
SIGN_EPS = 1e-12
UNIT_ROW_TOL = 1e-12  # |norm - 1| a unit row may have (_unit_rows)


class NormalizationError(ValueError):
    """A vector that must be unit length (or normalizable) is not."""


def _integer(value, name: str) -> int:
    """value, an int or a numpy integer but never a bool, as an int;
    TypeError names any other value."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _sign(value, name: str) -> int:
    """value, +1 or -1, as an int: TypeError for a value that is not an
    integer (True and 1.0 too), ValueError for any other integer."""
    if _integer(value, name) not in (+1, -1):
        raise ValueError(f"{name} must be +1 or -1")
    return int(value)


def _float_array(values, name: str) -> np.ndarray:
    """np.array(values, dtype=float), always a new array; TypeError names
    values that numpy reads as text, or an object array (numbers such as
    Fractions convert) holding a str or bytes, which that conversion would
    parse."""
    read = np.asarray(values)
    text = read.dtype.kind == "O" and any(isinstance(v, (str, bytes)) for v in read.flat)
    if read.dtype.kind in "SU" or text:
        raise TypeError(f"{name} must be numbers, not text ({read.dtype})")
    return np.array(values, dtype=float)


@np.errstate(over="ignore")
def _canonical_units(vecs: np.ndarray) -> np.ndarray:
    """Normalize each row of an (n, d) array and fix its overall sign with
    _signed.  The stacked product runs v.dot(v)'s kernel per row, so each
    row keeps its bits.  An overflowing norm is rejected without a numpy
    warning."""
    norms = [math.sqrt(s) for s in (vecs[:, None, :] @ vecs[:, :, None]).ravel().tolist()]
    for i, norm in enumerate(norms):
        if not 1e-9 < norm < math.inf:
            raise NormalizationError(f"cannot normalize {vecs[i]!r} of norm {norm}")
    return _signed(vecs / np.array(norms)[:, None])


@np.errstate(over="ignore")
def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """rows, an (n, d) float array, sign-canonical by _signed; NormalizationError
    names the first row whose norm is not within UNIT_ROW_TOL of 1 (NaN fails
    too, and an overflowing row without a numpy warning)."""
    norms = np.sqrt((rows * rows).sum(axis=1))
    for i in np.flatnonzero(~(abs(norms - 1.0) <= UNIT_ROW_TOL))[:1].tolist():
        raise NormalizationError(f"row {i} is not a finite unit vector: {rows[i].tolist()}")
    return _signed(rows)


def _signed(units: np.ndarray) -> np.ndarray:
    """units with each row negated whose first component of magnitude above
    SIGN_EPS is negative; negation is exact, so canonical rows keep their bits."""
    # the sign of each row's first component above SIGN_EPS, on a walk from
    # the last column back (a unit row has one of at least 1/sqrt(d));
    # argmax and a masked np.negative would map 0.13 MB more of numpy's
    # code into a process that only simulates
    big = np.abs(units) > SIGN_EPS
    lead = units[:, -1]
    for k in range(units.shape[1] - 2, -1, -1):
        lead = np.where(big[:, k], units[:, k], lead)
    return units * np.where(lead < 0.0, -1.0, 1.0)[:, None]


@dataclass(frozen=True)
class Ray3:
    """A direction in R3 with antipodal identification.

    Components are unit-normalized and sign-canonical by _unit_rows, the
    kernel of RaySet's rows: NormalizationError rejects a triple whose norm is
    not within UNIT_ROW_TOL of 1, and a triple whose first component above
    SIGN_EPS is negative is negated, so v and -v compare and hash equal.
    TypeError rejects components that numpy reads as text, as from_vector
    does.  The label is bookkeeping only and does not participate in equality.
    """

    x: float
    y: float
    z: float
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        (row,) = _unit_rows(_float_array([(self.x, self.y, self.z)], "Ray3 components")).tolist()
        for name, c in zip("xyz", row):
            object.__setattr__(self, name, c)

    @classmethod
    def from_vector(cls, v: Iterable[float], label: str = "") -> "Ray3":
        ((x, y, z),) = _canonical_units(_float_array(tuple(v), "vector")[None]).tolist()
        return cls(x, y, z, label)

    @property
    def vec(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def dot(self, other: "Ray3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def angle_to(self, other: "Ray3") -> float:
        """Angle between the two rays in [0, pi/2]."""
        return math.acos(min(1.0, abs(self.dot(other))))


def spin_half_eigenvectors(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Both outcome eigenvectors of the spin measurement at angle theta.

    Returns the orthonormal (plus, minus) pair as arrays of shape (2,):
    (cos theta/2, sin theta/2) and (-sin theta/2, cos theta/2).
    """
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array([c, s]), np.array([-s, c])


def projector_from_vector(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """The rank-1 projector v v^T, a (d, d) array, from a unit vector of
    length d = 2 or 3.

    Raises NormalizationError unless |v| = 1 within 1e-9 (a NaN or infinite
    component fails too), and TypeError for components that numpy reads as
    text.
    """
    u = _float_array(v, "vector")
    if u.ndim != 1 or u.shape[0] not in (2, 3):
        raise ValueError(f"expected a vector of length 2 or 3, got shape {u.shape}")
    if not abs(float(np.linalg.norm(u)) - 1.0) <= ATOL_CONTEXT:
        raise NormalizationError(f"projector source must be unit length, |v| = {np.linalg.norm(u)}")
    return np.outer(u, u)


def spin_operator(theta: float) -> np.ndarray:
    """The spin observable at orientation theta, half the difference of the
    two branch projectors: (1/2) [[cos t, sin t], [sin t, -cos t]].

    Eigenvalues are +-1/2 with eigenvectors spin_half_eigenvectors(theta).
    """
    c, s = math.cos(theta), math.sin(theta)
    return 0.5 * np.array([[c, s], [s, -c]])


def transition_probability_spin_half(
    prep_theta: float, prep_sign: int, meas_theta: float, meas_sign: int
) -> float:
    """Probability that a (prep_theta, prep_sign) branch lands in meas_sign
    at a subsequent measurement along meas_theta.

    With phi = meas_theta - prep_theta the same-sign probability is
    cos^2(phi/2) and the opposite-sign one is its exact complement, so the
    two outcomes sum to 1.0 exactly.  Both signs are the integers +1 or -1
    (_sign).
    """
    same_sign = _sign(prep_sign, "prep_sign") == _sign(meas_sign, "meas_sign")
    phi = meas_theta - prep_theta
    same = math.cos(phi / 2.0) ** 2
    return same if same_sign else 1.0 - same


def spin1_overlap(state: Ray3, outcome: Ray3) -> float:
    """Squared direction cosine between a spin-1 preparation ray and an
    outcome ray; over any full triad the three overlaps sum to 1."""
    return state.dot(outcome) ** 2


@dataclass(frozen=True)
class Context:
    """A complete spin-1 measurement arrangement: an orthonormal triad of
    outcome rays (pairwise dot within 1e-9), stored as a tuple.  The
    constructor raises ValueError otherwise.
    """

    triad: tuple[Ray3, Ray3, Ray3]

    def __post_init__(self) -> None:
        rays = tuple(self.triad)
        object.__setattr__(self, "triad", rays)
        if len(rays) != 3:
            raise ValueError("a spin-1 context needs exactly three rays")
        for i, j in ((0, 1), (0, 2), (1, 2)):
            if abs(rays[i].dot(rays[j])) > ATOL_CONTEXT:
                raise ValueError(
                    f"triad rays {rays[i].label or i!r} and {rays[j].label or j!r} "
                    "are not orthogonal"
                )


def context_for_direction(direction: Ray3) -> Context:
    """Spin-1 context for a field direction: the direction plus a
    deterministic orthonormal completion."""
    try:  # z x direction, or the x axis when that has no direction
        (e1,) = _canonical_units(np.cross([0.0, 0.0, 1.0], direction.vec)[None])
    except NormalizationError:
        e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.cross(direction.vec, e1)
    return Context((direction, Ray3.from_vector(e1), Ray3.from_vector(e2)))


def verify_completion(vectors: Sequence[Sequence[float]] | np.ndarray) -> float:
    """Max absolute entry of (sum of v v^T over a full context's unit
    vectors - identity): the spin-1/2 pair, a triad's vecs or rows of a ray
    matrix.

    Callers assert the result is below their tolerance (1e-9 for generic
    contexts; exact constructions land near 1e-16).
    """
    projs = [projector_from_vector(v) for v in vectors]
    return float(np.max(np.abs(sum(projs) - np.eye(len(projs[0])))))
