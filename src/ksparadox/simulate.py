"""Monte Carlo Stern-Gerlach ensembles and the hidden-value demonstrations.

Each simulated particle carries its current eigen-branch (orientation and
sign); at every apparatus it re-branches with the squared half-angle cosine
probability relative to that branch, so repeating an orientation confirms
the previous outcome with no exceptions.  An unpolarized stream is a fair
coin at the first apparatus.

All randomness comes from numpy's PCG64 generator, and the seed plus
generator name travel with every result so runs are reproducible bit for
bit.  Disjoint sub-ensembles derive their streams from (seed, stage index).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import Context, Ray3, spin1_overlap, transition_probability_spin_half

GENERATOR_NAME = "numpy.random.PCG64"


@dataclass(frozen=True)
class EnsembleSpec:
    """Ensemble size, preparation, and random seed.

    prep_theta None means unpolarized; otherwise the stream is the
    (prep_theta, prep_sign) eigen-branch.
    """

    n: int
    prep_theta: float | None
    prep_sign: int = +1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ensemble size must be at least 1")
        if self.prep_theta is not None and not math.isfinite(self.prep_theta):
            raise ValueError("preparation angle must be finite")
        if self.prep_sign not in (+1, -1):
            raise ValueError("prep_sign must be +1 or -1")

    @classmethod
    def prepared(cls, theta: float, sign: int, n: int, seed: int = 0) -> "EnsembleSpec":
        return cls(n=n, prep_theta=theta, prep_sign=sign, seed=seed)

    @classmethod
    def unpolarized(cls, n: int, seed: int = 0) -> "EnsembleSpec":
        return cls(n=n, prep_theta=None, seed=seed)


@dataclass(frozen=True)
class EnsembleCounts:
    """Branch counts for one apparatus stage; counts sum to the total."""

    stage: int
    theta: float
    n_plus: int
    n_minus: int

    def __post_init__(self) -> None:
        if min(self.n_plus, self.n_minus) < 0:
            raise ValueError("branch counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def fraction_plus(self) -> float:
        return self.n_plus / self.total


def _run_stages(
    rng: np.random.Generator,
    spec: EnsembleSpec,
    thetas: Sequence[float],
    keep_branches: bool,
) -> tuple[list[EnsembleCounts], list[np.ndarray]]:
    n = spec.n
    branches: list[np.ndarray] = []
    if spec.prep_theta is None:
        prev_theta = None
        signs = None
    else:
        prev_theta = spec.prep_theta
        signs = np.full(n, spec.prep_sign, dtype=np.int8)
    counts = []
    for stage, theta in enumerate(thetas, start=1):
        u = rng.random(n)
        if signs is None:
            signs = np.where(u < 0.5, 1, -1).astype(np.int8)
        else:
            p_stay = math.cos((theta - prev_theta) / 2.0) ** 2
            signs = np.where(u < p_stay, signs, -signs).astype(np.int8)
        prev_theta = theta
        n_plus = int(np.count_nonzero(signs == 1))
        counts.append(EnsembleCounts(stage=stage, theta=theta, n_plus=n_plus, n_minus=n - n_plus))
        if keep_branches:
            branches.append(signs.copy())
    return counts, branches


def run_sequence(
    spec: EnsembleSpec, apparatuses: Sequence[float], return_branches: bool = False
):
    """Send one ensemble through an ordered list of apparatus orientations.

    Returns the per-stage EnsembleCounts list; with return_branches=True
    also returns the per-stage sign arrays (for exception-free idempotence
    audits).  Identical seeds give bitwise identical results.  Raises
    ValueError for an empty list or an angle that is not finite.
    """
    if not apparatuses:
        raise ValueError("apparatus list must be nonempty")
    if not all(map(math.isfinite, apparatuses)):
        raise ValueError(f"apparatus angles must be finite, got {list(apparatuses)}")
    rng = np.random.default_rng(spec.seed)
    counts, branches = _run_stages(rng, spec, apparatuses, return_branches)
    if return_branches:
        return counts, branches
    return counts


def empirical_spin_average(c: EnsembleCounts) -> float:
    """Half the normalized up/down count difference, in [-1/2, 1/2]."""
    return 0.5 * (c.n_plus - c.n_minus) / c.total


def expected_spin_average(spec: EnsembleSpec, theta: float) -> float:
    """Large-ensemble limit of empirical_spin_average at orientation theta."""
    if spec.prep_theta is None:
        return 0.0
    p_plus = transition_probability_spin_half(spec.prep_theta, spec.prep_sign, theta, +1)
    return 0.5 * (2.0 * p_plus - 1.0)


ADDITIVITY_THETAS = (0.0, math.pi / 4.0, math.pi / 2.0)


@dataclass(frozen=True)
class AdditivityResult:
    """Empirical test of the three-orientation spin-average relation.

    residual = avg(pi/4) - (avg(0) + avg(pi/2)) / sqrt(2), over three
    entirely disjoint sub-ensembles of size n (no particle is measured
    twice).  sigma is the propagated binomial standard deviation of the
    residual under the analytic branch probabilities.
    """

    averages: tuple[float, float, float]
    residual: float
    sigma: float
    n: int
    seed: int
    generator: str = GENERATOR_NAME


def check_additivity_relation(spec: EnsembleSpec) -> AdditivityResult:
    """Measure three disjoint sub-ensembles at orientations 0, pi/4, pi/2
    and report the additivity residual; its magnitude shrinks as 1/sqrt(n).

    Sub-ensemble k draws its stream from entropy (seed, k).
    """
    averages = []
    variance = 0.0
    weights = (-1.0 / math.sqrt(2.0), 1.0, -1.0 / math.sqrt(2.0))
    for k, theta in enumerate(ADDITIVITY_THETAS):
        rng = np.random.default_rng([spec.seed, k])
        counts, _ = _run_stages(rng, spec, [theta], keep_branches=False)
        averages.append(empirical_spin_average(counts[0]))
        if spec.prep_theta is None:
            p = 0.5
        else:
            p = transition_probability_spin_half(spec.prep_theta, spec.prep_sign, theta, +1)
        variance += weights[k] ** 2 * p * (1.0 - p) / spec.n
    residual = averages[1] - (averages[0] + averages[2]) / math.sqrt(2.0)
    return AdditivityResult(
        averages=tuple(averages),
        residual=residual,
        sigma=math.sqrt(variance),
        n=spec.n,
        seed=spec.seed,
    )


@dataclass(frozen=True)
class VnCombination:
    a: float
    b: float
    combined: float
    consistent: bool


@dataclass(frozen=True)
class VnAdditivityReport:
    """Value-level additivity audit over all four +-1/2 combinations."""

    rows: tuple[VnCombination, ...]
    consistent_count: int

    def summary(self) -> str:
        return f"{self.consistent_count} of {len(self.rows)} value combinations consistent"


def vn_value_additivity_failure() -> VnAdditivityReport:
    """Evaluate (a + b)/sqrt(2) for every (a, b) in {+-1/2}^2 and compare,
    exactly, against the allowed values +-1/2.

    Every combination lands on 1/sqrt(2), 0, or -1/sqrt(2): additivity holds
    for ensemble averages but fails for sharp values, all four ways.
    """
    rows = []
    for a in (+0.5, -0.5):
        for b in (+0.5, -0.5):
            combined = (a + b) / math.sqrt(2.0)
            rows.append(
                VnCombination(a=a, b=b, combined=combined, consistent=combined in (+0.5, -0.5))
            )
    return VnAdditivityReport(
        rows=tuple(rows), consistent_count=sum(r.consistent for r in rows)
    )


def vn_continuity_scan(psi_theta: float, grid: Sequence[float]) -> list[float]:
    """Overlap of the psi_theta eigenstate with the phi eigenstate over a
    grid of phi: squared half-angle cosine of (phi - psi).

    The scan is continuous in phi and fills (0, 1), so no dispersion-free
    constraint forcing every overlap to 0 or 1 can hold; only the aligned
    and opposite orientations reach the endpoints.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    return [
        transition_probability_spin_half(psi_theta, +1, phi, +1) for phi in grid
    ]


@dataclass(frozen=True)
class ContextValueTable:
    """One sampled 0/1 value row per context; every row sums to exactly 1."""

    context_labels: tuple[str, ...]
    rows: tuple[tuple[int, ...], ...]
    seed: int
    generator: str = GENERATOR_NAME


def _context_probabilities(preparation: Ray3, context: Context) -> np.ndarray:
    if context.triad is None:
        raise ValueError("contextual sampling needs spin-1 (triad) contexts")
    return np.array([spin1_overlap(preparation, r) for r in context.triad])


def sample_context_tables(
    preparation: Ray3,
    contexts: Sequence[Context],
    n_samples: int,
    seed: int,
) -> np.ndarray:
    """Bulk sampler: (n_samples, n_contexts) array of the triad member index
    valued 1 in each draw.  Contexts are sampled independently of each other
    with the squared-cosine weights of the preparation."""
    rng = np.random.default_rng(seed)
    u = rng.random((n_samples, len(contexts)))
    out = np.empty((n_samples, len(contexts)), dtype=np.int8)
    for j, ctx in enumerate(contexts):
        cum = np.cumsum(_context_probabilities(preparation, ctx))
        out[:, j] = np.minimum(np.searchsorted(cum, u[:, j], side="right"), 2)
    return out


def contextual_hv_sample(
    preparation: Ray3, contexts: Sequence[Context], seed: int
) -> ContextValueTable:
    """Draw one value table: independently per context, exactly one triad
    member receives value 1, chosen with probability spin1_overlap against
    the preparation.

    Contexts sharing a ray may well disagree on it; nothing ties the draws
    together, which is the whole point.
    """
    picks = sample_context_tables(preparation, contexts, 1, seed)[0]
    rows = []
    for pick in picks:
        row = [0, 0, 0]
        row[int(pick)] = 1
        rows.append(tuple(row))
    labels = tuple(
        ctx.b_direction.label or f"context{j}" for j, ctx in enumerate(contexts)
    )
    return ContextValueTable(context_labels=labels, rows=tuple(rows), seed=seed)
