"""Monte Carlo Stern-Gerlach ensembles and the hidden-value demonstrations.

Each simulated particle carries its current eigen-branch (orientation and
sign); at every apparatus it re-branches with the squared half-angle cosine
probability relative to that branch, so repeating an orientation confirms
the previous outcome with no exceptions.  An unpolarized stream is a fair
coin at the first apparatus.

All randomness comes from numpy's PCG64 generator, and the seed plus
generator name travel with every result so runs are reproducible bit for
bit.  The stages of run_sequence share one stream seeded by the seed;
check_additivity_relation's disjoint sub-ensembles derive theirs from
(seed, orientation index).

Draws are made at most DRAW_BLOCK floats at a time into one reused
buffer.  A Generator fills float64 draws from its stream in order, so the
blocks hold the same values as one whole-array draw and the results do
not depend on the block size.  An ensemble keeps one byte of state per
particle (a flip bit against its base sign) plus the draw buffer, so its
memory is n bytes and not n draws; the int8 sign arrays are built
only when run_sequence is asked for them.

The rows (particles, or context-table rows) are split into one range of
whole blocks per CPU this process may run on, and each range runs in its
own thread.  A float64 draw uses exactly one 64-bit PCG64 output, so a
range's generator starts from the seeded state jumped ahead past the
draws of the rows before it (PCG64.advance, O(log n) steps) and draws
the same values a whole-array draw would put there; after each stage it
jumps past the other ranges' draws.  Results therefore do not depend on
the worker count.  numpy releases the interpreter lock inside the draws
and the compare and XOR ufuncs, so the ranges run in parallel, and each
worker keeps its own draw buffer.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import Context, Ray3, spin1_overlap, transition_probability_spin_half

GENERATOR_NAME = "numpy.random.PCG64"
DRAW_BLOCK = 1 << 16


def _check_integer(name: str, value) -> None:
    try:
        operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _check_seed(seed: int) -> None:
    _check_integer("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_ranges(n: int, block: int, stride: int, entropy, work) -> list:
    """Run work(lo, hi, rng) over [0, n) cut into one range of whole
    blocks per worker and return the results in range order.

    rng is a PCG64 Generator seeded from entropy and advanced by lo * stride
    outputs: the stream position of row lo when each row draws stride
    float64s.  Range 0 runs in the calling thread, so a single range starts
    no thread; an exception in any range is raised again here once every
    range has finished.
    """
    blocks = -(-n // block)
    workers = max(1, min(_worker_count(), blocks))
    cuts = [block * (blocks * i // workers) for i in range(workers)] + [n]
    results: list = [None] * workers
    errors: list = [None] * workers

    def run(i: int) -> None:
        lo, hi = cuts[i], cuts[i + 1]
        rng = np.random.Generator(np.random.PCG64(entropy).advance(lo * stride))
        try:
            results[i] = work(lo, hi, rng)
        except BaseException as exc:  # raised again by the caller below
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, workers)]
    for t in threads:
        t.start()
    try:
        run(0)
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


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
        _check_integer("ensemble size", self.n)
        if self.n < 1:
            raise ValueError("ensemble size must be at least 1")
        if self.prep_theta is not None and not math.isfinite(self.prep_theta):
            raise ValueError("preparation angle must be finite")
        if self.prep_sign not in (+1, -1):
            raise ValueError("prep_sign must be +1 or -1")
        _check_seed(self.seed)

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
    entropy,
    spec: EnsembleSpec,
    thetas: Sequence[float],
    keep_branches: bool,
) -> tuple[list[EnsembleCounts], list[np.ndarray]]:
    n = spec.n
    # a particle's sign is base, or -base where flipped is set
    base = +1 if spec.prep_theta is None else spec.prep_sign
    # a draw at or above p_stay flips the particle's branch; an
    # unpolarized first stage is a fair coin on unflipped particles
    p_stays = [
        0.5 if prev is None else transition_probability_spin_half(prev, +1, theta)
        for prev, theta in zip([spec.prep_theta, *thetas], thetas)
    ]
    branches = [np.empty(n, dtype=np.int8) for _ in thetas] if keep_branches else []

    def work(lo: int, hi: int, rng: np.random.Generator) -> list[int]:
        # a particle's stages depend only on its own draws, so each range
        # runs every stage without waiting for the others
        flipped = np.zeros(hi - lo, dtype=bool)
        draws = np.empty(min(hi - lo, DRAW_BLOCK))
        n_flipped = []
        for stage, p_stay in enumerate(p_stays):
            for start in range(0, hi - lo, DRAW_BLOCK):
                block = flipped[start:start + DRAW_BLOCK]
                block ^= rng.random(out=draws[: len(block)]) >= p_stay
            rng.bit_generator.advance(n - (hi - lo))
            n_flipped.append(int(np.count_nonzero(flipped)))
            if keep_branches:
                branches[stage][lo:hi] = np.where(flipped, np.int8(-base), np.int8(base))
        return n_flipped

    counts = []
    per_range = _in_ranges(n, DRAW_BLOCK, 1, entropy, work)
    for stage, (theta, flips) in enumerate(zip(thetas, zip(*per_range)), start=1):
        n_flipped = sum(flips)
        n_plus = n - n_flipped if base == +1 else n_flipped
        counts.append(EnsembleCounts(stage=stage, theta=theta, n_plus=n_plus, n_minus=n - n_plus))
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
    counts, branches = _run_stages(spec.seed, spec, apparatuses, return_branches)
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
        counts, _ = _run_stages([spec.seed, k], spec, [theta], keep_branches=False)
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
    and opposite orientations reach the endpoints.  Raises ValueError for
    an empty grid or an angle that is not finite.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    if not math.isfinite(psi_theta):
        raise ValueError(f"psi angle must be finite, got {psi_theta}")
    if not all(map(math.isfinite, grid)):
        raise ValueError("grid angles must be finite")
    return [
        transition_probability_spin_half(psi_theta, +1, phi, +1) for phi in grid
    ]


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
    """The contextual hidden-value model: an (n_samples, n_contexts) array of
    the triad member valued 1 in each draw, chosen with probability
    spin1_overlap against the preparation.  Contexts are sampled
    independently, so contexts sharing a ray may disagree on its value.

    Raises ValueError for a spin-1/2 context, a negative seed or a negative
    n_samples, and TypeError for an n_samples that is not an integer."""
    _check_integer("n_samples", n_samples)
    if n_samples < 0:
        raise ValueError(f"n_samples must be a non-negative integer, got {n_samples}")
    _check_seed(seed)
    # the pick is the first member whose cumulative overlap exceeds u, or
    # member 2; overlaps are non-negative, so that is the number of the
    # first two cumulative overlaps at or below u
    cum = np.array(
        [np.cumsum(_context_probabilities(preparation, ctx))[:2] for ctx in contexts]
    ).reshape(len(contexts), 2)
    out = np.empty((n_samples, len(contexts)), dtype=np.int8)
    rows = max(1, DRAW_BLOCK // max(1, len(contexts)))

    def work(lo: int, hi: int, rng: np.random.Generator) -> None:
        draws = np.empty((min(hi - lo, rows), len(contexts)))
        for start in range(lo, hi, rows):
            block = out[start:min(start + rows, hi)]
            u = rng.random(out=draws[: len(block)])
            np.add(u >= cum[:, 0], u >= cum[:, 1], out=block, dtype=np.int8)

    _in_ranges(n_samples, rows, len(contexts), seed, work)
    return out
