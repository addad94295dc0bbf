"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
from time import perf_counter

import numpy as np
import pytest

from ksparadox.gadget import (
    APEX,
    C3,
    build_gadget,
    copy_margins,
    enumerate_gadget_assignments,
    gadget_angle,
    minimize_gadget_cosine,
    solve_parameter_for_angle,
)
from ksparadox.ksgraph import RaySet, assemble_ks_set, build_orthogonality_graph, rotation_matrix
from ksparadox.linalg import (
    Context,
    Ray3,
    context_for_direction,
    projector_from_vector,
    spin1_overlap,
    spin_half_eigenvectors,
    spin_operator,
    verify_completion,
)
from ksparadox.simulate import (
    EnsembleSpec,
    check_additivity_relation,
    run_sequence,
    sample_context_tables,
    vn_continuity_scan,
    vn_value_additivity_failure,
)
from ksparadox.solver import (
    check_colorability,
    enumerate_all_colorings,
    forcing_chain_check,
)

BOUND_COSINE = math.sqrt(8.0) / 3.0
STEP = math.radians(18.0)
N = 100_000


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _assert_all(num: int, checks: dict[str, bool], detail: str) -> None:
    ok = all(checks.values())
    _report(num, ok, detail)
    assert ok, f"criterion {num} failed: {[k for k, v in checks.items() if not v]}"


@pytest.fixture(scope="module")
def default_rayset():
    return assemble_ks_set()


@pytest.fixture(scope="module")
def default_graph(default_rayset):
    return build_orthogonality_graph(default_rayset)


def test_criterion_01_bound_reproduction():
    t0 = perf_counter()
    report = minimize_gadget_cosine()
    elapsed = perf_counter() - t0
    checks = {
        "min cosine within 1e-6 of sqrt(8)/3": abs(report.min_cosine - BOUND_COSINE) <= 1e-6,
        "attained at |x| = |y| = 1": set(report.grid_minima)
        == {(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)},
        "refined argmin at unit parameters": abs(abs(report.argmin[0]) - 1.0) <= 1e-6
        and abs(abs(report.argmin[1]) - 1.0) <= 1e-6,
        "runtime under 5 s": elapsed < 5.0,
    }
    _assert_all(
        1, checks, f"min cos = {report.min_cosine:.9f} in {elapsed:.2f} s"
    )


def test_criterion_02_gadget_algebra():
    rng = np.random.default_rng(20260810)
    worst_edge = 0.0
    worst_angle_gap = 0.0
    for x, y in rng.uniform(-2.0, 2.0, size=(1000, 2)):
        g = build_gadget(x, y)
        worst_edge = max(worst_edge, copy_margins(g.units[None])[0][0])
        worst_angle_gap = max(
            worst_angle_gap,
            abs(gadget_angle(x, y) - Ray3(*g.units[APEX]).angle_to(Ray3(*g.units[C3]))),
        )
    checks = {
        "all 15 relations within 1e-9 over 1000 draws": worst_edge <= 1e-9,
        "closed form vs constructed rays within 1e-9": worst_angle_gap <= 1e-9,
    }
    _assert_all(
        2,
        checks,
        f"worst edge residual {worst_edge:.2e}, worst angle gap {worst_angle_gap:.2e}",
    )


def test_criterion_03_forcing_lemma():
    t18 = solve_parameter_for_angle(STEP)
    results = {}
    for name, (x, y) in {"x=y=1": (1.0, 1.0), "x=y=t(18deg)": (t18, t18)}.items():
        t0 = perf_counter()
        pairs = enumerate_gadget_assignments(build_gadget(x, y))
        results[name] = (pairs, perf_counter() - t0)
    checks = {
        "runtime under 1 s per gadget": all(dt < 1.0 for _, dt in results.values()),
        "(1,0) excluded at both parameters": all(
            (1, 0) not in p.pairs for p, _ in results.values()
        ),
        "(0,1) excluded at both parameters": all(
            (0, 1) not in p.pairs for p, _ in results.values()
        ),
    }
    detail = "; ".join(
        f"{name}: pairs {sorted(p.pairs)} ({p.assignment_count} assignments, {dt * 1e3:.1f} ms)"
        for name, (p, dt) in results.items()
    )
    _assert_all(3, checks, detail)


def test_criterion_04_paradox(default_rayset, default_graph):
    t0 = perf_counter()
    verdict = check_colorability(default_graph)
    chain = forcing_chain_check(STEP, default_rayset)
    elapsed = perf_counter() - t0
    checks = {
        "search verdict UNSAT": verdict.outcome == "UNSAT",
        "all 15 links forced": len(chain.links) == 15 and chain.all_links_forced,
        "axes contradiction confirmed": chain.contradiction_confirmed,
        "combined runtime under 60 s": elapsed < 60.0,
    }
    _assert_all(
        4,
        checks,
        f"UNSAT in {verdict.stats.nodes_explored} decisions; "
        f"chain cyclic={chain.cyclic}; {elapsed:.2f} s",
    )


def test_criterion_05_ray_census(default_rayset):
    rs = default_rayset
    triad_merges = [m for m in rs.merges if not m[0].endswith("apex")]
    axis_roles = []
    for idx in rs.axis_nodes:
        axis_roles.extend(
            lb.split(":")[1]
            for lb, k in rs.label_to_index.items()
            if k == idx and not lb.endswith("apex")
        )
    checks = {
        "135 labeled triad rays": len(rs.triad_index) == 135,
        "117 distinct rays": len(rs.rays) == 117,
        "18 overlaps": len(triad_merges) == 18,
        "overlaps split as 15 c2-role + 3 c3-role labels on the axes": (
            axis_roles.count("c2") == 15 and axis_roles.count("c3") == 3
        ),
    }
    _assert_all(
        5,
        checks,
        f"135 -> {len(rs.rays)} ({len(triad_merges)} overlaps; axis labels by role: "
        f"c2 x{axis_roles.count('c2')}, c3 x{axis_roles.count('c3')}, "
        f"c1 x{axis_roles.count('c1')})",
    )


def test_criterion_06_projector_identities():
    rng = np.random.default_rng(6)
    # each context as its unit vectors: 500 spin-1/2 pairs, then 500 triads
    contexts = [spin_half_eigenvectors(rng.uniform(-2 * math.pi, 2 * math.pi)) for _ in range(500)]
    for _ in range(500):
        axis = rng.normal(size=3)
        rot = rotation_matrix(axis / np.linalg.norm(axis), rng.uniform(0, 2 * math.pi))
        ctx = Context(tuple(Ray3.from_vector(rot[:, k]) for k in range(3)))
        contexts.append([r.vec for r in ctx.triad])
    worst_completion = max(map(verify_completion, contexts))
    projectors = [projector_from_vector(v) for vectors in contexts for v in vectors]
    worst_idem = max(float(np.max(np.abs(p @ p - p))) for p in projectors)
    worst_sym = max(float(np.max(np.abs(p - p.T))) for p in projectors)
    checks = {
        "completion residual <= 1e-12": worst_completion <= 1e-12,
        "idempotence residual <= 1e-12": worst_idem <= 1e-12,
        "symmetry residual <= 1e-12": worst_sym <= 1e-12,
    }
    _assert_all(
        6,
        checks,
        f"worst completion {worst_completion:.2e}, idempotence {worst_idem:.2e} "
        "over 1000 contexts",
    )


def test_criterion_07_operator_identity_and_value_failure():
    lhs = spin_operator(math.pi / 4)
    rhs = (spin_operator(0.0) + spin_operator(math.pi / 2)) / math.sqrt(2.0)
    residual = float(np.max(np.abs(lhs - rhs)))
    report = vn_value_additivity_failure()
    checks = {
        "operator identity residual <= 1e-12": residual <= 1e-12,
        "all 4 value combinations fail exactly": report.consistent_count == 0
        and len(report.rows) == 4,
    }
    _assert_all(
        7, checks, f"identity residual {residual:.2e}; {report.summary()}"
    )


def test_criterion_08_sg_statistics():
    deviations = {}
    ok_angles = True
    for deg in (0.0, 30.0, 45.0, 90.0, 180.0):
        theta = math.radians(deg)
        counts = run_sequence(EnsembleSpec(N, 0.0, +1, seed=7), [theta])
        p = math.cos(theta / 2.0) ** 2
        sigma = math.sqrt(p * (1.0 - p) / N)
        dev = abs(counts[0].fraction_plus - p)
        deviations[deg] = dev
        ok_angles &= dev <= 4.0 * sigma + 1e-12
    _, branches = run_sequence(
        EnsembleSpec(N, None, seed=7), [math.radians(45.0)] * 2, return_branches=True
    )
    flips = int(np.count_nonzero(branches[0] != branches[1]))
    checks = {
        "up-fractions within 4 sigma at all five angles": ok_angles,
        "repeat measurement flips zero branches": flips == 0,
    }
    _assert_all(
        8,
        checks,
        "max |frac - p| = " + f"{max(deviations.values()):.2e}; flips = {flips}",
    )


def test_criterion_09_ensemble_additivity():
    result = check_additivity_relation(EnsembleSpec(N, 0.0, +1, seed=7))
    means = {}
    for n in (10**3, 10**5, 10**7):
        vals = [
            abs(
                check_additivity_relation(
                    EnsembleSpec(n, 0.0, +1, seed=s)
                ).residual
            )
            for s in range(5)
        ]
        means[n] = float(np.mean(vals))
    checks = {
        "residual within 4 propagated sigma at n = 1e5": abs(result.residual)
        <= 4.0 * result.sigma,
        "mean |residual| decreases 1e3 -> 1e5 -> 1e7": means[10**3] > means[10**5]
        > means[10**7],
        "two decades of n shrink the residual at least tenfold": means[10**3]
        > 10.0 * means[10**7],
    }
    _assert_all(
        9,
        checks,
        f"residual {result.residual:+.2e} (sigma {result.sigma:.2e}); "
        f"mean |residual| {means[10**3]:.2e} / {means[10**5]:.2e} / {means[10**7]:.2e}",
    )


def test_criterion_10_contextual_model():
    prep = Ray3.from_vector((1.0, 1.0, 1.0))
    ctx_z = context_for_direction(Ray3.from_vector((0, 0, 1), "z"))
    ctx_x = context_for_direction(Ray3.from_vector((1, 0, 0), "x"))
    picks = sample_context_tables(prep, [ctx_z, ctx_x], N, seed=7)
    rows = np.eye(3, dtype=int)[picks]
    row_sums_exact = bool(np.all(rows.sum(axis=2) == 1))

    marginals_ok = True
    for j, ctx in enumerate((ctx_z, ctx_x)):
        for k in range(3):
            p = spin1_overlap(prep, ctx.triad[k])
            f = float(np.mean(picks[:, j] == k))
            marginals_ok &= abs(f - p) <= 4.0 * math.sqrt(p * (1.0 - p) / N)

    y_axis = Ray3.from_vector((0, 1, 0))
    jz = next(k for k, r in enumerate(ctx_z.triad) if r == y_axis)
    jx = next(k for k, r in enumerate(ctx_x.triad) if r == y_axis)
    differ = float(np.mean((picks[:, 0] == jz) != (picks[:, 1] == jx)))
    p_shared = 1.0 / 3.0
    predicted = 2.0 * p_shared * (1.0 - p_shared)
    sigma = math.sqrt(predicted * (1.0 - predicted) / N)
    checks = {
        "every row sums to exactly 1": row_sums_exact,
        "single-context marginals within 4 sigma": marginals_ok,
        "shared-ray disagreement within 4 sigma of independence": abs(differ - predicted)
        <= 4.0 * sigma,
    }
    _assert_all(
        10,
        checks,
        f"disagreement {differ:.5f} vs independent prediction {predicted:.5f}",
    )


def test_criterion_11_vn_continuity():
    grid = [math.radians(d) for d in range(0, 361)]
    vals = vn_continuity_scan(0.0, grid)
    interior = [v for v in vals if 0.01 < v < 0.99]
    checks = {
        "aligned endpoint exactly 1": abs(vals[0] - 1.0) <= 1e-12,
        "opposite endpoint exactly 0": abs(vals[180] - 0.0) <= 1e-12,
        "values strictly inside (0.01, 0.99) witnessed": len(interior) > 0,
    }
    _assert_all(
        11,
        checks,
        f"{len(interior)} of {len(vals)} overlaps strictly inside (0.01, 0.99)",
    )


def _ball_nodes(rng, adjacency, node_count: int, size: int) -> list[int]:
    start = int(rng.integers(node_count))
    seen = [start]
    frontier = [start]
    while frontier and len(seen) < size:
        nxt = []
        for v in frontier:
            for u in sorted(adjacency[v]):
                if u not in seen:
                    seen.append(u)
                    nxt.append(u)
                    if len(seen) >= size:
                        return seen
        frontier = nxt
    return seen


def test_criterion_12_solver_oracle_equivalence(default_rayset, default_graph):
    rays = default_rayset.rays
    adjacency = default_graph.neighbours
    rng = np.random.default_rng(20260810)
    agreements = 0
    total = 200
    for i in range(total):
        if i % 2 == 0:
            size = int(rng.integers(4, 21))
            nodes = _ball_nodes(rng, adjacency, len(rays), size)
        else:
            size = int(rng.integers(4, 17))
            nodes = list(rng.choice(len(rays), size=size, replace=False))
        labels = [rays[k].label for k in nodes]
        sub = build_orthogonality_graph(RaySet(default_rayset.matrix[nodes], labels))
        verdict = check_colorability(sub)
        solutions = enumerate_all_colorings(sub, cap=20)
        if (verdict.outcome == "SAT") == bool(solutions):
            agreements += 1
    checks = {"200 of 200 verdicts agree with brute force": agreements == total}
    _assert_all(12, checks, f"{agreements}/{total} agreements")
