"""Command-line surface tying the library into reproducible runs.

Angles are taken in degrees on the command line and converted to radians
once, at the boundary.  Every run is deterministic given its flags and
seed; an uncolorable verdict on the assembled set is the expected outcome
and exits 0.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import combinations
from pathlib import Path

from . import __version__
from .emit import (
    census_text,
    counts_to_csv,
    fmt9,
    graph_to_dot,
    to_json,
)
from .gadget import (
    GADGET_ROLES,
    GadgetSet,
    copy_margins,
    enumerate_gadget_assignments,
    gadget_angle,
    gadget_for_angle,
    minimize_gadget_cosine,
)
from .ksgraph import RaySet, assemble_ks_set, build_orthogonality_graph, dedupe_rays
from .linalg import Ray3, context_for_direction, spin_half_eigenvectors
from .simulate import (
    GENERATOR_NAME,
    EnsembleSpec,
    check_additivity_relation,
    empirical_spin_average,
    run_sequence,
    vn_continuity_scan,
    vn_value_additivity_failure,
)
from .solver import check_colorability, forcing_chain_check


def _flag_rays(args: argparse.Namespace, single_gadget: bool) -> GadgetSet | RaySet:
    """The rays --step-angle-deg, --gadget-x and --gadget-y select: one
    gadget, or the swept set.  Explicit parameters must realize the step."""
    if (args.gadget_x is None) != (args.gadget_y is None):
        raise ValueError("provide both --gadget-x and --gadget-y or neither")
    step = math.radians(args.step_angle_deg)
    params = None if args.gadget_x is None else (args.gadget_x, args.gadget_y)
    if single_gadget:
        return gadget_for_angle(step, params)
    return assemble_ks_set(step, gadget_params=params)


def _write(path: str, text: str) -> None:
    Path(path).write_text(text)
    print(f"wrote {path}")


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def cmd_verify_bound(args: argparse.Namespace) -> int:
    report = minimize_gadget_cosine(grid_n=args.grid)
    print(f"min cosine: {fmt9(report.min_cosine)}")
    print(f"argmin: ({fmt9(report.argmin[0])}, {fmt9(report.argmin[1])})")
    print(
        "grid minima: "
        + ", ".join(f"({fmt9(a)}, {fmt9(b)})" for a, b in report.grid_minima)
    )
    print(f"max forced angle: {fmt9(math.degrees(report.angle))} deg")
    return 0


def cmd_build_set(args: argparse.Namespace) -> int:
    rs = _flag_rays(args, single_gadget=False)
    sys.stdout.write(census_text(rs))
    if args.out:
        _write(args.out, to_json(rs.to_dict()))
    return 0


def cmd_check_coloring(args: argparse.Namespace) -> int:
    if args.single_gadget and args.census:
        raise ValueError("--census needs the swept set; it does not apply with --single-gadget")
    source = _flag_rays(args, args.single_gadget)
    graph = build_orthogonality_graph(source)
    verdict = check_colorability(graph)
    outputs = []  # every requested file's text, built before the first write
    if args.census:
        outputs.append((args.census, census_text(source)))
    if args.out:
        outputs.append((args.out, to_json(verdict.to_dict())))
    if args.dot:
        outputs.append((args.dot, graph_to_dot(graph).text))
    if args.single_gadget:
        pairs = enumerate_gadget_assignments(source)
        print(f"verdict: {verdict.outcome}")
        print(f"admissible (apex, c3) pairs: {sorted(pairs.pairs)}")
        print(f"apex=1 forces c3=1: {pairs.forced_one_way}")
        if verdict.witness is not None:
            print(
                "witness: "
                + " ".join(str(verdict.witness[i]) for i in range(graph.node_count))
            )
    else:
        chain = forcing_chain_check(math.radians(args.step_angle_deg), source)
        print(
            f"rays: {len(source.labels)} (from {len(source.triad_index)} labeled), "
            f"edges: {len(graph.edges)}, triads: {len(graph.triads)}"
        )
        print(f"verdict: {verdict.outcome}")
        print(
            f"search: {verdict.stats.nodes_explored} decisions, "
            f"{verdict.stats.propagations} propagations, "
            f"depth {verdict.stats.max_depth}"
        )
        for line in chain.summary():
            print(f"chain: {line}")
    for path, text in outputs:
        _write(path, text)
    return 0


def cmd_verify_gadget(args: argparse.Namespace) -> int:
    gadget = GadgetSet(args.x, args.y)
    angle_formula = gadget_angle(args.x, args.y)
    ((residual, angle_rays),) = copy_margins(gadget.units[None])
    pairs = enumerate_gadget_assignments(gadget)
    print(f"max orthogonality residual: {fmt9(residual)}")
    print(
        f"apex-c3 angle: {fmt9(math.degrees(angle_formula))} deg (closed form), "
        f"{fmt9(math.degrees(angle_rays))} deg (constructed rays)"
    )
    print(f"admissible (apex, c3) pairs: {sorted(pairs.pairs)}")
    print(f"admissible assignments: {pairs.assignment_count}")
    print(f"apex=1 forces c3=1: {pairs.forced_one_way}")
    print(f"symmetric forcing: {pairs.forced_symmetric}")
    try:
        merges = [f"{role}={rep}" for role, rep in dedupe_rays(gadget.units, GADGET_ROLES).merges]
    except ValueError as exc:  # roles within the bound of each other, but not transitively
        merges = [str(exc)]
    if merges:
        print("coinciding roles: " + ", ".join(merges))
    if args.out:
        _write(args.out, to_json(gadget.to_dict()))
    return 0


SPIN_HALF_TABLE_THETAS = (0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0)
SPIN1_TABLE_DIRECTIONS = (
    ((0.0, 0.0, 1.0), "+z"),
    ((-1.0, 0.0, 0.0), "-x"),
    ((0.0, 0.0, -1.0), "-z"),
    ((1.0, 0.0, 0.0), "+x"),
)


def cmd_tables(args: argparse.Namespace) -> int:
    lines = ["table,theta_deg,branch,c0,c1"]
    rows = []
    for theta in SPIN_HALF_TABLE_THETAS:
        deg = fmt9(math.degrees(theta))
        for branch, v in zip("+-", spin_half_eigenvectors(theta)):
            rows.append((deg, branch, v))
            lines.append(f"spin-half,{deg},{branch},{fmt9(v[0])},{fmt9(v[1])}")
    for (di, bi, vi), (dj, bj, vj) in combinations(rows, 2):
        if max(abs(vi - vj)) <= 1e-12:
            lines.append(f"# coincidence: ({di} deg, {bi}) == ({dj} deg, {bj})")
    lines.append("table,context,member,x,y,z")
    triads = []
    for direction, name in SPIN1_TABLE_DIRECTIONS:
        ctx = context_for_direction(Ray3.from_vector(direction, name))
        triads.append((name, ctx.triad))
        for k, r in enumerate(ctx.triad, start=1):
            lines.append(f"spin-1,{name},{k},{fmt9(r.x)},{fmt9(r.y)},{fmt9(r.z)}")
    for (ni, ti), (nj, tj) in combinations(triads, 2):
        shared = set(ti) & set(tj)
        if shared:
            lines.append(
                f"# contexts {ni} and {nj} share {len(shared)} ray(s) (antipodal identification)"
            )
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _parse_prep(text: str) -> tuple[float | None, int]:
    if text == "unpolarized":
        return None, +1
    for prefix, sign in (("up@", +1), ("down@", -1)):
        if text.startswith(prefix):
            return math.radians(float(text[len(prefix):])), sign
    raise ValueError(f"preparation {text!r} is not up@DEG, down@DEG, or unpolarized")


def cmd_simulate(args: argparse.Namespace) -> int:
    prep_theta, prep_sign = _parse_prep(args.prep)
    spec = EnsembleSpec(n=args.n, prep_theta=prep_theta, prep_sign=prep_sign, seed=args.seed)
    thetas = [math.radians(d) for d in args.measure]
    counts = run_sequence(spec, thetas)
    print(f"generator: {GENERATOR_NAME}, seed: {args.seed}")
    for c in counts:
        print(
            f"stage {c.stage} @ {fmt9(math.degrees(c.theta))} deg: "
            f"n+={c.n_plus} n-={c.n_minus} "
            f"up-fraction {fmt9(c.fraction_plus)} "
            f"spin average {fmt9(empirical_spin_average(c))}"
        )
    if args.csv:
        _write(args.csv, counts_to_csv(counts, args.seed))
    return 0


def cmd_vn(args: argparse.Namespace) -> int:
    # every input is checked before the first line is printed
    spec = EnsembleSpec(n=args.n, prep_theta=0.0, seed=args.seed) if args.ensemble else None
    if args.continuity:
        degrees = _degree_grid(args.grid)
        overlaps = vn_continuity_scan(
            math.radians(args.psi), [math.radians(d) for d in degrees]
        )
    report = vn_value_additivity_failure()
    for row in report.rows:
        verdict = "consistent" if row.consistent else "not an allowed value"
        print(
            f"({fmt9(row.a)}) + ({fmt9(row.b)}) -> {fmt9(row.combined)}: {verdict}"
        )
    print(report.summary())
    if spec is not None:
        result = check_additivity_relation(spec)
        print(
            f"ensemble residual (n={result.n}, seed={result.seed}, "
            f"generator={result.generator}): "
            f"{fmt9(result.residual)} (sigma {fmt9(result.sigma)})"
        )
    if args.continuity:
        print(f"continuity scan: {len(overlaps)} overlaps for psi = {fmt9(args.psi)} deg")
        for d, val in zip(degrees, overlaps):
            print(f"phi {fmt9(d)} deg: {fmt9(val)}")
    return 0


def _degree_grid(count: int) -> list[float]:
    if count < 2:
        raise ValueError("grid needs at least 2 points")
    return [360.0 * k / (count - 1) for k in range(count)]


def cmd_emit_diagram(args: argparse.Namespace) -> int:
    graph = build_orthogonality_graph(_flag_rays(args, args.single_gadget))
    _write_or_print(graph_to_dot(graph).text, args.out)
    return 0


def _add_gadget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--step-angle-deg", type=float, default=18.0)
    p.add_argument("--gadget-x", type=float, default=None)
    p.add_argument("--gadget-y", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksparadox",
        description="Kochen-Specker ray sets: construction, coloring search, "
        "and Stern-Gerlach ensemble simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-bound", help="minimize the apex-c3 cosine over the parameter square")
    p.add_argument("--grid", type=int, default=401)
    p.set_defaults(func=cmd_verify_bound)

    p = sub.add_parser("build-set", help="assemble the swept ray set and print its census")
    _add_gadget_flags(p)
    p.add_argument("--out", default=None, help="write the ray set as JSON")
    p.set_defaults(func=cmd_build_set)

    p = sub.add_parser("check-coloring", help="run the colorability search and chain audit")
    _add_gadget_flags(p)
    p.add_argument("--single-gadget", action="store_true")
    p.add_argument("--out", default=None, help="write the verdict as JSON")
    p.add_argument("--dot", default=None, help="write the diagram as DOT")
    p.add_argument("--census", default=None, help="write the census as text")
    p.set_defaults(func=cmd_check_coloring)

    p = sub.add_parser("verify-gadget", help="audit one gadget's algebra and forcing")
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--y", type=float, default=1.0)
    p.add_argument("--out", default=None, help="write the gadget as JSON")
    p.set_defaults(func=cmd_verify_gadget)

    p = sub.add_parser("tables", help="eigenvector tables for the standard orientations")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("simulate", help="run a Stern-Gerlach apparatus sequence")
    p.add_argument("--prep", default="unpolarized", help="up@DEG, down@DEG, or unpolarized")
    p.add_argument("--measure", type=float, action="append", required=True,
                   help="apparatus orientation in degrees (repeatable)")
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("vn", help="value-additivity and continuity reports")
    p.add_argument("--ensemble", action="store_true", help="add the empirical residual")
    p.add_argument("--continuity", action="store_true")
    p.add_argument("--psi", type=float, default=0.0)
    p.add_argument("--grid", type=int, default=37)
    p.add_argument("--n", type=int, default=100000)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_vn)

    p = sub.add_parser("emit-diagram", help="write the orthogonality diagram as DOT")
    _add_gadget_flags(p)
    p.add_argument("--single-gadget", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_emit_diagram)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
