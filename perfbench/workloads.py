"""The benchmark's four workloads.

Each workload has a repeatable set-up (inputs, references, one warm-up
operation), one operation that the closed loop repeats and checks, and a
probe that the traced run adds after the loop to fill the per-layer
counters.  Why each workload exists:

- paper117: what users run, a `check-coloring` CLI process on the paper's
  117-ray set; dominated by interpreter start, import and the chain audit,
  it bypasses the solver (about 130 decisions).
- chain-k24: the closed step-3.75 degree sweep (k = 24), the first of the
  family whose graph has loose edges; the search refutes it with about
  6e4 decisions, 25 times as many as at k = 20, and is the largest layer.
  k = 36 would be solve-bound to 90%, but its 7 s operations leave too
  few samples in a run to give a steady median on a shared host.
- open-k40: an open step-2.25 degree chain (legs 39/40/38); the same
  layers with a satisfiable result, so assemble, graph and the chain audit
  dominate and the solver looks for a witness instead of refuting.
- ensemble: Stern-Gerlach simulation only; the control on which any
  graph-side or solver change should show no effect.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

from ksparadox import (
    DEFAULT_STEP_ANGLE,
    EnsembleSpec,
    Ray3,
    RotationStep,
    assemble_ks_set,
    build_gadget,
    build_orthogonality_graph,
    check_additivity_relation,
    check_colorability,
    context_for_direction,
    enumerate_gadget_assignments,
    forcing_chain_check,
    offdiagonal_parameters_for_angle,
    run_sequence,
    sample_context_tables,
)
from ksparadox.emit import census_text, graph_to_dot, to_json

from checks import (
    additivity_ok,
    context_frequencies_ok,
    guard_band,
    ray_matrix,
    triangle_count,
    witness_ok,
)

CHILD_TIMEOUT_S = 60
PROBE_REPS = 5
# Closed sweeps whose exact counters are printed once per traced chain-k24
# run; k = 38 and 40 are left out because their searches take minutes.
FAMILY_K = (5, 12, 20, 24, 30, 36)
PAPER117_FILES = ("verdict.json", "graph.dot", "census.txt")


def sweep_schedule(step: float, legs: tuple[int, int, int]) -> tuple[RotationStep, ...]:
    """Three legs of steps about c2, joined by 90-degree pivots about c3."""
    pivot = RotationStep("c3", math.pi / 2.0, 1, emit=False)
    return (
        RotationStep("c2", step, legs[0]),
        pivot,
        RotationStep("c2", step, legs[1]),
        pivot,
        RotationStep("c2", step, legs[2]),
    )


def closed_sweep(k: int) -> tuple[float, tuple[RotationStep, ...]]:
    step = math.radians(90.0 / k)
    return step, sweep_schedule(step, (k - 1, k, k))


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Verdict:
    """Schedule to checked verdict: assemble, graph, solve, chain audit."""

    def __init__(self, tracer, step, schedule, expected: str) -> None:
        with tracer.span("ksgraph.assemble"):
            self.rays = assemble_ks_set(step, schedule=schedule)
        with tracer.span("ksgraph.graph"):
            self.graph = build_orthogonality_graph(self.rays)
        with tracer.span("solver.solve"):
            self.result = check_colorability(self.graph)
        with tracer.span("solver.chain"):
            self.chain = forcing_chain_check(step, self.rays)
        with tracer.span("bench.check"):
            self.ok = self._check(expected)

    def _check(self, expected: str) -> bool:
        g = self.graph
        if self.result.outcome != expected:
            return False
        if triangle_count(g.node_count, g.edges) != len(g.triads):
            return False
        if expected == "UNSAT":
            return self.chain.contradiction_confirmed
        return not self.chain.contradiction_confirmed and witness_ok(
            g.node_count, g.edges, g.triads, self.result.witness.values
        )

    def counters(self) -> dict[str, float]:
        n = len(self.rays.rays)
        stats = self.result.stats
        out = {
            "ksgraph.labels": len(self.rays.label_to_index),
            "ksgraph.merges": len(self.rays.merges),
            "ksgraph.distinct_rays": n,
            "ksgraph.pairs": n * (n - 1) // 2,
            "ksgraph.edges": len(self.graph.edges),
            "ksgraph.triads": len(self.graph.triads),
            "solver.decisions": stats.nodes_explored,
            "solver.propagations": stats.propagations,
            "solver.max_depth": stats.max_depth,
            "solver.certificate_bytes": len(self.result.certificate or b""),
            "solver.links": len(self.chain.links),
        }
        band = guard_band(ray_matrix(self.rays.rays), self.graph.edges)
        out.update({f"ksgraph.{k}": v for k, v in band.items()})
        return out

    def emitted(self) -> dict[str, str]:
        """The verdict JSON, DOT diagram and census text the CLI writes."""
        return {
            "verdict.json": to_json(self.result.to_dict()),
            "graph.dot": graph_to_dot(self.graph).text,
            "census.txt": census_text(self.rays),
        }


def probe_gadget_and_emit(tracer, step: float, verdict: Verdict, counters: dict) -> dict:
    """Time the gadget layer's public calls and the emitters on one result."""
    for _ in range(PROBE_REPS):
        with tracer.span("gadget.params"):
            x, y = offdiagonal_parameters_for_angle(step)
        gadget = build_gadget(x, y)
        with tracer.span("gadget.enumerate"):
            enumerate_gadget_assignments(gadget)
    with tracer.span("emit.render"):
        texts = verdict.emitted()
    counters["emit.bytes"] = sum(len(t.encode()) for t in texts.values())
    counters.update(verdict.counters())
    return texts


class RaySetWorkload:
    """In-process verdicts on one sweep of the step-90/k family."""

    def __init__(self, step: float, legs: tuple[int, int, int], expected: str) -> None:
        self.step, self.legs, self.expected = step, legs, expected
        self.last: Verdict | None = None

    def setup(self, tracer) -> bool:
        self.schedule = sweep_schedule(self.step, self.legs)
        step, schedule = closed_sweep(5)
        return Verdict(tracer, step, schedule, "UNSAT").ok

    def op(self, tracer) -> bool:
        self.last = Verdict(tracer, self.step, self.schedule, self.expected)
        return self.last.ok

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def probe(self, tracer, counters: dict) -> bool:
        probe_gadget_and_emit(tracer, self.step, self.last, counters)
        return True


class ChainK24(RaySetWorkload):
    """The closed sweep on which the search does the most work; its probe
    also records the family."""

    K = 24

    def __init__(self) -> None:
        super().__init__(math.radians(90.0 / self.K), (self.K - 1, self.K, self.K), "UNSAT")
        self.family: list[dict] = []

    def probe(self, tracer, counters: dict) -> bool:
        super().probe(tracer, counters)
        was, tracer.enabled = tracer.enabled, False
        ok = True
        for k in FAMILY_K:
            if k == self.K:
                self.family.append(family_row(k, counters))
                continue
            step, schedule = closed_sweep(k)
            v = Verdict(tracer, step, schedule, "UNSAT")
            ok &= v.ok
            self.family.append(family_row(k, v.counters()))
        tracer.enabled = was
        return ok


def family_row(k: int, c: dict) -> dict:
    return {
        "k": k,
        "rays": c["ksgraph.distinct_rays"],
        "edges": c["ksgraph.edges"],
        "loose_edges": c["ksgraph.loose_edges"],
        "triads": c["ksgraph.triads"],
        "decisions": c["solver.decisions"],
        "propagations": c["solver.propagations"],
        "certificate_bytes": c["solver.certificate_bytes"],
    }


class Paper117:
    """`ksparadox check-coloring --out --dot --census` as a child process,
    checked byte for byte against the outputs captured at the commit that
    added this benchmark."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.cmd = [
            sys.executable, "-m", "ksparadox.cli", "check-coloring",
            "--out", "verdict.json", "--dot", "graph.dot", "--census", "census.txt",
        ]

    def setup(self, tracer) -> bool:
        self.work.mkdir(parents=True, exist_ok=True)
        ref_dir = Path(__file__).resolve().parent / "reference" / "paper117"
        self.reference = {
            name: (ref_dir / name).read_bytes() for name in ("stdout.txt",) + PAPER117_FILES
        }
        return self.op(tracer)

    def _child(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            args, cwd=self.work, capture_output=True, timeout=CHILD_TIMEOUT_S
        )

    def op(self, tracer) -> bool:
        for name in PAPER117_FILES:
            (self.work / name).unlink(missing_ok=True)
        with tracer.span("cli.process"):
            proc = self._child(self.cmd)
        with tracer.span("bench.check"):
            return (
                proc.returncode == 0
                and proc.stdout == self.reference["stdout.txt"]
                and all(
                    (self.work / name).read_bytes() == self.reference[name]
                    for name in PAPER117_FILES
                )
            )

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def probe(self, tracer, counters: dict) -> bool:
        ok = True
        for _ in range(PROBE_REPS):
            with tracer.span("cli.interpreter"):
                ok &= self._child([sys.executable, "-c", "pass"]).returncode == 0
            with tracer.span("cli.import"):
                ok &= self._child([sys.executable, "-c", "import ksparadox"]).returncode == 0
        # The same pipeline the CLI runs, in process, for its layer times.
        for _ in range(3):
            verdict = Verdict(tracer, DEFAULT_STEP_ANGLE, None, "UNSAT")
            ok &= verdict.ok
        texts = probe_gadget_and_emit(tracer, DEFAULT_STEP_ANGLE, verdict, counters)
        ok &= all(texts[name].encode() == self.reference[name] for name in PAPER117_FILES)
        return ok


class Ensemble:
    """A long apparatus sequence, the additivity relation and contextual
    value tables, all drawn from the workload seed."""

    PARTICLES = 1_000_000
    STAGES = 32
    CONTEXTS = 16
    CONTEXT_SAMPLES = 200_000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference = None

    def setup(self, tracer) -> bool:
        rng = random.Random(self.seed)
        self.thetas = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(self.STAGES)]
        self.spec = EnsembleSpec(
            n=self.PARTICLES, prep_theta=rng.uniform(0.0, 2.0 * math.pi),
            prep_sign=rng.choice((+1, -1)), seed=self.seed,
        )
        self.additivity_spec = EnsembleSpec(
            n=self.PARTICLES, prep_theta=rng.uniform(0.0, 2.0 * math.pi), seed=self.seed + 1
        )

        def direction():
            return Ray3.from_vector([rng.gauss(0.0, 1.0) for _ in range(3)])

        self.preparation = direction()
        self.contexts = [context_for_direction(direction()) for _ in range(self.CONTEXTS)]
        prep = ray_matrix([self.preparation])[0]
        self.probabilities = np.array([(ray_matrix(c.triad) @ prep) ** 2 for c in self.contexts])
        # the first set-up's result is the reference later runs must repeat
        result = self._run(tracer)
        if self.reference is None:
            self.reference = result[1]
        return result[0]

    def _run(self, tracer) -> tuple[bool, tuple]:
        with tracer.span("simulate.run_sequence"):
            counts = run_sequence(self.spec, self.thetas)
        with tracer.span("simulate.additivity"):
            add = check_additivity_relation(self.additivity_spec)
        with tracer.span("simulate.context_tables"):
            picks = sample_context_tables(
                self.preparation, self.contexts, self.CONTEXT_SAMPLES, self.seed
            )
        with tracer.span("bench.check"):
            fingerprint = (
                tuple(c.n_plus for c in counts),
                add.averages, add.residual, add.sigma,
                hashlib.sha256(np.ascontiguousarray(picks).tobytes()).hexdigest(),
            )
            ok = (
                len(counts) == self.STAGES
                and all(
                    c.n_plus + c.n_minus == self.PARTICLES and 0 <= c.n_plus for c in counts
                )
                and additivity_ok(add.residual, add.sigma)
                and context_frequencies_ok(picks, self.probabilities)
                and (self.reference is None or fingerprint == self.reference)
            )
        return ok, fingerprint

    def op(self, tracer) -> bool:
        return self._run(tracer)[0]

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def probe(self, tracer, counters: dict) -> bool:
        stages = self.PARTICLES * self.STAGES
        counters["simulate.particle_stages"] = stages
        # computed, not measured: one float64 draw plus one int8 sign read
        # and written per particle-stage; cache misses are not counted
        counters["simulate.bytes_computed"] = 10 * stages
        counters["simulate.context_samples"] = self.CONTEXT_SAMPLES * self.CONTEXTS
        return True


def make(name: str, seed: int, work: Path):
    if name == "paper117":
        return Paper117(work)
    if name == "chain-k24":
        return ChainK24()
    if name == "open-k40":
        return RaySetWorkload(math.radians(2.25), (39, 40, 38), "SAT")
    return Ensemble(seed)
