"""Colorability search, the exhaustive oracle, and the forcing chain."""

import dataclasses
import hashlib
import json
import math
import zlib
from array import array

import numpy as np
import pytest

from ksparadox import ksgraph, solver
from ksparadox.gadget import (
    APEX,
    C3,
    GADGET_ROLES,
    MAX_GADGET_ANGLE,
    build_gadget,
    enumerate_gadget_assignments,
    offdiagonal_parameters_for_angle,
    solve_parameter_for_angle,
)
from ksparadox.ksgraph import (
    OrthogonalityGapError,
    OrthogonalityGraph,
    RaySet,
    RotationStep,
    _edge_bound,
    _transformed,
    assemble_ks_set,
    build_orthogonality_graph,
    default_schedule,
    rotation_matrix,
)
from ksparadox.linalg import Ray3
from ksparadox.solver import (
    ChainIntegrityError,
    IncompleteAssignmentError,
    SizeLimitError,
    ValueAssignment,
    Violation,
    check_colorability,
    enumerate_all_colorings,
    forcing_chain_check,
    verify_assignment,
)

A1, A2, B1 = (GADGET_ROLES.index(role) for role in ("a1", "a2", "b1"))
AXES_GRAPH = build_orthogonality_graph(RaySet(np.eye(3), ("x", "y", "z")))


def single_gadget_graph():
    gadget = build_gadget(*offdiagonal_parameters_for_angle(math.radians(18.0)))
    return gadget, build_orthogonality_graph(gadget)


class TestCheckColorability:
    def test_single_triad_sat(self):
        verdict = check_colorability(AXES_GRAPH)
        assert verdict.outcome == "SAT"
        assert not verify_assignment(AXES_GRAPH, verdict.witness)
        assert len(enumerate_all_colorings(AXES_GRAPH)) == 3

    def test_two_triads_sharing_a_ray(self):
        g = OrthogonalityGraph(
            5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
        )
        assert len(g.triads) == 2
        assert len(enumerate_all_colorings(g)) == 5
        assert check_colorability(g).outcome == "SAT"

    def test_gadget_sat_with_forced_pair(self):
        gadget, graph = single_gadget_graph()
        verdict = check_colorability(graph)
        assert verdict.outcome == "SAT"
        assert not verify_assignment(graph, verdict.witness)
        pairs = enumerate_gadget_assignments(gadget)
        solutions = enumerate_all_colorings(graph)
        assert len(solutions) == pairs.assignment_count == 22
        # apex is node 0, c3 is node 9 in ray order
        seen = {(a[0], a[9]) for a in solutions}
        assert seen == pairs.pairs
        assert (1, 0) not in seen

    def test_full_default_set_uncolorable(self):
        graph = build_orthogonality_graph(assemble_ks_set())
        verdict = check_colorability(graph)
        assert verdict.outcome == "UNSAT"
        assert verdict.witness is None
        assert verdict.certificate is not None
        assert verdict.certificate_digest is not None

    def test_search_depth_beyond_recursion_limit(self):
        # 1200 disjoint triangles need 1200 nested decisions
        edges = [(3 * t + i, 3 * t + j) for t in range(1200) for i, j in ((0, 1), (0, 2), (1, 2))]
        g = OrthogonalityGraph(3600, edges)
        verdict = check_colorability(g)
        assert verdict.outcome == "SAT"
        assert verdict.stats.max_depth == 1200
        assert not verify_assignment(g, verdict.witness)

    def test_witness_breaking_the_rules_is_refused(self, monkeypatch):
        # the guard behind every SAT verdict, reached here by a check that
        # reports one violation for the search's witness
        def one_violation(g, a):
            return [Violation("triad", g.triads[0])]

        monkeypatch.setattr(solver, "verify_assignment", one_violation)
        with pytest.raises(RuntimeError, match="witness that breaks the coloring rules"):
            check_colorability(AXES_GRAPH)

    def test_triad_free_graph_degenerate_sat(self):
        g = OrthogonalityGraph(3, [(0, 1)])
        verdict = check_colorability(g)
        assert verdict.outcome == "SAT"
        assert verify_assignment(g, verdict.witness) == []

    def test_determinism(self):
        graph = build_orthogonality_graph(assemble_ks_set())
        a = check_colorability(graph)
        b = check_colorability(graph)
        assert a.stats == b.stats
        assert a.certificate_digest == b.certificate_digest
        assert a.certificate == b.certificate
        _, sat_graph = single_gadget_graph()
        w1 = check_colorability(sat_graph)
        w2 = check_colorability(sat_graph)
        assert w1.witness == w2.witness
        assert w1.stats == w2.stats

    def test_unsat_monotone_under_added_constraints(self):
        graph = build_orthogonality_graph(assemble_ks_set())
        assert check_colorability(graph).outcome == "UNSAT"
        grown = OrthogonalityGraph(
            node_count=graph.node_count,
            edges=graph.edges + ((0, 1),) if (0, 1) not in graph.edges else graph.edges,
        )
        assert check_colorability(grown).outcome == "UNSAT"

    def test_verdict_serialization(self):
        verdict = check_colorability(AXES_GRAPH)
        doc = verdict.to_dict()
        assert doc["outcome"] == "SAT"
        assert set(doc["stats"]) == {"nodes_explored", "propagations", "max_depth"}
        assert "witness" in doc


class TestSearchCounters:
    """The search's exact counters, which numbering and propagation order
    decide.  On the chained family with construction numbering they follow
    closed forms: polynomial in k."""

    @pytest.mark.parametrize("k", [*range(5, 31), 45, 60, 90])
    def test_closed_sweep_closed_form(self, k):
        verdict = check_colorability(
            build_orthogonality_graph(assemble_ks_set(math.radians(90.0 / k)))
        )
        assert verdict.outcome == "UNSAT"
        stats = verdict.stats
        assert (stats.nodes_explored, stats.propagations, stats.max_depth) == (
            6 * k * k - 4 * k + 2,
            24 * k * k - 10 * k + 8,
            2 * k - 1,
        )

    def test_diagonal_18_degree_set(self):
        t = solve_parameter_for_angle(math.radians(18.0))
        rs = assemble_ks_set(math.radians(18.0), default_schedule(), (t, t))
        verdict = check_colorability(build_orthogonality_graph(rs))
        assert verdict.outcome == "UNSAT"
        assert dataclasses.astuple(verdict.stats) == (302, 2079, 10)

    def test_open_k40(self):
        # legs of 39, 40 and 38 steps of 2.25 degrees: an open chain
        step = math.radians(2.25)
        pivot = RotationStep("c3", math.pi / 2.0, 1, emit=False)
        legs = [RotationStep("c2", step, n) for n in (39, 40, 38)]
        rs = assemble_ks_set(step, (legs[0], pivot, legs[1], pivot, legs[2]))
        graph = build_orthogonality_graph(rs)
        verdict = check_colorability(graph)
        assert verdict.outcome == "SAT"
        assert not verify_assignment(graph, verdict.witness)
        assert dataclasses.astuple(verdict.stats) == (394, 1254, 277)

    @pytest.mark.parametrize(
        "k, seed, stats, digest",
        [
            (9, 0, (3902, 15662, 17), "6eb2b9d2fcdbbfa52cf388c2f534b724"
             "0a9f8c273f73bab42601d530e8daf9e9"),
            (9, 1, (2464, 9910, 17), "1be8093192bfb4d4526b2d3f31ec7c90"
             "8dc790620440f191cfe0d69aab69b4db"),
            (12, 0, (12588, 50424, 23), "f9d96c7fa0975866fbf413017973a1c8"
             "981e0ed9240d4bdc09139e71dc2d97bb"),
            (12, 1, (8412, 33720, 23), "98a7bb36e463b91cbe8e3555935a6e8e"
             "aee9f29c3a385b57131a885e464b5751"),
        ],
    )
    def test_shuffled_numbering(self, k, seed, stats, digest):
        # a seeded node permutation of a closed sweep: the search leaves the
        # construction order, conflicts thousands of times, and every counter
        # and the trail depend on the order in which propagation visits nodes
        graph = build_orthogonality_graph(assemble_ks_set(math.radians(90.0 / k)))
        perm = np.random.default_rng(seed).permutation(graph.node_count).tolist()
        edges = [(perm[i], perm[j]) for i, j in graph.edges]
        shuffled = OrthogonalityGraph(graph.node_count, edges)
        verdict = check_colorability(shuffled)
        assert verdict.outcome == "UNSAT"
        assert dataclasses.astuple(verdict.stats) == stats
        assert verdict.certificate_digest == digest


class TestCertificate:
    """The certificate decoded: the decision trail of an UNSAT search."""

    @pytest.mark.parametrize("k, entries, depth", [(5, 132, 9), (24, 3362, 47)])
    def test_trail_of_a_closed_sweep(self, k, entries, depth):
        graph = build_orthogonality_graph(assemble_ks_set(math.radians(90.0 / k)))
        verdict = check_colorability(graph)
        payload = zlib.decompress(verdict.certificate)
        assert hashlib.sha256(payload).hexdigest() == verdict.certificate_digest
        trail = json.loads(payload)
        stats = verdict.stats
        assert len(trail) == stats.nodes_explored == entries
        assert stats.max_depth == depth
        for entry in trail:
            assert len(entry) == 3 and all(type(v) is int for v in entry), entry
            assert 0 <= entry[0] <= depth and 0 <= entry[1] < graph.node_count, entry
            assert entry[2] in (0, 1), entry
        # a decision that conflicts at once is not counted in max_depth, so
        # the trail reaches depth max_depth itself
        assert max(d for d, _, _ in trail) == depth

    @pytest.mark.parametrize(
        "k, certificate_sha256, digest",
        [
            (5, "526acf6a56737c869cd11cc6cdb8b04f24532cf4905c90329d3429cbaa2a0194",
             "1bd28c5aa4cdeef02956ab18775ddefe4b6204d9dc2c573a51d54c22a971bd85"),
            (24, "29ba5f24b6f5f6fb48ed7dc348592dcc39fc0bf015004a07a2313d8857981587",
             "52cae75033269d740cc9afc8efc1e274e67a20b741cd4bc3a78e6158bfb6d5ac"),
            (90, "4b4a27f57d5b93db71546e68645d8e2ebbe7a22ec796c40274d794b51a4579b4",
             "47022ab3aae0598b6dcf23f3b967b1762ff27267c7d231ce1a4775ae4c20890f"),
        ],
    )
    def test_certificate_bytes_pinned(self, k, certificate_sha256, digest):
        # the zlib bytes and the digest as the eager json.dumps build wrote them
        verdict = check_colorability(
            build_orthogonality_graph(assemble_ks_set(math.radians(90.0 / k)))
        )
        assert hashlib.sha256(verdict.certificate).hexdigest() == certificate_sha256
        assert verdict.certificate_digest == digest
        payload = zlib.decompress(verdict.certificate)
        assert payload == json.dumps(json.loads(payload), separators=(",", ":")).encode()

    def test_unread_certificate_is_never_built(self, monkeypatch):
        graph = build_orthogonality_graph(assemble_ks_set())

        def refuse(*args, **kwargs):
            raise AssertionError("certificate built during the solve")

        with monkeypatch.context() as patch:
            for module, name in ((json, "dumps"), (zlib, "compress"), (hashlib, "sha256")):
                patch.setattr(module, name, refuse)
            verdict = check_colorability(graph)
        # read only after the patch is undone
        assert verdict.certificate_digest == (
            "1bd28c5aa4cdeef02956ab18775ddefe4b6204d9dc2c573a51d54c22a971bd85"
        )
        assert zlib.decompress(verdict.certificate).startswith(b"[[0,")

    @pytest.mark.parametrize("k", [5, 24])
    def test_trail_is_three_integers_per_decision(self, k):
        verdict = check_colorability(
            build_orthogonality_graph(assemble_ks_set(math.radians(90.0 / k)))
        )
        trail = verdict.trail
        assert isinstance(trail, array) and trail.itemsize == 8
        assert len(trail) == 3 * verdict.stats.nodes_explored
        assert json.loads(zlib.decompress(verdict.certificate)) == [
            list(trail[i : i + 3]) for i in range(0, len(trail), 3)
        ]

    def test_sat_verdict_has_no_certificate(self):
        _, graph = single_gadget_graph()
        verdict = check_colorability(graph)
        assert verdict.outcome == "SAT"
        assert verdict.trail is verdict.certificate is verdict.certificate_digest is None
        assert json.dumps(verdict.to_dict()) == (
            '{"outcome": "SAT", "stats": {"nodes_explored": 3, "propagations": 7, '
            '"max_depth": 3}, "certificate_digest": null, "witness": {"0": 0, "1": 1, '
            '"2": 0, "3": 0, "4": 0, "5": 1, "6": 0, "7": 1, "8": 0, "9": 0}}'
        )

    def test_equality_compares_the_trail(self):
        graph = build_orthogonality_graph(assemble_ks_set())
        a, b = check_colorability(graph), check_colorability(graph)
        assert a == b and a.trail is not b.trail
        shorter = dataclasses.replace(a, trail=a.trail[:-3])
        assert shorter.stats == a.stats and shorter != a


def _glued_triangles(rng):
    """An abstract graph of up to 14 nodes: random triangles, which share
    nodes, plus loose edges; every triangle of the union is a triad."""
    n = int(rng.integers(3, 15))
    edges = set()
    for _ in range(int(rng.integers(1, n))):
        a, b, c = sorted(rng.choice(n, size=3, replace=False).tolist())
        edges |= {(a, b), (a, c), (b, c)}
    for _ in range(int(rng.integers(0, n // 2 + 1))):
        edges.add(tuple(sorted(rng.choice(n, size=2, replace=False).tolist())))
    return OrthogonalityGraph(n, sorted(edges))


class TestAbstractGraphs:
    """The search on dense triangle structure without geometry, against
    the exhaustive oracle and a digest of every graph's search."""

    def test_against_the_oracle(self):
        records = []
        for seed in range(240):
            g = _glued_triangles(np.random.default_rng(seed))
            verdict = check_colorability(g)
            solutions = enumerate_all_colorings(g)
            assert (verdict.outcome == "SAT") == bool(solutions), seed
            if verdict.witness is not None:
                assert not verify_assignment(g, verdict.witness), seed
                witness = sorted(verdict.witness.values.items())
            else:
                witness = None
            stats = verdict.stats
            records.append(
                [
                    verdict.outcome,
                    witness,
                    stats.nodes_explored,
                    stats.max_depth,
                    verdict.certificate_digest,
                ]
            )
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "5fceda7f0f6b0ff48aba40ee0be98febbc3af950c4e71b73853efc47dac741b4"

    def test_propagations_pinned(self):
        # propagations counts the nodes forced before a conflict surfaces, so
        # it pins the visit order: FIFO queue, ascending neighbours, triads in
        # g.triads order; the digest above leaves it out
        propagations = [
            check_colorability(_glued_triangles(np.random.default_rng(seed))).stats.propagations
            for seed in range(240)
        ]
        assert sum(propagations) == 2444
        digest = hashlib.sha256(json.dumps(propagations).encode()).hexdigest()
        assert digest == "fd1a364b297cf349496717a662ba9feaac9c96be1fcaeb15a739c1afb9646500"


class TestVerifyAssignment:
    def test_valid_axes_assignment(self):
        assert verify_assignment(AXES_GRAPH, ValueAssignment({0: 1, 1: 0, 2: 0})) == []

    def test_two_ones_flagged_on_edge(self):
        violations = verify_assignment(AXES_GRAPH, ValueAssignment({0: 1, 1: 1, 2: 0}))
        assert sum(1 for v in violations if v.kind == "edge") == 1
        assert sum(1 for v in violations if v.kind == "triad") == 1

    @pytest.mark.parametrize(
        "values", [{0: 2, 1: -1, 2: 0}, {0: 0.5, 1: 0.5, 2: 0}], ids=["integers", "halves"]
    )
    def test_values_outside_zero_one_flagged(self, values):
        violations = verify_assignment(AXES_GRAPH, ValueAssignment(values))
        assert [v.members for v in violations if v.kind == "value"] == [(0,), (1,)]

    def test_partial_assignment_rejected(self):
        with pytest.raises(IncompleteAssignmentError):
            verify_assignment(AXES_GRAPH, ValueAssignment({0: 1}))


class TestEnumerateAllColorings:
    def test_cap_enforced(self):
        g = OrthogonalityGraph(26, [])
        with pytest.raises(SizeLimitError):
            enumerate_all_colorings(g)
        small = OrthogonalityGraph(4, [])
        assert len(enumerate_all_colorings(small, cap=4)) == 16

    def test_assignment_breaking_the_rules_is_refused(self, monkeypatch):
        # a scan that let the all-ones mask through must not have it returned
        scan = solver.satisfying_masks
        monkeypatch.setattr(solver, "satisfying_masks", lambda *args: [*scan(*args), 0b111])
        with pytest.raises(RuntimeError, match="assignment that breaks the coloring rules"):
            enumerate_all_colorings(OrthogonalityGraph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_agreement_with_solver_on_random_subgraphs(self):
        rs = assemble_ks_set()
        rng = np.random.default_rng(99)
        for _ in range(40):
            size = int(rng.integers(4, 15))
            nodes = rng.choice(len(rs.labels), size=size, replace=False)
            sub = build_orthogonality_graph(RaySet(rs.matrix[nodes], [rs.labels[i] for i in nodes]))
            verdict = check_colorability(sub)
            solutions = enumerate_all_colorings(sub)
            assert (verdict.outcome == "SAT") == bool(solutions)
            for a in solutions:
                assert not verify_assignment(sub, a)

    def test_rotation_invariance_of_gadget_count(self):
        gadget, graph = single_gadget_graph()
        rng = np.random.default_rng(17)
        axis = Ray3.from_vector(rng.normal(size=3))
        angle = rng.uniform(0.1, 3.0)
        rotated = _transformed(rotation_matrix(axis.vec, angle), gadget.units)
        rotated_graph = build_orthogonality_graph(RaySet(rotated, GADGET_ROLES))
        assert rotated_graph.edges == graph.edges
        assert len(enumerate_all_colorings(rotated_graph)) == 22


def _open_k40():
    # legs of 39, 40 and 38 steps of 2.25 degrees: an open chain
    step = math.radians(2.25)
    pivot = RotationStep("c3", math.pi / 2.0, 1, emit=False)
    legs = [RotationStep("c2", step, n) for n in (39, 40, 38)]
    return step, assemble_ks_set(step, (legs[0], pivot, legs[1], pivot, legs[2]))


def _diagonal_18():
    step = math.radians(18.0)
    t = solve_parameter_for_angle(step)
    return step, assemble_ks_set(step, default_schedule(), (t, t))


AUDITED_SETS = {
    "open-k40": _open_k40,
    "one copy": lambda: (math.radians(18.0), assemble_ks_set(schedule=())),
    "two links": lambda: (
        MAX_GADGET_ANGLE,
        assemble_ks_set(
            MAX_GADGET_ANGLE, (RotationStep("c2", MAX_GADGET_ANGLE, 1),), (1.0, 1.0)
        ),
    ),
    "diagonal 18": _diagonal_18,
}


def _report_record(report):
    links = [[link.max_edge_residual, link.angle] for link in report.links]
    flags = [report.closing_triad is not None, report.cyclic, report.contradiction_confirmed]
    return [report.closing_triad, *flags, report.summary(), links]


def _digest(document) -> str:
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()


class TestForcingChain:
    def test_default_chain_contradiction(self):
        rs = assemble_ks_set()
        report = forcing_chain_check(math.radians(18.0), rs)
        assert len(report.links) == 15
        assert report.all_links_forced
        assert report.cyclic
        assert report.closing_triad == (40, 7, 39)
        assert report.contradiction_confirmed
        assert any("contradiction" in line for line in report.summary())

    def test_single_link_no_contradiction(self):
        rs = assemble_ks_set(schedule=())
        report = forcing_chain_check(math.radians(18.0), rs)
        assert len(report.links) == 1
        assert report.all_links_forced
        assert not report.cyclic
        assert not report.contradiction_confirmed

    def test_two_link_chain_at_the_bound(self):
        # a diagonal gadget at the maximal angle, chained once about c2
        rs = assemble_ks_set(
            step_angle=MAX_GADGET_ANGLE,
            schedule=(RotationStep("c2", MAX_GADGET_ANGLE, 1),),
            gadget_params=(1.0, 1.0),
        )
        report = forcing_chain_check(MAX_GADGET_ANGLE, rs)
        assert len(report.links) == 2
        assert report.all_links_forced
        assert not report.contradiction_confirmed

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("open-k40", "3c691f77d66ef2ac359ebb7935c1057e7c10444b1ce5e8f686dd971ed4c1ad01"),
            ("one copy", "33969594d27e9efb40233ce4aa6b15b90ef6b8899ba711688570f878185893a6"),
            ("two links", "32af5dbe8bfbf4f0d6086b2d67fd9782d869b59987cc9d6c9c174e37c541f1b2"),
            ("diagonal 18", "3c8cb3d50aeedeb8a3b70eb3a1fe7d0d797f9de02acf5f1ff96284ee21409057"),
        ],
    )
    def test_report_pinned(self, name, digest):
        # the whole report, every link's measured margins bit for bit: an
        # open chain whose axes lie on it, two sets without the axis triple
        # and a closed sweep whose diagonal gadget adds exact edges
        angle, rs = AUDITED_SETS[name]()
        report = forcing_chain_check(angle, rs)
        assert _digest(_report_record(report)) == digest

    def test_closed_sweep_summaries_pinned(self):
        summaries = [
            forcing_chain_check(step, assemble_ks_set(step)).summary()
            for step in (math.radians(90.0 / k) for k in range(5, 91))
        ]
        assert all(s[-1].startswith("contradiction") for s in summaries)
        assert _digest(summaries) == (
            "04c0ead755709bb7bc428993e3c61a04878104b0b5199efceb04e0dcbaa79e28"
        )

    def test_audit_reads_the_sets_graph(self, monkeypatch):
        # once the set's graph is built, the audit measures no pair itself
        rs = assemble_ks_set()
        assert build_orthogonality_graph(rs) is rs.graph

        def no_scan(*args):
            raise AssertionError("the audit scanned ray pairs")

        monkeypatch.setattr(ksgraph, "_upper_pairs", no_scan)
        report = forcing_chain_check(math.radians(18.0), rs)
        assert report.contradiction_confirmed
        assert report.summary() == forcing_chain_check(math.radians(18.0), rs).summary()

    def test_axis_triple_is_a_triad_of_the_graph(self):
        # the same rays, with the graph's x-y edge taken out: the axes are no
        # longer a triad of the graph the audit reads, no other triad lies on
        # the chain, so nothing is confirmed
        rs = assemble_ks_set()
        x, y, _ = forcing_chain_check(math.radians(18.0), rs).closing_triad
        graph = rs.graph
        edges = [e for e in graph.edges if e != (min(x, y), max(x, y))]
        vars(rs)["graph"] = OrthogonalityGraph(graph.node_count, edges, graph.labels)
        report = forcing_chain_check(math.radians(18.0), rs)
        assert report.cyclic and report.closing_triad is None
        assert not report.contradiction_confirmed

    @pytest.mark.parametrize("k", [5, 24])
    def test_rotated_set_confirms_the_same_closing_triad(self, k):
        # a seeded random turn keeps every edge and the verdict; the audit
        # finds the closing triad on the graph, so it still confirms, while
        # the coordinate lookup no longer finds the axes
        step = math.radians(90.0 / k)
        rs = assemble_ks_set(step)
        rng = np.random.default_rng(k)
        turn = rotation_matrix(Ray3.from_vector(rng.normal(size=3)).vec, rng.uniform(0.1, 3.0))
        turned = RaySet(_transformed(turn, rs.matrix), rs.labels, rs.merges, rs.copies)
        assert turned.graph.edges == rs.graph.edges
        assert check_colorability(turned.graph).outcome == "UNSAT"
        assert None in turned.axis_nodes
        report = forcing_chain_check(step, turned)
        assert report.contradiction_confirmed
        assert report.closing_triad == forcing_chain_check(step, rs).closing_triad

    def test_audit_reads_no_coordinate_axes(self, monkeypatch):
        rs = assemble_ks_set()
        report = forcing_chain_check(math.radians(18.0), rs)

        def no_axes(self):
            raise AssertionError("the audit looked up the coordinate axes")

        monkeypatch.setattr(RaySet, "axis_nodes", property(no_axes))
        assert forcing_chain_check(math.radians(18.0), rs) == report

    def test_closing_triad_is_the_axis_triple_on_closed_sweeps(self):
        # the graph's judgement against the coordinates', which share no code
        for step in (math.radians(90.0 / k) for k in range(5, 91)):
            rs = assemble_ks_set(step)
            assert forcing_chain_check(step, rs).closing_triad == rs.axis_nodes

    @pytest.mark.parametrize("name", AUDITED_SETS)
    def test_closing_triad_is_the_axis_triple_on_audited_sets(self, name):
        # one copy and two links hold no triad on their chain, nor all three axes
        angle, rs = AUDITED_SETS[name]()
        expected = None if name in ("one copy", "two links") else rs.axis_nodes
        assert forcing_chain_check(angle, rs).closing_triad == expected

    def test_ray_set_without_copies_is_rejected(self):
        with pytest.raises(ValueError, match="^ray set carries no gadget copies$"):
            forcing_chain_check(0.3, RaySet(np.eye(3), ("x", "y", "z")))

    def test_broken_chain_names_link(self):
        rs = assemble_ks_set()
        copies = np.array(rs.copies)
        copies[7, APEX] = copies[7, C3]
        broken = dataclasses.replace(rs, copies=copies)
        with pytest.raises(ChainIntegrityError, match="link 6->7"):
            forcing_chain_check(math.radians(18.0), broken)

    def test_reverse_turn_does_not_chain(self):
        # steps turn by +angle about c2; the other way, copy 1's apex misses
        # copy 0's c3 and the audit names that link
        step = math.radians(18.0)
        rs = assemble_ks_set(step, schedule=(RotationStep("c2", -step, 5),))
        with pytest.raises(ChainIntegrityError, match="link 0->1"):
            forcing_chain_check(step, rs)

    def test_ten_degree_sweep_contradiction(self):
        step = math.radians(10.0)
        rs = assemble_ks_set(step)
        graph = build_orthogonality_graph(rs)
        assert (len(rs.rays), len(graph.edges), len(graph.triads)) == (213, 372, 79)
        assert check_colorability(graph).outcome == "UNSAT"
        report = forcing_chain_check(step, rs)
        assert len(report.links) == 27
        assert report.contradiction_confirmed

    def test_wrong_angle_rejected(self):
        rs = assemble_ks_set()
        with pytest.raises(ChainIntegrityError):
            forcing_chain_check(math.radians(17.0), rs)

    def test_nan_angle_rejected(self):
        with pytest.raises(ChainIntegrityError, match="link 0: apex-c3 angle"):
            forcing_chain_check(float("nan"), assemble_ks_set())

    def test_swapped_roles_rejected(self):
        # copy 3's a1 and b1 swap nodes: the copy keeps its c3 -> apex
        # links, but six of its construction pairs are no longer orthogonal
        rs = assemble_ks_set()
        copies = np.array(rs.copies)
        copies[3, [A1, B1]] = copies[3, [B1, A1]]
        swapped = dataclasses.replace(rs, copies=copies)
        with pytest.raises(OrthogonalityGapError, match="^6 construction pairs have"):
            forcing_chain_check(math.radians(18.0), swapped)

    def test_ray_moved_beyond_the_bound_rejected(self):
        # copy 3's a2 turned toward its a1 by three times the set's bound:
        # |dot(a1, a2)| = 3.8e-13, which the graph, and so the audit, rejects
        rs = assemble_ks_set()
        cp = rs.copies[3]
        bound = _edge_bound(len(rs.copies))
        a1, a2 = rs.rays[cp[A1]].vec, rs.rays[cp[A2]].vec
        moved = Ray3.from_vector(math.cos(3 * bound) * a2 + math.sin(3 * bound) * a1)
        matrix = np.array(rs.matrix)
        matrix[cp[A2]] = moved.vec
        tampered = dataclasses.replace(rs, matrix=matrix)
        assert abs(moved.dot(rs.rays[cp[A1]])) > 2.5 * bound
        with pytest.raises(OrthogonalityGapError):
            build_orthogonality_graph(tampered)
        with pytest.raises(OrthogonalityGapError):
            forcing_chain_check(math.radians(18.0), tampered)
