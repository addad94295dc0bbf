"""Colorability search, the exhaustive oracle, and the forcing chain."""

import dataclasses
import math

import numpy as np
import pytest

from ksparadox.gadget import (
    MAX_GADGET_ANGLE,
    build_gadget,
    enumerate_gadget_assignments,
    offdiagonal_parameters_for_angle,
)
from ksparadox.ksgraph import (
    OrthogonalityGapError,
    OrthogonalityGraph,
    RotationStep,
    _edge_bound,
    assemble_ks_set,
    build_orthogonality_graph,
    rotate_ray,
)
from ksparadox.linalg import Ray3
from ksparadox.solver import (
    ChainIntegrityError,
    IncompleteAssignmentError,
    SizeLimitError,
    ValueAssignment,
    check_colorability,
    enumerate_all_colorings,
    forcing_chain_check,
    verify_assignment,
)

AXES_GRAPH = build_orthogonality_graph(
    [Ray3.from_vector(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
)


def single_gadget_graph():
    params = offdiagonal_parameters_for_angle(math.radians(18.0))
    return build_gadget(*params), build_orthogonality_graph(build_gadget(*params).rays)


class TestCheckColorability:
    def test_single_triad_sat(self):
        verdict = check_colorability(AXES_GRAPH)
        assert verdict.outcome == "SAT"
        assert not verify_assignment(AXES_GRAPH, verdict.witness)
        assert len(enumerate_all_colorings(AXES_GRAPH)) == 3

    def test_two_triads_sharing_a_ray(self):
        g = OrthogonalityGraph.from_structure(
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
        g = OrthogonalityGraph.from_structure(3600, edges)
        verdict = check_colorability(g)
        assert verdict.outcome == "SAT"
        assert verdict.stats.max_depth == 1200
        assert not verify_assignment(g, verdict.witness)

    def test_triad_free_graph_degenerate_sat(self):
        g = OrthogonalityGraph.from_structure(3, [(0, 1)])
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
            triads=graph.triads,
        )
        assert check_colorability(grown).outcome == "UNSAT"

    def test_verdict_serialization(self):
        verdict = check_colorability(AXES_GRAPH)
        doc = verdict.to_dict()
        assert doc["outcome"] == "SAT"
        assert set(doc["stats"]) == {"nodes_explored", "propagations", "max_depth"}
        assert "witness" in doc


class TestVerifyAssignment:
    def test_valid_axes_assignment(self):
        assert verify_assignment(AXES_GRAPH, ValueAssignment({0: 1, 1: 0, 2: 0})) == []

    def test_two_ones_flagged_on_edge(self):
        violations = verify_assignment(AXES_GRAPH, ValueAssignment({0: 1, 1: 1, 2: 0}))
        assert sum(1 for v in violations if v.kind == "edge") == 1
        assert sum(1 for v in violations if v.kind == "triad") == 1

    def test_partial_assignment_rejected(self):
        with pytest.raises(IncompleteAssignmentError):
            verify_assignment(AXES_GRAPH, ValueAssignment({0: 1}))


class TestEnumerateAllColorings:
    def test_cap_enforced(self):
        g = OrthogonalityGraph.from_structure(26, [])
        with pytest.raises(SizeLimitError):
            enumerate_all_colorings(g)
        small = OrthogonalityGraph.from_structure(4, [])
        assert len(enumerate_all_colorings(small, cap=4)) == 16

    def test_agreement_with_solver_on_random_subgraphs(self):
        rays = assemble_ks_set().rays
        rng = np.random.default_rng(99)
        for _ in range(40):
            size = int(rng.integers(4, 15))
            nodes = rng.choice(len(rays), size=size, replace=False)
            sub = build_orthogonality_graph([rays[i] for i in nodes])
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
        rotated = [rotate_ray(r, axis, angle) for r in gadget.rays]
        rotated_graph = build_orthogonality_graph(rotated)
        assert rotated_graph.edges == graph.edges
        assert len(enumerate_all_colorings(rotated_graph)) == 22


class TestForcingChain:
    def test_default_chain_contradiction(self):
        rs = assemble_ks_set()
        report = forcing_chain_check(math.radians(18.0), rs)
        assert len(report.links) == 15
        assert report.all_links_forced
        assert report.cyclic
        assert report.axes_on_chain
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

    def test_broken_chain_names_link(self):
        rs = assemble_ks_set()
        copies = list(rs.copies)
        tampered = dict(copies[7])
        tampered["apex"] = copies[7]["c3"]
        copies[7] = tampered
        broken = dataclasses.replace(rs, copies=tuple(copies))
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
        copies = list(rs.copies)
        copies[3] = {**copies[3], "a1": copies[3]["b1"], "b1": copies[3]["a1"]}
        swapped = dataclasses.replace(rs, copies=tuple(copies))
        with pytest.raises(ChainIntegrityError, match="link 3: orthogonality residual"):
            forcing_chain_check(math.radians(18.0), swapped)

    def test_ray_moved_beyond_the_bound_rejected(self):
        # copy 3's a2 turned toward its a1 by three times the set's bound:
        # |dot(a1, a2)| = 3.8e-13, which the graph rejects too
        rs = assemble_ks_set()
        cp = rs.copies[3]
        bound = _edge_bound(len(rs.copies))
        a1, a2 = rs.rays[cp["a1"]].vec, rs.rays[cp["a2"]].vec
        moved = Ray3.from_vector(math.cos(3 * bound) * a2 + math.sin(3 * bound) * a1)
        rays = list(rs.rays)
        rays[cp["a2"]] = moved
        tampered = dataclasses.replace(rs, rays=tuple(rays))
        assert abs(moved.dot(rs.rays[cp["a1"]])) > 2.5 * bound
        with pytest.raises(OrthogonalityGapError):
            build_orthogonality_graph(tampered)
        with pytest.raises(ChainIntegrityError, match="link 3: orthogonality residual"):
            forcing_chain_check(math.radians(18.0), tampered)
