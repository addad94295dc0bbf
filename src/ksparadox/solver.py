"""Colorability search for orthogonality graphs, plus independent oracles.

The coloring rules: every full triad carries exactly one ray valued 1, and
no orthogonal pair may be doubly valued 1.  Orthogonal pairs that are not
part of any complete triad in the set get only the not-both-1 rule.  Every
triad is a triangle of the edges (OrthogonalityGraph derives them), so
exactly-one per triad is at-least-one per triad plus not-both per edge:
the two clause kinds of the coloring CNF and the only rules the search
propagates: a 1 along the graph's neighbour lists, a 0 to triad partners.

check_colorability is a complete deterministic backtracking search with
unit propagation.  It records its decision trail as a flat integer array,
which an UNSAT verdict keeps; the verdict's certificate and digest are
built from that trail when first read, so a solve whose certificate nobody
reads never serializes it.  enumerate_all_colorings is a deliberately dumb
exhaustive scan used as ground truth against it.  forcing_chain_check
re-derives the uncolorability of the chained ray set by a route independent
of the search: the gadget lemma (one exhaustive enumeration of the ten-role
graph, computed once), a check that each link realizes that role graph in
RaySet.graph, the one judgement of the set's pairs, which the search
refutes too, and the cyclic propagation onto a triad of it on the chain.
"""

from __future__ import annotations

import hashlib
import zlib
from array import array
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Literal

import numpy as np

from .gadget import (
    APEX,
    C3,
    REALIZE_TOL,
    _gadget_lemma,
    copy_margins,
    satisfying_masks,
)
from .ksgraph import OrthogonalityGraph, RaySet


class IncompleteAssignmentError(ValueError):
    """An operation requiring a total assignment got a partial one."""


class SizeLimitError(ValueError):
    """Exhaustive enumeration refused: instance above the node cap."""


class ChainIntegrityError(ValueError):
    """Consecutive gadget copies do not share the required chaining ray."""


@dataclass(frozen=True)
class ValueAssignment:
    """Partial or total map node index -> {0, 1}."""

    values: dict[int, int]

    def __getitem__(self, node: int) -> int:
        return self.values[node]


@dataclass(frozen=True)
class Violation:
    kind: Literal["value", "triad", "edge"]
    members: tuple[int, ...]


def verify_assignment(g: OrthogonalityGraph, a: ValueAssignment) -> list[Violation]:
    """Empty list iff every value is 0 or 1 and both rules hold on every triad and edge.

    Raises IncompleteAssignmentError on partial assignments.
    """
    values = a.values
    missing = [i for i in range(g.node_count) if i not in values]
    if missing:
        raise IncompleteAssignmentError(f"assignment missing nodes {missing[:8]}")
    out = [Violation("value", (v,)) for v in range(g.node_count) if values[v] not in (0, 1)]
    for t in g.triads:
        if sum((values[t[0]], values[t[1]], values[t[2]])) != 1:
            out.append(Violation("triad", t))
    for i, j in g.edges:
        if values[i] == 1 and values[j] == 1:
            out.append(Violation("edge", (i, j)))
    return out


@dataclass(frozen=True)
class SolverStats:
    nodes_explored: int
    propagations: int
    max_depth: int


@dataclass(frozen=True)
class SolverVerdict:
    """Search outcome with a re-verifiable witness or exhaustion certificate.

    An UNSAT verdict keeps the complete decision trail as one flat
    array("q") of (depth, node, value) triples in exploration order, three
    integers per decision; a SAT verdict keeps none.  The certificate
    (zlib-compressed JSON of those triples) and its digest (the sha256 of
    the uncompressed JSON) are built from the trail when first read, and are
    None without one.  Equality compares the trail.
    """

    outcome: Literal["SAT", "UNSAT"]
    witness: ValueAssignment | None
    stats: SolverStats
    trail: array | None = field(default=None, repr=False, hash=False)

    @cached_property
    def _payload(self) -> bytes:
        # the triples' compact JSON, written directly: %d of an int is json's text
        template = "[" + ",".join(["[%d,%d,%d]"] * (len(self.trail) // 3)) + "]"
        return (template % tuple(self.trail)).encode()

    @cached_property
    def certificate(self) -> bytes | None:
        return None if self.trail is None else zlib.compress(self._payload)

    @cached_property
    def certificate_digest(self) -> str | None:
        return None if self.trail is None else hashlib.sha256(self._payload).hexdigest()

    def to_dict(self) -> dict:
        d = {
            "outcome": self.outcome,
            "stats": asdict(self.stats),
            "certificate_digest": self.certificate_digest,
        }
        if self.witness is not None:
            d["witness"] = {str(k): v for k, v in sorted(self.witness.values.items())}
        return d


def check_colorability(g: OrthogonalityGraph) -> SolverVerdict:
    """Complete backtracking search under the two coloring rules.

    Each decision propagates from a FIFO queue, one rule per value.  A node
    set to 1 forces 0 on its neighbours (g.neighbours, ascending), and a
    neighbour already 1 is a conflict (not both per edge).  A node set to 0
    reads the two partners of each of its triads, in g.triads order: one
    partner 0 forces the other to 1, and both 0 are a conflict (at least one
    per triad).  Decisions take the most-constrained node first (most triads
    plus neighbours, ties by node index) and try 1 before 0, so verdicts,
    witnesses, and certificates are deterministic.  propagations counts the
    nodes each decision forced; on a conflict, those forced before it
    surfaced, so it depends on that visit order.  The search is one loop,
    not a recursion, so its depth is not bounded by the interpreter's
    recursion limit; triad-free and empty graphs run it too.
    """
    n = g.node_count
    adj = g.neighbours
    # each node's triads as the pairs of its two partners, in g.triads order
    partners: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, c in g.triads:
        partners[a].append((b, c))
        partners[b].append((a, c))
        partners[c].append((a, b))
    # sorted is stable, so ties keep ascending node order
    order = sorted(range(n), key=lambda v: -(len(partners[v]) + len(adj[v])))

    value = [-1] * n
    trail = array("q")  # (depth, node, value) of each decision, flat
    record = trail.append
    # one entry per live decision: (position in order, the nodes it set in
    # assignment order, value); every order position before it is assigned
    decisions: list[tuple[int, list[int], int]] = []
    propagations = max_depth = 0
    pos, val = 0, 1
    while True:
        while pos < n and value[order[pos]] != -1:
            pos += 1
        if pos == n:
            break
        node = order[pos]
        record(len(decisions))
        record(node)
        record(val)
        value[node] = val
        queue = [node]  # FIFO: the loop below also reads what it appends
        push = queue.append
        decisions.append((pos, queue, val))
        for v in queue:
            if value[v]:
                for u in adj[v]:
                    if value[u] < 0:
                        value[u] = 0
                        push(u)
                    elif value[u]:
                        break  # both ends of an edge valued 1
                else:
                    continue
            else:
                for a, b in partners[v]:
                    if value[a] == 0:
                        if value[b] == 0:
                            break  # a triad valued 0 throughout
                        if value[b] < 0:
                            value[b] = 1
                            push(b)
                    elif value[a] < 0 and value[b] == 0:
                        value[a] = 1
                        push(a)
                else:
                    continue
            break  # an inner loop broke on a conflict
        else:
            propagations += len(queue) - 1  # nodes this decision forced
            max_depth = max(max_depth, len(decisions))
            val = 1
            continue
        propagations += len(queue) - 1
        # back to the deepest decision whose 0 branch is still untried,
        # unassigning what every popped decision set
        while decisions:
            pos, queue, val = decisions.pop()
            for u in queue:
                value[u] = -1
            if val:
                break
        else:
            break
        val = 0

    solver_stats = SolverStats(len(trail) // 3, propagations, max_depth)
    if pos == n:
        witness = ValueAssignment({i: value[i] for i in range(n)})
        if verify_assignment(g, witness):
            raise RuntimeError("search returned a witness that breaks the coloring rules")
        return SolverVerdict(outcome="SAT", witness=witness, stats=solver_stats)
    return SolverVerdict(outcome="UNSAT", witness=None, stats=solver_stats, trail=trail)


def enumerate_all_colorings(
    g: OrthogonalityGraph, cap: int | None = None
) -> list[ValueAssignment]:
    """All satisfying assignments by exhaustive 2^n scan, each confirmed
    through verify_assignment (RuntimeError if one breaks the rules).
    Ground-truth oracle for check_colorability; shares no search machinery
    with it.

    Refuses instances above the node cap (default 25).
    """
    limit = 25 if cap is None else cap
    n = g.node_count
    if n > limit:
        raise SizeLimitError(f"{n} nodes exceeds enumeration cap {limit}")
    masks = satisfying_masks(n, g.edges, g.triads)
    found = [ValueAssignment({i: (mask >> i) & 1 for i in range(n)}) for mask in masks]
    if any(verify_assignment(g, a) for a in found):
        raise RuntimeError("exhaustive scan returned an assignment that breaks the coloring rules")
    return found


@dataclass(frozen=True)
class LinkReport:
    """The measured margins of one gadget copy of the chain, viewed as an
    apex -> c3 forcing link."""

    max_edge_residual: float
    angle: float


@dataclass(frozen=True)
class ChainReport:
    """Forcing audit of the swept gadget chain.

    all_links_forced is the ten-role graph's lemma, apex = 1 forces c3 = 1,
    held once for every link.  closing_triad is the first of the graph's
    triads whose rays all lie on the chain, ordered by first visit (each c3,
    then each apex), or None.  summary() still names it "coordinate axes",
    which it is on every set assemble_ks_set builds, and it lies on the chain
    by construction.  contradiction_confirmed means: the links force
    value(apex) = 1 on to each c3 and close into a cycle, so the chain's rays
    take one value, which breaks exactly-one on the closing triad.
    """

    links: tuple[LinkReport, ...]
    all_links_forced: bool
    cyclic: bool
    closing_triad: tuple[int, int, int] | None
    contradiction_confirmed: bool

    def summary(self) -> list[str]:
        return [
            f"links: {len(self.links)}, forced: {len(self.links) if self.all_links_forced else 0}",
            f"cyclic closure: {self.cyclic}",
            "coordinate axes not all present"
            if self.closing_triad is None
            else f"coordinate axes at nodes {self.closing_triad}, on chain: True",
            "contradiction: equal values forced on a mutually orthogonal triple"
            if self.contradiction_confirmed
            else "no contradiction from the chain alone",
        ]


def forcing_chain_check(gadget_angle: float, chain: RaySet) -> ChainReport:
    """Audit the chain of gadget copies in a swept RaySet.

    Checks that each copy's c3 is the next copy's apex, reads chain.graph
    (OrthogonalityGapError unless every copy's fifteen construction pairs
    are edges), and checks each copy's apex-c3 angle; ChainIntegrityError
    names the first link that fails.  Links keep their measured margins; the
    closing triad is found from the role table and the same graph alone, so
    a set turned to any frame gets the same verdict.  These checks tie every
    link to the ten-role graph, whose forcing lemma is computed once by
    exhaustive enumeration and read off, not assumed.
    """
    roles = chain.copies
    if not len(roles):
        raise ValueError("ray set carries no gadget copies")
    for k in np.flatnonzero(roles[:-1, C3] != roles[1:, APEX])[:1].tolist():
        raise ChainIntegrityError(
            f"link {k}->{k + 1}: copy {k} c3 (node {roles[k, C3]}) is not "
            f"copy {k + 1} apex (node {roles[k + 1, APEX]})"
        )
    cyclic = len(roles) > 1 and bool(roles[-1, C3] == roles[0, APEX])

    graph = chain.graph
    links = tuple(LinkReport(*margins) for margins in copy_margins(chain.matrix[roles]))
    for k, link in enumerate(links):  # "not <=", so that a NaN fails
        if not abs(link.angle - gadget_angle) <= REALIZE_TOL:
            raise ChainIntegrityError(
                f"link {k}: apex-c3 angle {link.angle} differs from {gadget_angle}"
            )
    forced = _gadget_lemma().forced_one_way

    # chain rays by first visit, c3s then apexes (an open chain's first apex is no c3)
    rank = {v: i for i, v in enumerate(dict.fromkeys(roles[:, [C3, APEX]].T.ravel().tolist()))}
    triad = next((t for t in graph.triads if all(v in rank for v in t)), None)
    closing_triad = None if triad is None else tuple(sorted(triad, key=rank.get))
    return ChainReport(
        links=links,
        all_links_forced=forced,
        cyclic=cyclic,
        closing_triad=closing_triad,
        contradiction_confirmed=forced and cyclic and closing_triad is not None,
    )
