"""Colorability search for orthogonality graphs, plus independent oracles.

The coloring rules: every full triad carries exactly one ray valued 1, and
no orthogonal pair may be doubly valued 1.  Orthogonal pairs that are not
part of any complete triad in the set get only the not-both-1 rule.

check_colorability is a complete deterministic backtracking search with
unit propagation; enumerate_all_colorings is a deliberately dumb exhaustive
scan used as ground truth against it.  forcing_chain_check re-derives the
uncolorability of the chained ray set by a route independent of the search:
the gadget lemma (one exhaustive enumeration of the ten-role graph, computed
once), a geometric check that each link realizes that role graph, its pairs
judged by the set's own float-error bound (ksgraph), and the cyclic
propagation argument through the coordinate axes.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .gadget import (
    APEX,
    C3,
    GADGET_EDGES,
    GADGET_ROLES,
    REALIZE_TOL,
    _gadget_lemma,
    satisfying_masks,
)
from .ksgraph import OrthogonalityGraph, RaySet, _edge_bound, _ray_matrix
from .linalg import X_AXIS, Y_AXIS, Z_AXIS


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

    @classmethod
    def from_bits(cls, mask: int, n: int) -> "ValueAssignment":
        return cls({i: (mask >> i) & 1 for i in range(n)})

    def is_total(self, node_count: int) -> bool:
        return all(i in self.values for i in range(node_count))

    def __getitem__(self, node: int) -> int:
        return self.values[node]


@dataclass(frozen=True)
class Violation:
    kind: Literal["triad", "edge"]
    members: tuple[int, ...]
    detail: str


def verify_assignment(g: OrthogonalityGraph, a: ValueAssignment) -> list[Violation]:
    """Empty list iff both coloring rules hold on every triad and edge.

    Raises IncompleteAssignmentError on partial assignments.
    """
    if not a.is_total(g.node_count):
        missing = [i for i in range(g.node_count) if i not in a.values]
        raise IncompleteAssignmentError(f"assignment missing nodes {missing[:8]}")
    out: list[Violation] = []
    for t in g.triads:
        total = sum(a[v] for v in t)
        if total != 1:
            out.append(Violation("triad", t, f"triad {t} sums to {total}, not 1"))
    for i, j in g.edges:
        if a[i] == 1 and a[j] == 1:
            out.append(Violation("edge", (i, j), f"orthogonal pair {(i, j)} both valued 1"))
    return out


@dataclass(frozen=True)
class SolverStats:
    nodes_explored: int
    propagations: int
    max_depth: int


@dataclass(frozen=True)
class SolverVerdict:
    """Search outcome with a re-verifiable witness or exhaustion certificate.

    The certificate is the complete decision trail (zlib-compressed JSON of
    (depth, node, value) triples in exploration order); its digest is the
    sha256 of the uncompressed JSON.
    """

    outcome: Literal["SAT", "UNSAT"]
    witness: ValueAssignment | None
    stats: SolverStats
    certificate: bytes | None = None
    certificate_digest: str | None = None

    def to_dict(self) -> dict:
        d = {
            "outcome": self.outcome,
            "stats": {
                "nodes_explored": self.stats.nodes_explored,
                "propagations": self.stats.propagations,
                "max_depth": self.stats.max_depth,
            },
            "certificate_digest": self.certificate_digest,
        }
        if self.witness is not None:
            d["witness"] = {str(k): v for k, v in sorted(self.witness.values.items())}
        return d


def check_colorability(g: OrthogonalityGraph) -> SolverVerdict:
    """Complete backtracking search under the two coloring rules.

    Propagation: a 1 forces 0 on all neighbors; a triad with two 0s forces 1
    on the third; a triad with three 0s, or an orthogonal pair with two 1s,
    is a conflict.  Decisions take the most-constrained node first (largest
    triad-membership plus degree count, ties by node index) and try value 1
    before 0, so verdicts, witnesses, and certificates are deterministic.
    The search is one loop over an assignment trail, not a recursion, so its
    depth is not bounded by the interpreter's recursion limit.  Triad-free and
    empty graphs run the same search.
    """
    n = g.node_count
    adj = [sorted(s) for s in g.adjacency()]
    triads_of: list[list[int]] = [[] for _ in range(n)]
    for ti, t in enumerate(g.triads):
        for v in t:
            triads_of[v].append(ti)
    order = sorted(range(n), key=lambda v: (-(len(triads_of[v]) + len(adj[v])), v))

    value = [-1] * n
    # every assigned node in assignment order; the tail past a decision's
    # mark is that decision's propagation queue
    assigned: list[int] = []
    trail: list[tuple[int, int, int]] = []

    def propagate(head: int) -> bool:
        while head < len(assigned):
            v = assigned[head]
            head += 1
            if value[v] == 1:
                for u in adj[v]:
                    if value[u] == 1:
                        return False
                    if value[u] == -1:
                        value[u] = 0
                        assigned.append(u)
            for ti in triads_of[v]:
                a, b, c = g.triads[ti]
                va, vb, vc = value[a], value[b], value[c]
                ones = (va == 1) + (vb == 1) + (vc == 1)
                zeros = (va == 0) + (vb == 0) + (vc == 0)
                if ones > 1 or zeros == 3:
                    return False
                if ones == 1 or zeros == 2:
                    # one 1 forces 0 on the rest; two 0s force 1 on the last
                    for u in (a, b, c):
                        if value[u] == -1:
                            value[u] = 1 - ones
                            assigned.append(u)
        return True

    # one entry per live decision: (position in order, trail mark, value);
    # every order position before the newest one is assigned
    decisions: list[tuple[int, int, int]] = []
    decision_count = propagations = max_depth = 0
    pos, val, sat = 0, 1, True
    while True:
        while pos < n and value[order[pos]] != -1:
            pos += 1
        if pos == n:
            break
        node, mark = order[pos], len(assigned)
        decision_count += 1
        trail.append((len(decisions), node, val))
        decisions.append((pos, mark, val))
        value[node] = val
        assigned.append(node)
        ok = propagate(mark)
        propagations += len(assigned) - mark - 1  # nodes this decision forced
        if ok:
            max_depth = max(max_depth, len(decisions))
            val = 1
            continue
        # back to the deepest decision whose 0 branch is still untried
        while decisions and decisions[-1][2] == 0:
            decisions.pop()
        if not decisions:
            sat = False
            break
        pos, mark, _ = decisions.pop()
        for u in assigned[mark:]:
            value[u] = -1
        del assigned[mark:]
        val = 0

    solver_stats = SolverStats(
        nodes_explored=decision_count,
        propagations=propagations,
        max_depth=max_depth,
    )
    if sat:
        witness = ValueAssignment({i: value[i] for i in range(n)})
        if verify_assignment(g, witness):
            raise RuntimeError("search returned a witness that breaks the coloring rules")
        return SolverVerdict(outcome="SAT", witness=witness, stats=solver_stats)
    payload = json.dumps(trail, separators=(",", ":")).encode()
    return SolverVerdict(
        outcome="UNSAT",
        witness=None,
        stats=solver_stats,
        certificate=zlib.compress(payload),
        certificate_digest=hashlib.sha256(payload).hexdigest(),
    )


def enumerate_all_colorings(
    g: OrthogonalityGraph, cap: int | None = None
) -> list[ValueAssignment]:
    """All satisfying assignments by exhaustive 2^n scan, each confirmed
    through verify_assignment.  Ground-truth oracle for check_colorability;
    shares no search machinery with it.

    Refuses instances above the node cap (default 25).
    """
    limit = 25 if cap is None else cap
    n = g.node_count
    if n > limit:
        raise SizeLimitError(f"{n} nodes exceeds enumeration cap {limit}")
    out = []
    for mask in satisfying_masks(n, g.edges, g.triads):
        a = ValueAssignment.from_bits(mask, n)
        if not verify_assignment(g, a):
            out.append(a)
    return out


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
    held once for every link.  contradiction_confirmed means: every link
    forces value(apex) = 1 to propagate to its c3, the links close into a
    cycle whose shared rays include all three coordinate axes, and those
    axes are mutually orthogonal -- so any admissible assignment gives the
    axes equal values, which no exactly-one-of-three triad can absorb.
    """

    links: tuple[LinkReport, ...]
    all_links_forced: bool
    cyclic: bool
    axis_nodes: tuple[int, int, int] | None
    axes_on_chain: bool
    contradiction_confirmed: bool

    def summary(self) -> list[str]:
        lines = [
            f"links: {len(self.links)}, forced: {len(self.links) if self.all_links_forced else 0}",
            f"cyclic closure: {self.cyclic}",
        ]
        if self.axis_nodes is not None:
            lines.append(
                f"coordinate axes at nodes {self.axis_nodes}, on chain: {self.axes_on_chain}"
            )
        else:
            lines.append("coordinate axes not all present")
        if self.contradiction_confirmed:
            lines.append(
                "contradiction: equal values forced on a mutually orthogonal triple"
            )
        else:
            lines.append("no contradiction from the chain alone")
        return lines


def forcing_chain_check(gadget_angle: float, chain: RaySet) -> ChainReport:
    """Audit the chain of gadget copies in a swept RaySet.

    Checks that each copy's c3 is the next copy's apex, and re-verifies each
    copy's fifteen orthogonality relations, by the set's own float-error
    bound _edge_bound(copies), and its apex-c3 angle on the deduplicated
    rays; ChainIntegrityError names the first link that fails.  The axis
    triple is judged by the same bound.  Those geometric checks tie every
    link to the ten-role graph, whose forcing lemma is computed once by
    exhaustive enumeration and read off, not assumed.
    """
    if not chain.copies:
        raise ValueError("ray set carries no gadget copies")
    roles = np.array([[cp[role] for role in GADGET_ROLES] for cp in chain.copies])
    for k in np.flatnonzero(roles[:-1, C3] != roles[1:, APEX])[:1].tolist():
        raise ChainIntegrityError(
            f"link {k}->{k + 1}: copy {k} c3 (node {roles[k, C3]}) is not "
            f"copy {k + 1} apex (node {roles[k + 1, APEX]})"
        )
    cyclic = len(roles) > 1 and bool(roles[-1, C3] == roles[0, APEX])

    bound = _edge_bound(len(roles))
    vecs = _ray_matrix(chain.rays)[roles]  # (copies, 10, 3)
    ends = np.array([*GADGET_EDGES, (APEX, C3)]).T  # the fifteen pairs, then apex-c3
    dots = np.abs((vecs[:, ends[0]] * vecs[:, ends[1]]).sum(axis=-1))
    residuals, cosines = dots[:, :-1].max(axis=1).tolist(), dots[:, -1].tolist()
    # math.acos, unlike np.arccos, keeps Ray3.angle_to's bits
    links = tuple(LinkReport(r, math.acos(min(1.0, c))) for r, c in zip(residuals, cosines))
    for k, link in enumerate(links):  # "not <=", so that a NaN fails
        if not link.max_edge_residual <= bound:
            raise ChainIntegrityError(
                f"link {k}: orthogonality residual {link.max_edge_residual} exceeds {bound}"
            )
        if not abs(link.angle - gadget_angle) <= REALIZE_TOL:
            raise ChainIntegrityError(
                f"link {k}: apex-c3 angle {link.angle} differs from {gadget_angle}"
            )
    forced = _gadget_lemma().forced_one_way

    axis_nodes = tuple(chain.index_of(ax) for ax in (X_AXIS, Y_AXIS, Z_AXIS))
    axes_present = all(i is not None for i in axis_nodes)
    axes_on_chain = axes_present and set(axis_nodes) <= set(roles[:, [APEX, C3]].ravel().tolist())
    axes_orthogonal = axes_present and all(
        abs(chain.rays[a].dot(chain.rays[b])) <= bound
        for a in axis_nodes
        for b in axis_nodes
        if a < b
    )
    return ChainReport(
        links=links,
        all_links_forced=forced,
        cyclic=cyclic,
        axis_nodes=axis_nodes if axes_present else None,
        axes_on_chain=axes_on_chain,
        contradiction_confirmed=forced and cyclic and axes_on_chain and axes_orthogonal,
    )
