"""Emitters: DOT diagrams, JSON documents, CSV tables, and the ray census.

The DOT form draws each ray as a small open circle and each orthogonal pair
as a plain connecting line, so a triangle of circles is a mutually
orthogonal triple.  Emission is deterministic: same input, same bytes.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import Sequence

from .gadget import GADGET_ROLES, GADGET_TRIADS
from .ksgraph import OrthogonalityGraph, RaySet
from .linalg import X_AXIS, Y_AXIS, Z_AXIS
from .simulate import GENERATOR_NAME, EnsembleCounts


def fmt9(value: float) -> str:
    """Numbers rendered with 9 significant digits (negative zero folded)."""
    return format(float(value) + 0.0, ".9g")


@dataclass(frozen=True)
class DiagramDocument:
    """DOT text plus the node/edge counts it encodes."""

    text: str
    node_count: int
    edge_count: int


def graph_to_dot(g: OrthogonalityGraph) -> DiagramDocument:
    """Render the orthogonality graph as undirected DOT named ksdiagram.

    Nodes are open circles (DOT's unfilled circle shape); edges are plain
    lines; triads are listed as comments.
    """
    lines = ["graph ksdiagram {"]
    lines.append('  node [shape=circle, style=""];')
    for i in range(g.node_count):
        label = g.rays[i].label if g.rays is not None and g.rays[i].label else f"r{i}"
        lines.append(f'  n{i} [label="{label}"];')
    for i, j in g.edges:
        lines.append(f"  n{i} -- n{j};")
    for t in g.triads:
        lines.append(f"  // triad {t[0]} {t[1]} {t[2]}")
    lines.append("}")
    return DiagramDocument(
        text="\n".join(lines) + "\n", node_count=g.node_count, edge_count=len(g.edges)
    )


_NODE_RE = re.compile(r"^\s*n(\d+)\s*\[label=")
_EDGE_RE = re.compile(r"^\s*n(\d+)\s*--\s*n(\d+)\s*;")


def parse_dot_counts(text: str) -> tuple[int, int]:
    """Node and edge counts read back from emitted DOT; also sanity-checks
    the brace structure."""
    if text.count("{") != 1 or text.count("}") != 1:
        raise ValueError("expected exactly one graph block")
    nodes = 0
    edges = 0
    for line in text.splitlines():
        if _NODE_RE.match(line):
            nodes += 1
        elif _EDGE_RE.match(line):
            edges += 1
    return nodes, edges


def counts_to_csv(counts: Sequence[EnsembleCounts], seed: int) -> str:
    """Per-stage counts as CSV with the generator and seed recorded."""
    lines = [
        f"# generator={GENERATOR_NAME} seed={seed}",
        "stage,theta_deg,n_plus,n_minus,N",
    ]
    for c in counts:
        lines.append(
            f"{c.stage},{fmt9(math.degrees(c.theta))},{c.n_plus},{c.n_minus},{c.total}"
        )
    return "\n".join(lines) + "\n"


def to_json(document: dict | list) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def ray_census(rs: RaySet) -> dict:
    """Counts and groupings of the assembled ray set.

    Reports labeled versus distinct totals, the merge count, how many
    labels land on each coordinate axis, and the per-copy context grouping
    (three triads per gadget copy).
    """
    triad_labels = rs.triad_label_count
    axis_hits = {}
    for name, axis in (("x", X_AXIS), ("y", Y_AXIS), ("z", Z_AXIS)):
        idx = rs.index_of(axis)
        if idx is None:
            axis_hits[name] = []
        else:
            axis_hits[name] = sorted(
                lb
                for lb, k in rs.label_to_index.items()
                if k == idx and not lb.endswith("apex")
            )
    contexts = []
    for ci, cp in enumerate(rs.copies):
        for triad_name, triad in zip("ABC", GADGET_TRIADS):
            contexts.append(
                {
                    "context": f"g{ci + 1:02d}.{triad_name}",
                    "nodes": [cp[GADGET_ROLES[i]] for i in triad],
                }
            )
    return {
        "distinct_rays": len(rs.rays),
        "triad_labels": triad_labels,
        "triad_label_merges": triad_labels - len(
            {k for lb, k in rs.label_to_index.items() if not lb.endswith("apex")}
        ),
        "copies": len(rs.copies),
        "axis_label_hits": axis_hits,
        "contexts": contexts,
        "provenance": dict(rs.provenance),
    }


def census_text(rs: RaySet) -> str:
    """Human-readable census: summary plus the context-grouped ray table."""
    census = ray_census(rs)
    lines = [
        f"distinct rays: {census['distinct_rays']}",
        f"labeled triad rays: {census['triad_labels']} "
        f"({census['triad_label_merges']} merged)",
        f"gadget copies: {census['copies']}",
    ]
    for name, hits in census["axis_label_hits"].items():
        lines.append(f"axis {name}: {len(hits)} triad labels ({', '.join(hits)})")
    lines.append("")
    for ctx in census["contexts"]:
        nodes = ctx["nodes"]
        coords = ", ".join(
            "(" + " ".join(fmt9(c) for c in (rs.rays[k].x, rs.rays[k].y, rs.rays[k].z)) + ")"
            for k in nodes
        )
        lines.append(f"{ctx['context']}: nodes {nodes} {coords}")
    return "\n".join(lines) + "\n"
