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

from .gadget import GADGET_TRIADS
from .ksgraph import OrthogonalityGraph, RaySet
from .simulate import GENERATOR_NAME, EnsembleCounts


def fmt9(value: float) -> str:
    """Numbers rendered with 9 significant digits (negative zero folded)."""
    return format(float(value) + 0.0, ".9g")


@dataclass(frozen=True)
class DiagramDocument:
    """DOT text of an orthogonality graph."""

    text: str


def graph_to_dot(g: OrthogonalityGraph) -> DiagramDocument:
    """Render the orthogonality graph as undirected DOT named ksdiagram.

    Nodes are open circles (DOT's unfilled circle shape) with escaped
    labels, so each statement stays on its own line; edges are plain
    lines; triads are listed as comments.  ValueError unless the text
    reads back (parse_dot_counts) to the graph's node and edge counts.
    """
    lines = ["graph ksdiagram {", '  node [shape=circle, style=""];']
    for i, label in enumerate(g.labels or [f"r{i}" for i in range(g.node_count)]):
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        label = label.replace("\n", "\\n").replace("\r", "\\r")
        lines.append(f'  n{i} [label="{label}"];')
    lines += (f"  n{i} -- n{j};" for i, j in g.edges)
    lines += (f"  // triad {a} {b} {c}" for a, b, c in g.triads)
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if parse_dot_counts(text) != (g.node_count, len(g.edges)):
        raise ValueError("emitted DOT does not read back to its own node and edge counts")
    return DiagramDocument(text)


_OPEN_RE = re.compile(r"^\s*graph\s+\w+\s*\{\s*$")
_NODE_RE = re.compile(r"^\s*n(\d+)\s*\[label=")
_EDGE_RE = re.compile(r"^\s*n(\d+)\s*--\s*n(\d+)\s*;")


def parse_dot_counts(text: str) -> tuple[int, int]:
    """Node and edge counts read back from emitted DOT; also checks that the
    text is one graph block: its first line opens the block, its last line
    closes it and no line between does either.  Braces inside quoted labels
    count for nothing."""
    lines = text.splitlines()
    if not (lines and _OPEN_RE.match(lines[0]) and lines[-1].strip() == "}") or any(
        _OPEN_RE.match(s) or s.strip() == "}" for s in lines[1:-1]
    ):
        raise ValueError("expected exactly one graph block")
    return sum(1 for s in lines if _NODE_RE.match(s)), sum(1 for s in lines if _EDGE_RE.match(s))


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


def census_text(rs: RaySet) -> str:
    """Human-readable census of the assembled ray set.

    Reports labeled versus distinct totals, the merge count, which triad
    labels land on each coordinate axis, and the rays of each copy's three
    contexts (three triads per gadget copy).
    """
    triad_index = rs.triad_index
    merged = len(triad_index) - len(set(triad_index.values()))
    lines = [
        f"distinct rays: {len(rs.labels)}",
        f"labeled triad rays: {len(triad_index)} ({merged} merged)",
        f"gadget copies: {len(rs.copies)}",
    ]
    for name, idx in zip("xyz", rs.axis_nodes):  # None, an absent axis, matches no label
        hits = sorted(lb for lb, k in triad_index.items() if k == idx)
        lines.append(f"axis {name}: {len(hits)} triad labels ({', '.join(hits)})")
    lines.append("")
    rows = [" ".join(map(fmt9, xyz)) for xyz in rs.matrix.tolist()]
    for ci, triads in enumerate(rs.copies[:, GADGET_TRIADS].tolist()):
        for triad_name, nodes in zip("ABC", triads):
            coords = ", ".join(f"({rows[k]})" for k in nodes)
            lines.append(f"g{ci + 1:02d}.{triad_name}: nodes {nodes} {coords}")
    return "\n".join(lines) + "\n"
