"""CLI subcommands and the emitters (DOT, JSON, CSV)."""

import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ksparadox import ksgraph
from ksparadox.cli import main
from ksparadox.emit import counts_to_csv, fmt9, graph_to_dot, parse_dot_counts
from ksparadox.gadget import build_gadget, offdiagonal_parameters_for_angle
from ksparadox.ksgraph import (
    OrthogonalityGraph,
    RaySet,
    assemble_ks_set,
    build_orthogonality_graph,
)
from ksparadox.simulate import EnsembleSpec, run_sequence

PAPER117 = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "paper117"
# every command that takes --step-angle-deg, --gadget-x and --gadget-y
RAY_COMMANDS = (
    ["build-set"],
    ["check-coloring"],
    ["check-coloring", "--single-gadget"],
    ["emit-diagram"],
    ["emit-diagram", "--single-gadget"],
)
SINGLE_GADGET_COMMANDS = [c for c in RAY_COMMANDS if "--single-gadget" in c]
# sha256 of stdout and of every file written by the commands that read one
# gadget; the single gadget's verdict and diagram carry no coordinates, so
# the default step and 10 degrees give the same bytes
SINGLE_GADGET_SHAS = {
    "stdout": "d8946743b375f22301368218e3c9a5a38ddcd9d1c59e88ff9aeed23302927f94",
    "verdict.json": "65e8dfcb38d43c4beae5cb409f21ffde32f2afd7f6bfb1a120773edb4f0dc024",
    "graph.dot": "3b8adbeeabc4d685d56da1b9f1c0a2f090ace57fda095d1f688477c98a16240a",
}
GADGET_PINS = {
    "check-coloring --single-gadget --out verdict.json --dot graph.dot": SINGLE_GADGET_SHAS,
    "check-coloring --single-gadget --step-angle-deg 10 --out verdict.json --dot graph.dot": (
        SINGLE_GADGET_SHAS
    ),
    "emit-diagram --single-gadget": {
        "stdout": "3b8adbeeabc4d685d56da1b9f1c0a2f090ace57fda095d1f688477c98a16240a",
    },
    "verify-gadget --x 1 --y 1 --out gadget.json": {
        "stdout": "6f257eca39d0ec0dad3e182348d6e4bb2b7dfe841b4173fa1f2ff6866f7c87b3",
        "gadget.json": "180e7704a9ed650b56089ddaadff28e5a244ab96a717bb503756aaedde288288",
    },
    "verify-gadget --x 0.5 --y -2 --out gadget.json": {
        "stdout": "7b5cfe6cada71312f261d4ba3a096787c93ccc16bc64a321ca24bac038f45000",
        "gadget.json": "f120354ee83ed7f3318cc20a3cd622413fde73c6e2078eadf7bbfcfadca91ae3",
    },
    "verify-gadget --x -1.3 --y -0.7 --out gadget.json": {
        "stdout": "1cc1777e6add57a9f5651858eeaacc24394b5be2c63cbb2fdbf09deac0bc0586",
        "gadget.json": "ce371e300209662ccc69980c9049bda74e783b412a114bf76d48dfbeb9723c1d",
    },
    "verify-gadget --x 2.5 --y 0.3 --out gadget.json": {
        "stdout": "c8109cac224c610b3495ea8390b172f9aa4a86e540492936d762ad8749636a92",
        "gadget.json": "c814a3a94e02f71038a61b6b77f7667a14154b45f1dd764765735a4d0bb12d7e",
    },
}

# sha256 of stdout and of every file written by the README's verify-bound,
# vn and simulate examples; the default grid is 401, and --grid 41 pins the
# same stdout because both grids hold (+-1, +-1) exactly
STREAM_PINS = {
    "verify-bound": {
        "stdout": "5ba6ad655c4274b7ad13fafd8706cdde7f4c14a2108f70f25977799b3b40d132",
    },
    "verify-bound --grid 41": {
        "stdout": "5ba6ad655c4274b7ad13fafd8706cdde7f4c14a2108f70f25977799b3b40d132",
    },
    "vn": {
        "stdout": "2b6db1b84c567dc5bf3895af363181f19aafca31ddb5c908f5cce64dcc9631c5",
    },
    "vn --continuity --psi 0 --grid 37": {
        "stdout": "23060dd9dde3c39d03d976bc015c60779e72a215eadb6acfa09a81f6cd1bf080",
    },
    "vn --ensemble --n 100000 --seed 7": {
        "stdout": "d4bd4b47b33390b85bbc3826f08e6f96a9676a44bdf0acc2215b890ad3ac12d6",
    },
    "simulate --prep up@0 --measure 90 --n 100000 --seed 7 --csv counts.csv": {
        "stdout": "899727f943ca4850408e9abd3712e3188870112b94f3cda13e41b93e4b025863",
        "counts.csv": "7d9418286071f8fc87dc3a5603f5cb771527cd7c3ff4cb7d2d811a8a6096be88",
    },
}


def _output_shas(capsys, tmp_path, monkeypatch, command, names):
    """sha256 of stdout and of the named files that `command` writes in tmp_path."""
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 0
    got = {"stdout": capsys.readouterr().out.encode()}
    got.update((name, (tmp_path / name).read_bytes()) for name in names if name != "stdout")
    return {name: hashlib.sha256(data).hexdigest() for name, data in got.items()}


# sha256 of `tables` stdout, which is also the file `tables --out FILE` writes
TABLES_SHA = "8dd0d875809a0281e733680219aec1633c3b3a646c2bfa708d1cd56696bcabad"


class TestEmitters:
    def test_fmt9(self):
        assert fmt9(0.9428090415820634) == "0.942809042"
        assert fmt9(-0.0) == "0"

    def test_dot_single_gadget_roundtrip(self):
        gadget = build_gadget(*offdiagonal_parameters_for_angle(math.radians(18.0)))
        graph = build_orthogonality_graph(gadget)
        doc = graph_to_dot(graph)
        nodes, edges = parse_dot_counts(doc.text)
        assert (nodes, edges) == (10, 15)
        assert doc.text.count("// triad") == 3
        assert "shape=circle" in doc.text

    def test_dot_full_set_roundtrip(self):
        graph = build_orthogonality_graph(assemble_ks_set())
        doc = graph_to_dot(graph)
        nodes, edges = parse_dot_counts(doc.text)
        assert nodes == graph.node_count
        assert edges == len(graph.edges)

    def test_dot_escapes_quotes_and_backslashes_in_labels(self):
        # unescaped, the first label would add a node statement and the
        # second would swallow its closing quote
        labels = ('x"];  n7 [label="evil', "ends in \\", "plain")
        text = graph_to_dot(build_orthogonality_graph(RaySet(np.eye(3), labels))).text
        assert [line for line in text.splitlines() if "[label=" in line] == [
            '  n0 [label="x\\"];  n7 [label=\\"evil"];',
            '  n1 [label="ends in \\\\"];',
            '  n2 [label="plain"];',
        ]

    @pytest.mark.parametrize(
        "label, line",
        [
            ("a{b", '  n0 [label="a{b"];'),
            ("}", '  n0 [label="}"];'),
            ('a\n  n7 [label="x', '  n0 [label="a\\n  n7 [label=\\"x"];'),
            ("a\r\nb", '  n0 [label="a\\r\\nb"];'),
        ],
        ids=["open-brace", "close-brace", "newline", "carriage-return"],
    )
    def test_dot_reads_back_any_label(self, label, line):
        # a brace in a label is not the block's, and a line break in one
        # would start a statement of its own
        doc = graph_to_dot(OrthogonalityGraph(2, [(0, 1)], (label, "c")))
        assert doc.text.splitlines()[2] == line
        assert parse_dot_counts(doc.text) == (2, 1)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "graph g {\n  n0 [label=\"a\"];\n",
            "  n0 [label=\"a\"];\n}\n",
            "graph g {\n}\ngraph h {\n}\n",
            "graph g {\n  n0 [label=\"a\"];\n}\n}\n",
        ],
        ids=["empty", "unclosed", "unopened", "two-blocks", "closed-twice"],
    )
    def test_dot_read_back_needs_one_block(self, text):
        with pytest.raises(ValueError, match="expected exactly one graph block"):
            parse_dot_counts(text)

    def test_dot_that_does_not_read_back_is_an_error(self, monkeypatch):
        monkeypatch.setattr("ksparadox.emit.parse_dot_counts", lambda text: (-1, -1))
        with pytest.raises(ValueError, match="does not read back"):
            graph_to_dot(OrthogonalityGraph(2, [(0, 1)]))

    @pytest.mark.parametrize(
        "command", [["check-coloring", "--dot"], ["emit-diagram", "--out"]], ids=" ".join
    )
    def test_every_dot_writer_reads_back(self, capsys, tmp_path, monkeypatch, command):
        # check-coloring --dot and emit-diagram write through graph_to_dot,
        # so a read-back that fails stops both before a file is written
        monkeypatch.setattr("ksparadox.emit.parse_dot_counts", lambda text: (-1, -1))
        path = tmp_path / "graph.dot"
        assert main([*command, str(path)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: emitted DOT does not read back to its own node and edge counts"
        assert not path.exists()

    def test_failed_output_writes_no_file(self, capsys, tmp_path, monkeypatch):
        # check-coloring builds the census, verdict and DOT texts before the
        # first write, so a DOT that fails its read-back leaves no file at all
        monkeypatch.setattr("ksparadox.emit.parse_dot_counts", lambda text: (-1, -1))
        census, out, dot = paths = [tmp_path / name for name in ("c.txt", "v.json", "g.dot")]
        argv = ["--census", str(census), "--out", str(out), "--dot", str(dot)]
        assert main(["check-coloring", *argv]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        assert not any(path.exists() for path in paths)

    def test_dot_names_only_unlabeled_graphs_by_position(self):
        text = graph_to_dot(OrthogonalityGraph(2, [(0, 1)])).text
        assert '  n0 [label="r0"];\n  n1 [label="r1"];\n' in text
        # an empty label would draw as r0 beside the node labeled r0
        with pytest.raises(ValueError, match="^label '' is empty$"):
            graph_to_dot(RaySet(np.eye(3), ("", "r0", "x")).graph)

    def test_counts_csv(self):
        counts = run_sequence(EnsembleSpec(1000, None, seed=1), [0.0, math.pi / 2])
        text = counts_to_csv(counts, seed=1)
        lines = text.strip().splitlines()
        assert lines[0].startswith("# generator=numpy.random.PCG64 seed=1")
        assert lines[1] == "stage,theta_deg,n_plus,n_minus,N"
        assert len(lines) == 4
        assert lines[2].split(",")[-1] == "1000"


class TestCliCommands:
    def test_verify_bound(self, capsys):
        assert main(["verify-bound"]) == 0
        out = capsys.readouterr().out
        assert "0.942809042" in out
        assert "19.4712206" in out
        assert "(1, 1)" in out

    def test_verify_gadget(self, capsys):
        assert main(["verify-gadget", "--x", "1", "--y", "1"]) == 0
        out = capsys.readouterr().out
        assert "apex=1 forces c3=1: True" in out
        assert "symmetric forcing: False" in out
        assert "admissible assignments: 22" in out
        assert "coinciding roles" not in out

    @pytest.mark.parametrize(
        "x, y, line",
        [
            ("0", "0", "a3=apex, b1=a1, b2=a2, b3=apex, c1=a2, c2=a1, c3=apex"),
            ("1", "1e-9", "c3=a3"),
            # within the bound of each other, but not transitively
            ("1e-14", "2e-14", "merging rays within |u x v| <= 2.13e-14 is not transitive here"),
        ],
        ids=["zero", "tiny-y", "not-transitive"],
    )
    def test_verify_gadget_names_coinciding_roles(self, capsys, x, y, line):
        assert main(["verify-gadget", "--x", x, "--y", y]) == 0
        out = capsys.readouterr().out
        assert out.endswith(f"symmetric forcing: False\ncoinciding roles: {line}\n")

    def test_build_set_census_and_json(self, capsys, tmp_path):
        out_path = tmp_path / "rays.json"
        assert main(["build-set", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "distinct rays: 117" in out
        assert "labeled triad rays: 135 (18 merged)" in out
        doc = json.loads(out_path.read_text())
        assert len(doc["rays"]) == 117
        assert len(doc["copies"]) == 15
        assert set(doc["provenance"]) == {"gadget_x", "gadget_y", "schedule", "step_angle"}

    def test_check_coloring_defaults_unsat_exit_zero(self, capsys, tmp_path):
        verdict_path = tmp_path / "verdict.json"
        dot_path = tmp_path / "diagram.dot"
        assert (
            main(
                [
                    "check-coloring",
                    "--out",
                    str(verdict_path),
                    "--dot",
                    str(dot_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "verdict: UNSAT" in out
        assert "forced: 15" in out
        doc = json.loads(verdict_path.read_text())
        assert doc["outcome"] == "UNSAT"
        assert doc["certificate_digest"]
        nodes, edges = parse_dot_counts(dot_path.read_text())
        assert (nodes, edges) == (117, 204)

    def test_check_coloring_matches_paper117_reference(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        files = ("verdict.json", "graph.dot", "census.txt")
        argv = ["check-coloring", "--out", files[0], "--dot", files[1], "--census", files[2]]
        assert main(argv) == 0
        assert capsys.readouterr().out.encode() == (PAPER117 / "stdout.txt").read_bytes()
        for name in files:
            assert (tmp_path / name).read_bytes() == (PAPER117 / name).read_bytes(), name

    def test_check_coloring_scans_the_pairs_twice(self, capsys, monkeypatch):
        # once for dedup and once for the graph, which the chain audit reads
        calls = []
        scan = ksgraph._upper_pairs
        monkeypatch.setattr(ksgraph, "_upper_pairs", lambda *a: calls.append(1) or scan(*a))
        assert main(["check-coloring"]) == 0
        assert "chain: contradiction: equal values" in capsys.readouterr().out
        assert len(calls) == 2

    def test_check_coloring_10_degree_stdout(self, capsys):
        assert main(["check-coloring", "--step-angle-deg", "10"]) == 0
        assert capsys.readouterr().out == (
            "rays: 213 (from 243 labeled), edges: 372, triads: 79\n"
            "verdict: UNSAT\n"
            "search: 452 decisions, 1862 propagations, depth 17\n"
            "chain: links: 27, forced: 27\n"
            "chain: cyclic closure: True\n"
            "chain: coordinate axes at nodes (72, 7, 71), on chain: True\n"
            "chain: contradiction: equal values forced on a mutually orthogonal triple\n"
        )

    def test_check_coloring_negative_gadget_x_is_the_default_sweep(self, capsys):
        # (-x, y) realizes 18 deg too; the seed copy is oriented to close the sweep
        assert main(["check-coloring"]) == 0
        default = capsys.readouterr().out
        _, y = offdiagonal_parameters_for_angle(math.radians(18.0))
        assert main(["check-coloring", "--gadget-x", "-1", "--gadget-y", repr(y)]) == 0
        assert capsys.readouterr().out == default

    def test_step_angle_not_dividing_90_is_an_error_exit(self, capsys):
        assert main(["check-coloring", "--step-angle-deg", "17"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_check_coloring_single_gadget(self, capsys):
        assert main(["check-coloring", "--single-gadget"]) == 0
        out = capsys.readouterr().out
        assert "verdict: SAT" in out
        assert "apex=1 forces c3=1: True" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "spin-half,0,+,1,0" in out
        assert "# coincidence: (90 deg, -) == (270 deg, +)" in out
        assert "spin-1,+z,1,0,0,1" in out

    @pytest.mark.parametrize("out", [None, "tables.csv"], ids=["stdout", "out-file"])
    def test_tables_bytes_pinned(self, capsys, tmp_path, monkeypatch, out):
        # the eigenvector rows, their coincidences and the spin-1 contexts,
        # printed or written: the same bytes either way
        monkeypatch.chdir(tmp_path)
        assert main(["tables"] + (["--out", out] if out else [])) == 0
        stdout = capsys.readouterr().out
        if out is None:
            data = stdout.encode()
        else:
            assert stdout == f"wrote {out}\n"
            data = (tmp_path / out).read_bytes()
        assert hashlib.sha256(data).hexdigest() == TABLES_SHA

    def test_simulate(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--prep",
                    "up@0",
                    "--measure",
                    "90",
                    "--n",
                    "100000",
                    "--seed",
                    "7",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "seed: 7" in out
        frac = float(out.split("up-fraction ")[1].split()[0])
        assert abs(frac - 0.5) <= 0.0063  # 4 sigma at n = 1e5

    def test_vn_default(self, capsys):
        assert main(["vn"]) == 0
        out = capsys.readouterr().out
        assert "0 of 4 value combinations consistent" in out

    def test_vn_continuity(self, capsys):
        assert main(["vn", "--continuity", "--psi", "0", "--grid", "37"]) == 0
        out = capsys.readouterr().out
        assert out.count("phi ") == 37
        assert "continuity scan: 37 overlaps" in out

    def test_emit_diagram_single_gadget(self, capsys):
        assert main(["emit-diagram", "--single-gadget"]) == 0
        out = capsys.readouterr().out
        nodes, edges = parse_dot_counts(out)
        assert (nodes, edges) == (10, 15)

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["build-set", "--out", str(a)]) == 0
        assert main(["build-set", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "degrees, json_sha, census_sha",
        [
            (
                "18",
                "0027f9cdd47e289bf020899d5550f0871c6718d9ae110d9fca2b41b95f9f7d62",
                "d74237f25da7f81b4fd396b92e546ce19aad3ecb542d7f0688f973155f74b47d",
            ),
            (
                "10",
                "30520ef029792f4064668eb02bf8ec3f6df2350e03e810fbb6e5ab2fb836248b",
                "9e66f4e48daadba8f1d94ffd7fc9596d5447025af622b392f048e32afd04b9b5",
            ),
            (
                "2.25",
                "d5293f8b932255c49985327a2af439efac8384b21fadfa956093840032a2464e",
                "4fa422e84a33f1b8b4c0687453419b9572b95dd116bbc386239f8300206af75f",
            ),
        ],
    )
    def test_build_set_json_and_census_bytes_pinned(
        self, capsys, tmp_path, degrees, json_sha, census_sha
    ):
        # the ray-set JSON names each copy's rays by role; the census lists
        # each copy's triads: both must keep their bytes
        out_path = tmp_path / "rays.json"
        assert main(["build-set", "--step-angle-deg", degrees, "--out", str(out_path)]) == 0
        census = capsys.readouterr().out.removesuffix(f"wrote {out_path}\n")
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == json_sha
        assert hashlib.sha256(census.encode()).hexdigest() == census_sha

    @pytest.mark.parametrize("command", GADGET_PINS)
    def test_single_gadget_and_verify_gadget_bytes_pinned(
        self, capsys, tmp_path, monkeypatch, command
    ):
        shas = GADGET_PINS[command]
        assert _output_shas(capsys, tmp_path, monkeypatch, command, shas) == shas

    @pytest.mark.parametrize("command", STREAM_PINS)
    def test_bound_vn_and_simulate_bytes_pinned(self, capsys, tmp_path, monkeypatch, command):
        shas = STREAM_PINS[command]
        assert _output_shas(capsys, tmp_path, monkeypatch, command, shas) == shas

    def test_overflowing_gadget_is_an_error_exit(self, capsys):
        assert main(["verify-gadget", "--x", "1e200", "--y", "1"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot normalize")

    @pytest.mark.parametrize("x", ["1e200", "1"])
    def test_overflowing_y_cubed_is_an_error_exit(self, capsys, x):
        assert main(["verify-gadget", "--x", x, "--y", "1e200"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: parameters ({float(x)}, 1e+200) overflow the construction vectors\n"
        )

    def test_census_with_single_gadget_is_an_error_exit(self, capsys, tmp_path):
        census = tmp_path / "census.txt"
        assert main(["check-coloring", "--single-gadget", "--census", str(census)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --census needs the swept set; it does not apply with --single-gadget\n"
        )
        assert not census.exists()

    def test_non_finite_apparatus_is_an_error_exit(self, capsys):
        for angle in ("nan", "inf"):
            assert main(["simulate", "--measure", "0", "--measure", angle, "--n", "10"]) == 1
            assert "error: apparatus angles must be finite" in capsys.readouterr().err

    def test_oversized_ensemble_is_an_error_exit(self, capsys):
        assert main(["simulate", "--n", str(2**63), "--measure", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: ensemble size must be at most 2**63 - 1, got {2**63}\n"

    def test_huge_ensemble_allocates_nothing_per_particle(self, capsys):
        argv = ["simulate", "--n", "100000000000", "--measure", "0", "--measure", "90"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("stage 1 @ 0 deg: n+=")
        n_plus, n_minus = (int(part[3:]) for part in lines[2].split(": ")[1].split()[:2])
        assert n_plus + n_minus == 100_000_000_000

    def test_bad_prep_is_an_error_exit(self, capsys):
        assert main(["simulate", "--prep", "sideways@3", "--measure", "0"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--measure", "0", "--n", "10"], ["vn", "--ensemble", "--n", "10"]],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_an_error_exit(self, capsys, argv):
        assert main([*argv, "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["vn", "--ensemble", "--n", "0"], "ensemble size must be at least 1"),
            (["vn", "--continuity", "--grid", "1"], "grid needs at least 2 points"),
            (["vn", "--continuity", "--psi", "nan"], "psi angle must be finite, got nan"),
            (
                ["vn", "--ensemble", "--n", str(2**63)],
                f"ensemble size must be at most 2**63 - 1, got {2**63}",
            ),
        ],
    )
    def test_vn_bad_input_prints_nothing_before_the_error(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "callee, argv",
        [
            ("run_sequence", ["simulate", "--measure", "10", "--n", "10"]),
            ("minimize_gadget_cosine", ["verify-bound", "--grid", "5"]),
        ],
    )
    @pytest.mark.parametrize(
        "exc, line",
        [
            (
                MemoryError("Unable to allocate 9.09 TiB"),
                "error: out of memory: Unable to allocate 9.09 TiB",
            ),
            (MemoryError(), "error: out of memory"),
        ],
        ids=["numpy", "bare"],
    )
    def test_allocation_failure_is_an_error_exit(
        self, capsys, monkeypatch, callee, argv, exc, line
    ):
        # raised by a stand-in: a real oversized array may be accepted by a
        # host that overcommits memory
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(f"ksparadox.cli.{callee}", fail)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == line + "\n"

    def test_mismatched_gadget_flags(self, capsys):
        for command in RAY_COMMANDS:
            for flag in ("--gadget-x", "--gadget-y"):
                assert main([*command, flag, "1.0"]) == 1
                assert "provide both" in capsys.readouterr().err

    def test_verify_bound_grid_too_small_is_an_error_exit(self, capsys):
        for grid in ("1", "0"):
            assert main(["verify-bound", "--grid", grid]) == 1
            assert "error: grid needs at least 2 points" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["25", "0", "-5", "nan"])
    @pytest.mark.parametrize("command", RAY_COMMANDS, ids=" ".join)
    def test_step_out_of_range_is_an_error_exit(self, capsys, command, step):
        assert main([*command, "--step-angle-deg", step]) == 1
        err = capsys.readouterr().err
        assert f"error: angle {step} deg outside [0.00010177775, 19.4712206] deg" in err

    @pytest.mark.parametrize("target", [1e-9, 1e-7])
    def test_tiny_step_is_an_error_exit(self, capsys, target):
        # steps under MIN_GADGET_ANGLE (1.8e-6 rad) fail the range check
        step = f"{math.degrees(target):.17g}"
        assert main(["check-coloring", "--step-angle-deg", step]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: angle ")
        assert line.endswith(" deg outside [0.00010177775, 19.4712206] deg")

    def test_oversized_sweep_is_an_error_exit(self, capsys):
        # 0.0001125 deg passes the range and divides-90 checks but gives
        # k = 800,000; the schedule is rejected before any copy is built
        assert main(["check-coloring", "--step-angle-deg", "0.0001125"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: step angle ")
        assert line.endswith(" steps per leg; the edge rule holds up to 90 (steps of 1 deg)")

    @pytest.mark.parametrize("command", RAY_COMMANDS, ids=" ".join)
    def test_gadget_parameters_must_realize_step(self, capsys, command):
        assert main([*command, "--gadget-x", "1", "--gadget-y", "1"]) == 1
        assert "realizes 19.4712206 deg, not 18 deg" in capsys.readouterr().err

    def test_infinite_gadget_parameter_is_an_error_exit(self, capsys):
        assert main(["check-coloring", "--gadget-x", "inf", "--gadget-y", "1"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error: parameters must be finite, got (inf, 1.0)"

    @pytest.mark.parametrize("command", [["build-set"], ["check-coloring"]], ids=" ".join)
    def test_non_finite_gadget_angle_is_an_error_exit(self, capsys, command):
        # the closed form overflows to nan at x = 1e200
        assert main([*command, "--gadget-x", "1e200", "--gadget-y", "1"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: gadget at (1e+200, 1.0) realizes nan deg")

    @pytest.mark.parametrize("command", SINGLE_GADGET_COMMANDS, ids=" ".join)
    def test_single_gadget_matching_parameters(self, capsys, command):
        assert main([*command, "--gadget-x", "1", "--gadget-y", "0.6591534292378007"]) == 0
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", SINGLE_GADGET_COMMANDS, ids=" ".join)
    def test_single_gadget_needs_no_schedule(self, capsys, command):
        # 17 deg does not divide 90, but one gadget is never swept
        assert main([*command, "--step-angle-deg", "17"]) == 0


OPEN_K40 = (
    "from ksparadox.ksgraph import RotationStep, assemble_ks_set, build_orthogonality_graph\n"
    "step = math.radians(2.25)\n"
    "pivot = RotationStep('c3', math.pi / 2, 1, emit=False)\n"
    "legs = [RotationStep('c2', step, n) for n in (39, 40, 38)]\n"
    "rs = assemble_ks_set(step, (legs[0], pivot, legs[1], pivot, legs[2]))\n"
    "graph = build_orthogonality_graph(rs)\n"
)


@pytest.mark.parametrize(
    "code",
    [
        "from ksparadox.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(['check-coloring'])",
        OPEN_K40,
        OPEN_K40 + "from ksparadox.solver import check_colorability, forcing_chain_check\n"
        "assert check_colorability(graph).outcome == 'SAT'\n"
        "assert forcing_chain_check(step, rs).all_links_forced",
    ],
    ids=["check-coloring", "open-k40 graph", "open-k40 pipeline"],
)
def test_ray_set_path_does_not_import_numpy_ma(code):
    # np.unique, np.setdiff1d and np.isin import numpy.ma (numpy 2.4), which
    # costs the CLI process its import time and about 2 MB of memory; past
    # `import ksparadox`, the library's own stages import no module at all,
    # so they add nothing to a run's set-up time or peak memory
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import contextlib, io, math, sys\nimport ksparadox\nloaded = set(sys.modules)\n"
        f"{code}\nprint(sorted(set(sys.modules) - loaded))"
    )
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    added = ast.literal_eval(done.stdout.splitlines()[-1])
    assert "numpy.ma" not in added
    if "ksparadox.cli" not in code:  # the CLI brings argparse and the emitters
        assert added == []
