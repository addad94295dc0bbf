"""CLI subcommands and the emitters (DOT, JSON, CSV)."""

import json
import math
from pathlib import Path

import pytest

from ksparadox.cli import main
from ksparadox.emit import counts_to_csv, fmt9, graph_to_dot, parse_dot_counts
from ksparadox.gadget import build_gadget, offdiagonal_parameters_for_angle
from ksparadox.ksgraph import assemble_ks_set, build_orthogonality_graph
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


class TestEmitters:
    def test_fmt9(self):
        assert fmt9(0.9428090415820634) == "0.942809042"
        assert fmt9(-0.0) == "0"

    def test_dot_single_gadget_roundtrip(self):
        gadget = build_gadget(*offdiagonal_parameters_for_angle(math.radians(18.0)))
        graph = build_orthogonality_graph(gadget.rays)
        doc = graph_to_dot(graph)
        nodes, edges = parse_dot_counts(doc.text)
        assert (nodes, edges) == (10, 15)
        assert doc.text.count("// triad") == 3
        assert "shape=circle" in doc.text

    def test_dot_full_set_roundtrip(self):
        graph = build_orthogonality_graph(assemble_ks_set())
        doc = graph_to_dot(graph)
        nodes, edges = parse_dot_counts(doc.text)
        assert nodes == graph.node_count == doc.node_count
        assert edges == len(graph.edges) == doc.edge_count

    def test_counts_csv(self):
        counts = run_sequence(EnsembleSpec.unpolarized(1000, seed=1), [0.0, math.pi / 2])
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

    def test_build_set_census_and_json(self, capsys, tmp_path):
        out_path = tmp_path / "rays.json"
        assert main(["build-set", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "distinct rays: 117" in out
        assert "labeled triad rays: 135 (18 merged)" in out
        doc = json.loads(out_path.read_text())
        assert len(doc["rays"]) == 117
        assert len(doc["copies"]) == 15

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

    def test_overflowing_gadget_is_an_error_exit(self, capsys):
        assert main(["verify-gadget", "--x", "1e200", "--y", "1"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: cannot normalize")

    def test_non_finite_apparatus_is_an_error_exit(self, capsys):
        for angle in ("nan", "inf"):
            assert main(["simulate", "--measure", "0", "--measure", angle, "--n", "10"]) == 1
            assert "error: apparatus angles must be finite" in capsys.readouterr().err

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
