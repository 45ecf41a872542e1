"""The command-line surface: parsing, outputs, exit codes, determinism."""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from edgesat.cli import main


@pytest.fixture
def triangle_file(tmp_path):
    p = tmp_path / "triangle.txt"
    p.write_text("3 3\n1 2\n1 3\n2 3\n")
    return str(p)


@pytest.fixture
def tailed_triangle_file(tmp_path):
    p = tmp_path / "tailed.txt"
    p.write_text("5 5\n1 2\n1 3\n2 3\n3 4\n4 5\n")
    return str(p)


def run(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestNu:
    def test_triangle_ones(self, capsys, triangle_file):
        code, out = run(capsys, "nu", triangle_file, "1,1,1")
        assert code == 0 and "nu = 1" in out

    def test_triangle_221_json(self, capsys, triangle_file):
        code, out = run(capsys, "nu", "--json", triangle_file, "2,2,1")
        payload = json.loads(out)
        assert code == 0 and payload["nu"] == 2
        assert payload["graph"]["vertices"] == ["1:2", "2:2", "3:1"]
        assert len(payload["matching"]) == 2

    def test_golden_json(self, capsys):
        code, out = run(capsys, "nu", "--json", "--edges", "1-2,1-3,2-3", "2,2,1")
        assert code == 0
        assert out == (
            '{"graph":{"edges":[[1,2],[1,3],[2,3]],"vertices":["1:2","2:2","3:1"]},'
            '"matching":[[1,2],[1,2]],"nu":2}\n'
        )

    def test_malformed_weights(self, capsys, triangle_file):
        assert main(["nu", triangle_file, "1,x,1"]) == 2

    def test_wrong_length(self, capsys, triangle_file):
        assert main(["nu", triangle_file, "1,1"]) == 2

    @pytest.mark.parametrize("weights", ["99999999999999999999,1", "1024,1"])
    def test_blow_up_past_its_budget_refused(self, capsys, weights):
        # the blow-up has one clone per unit of weight: 1,024 at most
        assert main(["nu", "--edges", "1-2", weights]) == 2
        captured = capsys.readouterr()
        assert "past its budget of 1024" in captured.err and captured.out == ""

    def test_blow_up_at_its_budget_answers(self, capsys):
        k8 = ",".join(f"{u}-{v}" for u in range(1, 9) for v in range(u + 1, 9))
        code, out = run(capsys, "nu", "--edges", k8, ",".join(["128"] * 8))
        assert code == 0 and out.startswith("nu = 512\n")


class TestSat:
    def test_triangle(self, capsys, triangle_file):
        code, out = run(capsys, "sat", "--json", triangle_file, "2", "1,1,1")
        payload = json.loads(out)
        assert code == 0
        assert payload == {
            "t": 2, "in_power": False, "in_saturation": True, "in_diff": True,
        }

    def test_pentagon_inline_edges(self, capsys):
        code, out = run(
            capsys, "sat", "--json", "--edges", "1-2,2-3,3-4,4-5,1-5",
            "3", "1,1,1,1,1",
        )
        assert code == 0 and json.loads(out)["in_diff"] is True

    def test_zero_vector(self, capsys, triangle_file):
        code, out = run(capsys, "sat", "--json", triangle_file, "1", "0,0,0")
        payload = json.loads(out)
        assert payload["in_power"] is False and payload["in_saturation"] is False


class TestAss:
    def test_methods_agree_on_tailed_triangle(self, capsys, tailed_triangle_file):
        results = {}
        for method in ("formula", "oracle", "classified"):
            code, out = run(capsys, "ass", "--json", tailed_triangle_file, "2", "--method", method)
            assert code == 0
            results[method] = {tuple(p["vertices"]) for p in json.loads(out)["primes"]}
        assert results["formula"] == results["oracle"] == results["classified"]
        assert (1, 2, 3, 4) in results["formula"]
        assert (1, 2, 3, 4, 5) not in results["formula"]

    def test_human_output_prints_m_for_maximal(self, capsys, triangle_file):
        code, out = run(capsys, "ass", triangle_file, "2")
        assert code == 0 and "m" in out.split()

    def test_ass2_ass3(self, capsys, tailed_triangle_file):
        code, out = run(capsys, "ass2", "--json", tailed_triangle_file)
        assert code == 0 and json.loads(out)["t"] == 2
        code, out = run(capsys, "ass3", "--json", tailed_triangle_file)
        assert code == 0 and json.loads(out)["t"] == 3

    def test_classified_rejects_other_t(self, capsys, triangle_file):
        assert main(["ass", triangle_file, "4", "--method", "classified"]) == 2

    def test_oracle_table_past_its_budget_refused(self, capsys):
        # I^2 of the 30-vertex path spans a 3^30 box: refused before any table is built
        path = ",".join(f"{i}-{i + 1}" for i in range(1, 30))
        assert main(["ass", "--edges", path, "2", "--method", "oracle"]) == 2
        captured = capsys.readouterr()
        assert "past its budget" in captured.err and captured.out == ""

    def test_oracle_axis_masks_past_their_budget_refused(self, capsys):
        # I^1 of the 29-vertex path: 2^29 cells pass the cell budget, 29 axis masks do not
        path = ",".join(f"{i}-{i + 1}" for i in range(1, 29))
        assert main(["ass", "--edges", path, "1", "--method", "oracle"]) == 2
        captured = capsys.readouterr()
        assert f"oracle table of {2**29} cells with axis masks is past" in captured.err
        assert captured.out == ""

    def test_oracle_box_refused_before_the_power_is_grown(self, capsys):
        # I^7 of G10 spans an 8^10 box; I^6 already has 54,978 generators
        assert main(["ass", "--edges", G10, "7", "--method", "oracle"]) == 2
        captured = capsys.readouterr()
        assert f"oracle table of {8**10} cells is past its budget" in captured.err
        assert captured.out == ""


class TestOtherCommands:
    def test_ass_infinity(self, capsys):
        code, out = run(
            capsys, "ass-infinity", "--json",
            "--edges", "1-2,1-3,2-3,1-4,1-5,4-5",
        )
        got = {tuple(p["vertices"]) for p in json.loads(out)["primes"]}
        assert code == 0 and (1, 2, 3, 4, 5) in got

    def test_astab_bound_bowtie(self, capsys):
        code, out = run(
            capsys, "astab-bound", "--json", "--edges", "1-2,1-3,2-3,1-4,1-5,4-5"
        )
        assert code == 0 and json.loads(out)["astab_bound"] == 3

    def test_depth(self, capsys):
        code, out = run(capsys, "depth", "--json", "--edges", "1-2,2-3", "2")
        assert code == 0 and json.loads(out)["depth_positive"] is True
        assert main(["depth", "--edges", "1-2,2-3", "5"]) == 2

    def test_facets(self, capsys, triangle_file):
        code, out = run(capsys, "facets", "--json", triangle_file, "2", "1,1,1")
        assert code == 0 and json.loads(out)["facets"] == [[]]

    def test_facets_signed(self, capsys, tailed_triangle_file):
        code, out = run(capsys, "facets", "--json", tailed_triangle_file, "2", "1,1,1,0,-1")
        assert code == 0 and json.loads(out)["facets"] == [[]]

    def test_facets_past_their_budget_refused(self, capsys):
        # 21 free vertices would walk 2^21 subsets; the negative entry is not free
        path = ",".join(f"{i}-{i + 1}" for i in range(1, 22))
        assert main(["facets", "--edges", path, "2", "-1" + ",0" * 21]) == 2
        captured = capsys.readouterr()
        assert "21 free vertices" in captured.err and captured.out == ""

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_facets_leading_negative_entry(self, capsys, json_flag):
        # argparse would read -1,0,0,0 as an option; the `--` form is the reference
        base = ["facets", *json_flag, "--edges", "1-2,1-3,2-3", "--n", "4", "2"]
        code, out = run(capsys, *base, "-1,0,0,0")
        assert (code, out) == run(capsys, *base, "--", "-1,0,0,0")
        assert code == 0
        assert out == ('{"facets":[[4]],"t":2}\n' if json_flag else "1 facet(s):\n  {4}\n")


class TestCensus:
    def test_small_full(self, capsys):
        code, out = run(capsys, "census", "--json", "3", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["graphs_checked"] == 8 and payload["mismatches"] == []

    def test_sampled(self, capsys):
        code, out = run(capsys, "census", "--json", "5", "2", "--sample", "20", "--seed", "3")
        assert code == 0 and json.loads(out)["graphs_checked"] == 20

    def test_oversize_refused(self, capsys):
        assert main(["census", "7", "2"]) == 2

    def test_threads(self, capsys):
        code, out = run(capsys, "census", "--json", "4", "2", "--threads", "2")
        assert code == 0 and json.loads(out)["graphs_checked"] == 64

    def test_pool_size_capped_at_cpu_count(self, capsys, monkeypatch):
        sizes = []

        class FakePool:  # records the size it is asked for and starts no process
            def __init__(self, size):
                sizes.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        for cpus, threads in ((3, "1000000"), (3, "2"), (None, "5")):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            code, out = run(capsys, "census", "--json", "4", "2", "--threads", threads)
            assert code == 0 and json.loads(out)["graphs_checked"] == 64
        assert sizes == [3, 2, 1]


class TestDeterminism:
    def test_json_byte_identical(self, capsys, tailed_triangle_file):
        outs = []
        for _ in range(2):
            code, out = run(capsys, "ass", "--json", tailed_triangle_file, "3")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_sampled_census_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, out = run(capsys, "census", "--json", "5", "2", "--sample", "10", "--seed", "9")
            payload = json.loads(out)
            payload.pop("elapsed_seconds")
            outs.append(payload)
        assert outs[0] == outs[1]


class TestParseErrors:
    def test_missing_file(self, capsys):
        assert main(["nu", "/no/such/file", "1,1"]) == 2

    def test_bad_graph_line_number(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3 2\n1 2\nbogus\n")
        code = main(["nu", str(p), "1,1,1"])
        err = capsys.readouterr().err
        assert code == 2 and "line 3" in err

    def test_edge_lines_beyond_the_header(self, capsys, tmp_path):
        p = tmp_path / "extra.txt"
        p.write_text("3 1\n1 2\n1 3\n2 3\n")
        code = main(["ass", str(p), "2"])
        captured = capsys.readouterr()
        assert code == 2 and "line 3" in captured.err and captured.out == ""

    def test_repeated_edge_line(self, capsys, tmp_path):
        p = tmp_path / "repeated.txt"
        p.write_text("3 2\n1 2\n1 2\n")
        code = main(["ass", str(p), "2"])
        captured = capsys.readouterr()
        assert code == 2 and "line 3: repeated edge (1,2)" in captured.err and captured.out == ""

    @pytest.mark.parametrize("edges", ["1-2,1-2,2-3", "1-2,2-1"])
    def test_repeated_inline_edge(self, capsys, edges):
        code = main(["ass", "--edges", edges, "2"])
        captured = capsys.readouterr()
        assert code == 2 and "repeated edge (1,2)" in captured.err and captured.out == ""

    def test_bad_inline_edges(self, capsys):
        assert main(["nu", "--edges", "1+2", "1,1"]) == 2

    def test_graph_file_with_inline_edges(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3 3\n1 2\n1 3\n2 3\n")
        code = main(["ass", "--edges", "1-2", str(p), "2"])
        captured = capsys.readouterr()
        assert code == 2 and "--edges" in captured.err and captured.out == ""

    def test_graph_file_with_vertex_count(self, capsys, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("3 3\n1 2\n1 3\n2 3\n")
        code = main(["nu", "--n", "4", str(p), "1,1,1"])
        captured = capsys.readouterr()
        assert code == 2 and "--n" in captured.err and captured.out == ""

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_census_refuses_fewer_than_one_thread(self, capsys, threads):
        code = main(["census", "3", "2", "--threads", threads])
        captured = capsys.readouterr()
        assert code == 2 and "thread count" in captured.err and captured.out == ""

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


class TestOptionPlacement:
    """An option before, between or after the positionals parses the same."""

    @pytest.mark.parametrize(
        "command, rest",
        [("ass", ["2"]), ("sat", ["2", "1,1,1"]), ("nu", ["2,2,1"]), ("facets", ["2", "1,1,1"])],
    )
    def test_option_anywhere_among_the_positionals(self, capsys, triangle_file, command, rest):
        positionals = [triangle_file, *rest]
        outputs = {
            run(capsys, command, *positionals[:k], "--json", *positionals[k:])
            for k in range(len(positionals) + 1)
        }
        assert len(outputs) == 1
        code, out = outputs.pop()
        assert code == 0 and json.loads(out)


class TestPowerExponent:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sat", "--edges", "1-2,2-3,1-3", "0", "1,1,1"],
            ["ass", "--edges", "1-2,2-3,1-3", "0"],
            ["ass", "--edges", "1-2,2-3,1-3", "0", "--method", "oracle"],
        ],
    )
    def test_t_below_one_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and "error:" in capsys.readouterr().err


DATA = Path(__file__).parent / "data"
G10 = "1-2,1-5,1-10,2-3,2-7,2-10,3-6,3-7,4-5,4-7,4-8,5-6,5-7,5-8,5-10,6-7,7-8,8-9,8-10"
TAILED_TRIANGLE = "1-2,1-3,2-3,3-4,4-5"
BOWTIE = "1-2,1-3,2-3,1-4,1-5,4-5"
C9 = ",".join(f"{i}-{i % 9 + 1}" for i in range(1, 10))
C11 = ",".join(f"{i}-{i % 11 + 1}" for i in range(1, 12))
C15 = ",".join(f"{i}-{i % 15 + 1}" for i in range(1, 16))
# 16 edges on 8 vertices: I^4 has 2,099 minimal generators
N8 = "1-2,1-4,1-5,1-6,2-3,2-4,2-7,3-4,3-6,3-7,3-8,4-5,4-6,4-7,4-8,6-8"


class TestGoldenOutput:
    """Byte-identical JSON, witness exponents included."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("ass_g10_t3_formula", ["ass", "--json", "--edges", G10, "3", "--method", "formula"]),
            (
                "ass_g10_t3_classified",
                ["ass", "--json", "--edges", G10, "3", "--method", "classified"],
            ),
            ("ass2_tailed_triangle", ["ass2", "--json", "--edges", TAILED_TRIANGLE]),
            ("ass3_tailed_triangle", ["ass3", "--json", "--edges", TAILED_TRIANGLE]),
            ("ass_infinity_bowtie", ["ass-infinity", "--json", "--edges", BOWTIE]),
            ("astab_bound_bowtie", ["astab-bound", "--json", "--edges", BOWTIE]),
            ("sat_triangle_t2", ["sat", "--json", "--edges", "1-2,1-3,2-3", "2", "1,1,1"]),
            ("nu_g10_weighted", ["nu", "--json", "--edges", G10, "2,1,2,1,2,1,2,1,2,1"]),
            (
                "facets_bowtie_tail",
                ["facets", "--json", "--edges", BOWTIE + ",5-6", "2", "0,0,0,0,1,-1"],
            ),
            ("ass_c9_t4", ["ass", "--json", "--edges", C9, "4"]),
            ("ass_c9_t5", ["ass", "--json", "--edges", C9, "5"]),
            ("ass_c11_t5", ["ass", "--json", "--edges", C11, "5"]),
            ("ass_c15_t7", ["ass", "--json", "--edges", C15, "7"]),
            (
                "ass_oracle_bowtie_tail_t3",
                ["ass", "--json", "--edges", BOWTIE + ",5-6", "3", "--method", "oracle"],
            ),
            ("ass_g10_t4_formula", ["ass", "--json", "--edges", G10, "4", "--method", "formula"]),
            ("ass_oracle_n8_t4", ["ass", "--json", "--edges", N8, "4", "--method", "oracle"]),
            ("ass_oracle_g10_t5", ["ass", "--json", "--edges", G10, "5", "--method", "oracle"]),
            ("ass_g10_t5_formula", ["ass", "--json", "--edges", G10, "5", "--method", "formula"]),
        ],
    )
    def test_matches_golden_file(self, capsys, name, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (DATA / f"{name}.json").read_bytes()


class TestCensusSample:
    def test_sample_beyond_eleven_vertices(self, capsys):
        code, out = run(capsys, "census", "--json", "12", "1", "--sample", "2", "--seed", "0")
        payload = json.loads(out)
        assert code == 0 and payload["graphs_checked"] == 2 and payload["mismatches"] == []

    def test_negative_sample_is_a_usage_error(self, capsys):
        assert main(["census", "12", "1", "--sample", "-1"]) == 2


class TestClosedStdout:
    """A reader that has gone away: no traceback, and the command's own exit status."""

    @pytest.mark.parametrize(
        "argv, status",
        [
            (["ass", "--json", "--edges", "1-2,1-3,2-3", "2"], 0),
            # more than a pipe buffer of output, so the write itself fails
            (["ass", "--edges", ",".join(f"{i}-{i % 20 + 1}" for i in range(1, 21)), "1"], 0),
            (["depth", "--edges", "1-2,2-3", "5"], 2),
        ],
    )
    def test_no_traceback(self, argv, status):
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        try:
            done = subprocess.run(
                [sys.executable, "-m", "edgesat.cli", *argv],
                stdout=write,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write)
        assert done.returncode == status
        assert b"Traceback" not in done.stderr and b"Exception ignored" not in done.stderr
