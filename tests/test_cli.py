"""The command-line surface: parsing, outputs, exit codes, determinism."""

from __future__ import annotations

import json
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

    def test_bad_inline_edges(self, capsys):
        assert main(["nu", "--edges", "1+2", "1,1"]) == 2

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2


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
