import json
import math
import re

import pytest

from minranklab import cli, kneser, minrank, verifiers
from minranklab.cli import main
from minranklab.graphio import write_graph6
from minranklab.graphs import cycle_graph
from minranklab.kneser import pattern_polynomial_coefficients
from minranklab.matrices import FieldMatrix

TIMESTAMP_KEYS = {"started_at", "finished_at"}

# `kneser build --d 6 --s 3 --m 1 --emit-matrix`: P(t) = (t-1)(t-2) is 2 on the
# diagonal (t = 3) and between complementary sets (t = 0), 0 elsewhere
K631_MATRIX_TEXT = """\
20 20 0
2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 2
0 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 2 0
0 0 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 2 0 0
0 0 0 2 0 0 0 0 0 0 0 0 0 0 0 0 2 0 0 0
0 0 0 0 2 0 0 0 0 0 0 0 0 0 0 2 0 0 0 0
0 0 0 0 0 2 0 0 0 0 0 0 0 0 2 0 0 0 0 0
0 0 0 0 0 0 2 0 0 0 0 0 0 2 0 0 0 0 0 0
0 0 0 0 0 0 0 2 0 0 0 0 2 0 0 0 0 0 0 0
0 0 0 0 0 0 0 0 2 0 0 2 0 0 0 0 0 0 0 0
0 0 0 0 0 0 0 0 0 2 2 0 0 0 0 0 0 0 0 0
0 0 0 0 0 0 0 0 0 2 2 0 0 0 0 0 0 0 0 0
0 0 0 0 0 0 0 0 2 0 0 2 0 0 0 0 0 0 0 0
0 0 0 0 0 0 0 2 0 0 0 0 2 0 0 0 0 0 0 0
0 0 0 0 0 0 2 0 0 0 0 0 0 2 0 0 0 0 0 0
0 0 0 0 0 2 0 0 0 0 0 0 0 0 2 0 0 0 0 0
0 0 0 0 2 0 0 0 0 0 0 0 0 0 0 2 0 0 0 0
0 0 0 2 0 0 0 0 0 0 0 0 0 0 0 0 2 0 0 0
0 0 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 2 0 0
0 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 2 0
2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 2
"""


# the stdout of `kneser build --d 6 --s 3 --m 1 --check-rank --check-odd-girth 3
# --emit-matrix FILE`, timestamps replaced by "T"
K631_BUILD_STDOUT = """\
{
  "manifest": {
    "argv": [
      "kneser",
      "build",
      "--d",
      "6",
      "--s",
      "3",
      "--m",
      "1",
      "--check-rank",
      "--check-odd-girth",
      "3",
      "--emit-matrix",
      "FILE"
    ],
    "command": "kneser build --d 6 --s 3 --m 1 --check-rank --check-odd-girth 3 --emit-matrix FILE",
    "finished_at": "T",
    "outputs": [
      "FILE"
    ],
    "parameters": {
      "check_odd_girth": 3,
      "check_rank": true,
      "d": 6,
      "emit_matrix": "FILE",
      "m": 1,
      "rank_budget": 1000000000,
      "s": 3,
      "vertex_budget": 5000
    },
    "seed": null,
    "started_at": "T",
    "version": "0.1.0"
  },
  "result": {
    "checks": {
      "odd_girth": {
        "cycle_found": null,
        "ell": 3,
        "hypothesis_holds": true,
        "ok": true
      },
      "rank": {
        "bound": 22,
        "ok": true,
        "value": 10
      },
      "structure": true
    },
    "coefficients": [
      2,
      -2,
      2
    ],
    "d": 6,
    "diagonal": 2,
    "edge_count": 10,
    "m": 1,
    "rank_bound": 22,
    "s": 3,
    "vertex_count": 20
  }
}
"""

def scrub(obj):
    """Remove timestamp-class fields so payloads can be compared bytewise."""
    if isinstance(obj, dict):
        return {k: scrub(v) for k, v in obj.items() if k not in TIMESTAMP_KEYS}
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    return obj


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def canonical(out: str) -> str:
    try:
        docs = [json.loads(out)]
    except json.JSONDecodeError:
        docs = [json.loads(line) for line in out.strip().splitlines() if line]
    return "\n".join(json.dumps(scrub(doc), sort_keys=True) for doc in docs)


@pytest.fixture
def c5_path(tmp_path):
    path = tmp_path / "c5.g6"
    write_graph6(cycle_graph(5), str(path))
    return str(path)


class TestMinrankCommand:
    def test_c5_value(self, c5_path, capsys):
        code, out = run_cli(
            ["minrank", "exact", "--field", "2", "--graph", c5_path], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["value"] == 3
        assert doc["result"]["lower"] == 2
        assert doc["result"]["upper"] == 3
        assert doc["result"]["witness"]["modulus"] == 2

    def test_c5_document_pinned(self, capsys):
        code, out = run_cli(["minrank", "exact", "--field", "2", "--graph", "C5"], capsys)
        assert code == 0
        assert scrub(json.loads(out)) == {
            "manifest": {
                "argv": ["minrank", "exact", "--field", "2", "--graph", "C5"],
                "command": "minrank exact --field 2 --graph C5",
                "outputs": [],
                "parameters": {"budget": 10000000, "field": 2, "graph": "C5"},
                "seed": None,
                "version": "0.1.0",
            },
            "result": {
                "lower": 2,
                "upper": 3,
                "value": 3,
                "witness": {
                    "cols": 5,
                    "entries": [
                        [1, 1, 0, 0, 0],
                        [1, 1, 0, 0, 0],
                        [0, 0, 1, 1, 0],
                        [0, 0, 1, 1, 0],
                        [0, 0, 0, 0, 1],
                    ],
                    "modulus": 2,
                    "rows": 5,
                },
            },
        }

    @pytest.mark.parametrize("p", [2, 3])
    def test_zero_vertex_graph_payload(self, capsys, p):
        code, out = run_cli(["minrank", "exact", "--field", str(p), "--graph", "empty0"], capsys)
        assert code == 0
        assert json.loads(out)["result"] == {
            "lower": 0,
            "upper": 0,
            "value": 0,
            "witness": {"cols": 0, "entries": [], "modulus": p, "rows": 0},
        }

    def test_named_graph_accepted(self, capsys):
        code, out = run_cli(
            ["minrank", "exact", "--field", "2", "--graph", "K4"], capsys
        )
        assert code == 0
        assert json.loads(out)["result"]["value"] == 1

    def test_budget_refusal_exit_2(self, capsys):
        code, _ = run_cli(
            ["minrank", "exact", "--field", "2", "--graph", "C9"], capsys
        )
        assert code == 2

    def test_large_prime_field_reaches_the_budget_refusal(self, capsys):
        # primality of a 15-digit field size is settled before the budget check
        code = main(["minrank", "exact", "--field", "100000000000031", "--graph", "C5"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("budget refusal: minrank enumeration for n=5")

    def test_missing_file_exit_1(self, capsys):
        code, _ = run_cli(
            ["minrank", "exact", "--field", "2", "--graph", "/nope/missing.g6"],
            capsys,
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["minrank", "exact", "--field", "2", "--graph", "C2"],
             "C2: parameter must be at least 3"),
            (["experiment", "g-estimate", "--n", "4", "--h", "P1", "--field", "2",
              "--samples", "5"], "P1: parameter must be at least 2"),
            (["lll", "analyze", "--h-graph", "K0", "--field-size", "2", "--find-threshold"],
             "K0: parameter must be at least 1"),
            (["minrank", "exact", "--field", "2", "--graph", "Q17"],
             "'Q17' is neither a built-in graph name nor a file"),
        ],
    )
    def test_graph_name_error_exit_1(self, capsys, argv, message):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_file_named_like_a_bad_built_in_loads(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        write_graph6(cycle_graph(5), "C2")
        code, out = run_cli(["minrank", "exact", "--field", "2", "--graph", "C2"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["value"] == 3

    @pytest.mark.parametrize("content", ["", "\n \n\n"])
    def test_empty_graph_file_exit_1(self, capsys, tmp_path, content):
        path = tmp_path / "empty.g6"
        path.write_text(content)
        code = main(["minrank", "exact", "--field", "2", "--graph", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: empty graph6 string\n"

    def test_unknown_flag_exit_1(self, capsys):
        code, _ = run_cli(
            ["minrank", "exact", "--field", "2", "--graph", "K3", "--bogus"], capsys
        )
        assert code == 1

    def test_no_jobs_option(self, capsys):
        # the solver runs in one process, so the payload records no job count
        code, out = run_cli(["minrank", "exact", "--field", "2", "--graph", "C5"], capsys)
        assert code == 0 and "jobs" not in json.loads(out)["manifest"]["parameters"]
        code = main(["minrank", "exact", "--field", "2", "--graph", "C5", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "unrecognized arguments: --jobs 2" in captured.err

    def test_internal_failure_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(FieldMatrix, "rank", lambda self: 0)
        code = main(["minrank", "exact", "--field", "2", "--graph", "C5"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "internal error: the rank-3 witness has rank 0\n"

    def test_split_coloring_exit_4(self, capsys, monkeypatch):
        # C5's cover coloring with one class split in two: still proper, but
        # its witness has rank 4, so the answer 3 is not certified
        color = minrank.optimal_coloring

        def split(g, k):
            colors = color(g, k)
            colors[next(v for v in range(g.n) if colors[v] in colors[:v])] = k
            return colors

        monkeypatch.setattr(minrank, "optimal_coloring", split)
        code = main(["minrank", "exact", "--graph", "C5", "--field", "2"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == "internal error: the rank-3 witness has rank 4\n"


class TestKneserCommand:
    def test_build_with_checks(self, capsys, tmp_path):
        matrix_path = tmp_path / "m.txt"
        code, out = run_cli(
            [
                "kneser", "build", "--d", "6", "--s", "3", "--m", "1",
                "--check-rank", "--check-odd-girth", "3",
                "--emit-matrix", str(matrix_path),
            ],
            capsys,
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["vertex_count"] == 20
        assert result["edge_count"] == 10
        assert result["rank_bound"] == 22
        assert result["checks"]["rank"]["ok"]
        assert result["checks"]["odd_girth"]["ok"]
        assert result["checks"]["odd_girth"]["hypothesis_holds"]
        emitted = matrix_path.read_text()
        assert emitted.splitlines()[0] == "20 20 0"

    def test_build_payload_and_matrix_pinned(self, capsys, tmp_path):
        # integer entries print as the Fraction entries did, so payload and
        # matrix text stay byte-identical
        matrix_path = tmp_path / "k631.txt"
        code, out = run_cli(
            [
                "kneser", "build", "--d", "6", "--s", "3", "--m", "1",
                "--check-rank", "--emit-matrix", str(matrix_path),
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["result"] == {
            "checks": {
                "rank": {"bound": 22, "ok": True, "value": 10},
                "structure": True,
            },
            "coefficients": [2, -2, 2],
            "d": 6,
            "diagonal": 2,
            "edge_count": 10,
            "m": 1,
            "rank_bound": 22,
            "s": 3,
            "vertex_count": 20,
        }
        assert matrix_path.read_text() == K631_MATRIX_TEXT

    def test_build_stdout_and_matrix_file_pinned(self, capsys, monkeypatch, tmp_path):
        # the whole document, byte for byte, timestamps aside
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(
            [
                "kneser", "build", "--d", "6", "--s", "3", "--m", "1",
                "--check-rank", "--check-odd-girth", "3", "--emit-matrix", "FILE",
            ],
            capsys,
        )
        assert code == 0
        stamped = re.sub(r'"(started_at|finished_at)": "[^"]*"', r'"\1": "T"', out)
        assert stamped == K631_BUILD_STDOUT
        assert (tmp_path / "FILE").read_bytes() == K631_MATRIX_TEXT.encode("ascii")

    @pytest.mark.parametrize("d,s,m", [(5, 2, 1), (6, 3, 1), (6, 3, 2), (7, 3, 2), (8, 4, 2)])
    @pytest.mark.parametrize("odd_girth", [False, True])
    def test_edge_count_closed_form(self, capsys, d, s, m, odd_girth):
        # each s-set meets C(s,i) C(d-s,s-i) others in exactly i < m elements
        expected = math.comb(d, s) * sum(
            math.comb(s, i) * math.comb(d - s, s - i) for i in range(m)
        ) // 2
        argv = ["kneser", "build", "--d", str(d), "--s", str(s), "--m", str(m)]
        if odd_girth:
            argv += ["--check-odd-girth", "3"]
        code, out = run_cli(argv, capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["vertex_count"] == math.comb(d, s)
        assert result["edge_count"] == expected
        assert ("odd_girth" in result["checks"]) == odd_girth

    def test_odd_girth_build_never_builds_the_matrix(self, capsys, monkeypatch):
        # the graph comes from the intersection counts and the diagonal from
        # the checked P(s); only --check-rank and --emit-matrix read M
        def refuse(witness):
            raise AssertionError("representing matrix built")

        monkeypatch.setattr(kneser.KneserWitness, "matrix", property(refuse))
        code, out = run_cli(
            ["kneser", "build", "--d", "12", "--s", "6", "--m", "2", "--check-odd-girth", "3"],
            capsys,
        )
        assert code == 0
        result = json.loads(out)["result"]
        # each 6-set meets C(6,0) C(6,6) + C(6,1) C(6,5) = 37 others in fewer than 2
        assert result["edge_count"] == 924 * 37 // 2
        assert result["diagonal"] == math.factorial(4)
        assert result["checks"]["odd_girth"]["ok"]

    @pytest.mark.parametrize("d, s, m", [(12, 6, 2), (30, 15, 1)])
    def test_bad_odd_girth_refused_before_the_build(self, capsys, monkeypatch, d, s, m):
        # an invalid L wins over the vertex-budget refusal of K(30,15,1)
        def refuse(*args, **kwargs):
            raise AssertionError("representation_matrix called")

        monkeypatch.setattr(cli, "representation_matrix", refuse)
        code = main(["kneser", "build", "--d", str(d), "--s", str(s), "--m", str(m),
                     "--check-odd-girth", "4"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: ell must be an odd integer >= 3\n"

    def test_witness_failure_exit_4(self, capsys, monkeypatch):
        def corrupt(s, m):
            return [c + 1 for c in pattern_polynomial_coefficients(s, m)]

        monkeypatch.setattr(kneser, "pattern_polynomial_coefficients", corrupt)
        code = main(["kneser", "build", "--d", "4", "--s", "2", "--m", "1"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "internal error: factorization mismatch at t=0\n"

    @pytest.mark.parametrize("d, s, argv, estimate, budget", [
        (14, 7, [], 3432**2 * 2002, 10**9),  # N^2 * rank
        (10, 5, ["--rank-budget", "100"], 252**2 * 120, 100),
    ])
    def test_rank_check_over_budget_refused_before_the_build(
        self, capsys, monkeypatch, d, s, argv, estimate, budget
    ):
        # no vertex is listed and no entry built
        def refuse(*args):
            raise AssertionError("vertices listed before the rank budget check")

        monkeypatch.setattr(kneser, "subset_masks", refuse)
        code = main(["kneser", "build", "--d", str(d), "--s", str(s), "--m", "2",
                     "--check-rank"] + argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            f"budget refusal: rank check of K({d},{s},2) refused "
            f"(estimated work {estimate}, budget {budget})\n"
        )

    def test_rank_budget_only_budgets_the_rank_check(self, capsys):
        code, _ = run_cli(
            ["kneser", "build", "--d", "10", "--s", "5", "--m", "2", "--rank-budget", "0"], capsys
        )
        assert code == 0

    def test_plan(self, capsys):
        code, out = run_cli(["kneser", "plan", "--ell", "3", "--n", "20"], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["d"] == 6 and result["rank_bound"] == 22
        assert result["rank"] == 10 and result["delta"] == 0.231378

    def test_bad_params_exit_1(self, capsys):
        code, _ = run_cli(
            ["kneser", "build", "--d", "4", "--s", "5", "--m", "1"], capsys
        )
        assert code == 1


class TestLLLCommand:
    def test_fixed_n(self, capsys):
        code, out = run_cli(
            ["lll", "analyze", "--h-graph", "K3", "--field-size", "2", "--n", "8192"],
            capsys,
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["gamma"] == "1/2"
        assert result["report"]["holds"] is True

    def test_threshold(self, capsys):
        code, out = run_cli(
            [
                "lll", "analyze", "--h-graph", "K3", "--field-size", "2",
                "--find-threshold", "--max-exponent", "20",
            ],
            capsys,
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["n0"] == 4681
        assert result["constraint_items"] == [True, True, True]

    def test_threshold_not_reached_reports_null(self, capsys):
        code, out = run_cli(
            [
                "lll", "analyze", "--h-graph", "K3", "--field-size", "2",
                "--find-threshold", "--max-exponent", "3",
            ],
            capsys,
        )
        assert code == 0
        result = json.loads(out)["result"]
        assert result["n0"] is None
        assert all(not entry["holds"] for entry in result["grid"])

    def test_max_exponent_only_with_find_threshold(self, capsys):
        # a fixed --n checks one size and reads no exponent
        code = main(["lll", "analyze", "--h-graph", "K3", "--field-size", "2",
                     "--n", "1000", "--max-exponent", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: --max-exponent is read only with --find-threshold\n"

    @pytest.mark.parametrize("max_exponent", [0, -1])
    def test_threshold_with_an_empty_grid_exit_1(self, capsys, max_exponent):
        code = main(["lll", "analyze", "--h-graph", "K3", "--field-size", "2",
                     "--find-threshold", "--max-exponent", str(max_exponent)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"error: max_exponent {max_exponent} leaves no grid point to check\n"
        )

    @pytest.mark.parametrize("q", [6, 10])
    def test_field_size_not_a_prime_power_exit_1(self, capsys, q):
        code = main(["lll", "analyze", "--h-graph", "K3", "--field-size", str(q), "--n", "1000"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: field size {q} is not a prime power\n"

    def test_edge_subset_sweep_over_budget_exit_2(self, capsys):
        # K8 has 28 edges: 2^28 subsets against the fixed budget of 2^22
        code = main(["lll", "analyze", "--h-graph", "K8", "--field-size", "2", "--n", "100"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == (
            "budget refusal: edge-subset sweep over 28 edges refused "
            "(estimated work 268435456, budget 4194304)\n"
        )

    @pytest.mark.parametrize(
        "mode, max_exponent",
        [(["--find-threshold"], 40), (["--find-threshold", "--max-exponent", "3"], 3),
         (["--n", "1000"], None)],
    )
    def test_manifest_records_max_exponent_where_read(self, capsys, mode, max_exponent):
        code, out = run_cli(
            ["lll", "analyze", "--h-graph", "K3", "--field-size", "2", *mode], capsys
        )
        parameters = json.loads(out)["manifest"]["parameters"]
        assert code == 0 and parameters.get("max_exponent") == max_exponent


class TestVerifyCommand:
    def test_sparsity_clean(self, capsys, tmp_path):
        csv_path = tmp_path / "mirror.csv"
        code, out = run_cli(
            [
                "verify", "lemma", "--id", "sparsity", "--n-max", "3",
                "--field", "2", "--csv", str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "manifest" in json.loads(lines[0])
        report = json.loads(lines[1])
        assert report["violations"] == []
        assert csv_path.read_text().startswith("lemma,")

    def test_count_non_prime_field_exit_1(self, capsys):
        code = main(["verify", "lemma", "--id", "count", "--n", "2", "--field", "4"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: modulus 4 is not prime\n"

    def test_count_negative_n_exit_1(self, capsys):
        code = main(["verify", "lemma", "--id", "count", "--n", "-1", "--field", "2"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: matrix size -1 is negative\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--id", "submatrix", "--n-max", "2", "--k", "-1"], "rank bound k=-1"),
            (["--id", "submatrix", "--n-max", "0"], "n_max 0"),
            (["--id", "sparsity", "--n-max", "-1"], "n_max -1"),
            (["--id", "count", "--n", "2", "--k", "5", "--field", "2"], "rank k=5"),
            (["--id", "count", "--n", "2", "--k", "-1"], "rank k=-1"),
            (["--id", "count", "--n", "2", "--k", "1", "--ell", "-3"], "sparsity ell=-3"),
            (["--id", "count", "--n", "0"], "matrix size 0"),
        ],
    )
    def test_sweep_that_checks_nothing_exit_1(self, capsys, flags, message):
        code = main(["verify", "lemma", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message} leaves no matrix to check\n"

    @pytest.mark.parametrize(
        "flags, message",
        [(["--k", "9"], "rank k=9"), (["--k", "1", "--ell", "0"], "sparsity ell=0")],
    )
    def test_count_refused_before_the_census(self, capsys, monkeypatch, flags, message):
        def census(*args, **kwargs):
            raise RuntimeError("the census ran")

        monkeypatch.setattr(verifiers, "basis_weight_census", census)
        code = main(["verify", "lemma", "--id", "count", "--n", "4", "--field", "2", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message} leaves no matrix to check\n"

    @pytest.mark.parametrize(
        "flags, unread",
        [
            (["--id", "sparsity", "--n", "5", "--field", "2"], "--n"),
            (["--id", "sparsity", "--h", "K3"], "--h"),
            (["--id", "count", "--n", "2", "--h", "K3"], "--h"),
            (["--id", "submatrix", "--n", "3"], "--n"),
            (["--id", "submatrix", "--ell", "2"], "--ell"),
            (["--id", "forest", "--n", "5", "--h", "P3", "--k", "9", "--ell", "2"], "--k, --ell"),
            (["--id", "count", "--n", "2", "--n-max", "7", "--field", "2"], "--n-max"),
            (["--id", "forest", "--n", "4", "--h", "P3", "--n-max", "9"], "--n-max"),
        ],
    )
    def test_flag_the_lemma_does_not_read_exit_1(self, capsys, flags, unread):
        code = main(["verify", "lemma", *flags])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: --id {flags[1]} does not read {unread}\n"

    @pytest.mark.parametrize(
        "lemma, n_max",
        [(["--id", "sparsity"], 3), (["--id", "submatrix", "--k", "1"], 3),
         (["--id", "count", "--n", "2"], None)],
    )
    def test_manifest_records_n_max_where_read(self, capsys, lemma, n_max):
        # the default --n-max 3 is recorded only by the lemmas that read it
        code, out = run_cli(["verify", "lemma", *lemma, "--field", "2"], capsys)
        parameters = json.loads(out.splitlines()[0])["manifest"]["parameters"]
        assert code == 0 and parameters.get("n_max") == n_max

    def test_no_jobs_option(self, capsys):
        # every sweep runs in one process
        code = main(["verify", "lemma", "--id", "sparsity", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "unrecognized arguments: --jobs 2" in captured.err

    def test_count_rank_mismatch_exit_4(self, capsys, monkeypatch):
        # row and column ranks that disagree are the kernels' fault, not the
        # user's: the columns {(0,1), (0,1)} of [[0, 0], [1, 1]] are given rank 2
        search = verifiers.min_weight_basis

        def lying(vectors, p):
            rank, weight = search(vectors, p)
            return rank + (vectors == ((0, 1), (0, 1))), weight

        monkeypatch.setattr(verifiers, "min_weight_basis", lying)
        code = main(["verify", "lemma", "--id", "count", "--n", "2", "--field", "2"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err.startswith("internal error: row rank 1 differs from column rank 2")

    def test_count_sweep_lines(self, capsys):
        code, out = run_cli(
            ["verify", "lemma", "--id", "count", "--n", "2", "--field", "2"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        # manifest + one line per (k, ell): k=0 has ell in {1,2}, k>0 ell in 1..2k
        assert len(lines) > 4

    def test_forest(self, capsys):
        code, out = run_cli(
            [
                "verify", "lemma", "--id", "forest", "--n", "4", "--h", "P3",
                "--field", "2",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out.strip().splitlines()[1])["violations"] == []

    def test_forest_refuses_a_one_vertex_tree(self, capsys):
        code = main(["verify", "lemma", "--id", "forest", "--n", "0", "--h", "K1"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            "error: the multipartite witness needs a pattern with at least 2 vertices\n"
        )

    def test_forest_sweep_at_n_200_is_a_budget_refusal(self, capsys):
        # before the first vertex grows, the sweep's containment tests are at
        # least one per S at every level, 2^200 - 1, long before the 2^19900
        # labeled graphs at n = 200 matter
        code = main([
            "verify", "lemma", "--id", "forest", "--n", "200", "--h", "P3", "--field", "2",
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            "budget refusal: graph sweep at n=200 growing to 1 vertices, at least the"
            " estimated work in containment tests, refused"
            f" (estimated work {2**200 - 1}, budget 131072)\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["lll", "analyze", "--field-size", "2", "--n", "100", "--h-graph"],
        ["experiment", "g-estimate", "--n", "4", "--field", "2", "--samples", "2", "--h"],
        ["verify", "lemma", "--id", "forest", "--n", "5", "--field", "2", "--h"],
    ],
)
def test_digraph_pattern_exit_1(capsys, tmp_path, argv):
    # every pattern flag reads an undirected graph; P3 as a .edges file is a digraph
    path = tmp_path / "p3.edges"
    path.write_text("4 4\n0 1\n1 0\n1 2\n2 1\n")
    code = main(argv + [str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: the pattern graph must be undirected\n"


class TestExperimentCommand:
    def test_g_estimate(self, capsys, tmp_path):
        csv_path = tmp_path / "est.csv"
        code, out = run_cli(
            [
                "experiment", "g-estimate", "--n", "4", "--h", "K3", "--field", "2",
                "--samples", "60", "--seed", "7", "--csv", str(csv_path),
            ],
            capsys,
        )
        assert code == 0
        line = json.loads(out.strip().splitlines()[-1])
        assert line["samples"] == 60
        assert line["best"] is not None
        assert csv_path.exists()

    def test_g_estimate_lines_and_csv_pinned(self, capsys, tmp_path):
        csv_path = str(tmp_path / "est.csv")
        argv = ["experiment", "g-estimate", "--n", "4", "--h", "K3", "--field", "2",
                "--samples", "60", "--seed", "7", "--csv", csv_path]
        code, out = run_cli(argv, capsys)
        assert code == 0
        assert [scrub(json.loads(line)) for line in out.splitlines()] == [
            {
                "manifest": {
                    "argv": argv,
                    "command": " ".join(argv),
                    "outputs": [csv_path],
                    "parameters": {
                        "csv": csv_path,
                        "edge_prob": 0.5,
                        "field": 2,
                        "h": "K3",
                        "n": 4,
                        "regime_edge_prob": False,
                        "samples": 60,
                        "seed": 7,
                    },
                    "seed": 7,
                    "version": "0.1.0",
                }
            },
            {
                "acceptance_rate": 0.26666666666666666,
                "accepted": 16,
                "best": 2,
                "edge_prob": 0.5,
                "n": 4,
                "p": 2,
                "samples": 60,
                "seed": 7,
                "witness": "CR",
            },
        ]
        with open(csv_path, newline="", encoding="ascii") as fh:
            assert fh.read() == (
                "n,p,samples,accepted,acceptance_rate,best,witness,edge_prob,seed\r\n"
                "4,2,60,16,0.26666666666666666,2,CR,0.5,7\r\n"
            )

    @pytest.mark.parametrize("field", ["4", "1"])
    def test_g_estimate_refuses_a_non_prime_field(self, capsys, field):
        # the K1 pattern rejects every sample, so the check cannot wait for a solve
        code = main(["experiment", "g-estimate", "--n", "5", "--h", "K1", "--field", field,
                     "--samples", "3"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: field size {field} is not prime\n"

    def test_no_jobs_option(self, capsys):
        # the sampler runs in one process
        code = main(["experiment", "g-estimate", "--n", "4", "--h", "K3", "--field", "2",
                     "--samples", "40", "--seed", "7", "--jobs", "2"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "unrecognized arguments: --jobs 2" in captured.err

    def test_edge_prob_and_regime_edge_prob_exclusive(self, capsys):
        code = main(["experiment", "g-estimate", "--n", "4", "--h", "K3", "--field", "2",
                     "--samples", "40", "--edge-prob", "0.3", "--regime-edge-prob"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.endswith(
            "error: argument --regime-edge-prob: not allowed with argument --edge-prob\n"
        )

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("MINRANKLAB_SEED", "7")
        _, with_env = run_cli(
            ["experiment", "g-estimate", "--n", "4", "--h", "K3", "--field", "2",
             "--samples", "40"],
            capsys,
        )
        monkeypatch.delenv("MINRANKLAB_SEED")
        _, explicit = run_cli(
            ["experiment", "g-estimate", "--n", "4", "--h", "K3", "--field", "2",
             "--samples", "40", "--seed", "7"],
            capsys,
        )
        assert canonical(with_env).replace('"seed": 7', "") and json.loads(
            with_env.strip().splitlines()[-1]
        ) == json.loads(explicit.strip().splitlines()[-1])


class TestConvertCommand:
    def test_roundtrip_byte_exact(self, capsys, tmp_path):
        g6 = tmp_path / "g.g6"
        edges = tmp_path / "g.edges"
        back = tmp_path / "back.g6"
        write_graph6(cycle_graph(6), str(g6))
        code, _ = run_cli(["convert", "--in", str(g6), "--out", str(edges)], capsys)
        assert code == 0
        assert edges.read_text().splitlines()[0] == "6 12"  # bidirected arcs
        code, _ = run_cli(["convert", "--in", str(edges), "--out", str(back)], capsys)
        assert code == 0
        assert back.read_bytes() == g6.read_bytes()

    def test_repeated_arc_exit_1(self, capsys, tmp_path):
        edges = tmp_path / "g.edges"
        edges.write_text("3 3\n0 1\n0 1\n1 2\n")
        code = main(["convert", "--in", str(edges), "--out", str(tmp_path / "g.g6")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: arc (0,1) is listed twice\n"
        assert not (tmp_path / "g.g6").exists()

    def test_unknown_extension_exit_1(self, capsys, tmp_path):
        path = tmp_path / "g.xyz"
        path.write_text("junk")
        code, _ = run_cli(["convert", "--in", str(path), "--out", "o.g6"], capsys)
        assert code == 1


class TestDeterminism:
    def test_rerun_byte_identical(self, capsys, c5_path):
        argv = ["minrank", "exact", "--field", "2", "--graph", c5_path]
        _, first = run_cli(argv, capsys)
        _, second = run_cli(argv, capsys)
        assert canonical(first) == canonical(second)

    def test_out_file_matches_stdout_layout(self, capsys, tmp_path, c5_path):
        out_path = tmp_path / "result.json"
        argv = [
            "minrank", "exact", "--field", "2", "--graph", c5_path,
            "--out", str(out_path),
        ]
        code, stdout = run_cli(argv, capsys)
        assert code == 0 and stdout == ""
        doc = json.loads(out_path.read_text())
        assert doc["result"]["value"] == 3
        assert doc["manifest"]["outputs"] == [str(out_path)]
