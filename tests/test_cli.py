"""Command-line behavior: exit codes, outputs, CSV schema, bench."""

import csv
import os

import pytest

from abduce import cli
from abduce.cli import CSV_FIELDS, EXIT_ERROR, EXIT_FOUND, EXIT_NONE, main
from abduce.formula import parse_apf, write_apf

from conftest import worked_instance

EX1_TEXT = write_apf(worked_instance())


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.apf"
    path.write_text(EX1_TEXT)
    return str(path)


class TestSolve:
    def test_found(self, ex1_file, capsys):
        assert main(["solve", ex1_file]) == EXIT_FOUND
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "s EXPLANATION FOUND"
        assert out[1] == "o 1"
        assert out[2] == "v 0"

    def test_all_algorithms_agree(self, ex1_file, capsys):
        for algo in ("hyper", "hyper-star", "abhs", "abhs-plus", "bf"):
            assert main(["solve", "--algo", algo, ex1_file]) == EXIT_FOUND
            assert "o 1" in capsys.readouterr().out

    def test_none(self, tmp_path, capsys):
        path = tmp_path / "no.apf"
        path.write_text("p abd 2\nm 2 0\nh 1 1 0\n")
        assert main(["solve", str(path)]) == EXIT_NONE
        assert "s NO EXPLANATION" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent.apf"]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.apf"
        path.write_text("t 1 0\n")
        assert main(["solve", str(path)]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_bad_preprocess(self, ex1_file, capsys):
        assert main(["solve", "--preprocess", "z", ex1_file]) == EXIT_ERROR
        capsys.readouterr()

    def test_stats_csv(self, ex1_file, tmp_path, capsys):
        stats = tmp_path / "stats.csv"
        main(["solve", "--stats", str(stats), ex1_file])
        main(["solve", "--algo", "abhs", "--stats", str(stats), ex1_file])
        capsys.readouterr()
        with open(stats) as fh:
            rows = list(csv.DictReader(fh))
        assert [list(r.keys()) for r in rows] == [CSV_FIELDS] * 2
        assert rows[0]["algo"] == "hyper" and rows[1]["algo"] == "abhs"
        assert rows[0]["result"] == "explanation"
        assert rows[0]["cost"] == "1"
        assert int(rows[0]["iterations"]) >= 1


class TestVerify:
    def test_verified(self, ex1_file, capsys):
        assert main(["verify", ex1_file, "0"]) == 0
        assert "s VERIFIED" in capsys.readouterr().out

    def test_rejected(self, ex1_file, capsys):
        assert main(["verify", ex1_file, "1"]) == 2
        assert "NOT AN EXPLANATION" in capsys.readouterr().out

    def test_bad_index(self, ex1_file, capsys):
        assert main(["verify", ex1_file, "9"]) == EXIT_ERROR
        capsys.readouterr()

    def test_solve_then_verify(self, tmp_path, capsys):
        verified = 0
        for seed in range(8):
            path = tmp_path / ("g%d.apf" % seed)
            main(["gen", "random", "--num-vars", "6", "--theory", "3",
                  "--hypotheses", "4", "--manifestations", "1",
                  "--seed", str(seed), "-o", str(path)])
            code = main(["solve", str(path)])
            out = capsys.readouterr().out
            if code != EXIT_FOUND:
                continue
            indices = out.splitlines()[2][2:].strip()
            if indices:
                assert main(["verify", str(path), indices]) == 0
                capsys.readouterr()
                verified += 1
        assert verified >= 1


class TestGen:
    def test_family_to_stdout(self, capsys):
        assert main(["gen", "family2", "--n", "2"]) == 0
        p = parse_apf(capsys.readouterr().out)
        assert len(p.hypotheses) == 4

    def test_random_deterministic(self, capsys):
        main(["gen", "random", "--seed", "3"])
        first = capsys.readouterr().out
        main(["gen", "random", "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_bad_n(self, capsys):
        assert main(["gen", "family1", "--n", "0"]) == EXIT_ERROR
        capsys.readouterr()


class TestEmit:
    def test_explanation_qcir(self, ex1_file, capsys):
        assert main(["emit", "explanation", "--indices", "0",
                     ex1_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("#QCIR-G14")
        assert "exists(1, 2, 3, 4)" in out

    def test_qmaxsat_qdimacs_with_soft_comments(self, ex1_file, capsys):
        assert main(["emit", "qmaxsat", "--format", "qdimacs",
                     ex1_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("p cnf ")
        assert "c soft -9 1" in out

    def test_decision_with_bound(self, ex1_file, tmp_path, capsys):
        target = tmp_path / "dec.qdimacs"
        assert main(["emit", "decision", "--k", "1", "--format", "qdimacs",
                     "-o", str(target), ex1_file]) == 0
        capsys.readouterr()
        assert target.read_text().startswith("p cnf ")

    def test_appendix_polarity_flips_relaxation(self, ex1_file, capsys):
        main(["emit", "qmaxsat", "--format", "qdimacs", ex1_file])
        default = capsys.readouterr().out
        main(["emit", "qmaxsat", "--format", "qdimacs",
              "--appendix-polarity", ex1_file])
        flipped = capsys.readouterr().out
        assert "-9 1 0" in default and "9 1 0" in flipped
        assert default != flipped

    def test_bad_index(self, ex1_file, capsys):
        assert main(["emit", "explanation", "--indices", "7",
                     ex1_file]) == EXIT_ERROR
        capsys.readouterr()


class TestBench:
    def test_rows_and_schema(self, ex1_file, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--algos", "hyper,abhs-plus",
                     "--timeout", "30", "--out", str(out), ex1_file]) == 0
        capsys.readouterr()
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert [r["algo"] for r in rows] == ["hyper", "abhs-plus"]
        assert all(r["result"] == "explanation" and r["cost"] == "1"
                   for r in rows)

    def test_error_row_for_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.apf"
        bad.write_text("nonsense\n")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--algos", "hyper", "--out", str(out),
                     str(bad)]) == 0
        capsys.readouterr()
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["result"] == "error"
        assert rows[0]["error"] == (
            "FormatError: line 1: clause line before 'p abd' header")

    def test_error_row_when_worker_dies(self, ex1_file, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setattr(cli, "_bench_worker",
                            lambda path, algo, seed, queue: os._exit(3))
        out = tmp_path / "bench.csv"
        assert main(["bench", "--algos", "hyper", "--out", str(out),
                     ex1_file]) == 0
        capsys.readouterr()
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["result"] == "error"
        assert rows[0]["error"] == "worker exited with code 3 and no result"

    def test_rejects_unknown_algo(self, ex1_file, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["bench", "--algos", "nope", "--out", str(out),
                     ex1_file]) == EXIT_ERROR
        capsys.readouterr()

    def test_rejects_bad_timeout(self, ex1_file, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["bench", "--timeout", "0", "--out", str(out),
                     ex1_file]) == EXIT_ERROR
        capsys.readouterr()

    def test_deterministic_apart_from_time(self, ex1_file, tmp_path, capsys):
        rows = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["bench", "--algos", "hyper,abhs", "--out", str(out),
                  ex1_file])
            with open(out) as fh:
                rows.append([
                    {k: v for k, v in r.items() if k != "time_s"}
                    for r in csv.DictReader(fh)])
        capsys.readouterr()
        assert rows[0] == rows[1]
