"""Command-line behavior: exit codes, outputs, CSV schema, bench."""

import copy
import csv
import multiprocessing
import os
import re
import time

import pytest

from abduce import cli
from abduce.cli import CSV_FIELDS, EXIT_ERROR, EXIT_FOUND, EXIT_NONE, main
from abduce.formula import parse_apf, write_apf
from abduce.generators import gen_family1, gen_family2
from abduce.hyper import HyperOptions, solve_hyper
from abduce.qbf import emit_qmaxsat_qbf

from conftest import planted_pap, worked_instance

EX1_TEXT = write_apf(worked_instance())


def counts(stats):
    """A copy of ``stats`` with ``wall_time`` zeroed: only the counters."""
    stats = copy.copy(stats)
    stats.wall_time = 0.0
    return stats


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

    # from the fifth on, options the algorithm never reads
    @pytest.mark.parametrize("option", [
        ["--reduce-frac", "5"], ["--reduce-frac", "-0.5"],
        ["--reduce-frac", "nan"], ["--bootstrap", "-3"],
        ["--algo", "abhs", "--bootstrap", "-3", "--reduce-frac", "7"],
        ["--algo", "abhs", "--reduce-frac", "0"],
        ["--algo", "abhs-plus", "--bootstrap", "0"],
        ["--algo", "bf", "--reduce-frac", "0.2"]])
    def test_bad_option_value(self, ex1_file, option, capsys):
        assert main(["solve"] + option + [ex1_file]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--bogus", "FILE", "0,1,2,3"],
         "unrecognized arguments: --bogus"),
        (["solve", "--reduce-frac", "abc", "FILE"],
         "invalid float value: 'abc'"),
        (["solve", "--algo", "nope", "FILE"], "invalid choice: 'nope'"),
        (["verify", "FILE"], "required: indices"),
        # the baselines run one fixed trajectory: no solver takes a seed
        (["solve", "--seed", "1", "FILE"], "unrecognized arguments: --seed"),
        (["bench", "--seed", "3", "--out", "b.csv", "FILE"],
         "unrecognized arguments: --seed")])
    def test_usage_error(self, ex1_file, argv, message, capsys):
        # 2 is verify's "not an explanation", so usage errors exit 1
        argv = [ex1_file if a == "FILE" else a for a in argv]
        assert main(argv) == EXIT_ERROR
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_help_exits_zero(self, capsys):
        assert main(["solve", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: abduce solve")

    def test_unwritable_stats(self, ex1_file, tmp_path, capsys, monkeypatch):
        # the path is opened before solving, so no solve runs at all
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before opening --stats")

        monkeypatch.setattr(cli, "run_algo", no_solve)
        stats = tmp_path / "no-such-dir" / "s.csv"
        assert main(["solve", "--stats", str(stats), ex1_file]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

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


class TestRunAlgo:
    def test_hyper_variants_are_hyper_options(self):
        # hyper is HyperOptions() (reduction 1.0); hyper-star only adds
        # the bootstrap of up to 100 MCSes
        for p in (worked_instance(), gen_family1(4), gen_family2(4)):
            for algo, opts in (("hyper", HyperOptions()),
                               ("hyper-star", HyperOptions(bootstrap_mcs=100))):
                got, got_stats = cli.run_algo(algo, p)
                want, want_stats = solve_hyper(p, opts)
                assert got == want
                assert counts(got_stats) == counts(want_stats)
        _, stats = cli.run_algo("hyper-star", gen_family2(4))
        assert stats.bootstrap_mcs_found > 0

    def test_hyper_options_are_checked_for_none(self):
        # a zero is a value given, not a value left out
        p = worked_instance()
        assert cli.run_algo("hyper", p, reduce_frac=0.0)[0].cost == 1
        assert cli.run_algo("abhs", p, reduce_frac=None)[0].cost == 1
        for kwargs in ({"reduce_frac": 0.0}, {"bootstrap": 0}):
            with pytest.raises(ValueError, match="abhs-plus"):
                cli.run_algo("abhs-plus", p, **kwargs)

    @pytest.mark.parametrize("algo", cli.ALGOS)
    def test_identical_runs_in_one_process(self, algo):
        # bf refuses the planted instance's 40 hypotheses (its limit is 20)
        instances = [gen_family2(5)]
        if algo != "bf":
            instances.append(planted_pap(4))
        for p in instances:
            runs = [cli.run_algo(algo, p) for _ in range(2)]
            (first, first_stats), (second, second_stats) = runs
            assert first == second
            assert counts(first_stats) == counts(second_stats)


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
        # QDIMACS allows comments only before the problem line
        lines = capsys.readouterr().out.splitlines()
        top = next(i for i, l in enumerate(lines) if l.startswith("p cnf "))
        _, soft = emit_qmaxsat_qbf(worked_instance())
        assert len(soft) == len(worked_instance().hypotheses)
        assert lines[:top] == ["c soft %d %d" % s for s in soft]
        assert "c soft -9 1" in lines
        assert not any(l.startswith("c") for l in lines[top:])

    def test_qmaxsat_qcir_with_soft_comments(self, ex1_file, capsys):
        # QCIR-G14 has no soft statement; its comments start with "#"
        assert main(["emit", "qmaxsat", ex1_file]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "#QCIR-G14"
        assert "#soft -9 1" in lines
        softs = [l for l in lines if "soft" in l]
        assert len(softs) == len(worked_instance().hypotheses)
        assert all(l.startswith("#soft ") for l in softs)

    def test_decision_with_bound(self, ex1_file, tmp_path, capsys):
        target = tmp_path / "dec.qdimacs"
        assert main(["emit", "decision", "--k", "1", "--format", "qdimacs",
                     "-o", str(target), ex1_file]) == 0
        capsys.readouterr()
        assert target.read_text().startswith("p cnf ")

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

    def test_error_row_larger_than_the_pipe_buffer(self, tmp_path, capsys):
        # the worker cannot exit before its 80 kB record is read, so a
        # bench that joined it first reported a timeout after --timeout s,
        # and one that joined it for --timeout s took that long for the row
        bad = tmp_path / "big.apf"
        bad.write_text("p abd 3\nt %s 0\n" % " ".join(["x"] * 40000))
        out = tmp_path / "bench.csv"
        t0 = time.perf_counter()
        assert main(["bench", "--algos", "hyper", "--timeout", "3",
                     "--out", str(out), str(bad)]) == 0
        assert time.perf_counter() - t0 < 3
        capsys.readouterr()
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["result"] == "error"
        assert rows[0]["error"].startswith(
            "FormatError: line 2: bad literal in 'x x x ")
        assert len(rows[0]["error"]) > 80000

    def test_error_row_when_worker_dies(self, ex1_file, tmp_path, capsys,
                                        monkeypatch):
        monkeypatch.setattr(cli, "_bench_worker",
                            lambda path, algo, conn: os._exit(3))
        out = tmp_path / "bench.csv"
        assert main(["bench", "--algos", "hyper", "--out", str(out),
                     ex1_file]) == 0
        capsys.readouterr()
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["result"] == "error"
        assert rows[0]["error"] == "worker exited with code 3 and no result"

    def test_error_row_carries_its_time(self, ex1_file, monkeypatch):
        def slow_failure(algo, p):
            time.sleep(0.05)
            raise RuntimeError("late")

        monkeypatch.setattr(cli, "run_algo", slow_failure)
        reader, sender = multiprocessing.Pipe(duplex=False)
        cli._bench_worker(ex1_file, "hyper", sender)
        row = reader.recv()
        reader.close()
        sender.close()
        assert (row["result"], row["error"]) == ("error", "RuntimeError: late")
        assert float(row["time_s"]) >= 0.05

    def test_timeout_row_when_worker_overruns(self, ex1_file, tmp_path,
                                              capsys, monkeypatch):
        monkeypatch.setattr(cli, "_bench_worker",
                            lambda path, algo, conn: time.sleep(30))
        out = tmp_path / "bench.csv"
        t0 = time.perf_counter()
        assert main(["bench", "--algos", "hyper", "--timeout", "1",
                     "--out", str(out), ex1_file]) == 0
        assert time.perf_counter() - t0 < 5
        assert multiprocessing.active_children() == []
        capsys.readouterr()
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["algo"], r["result"], r["error"]) for r in rows] == [
            ("hyper", "timeout", "")]

    def test_rejects_unknown_algo(self, ex1_file, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["bench", "--algos", "nope", "--out", str(out),
                     ex1_file]) == EXIT_ERROR
        capsys.readouterr()

    def test_unwritable_out(self, ex1_file, tmp_path, capsys):
        out = tmp_path / "no-such-dir" / "b.csv"
        assert main(["bench", "--algos", "bf", "--out", str(out),
                     ex1_file]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_row_on_disk_when_run_ends(self, ex1_file, tmp_path, capsys,
                                       monkeypatch):
        # each worker reports, as its error text, how many rows the file
        # already holds when it starts
        out = tmp_path / "bench.csv"

        def worker(path, algo, conn):
            with open(out) as fh:
                seen = len(list(csv.DictReader(fh)))
            conn.send(cli.csv_row(path, algo, result="error",
                                  error="%d rows" % seen))

        monkeypatch.setattr(cli, "_bench_worker", worker)
        assert main(["bench", "--algos", "bf,hyper", "--out", str(out),
                     ex1_file]) == 0
        capsys.readouterr()
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["error"] for r in rows] == ["0 rows", "1 rows"]

    def test_rejects_bad_timeout(self, ex1_file, tmp_path, capsys):
        out = tmp_path / "b.csv"
        assert main(["bench", "--timeout", "0", "--out", str(out),
                     ex1_file]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: timeout 0 is not an int >= 1\n"

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


class TestRowText:
    """The exact CSV text of every kind of row, with ``time_s`` masked:
    bench's explanation, no-explanation, error, timeout and dead-worker
    rows, and the rows ``solve --stats`` appends, under one header."""

    HEADER = ("instance,algo,result,cost,iterations,type1,type2,hs_calls,"
              "sat_calls,time_s,error\r\n")

    @staticmethod
    def masked(path):
        """The file's text with each row's ``time_s`` checked and set to T."""
        with open(path, newline="") as fh:
            header, *rows = fh.readlines()
        for i, line in enumerate(rows):
            fields = line.split(",", 10)
            assert re.fullmatch(r"\d+\.\d{3}", fields[9]), line
            fields[9] = "T"
            rows[i] = ",".join(fields)
        return header + "".join(rows)

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ex1.apf").write_text(EX1_TEXT)
        (tmp_path / "f1.apf").write_text(write_apf(gen_family1(2)))
        (tmp_path / "bad.apf").write_text("nonsense\n")

    def test_bench_rows(self, files, capsys, monkeypatch):
        assert main(["bench", "--algos", "hyper,abhs", "--out", "b.csv",
                     "ex1.apf", "f1.apf", "bad.apf"]) == 0
        monkeypatch.setattr(cli, "_bench_worker",
                            lambda path, algo, conn: time.sleep(30))
        assert main(["bench", "--algos", "abhs-plus", "--timeout", "1",
                     "--out", "b.csv", "ex1.apf"]) == 0
        monkeypatch.setattr(cli, "_bench_worker",
                            lambda path, algo, conn: os._exit(3))
        assert main(["bench", "--algos", "bf", "--out", "b.csv",
                     "f1.apf"]) == 0
        assert capsys.readouterr().out == (
            "ex1.apf hyper: explanation\n"
            "ex1.apf abhs: explanation\n"
            "f1.apf hyper: no-explanation\n"
            "f1.apf abhs: no-explanation\n"
            "bad.apf hyper: error\n"
            "bad.apf abhs: error\n"
            "ex1.apf abhs-plus: timeout\n"
            "f1.apf bf: error\n")
        error = "FormatError: line 1: clause line before 'p abd' header"
        assert self.masked("b.csv") == self.HEADER + (
            "ex1.apf,hyper,explanation,1,2,1,0,2,2,T,\r\n"
            "ex1.apf,abhs,explanation,1,2,1,0,2,3,T,\r\n"
            "f1.apf,hyper,no-explanation,,9,8,0,9,8,T,\r\n"
            "f1.apf,abhs,no-explanation,,71,22,49,71,120,T,\r\n"
            "bad.apf,hyper,error,,0,0,0,0,0,T,%s\r\n"
            "bad.apf,abhs,error,,0,0,0,0,0,T,%s\r\n"
            "ex1.apf,abhs-plus,timeout,,0,0,0,0,0,T,\r\n"
            "f1.apf,bf,error,,0,0,0,0,0,T,"
            "worker exited with code 3 and no result\r\n") % (error, error)

    def test_solve_stats_rows(self, files, capsys):
        assert main(["solve", "--stats", "s.csv", "ex1.apf"]) == EXIT_FOUND
        assert main(["solve", "--algo", "abhs-plus", "--stats", "s.csv",
                     "f1.apf"]) == EXIT_NONE
        capsys.readouterr()
        assert self.masked("s.csv") == self.HEADER + (
            "ex1.apf,hyper,explanation,1,2,1,0,2,2,T,\r\n"
            "f1.apf,abhs-plus,no-explanation,,27,22,4,27,30,T,\r\n")
