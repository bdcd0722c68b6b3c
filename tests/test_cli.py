import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from treedim import __version__, build_from_parents, verify, write_tree
from treedim.cli import main
from treedim.errors import InvalidParams
from treedim.experiments import PAModel, default_reference


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_to_stdout(self, capsys):
        code, out, _ = run(capsys, "generate", "--model", "uniform", "-n", "5", "--seed", "1")
        assert code == 0
        assert out.startswith("5\n")

    def test_to_file_and_overwrite_guard(self, tmp_path, capsys):
        target = str(tmp_path / "t.tree")
        code, _, _ = run(
            capsys, "generate", "--model", "pa", "--rho", "2", "--chi", "-1",
            "-n", "30", "--seed", "4", "--out", target,
        )
        assert code == 0
        code, _, err = run(
            capsys, "generate", "--model", "pa", "--rho", "2", "--chi", "-1",
            "-n", "30", "--seed", "4", "--out", target,
        )
        assert code == 2 and "--force" in err
        code, _, _ = run(
            capsys, "generate", "--model", "pa", "--rho", "2", "--chi", "-1",
            "-n", "30", "--seed", "4", "--out", target, "--force",
        )
        assert code == 0

    def test_missing_out_directory(self, tmp_path, capsys):
        target = str(tmp_path / "missing" / "t.txt")
        code, out, err = run(
            capsys, "generate", "--model", "uniform", "-n", "5", "--seed", "1", "--out", target
        )
        assert code == 2 and out == "" and err == f"error: {target}: no such directory\n"

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_directory_out_refused_before_sampling(self, tmp_path, capsys, monkeypatch, force):
        def fail(args):
            raise AssertionError("sampler ran")

        monkeypatch.setattr("treedim.cli._model", fail)
        code, out, err = run(
            capsys, "generate", "--model", "uniform", "-n", "5", "--seed", "1",
            "--out", str(tmp_path), *force,
        )
        assert code == 2 and out == "" and err == f"error: {tmp_path} is a directory\n"

    def test_empty_out_refused_before_sampling(self, capsys, monkeypatch):
        def fail(args):
            raise AssertionError("sampler ran")

        monkeypatch.setattr("treedim.cli._model", fail)
        code, out, err = run(
            capsys, "generate", "--model", "uniform", "-n", "20", "--seed", "1", "--out", ""
        )
        assert code == 2 and out == "" and err == "error: --out must name a file, got ''\n"

    def test_seed_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--model", "uniform", "-n", "5"])
        assert exc.value.code == 2

    def test_unknown_flag_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--model", "uniform", "-n", "5", "--seed", "1", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_pa_params(self, capsys):
        code, _, err = run(capsys, "generate", "--model", "pa", "-n", "5", "--seed", "1")
        assert code == 2 and "rho" in err

    def test_gw_and_cmj_models(self, capsys):
        for model in ("gw", "cmj"):
            args = ["generate", "--model", model, "-n", "6", "--seed", "2"]
            if model == "cmj":
                args += ["--rho", "1", "--chi", "1"]
            code, out, _ = run(capsys, *args)
            assert code == 0 and out.startswith("6\n")


class TestMd:
    def test_report_and_witness(self, tmp_path, capsys):
        target = str(tmp_path / "t.tree")
        run(capsys, "generate", "--model", "uniform", "-n", "9", "--seed", "3",
            "--out", target)
        code, out, _ = run(capsys, "md", target, "--witness")
        assert code == 0
        assert "beta" in out and "oracle" in out

    @pytest.mark.parametrize(
        "parents, expected",
        [
            ([None], "n        1\nleaves   0\nexterior 0\nbeta     0\nbeta/n   0\n"
             "path     yes\noracle   beta 0, witness []\n"),
            ([None, 0, 1, 2, 3], "n        5\nleaves   2\nexterior 0\nbeta     1\n"
             "beta/n   0.2\npath     yes\noracle   beta 1, witness [0]\n"),
            ([None] + [0] * 8, "n        9\nleaves   8\nexterior 1\nbeta     7\n"
             "beta/n   0.777778\npath     no\noracle   beta 7, witness [1, 2, 3, 4, 5, 6, 7]\n"),
            ([None, 0, 0, 2, 2, 3, 3, 4, 4], "n        9\nleaves   5\nexterior 3\nbeta     2\n"
             "beta/n   0.222222\npath     no\noracle   beta 2, witness [5, 7]\n"),
            ([None] + list(range(16)), "n        17\nleaves   2\nexterior 0\nbeta     1\n"
             "beta/n   0.0588235\npath     yes\noracle   skipped (n > 16)\n"),
        ],
        ids=["single", "path-5", "star-8", "root-leg-9", "path-17"],
    )
    def test_witness_output_is_pinned(self, tmp_path, capsys, parents, expected):
        target = tmp_path / "t.tree"
        write_tree(build_from_parents(parents), target)
        code, out, _ = run(capsys, "md", str(target), "--witness")
        assert code == 0 and out == expected

    def test_large_tree_skips_oracle(self, tmp_path, capsys):
        target = str(tmp_path / "big.tree")
        run(capsys, "generate", "--model", "uniform", "-n", "40", "--seed", "3",
            "--out", target)
        code, out, _ = run(capsys, "md", target, "--witness")
        assert code == 0 and "skipped" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "md", "/nonexistent/file.tree")
        assert code == 2


class TestFringe:
    def test_counts(self, tmp_path, capsys):
        target = str(tmp_path / "t.tree")
        run(capsys, "generate", "--model", "pa", "--rho", "1", "--chi", "0",
            "-n", "50", "--seed", "5", "--out", target)
        code, out, _ = run(capsys, "fringe", target, "--property", "pl")
        assert code == 0 and "fraction" in out

    def test_histogram(self, tmp_path, capsys):
        target = str(tmp_path / "t.tree")
        run(capsys, "generate", "--model", "uniform", "-n", "12", "--seed", "6",
            "--out", target)
        code, out, _ = run(capsys, "fringe", target, "--property", "line", "--histogram")
        assert code == 0 and "size  count" in out


class TestConstant:
    def test_models(self, capsys):
        cases = [
            ("constant", "--model", "gw"),
            ("constant", "--model", "mary", "--m", "2"),
            ("constant", "--model", "rrt"),
            ("constant", "--model", "rich", "--rho", "1"),
            ("constant", "--model", "general", "--rho", "2", "--chi", "-1"),
        ]
        for argv in cases:
            code, out, _ = run(capsys, *argv)
            assert code == 0 and "value" in out

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (
                ("gw",),
                "value     0.140769411632\nabs_error 1e-14\nmethod    closed_form\n",
            ),
            (
                ("mary", "--m", "2"),
                "value     0.109686868101\nabs_error 2.3e-13\nmethod    series\n",
            ),
            (
                ("rrt",),
                "value     0.263709059139\nabs_error 1.55e-11\nmethod    quadrature\n",
            ),
            (
                ("rich", "--rho", "1"),
                "value     0.501196708672\nabs_error 5.49e-11\nmethod    quadrature\n",
            ),
            (
                ("general", "--rho", "2", "--chi", "-1"),
                "value     0.109686868101\nabs_error 3.57e-11\nmethod    quadrature\n",
            ),
            # --tol defaults to the quadrature's default relative tolerance.
            (
                ("rrt", "--tol", "1e-10"),
                "value     0.263709059139\nabs_error 1.55e-11\nmethod    quadrature\n",
            ),
            (
                ("rich", "--rho", "1", "--tol", "1e-10"),
                "value     0.501196708672\nabs_error 5.49e-11\nmethod    quadrature\n",
            ),
            (
                ("general", "--rho", "2", "--chi", "-1", "--tol", "1e-10"),
                "value     0.109686868101\nabs_error 3.57e-11\nmethod    quadrature\n",
            ),
        ],
        ids=["gw", "mary", "rrt", "rich", "general", "rrt-tol", "rich-tol", "general-tol"],
    )
    def test_stdout_pinned(self, capsys, argv, stdout):
        assert run(capsys, "constant", "--model", *argv) == (0, stdout, "")

    @pytest.mark.parametrize(
        "argv, needs",
        [
            (("mary",), "--m"),
            (("rich",), "--rho"),
            (("general", "--rho", "2"), "--rho and --chi"),
            (("general", "--chi", "1"), "--rho and --chi"),
        ],
    )
    def test_missing_flags_named(self, capsys, argv, needs):
        code, out, err = run(capsys, "constant", "--model", *argv)
        assert (code, out, err) == (2, "", f"error: model '{argv[0]}' needs {needs}\n")

    def test_pmf_file(self, tmp_path, capsys):
        pmf = tmp_path / "pmf.txt"
        pmf.write_text("0.5\n0\n0.5\n")
        code, out, _ = run(capsys, "constant", "--model", "gw", "--pmf", str(pmf))
        assert code == 0 and "0.125" in out

    def test_pmf_file_blank_lines_skipped(self, tmp_path, capsys):
        pmf = tmp_path / "pmf.txt"
        pmf.write_text("0.5\n0\n0.5\n")
        expected = run(capsys, "constant", "--model", "gw", "--pmf", str(pmf))
        pmf.write_text("\n0.5\n  \n0\n\n0.5\n\n")
        assert run(capsys, "constant", "--model", "gw", "--pmf", str(pmf)) == expected

    @pytest.mark.parametrize("tol", ["inf", "1e300", "1e-18"])
    def test_useless_tolerance_refused(self, capsys, tol):
        code, out, err = run(capsys, "constant", "--model", "rrt", "--tol", tol)
        assert code == 2 and err.startswith("error:") and out == ""

    def test_domain_error_reported(self, capsys):
        code, _, err = run(capsys, "constant", "--model", "general", "--rho", "1", "--chi", "-1")
        assert code == 2 and "error" in err


class TestExperiment:
    def test_run_export_compare(self, tmp_path, capsys):
        target = str(tmp_path / "results.csv")
        code, out, _ = run(
            capsys, "experiment", "--model", "uniform", "-n", "200", "--trials", "40",
            "--seed", "8", "--out", target, "--compare", "--tol", "0.05",
        )
        assert code == 0
        assert "compare: " in out and "pass" in out
        header = open(target).readline().strip()
        assert header.startswith("model,rho,chi,")

    def test_existing_out_refused_before_any_trial(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "r.csv"
        target.write_text("kept\n")

        def fail(config):
            raise AssertionError("run_experiment ran")

        monkeypatch.setattr("treedim.cli.run_experiment", fail)
        code, _, err = run(
            capsys, "experiment", "--model", "uniform", "-n", "20", "--trials", "2",
            "--seed", "9", "--out", str(target),
        )
        assert code == 2 and err.startswith("error:") and err.count("--force") == 1
        assert target.read_text() == "kept\n"

    def test_missing_out_directory_refused_before_any_trial(self, tmp_path, capsys, monkeypatch):
        def fail(config):
            raise AssertionError("run_experiment ran")

        monkeypatch.setattr("treedim.cli.run_experiment", fail)
        target = str(tmp_path / "missing" / "x.csv")
        code, out, err = run(
            capsys, "experiment", "--model", "uniform", "-n", "20", "--trials", "2",
            "--seed", "9", "--out", target,
        )
        assert code == 2 and out == ""
        assert err == f"error: {target}: no such directory\n"

    @pytest.mark.parametrize("force", [[], ["--force"]])
    def test_directory_out_refused_before_any_trial(self, tmp_path, capsys, monkeypatch, force):
        def fail(config):
            raise AssertionError("run_experiment ran")

        monkeypatch.setattr("treedim.cli.run_experiment", fail)
        code, out, err = run(
            capsys, "experiment", "--model", "uniform", "-n", "20", "--trials", "3",
            "--seed", "1", "--out", str(tmp_path), *force,
        )
        assert code == 2 and out == "" and err == f"error: {tmp_path} is a directory\n"

    def test_empty_out_refused_before_any_trial(self, capsys, monkeypatch):
        def fail(config):
            raise AssertionError("run_experiment ran")

        monkeypatch.setattr("treedim.cli.run_experiment", fail)
        code, out, err = run(
            capsys, "experiment", "--model", "uniform", "-n", "20", "--trials", "3",
            "--seed", "1", "--out", "",
        )
        assert code == 2 and out == "" and err == "error: --out must name a file, got ''\n"

    def test_compare_without_constant_refused_before_any_trial(self, capsys, monkeypatch):
        def fail(config):
            raise AssertionError("run_experiment ran")

        monkeypatch.setattr("treedim.cli.run_experiment", fail)
        code, out, err = run(
            capsys, "experiment", "--model", "pa", "--rho", "2", "--chi", "0",
            "-n", "50", "--trials", "2", "--seed", "1", "--compare",
        )
        assert code == 2 and out == ""
        assert err == "error: no reference constant exists for this configuration\n"

    def test_compare_evaluates_the_reference_once(self, capsys, monkeypatch):
        # Counted at the name the config looks up and where the constant is
        # evaluated, so a second evaluation through any import shows.
        calls = Counter()

        def counting(name, fn):
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(
            "treedim.experiments.default_reference",
            counting("default_reference", default_reference),
        )
        monkeypatch.setattr(PAModel, "limit", counting("limit", PAModel.limit))
        code, out, _ = run(
            capsys, "experiment", "--model", "pa", "--rho", "2", "--chi", "-1",
            "-n", "20", "--trials", "2", "--seed", "1", "--compare", "--tol", "1",
        )
        assert code == 0 and "compare: " in out
        assert calls == {"default_reference": 1, "limit": 1}

    def test_compare_failure_sets_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "--model", "uniform", "-n", "50", "--trials", "5",
            "--seed", "8", "--compare", "--tol", "1e-6",
        )
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_useless_tolerance_refused_before_any_trial(self, capsys, monkeypatch, tol):
        def fail(config):
            raise AssertionError("run_experiment ran")

        monkeypatch.setattr("treedim.cli.run_experiment", fail)
        code, out, err = run(
            capsys, "experiment", "--model", "uniform", "-n", "20", "--trials", "2",
            "--seed", "9", "--compare", "--tol", tol,
        )
        assert code == 2 and err.startswith("error:") and "tolerance" in err and out == ""

    def test_threads_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("MDTREE_THREADS", "2")
        code, _, _ = run(
            capsys, "experiment", "--model", "pa", "--rho", "1", "--chi", "0",
            "-n", "50", "--trials", "8", "--seed", "9",
        )
        assert code == 0

    @pytest.mark.parametrize("value", ["two", "1.5", "0", "-3"])
    def test_threads_env_rejects_bad_value(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MDTREE_THREADS", value)
        code, _, err = run(
            capsys, "experiment", "--model", "uniform", "-n", "20", "--trials", "2",
            "--seed", "9",
        )
        assert code == 2 and "MDTREE_THREADS" in err and repr(value) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "all", "--threads", "0"),
            ("experiment", "--model", "uniform", "-n", "20", "--trials", "2",
             "--seed", "9", "--threads", "-3"),
        ],
    )
    def test_threads_flag_rejects_non_positive(self, capsys, monkeypatch, argv):
        def fail(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr("treedim.cli.run_suite", fail)
        monkeypatch.setattr("treedim.cli.run_experiment", fail)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --threads must be a positive integer")
        assert repr(argv[-1]) in err


class TestVerify:
    @pytest.fixture
    def no_suite_runs(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a suite ran")

        for name in dir(verify):
            if name.startswith("criterion_"):
                monkeypatch.setattr(verify, name, fail)

    def test_constants_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "constants")
        assert code == 0
        assert "checks passed" in out and "FAIL" not in out

    def test_bad_seed_refused_before_any_suite(self, capsys, monkeypatch):
        def fail():
            raise AssertionError("a suite ran")

        monkeypatch.setattr("treedim.verify.criterion_closed_forms", fail)
        code, out, err = run(capsys, "verify", "all", "--seed", "-1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "master_seed" in err

    def test_unknown_suite_refused_before_any_suite(self, no_suite_runs):
        with pytest.raises(KeyError, match="unknown suite 'nope'"):
            verify.run_suite("nope")

    @pytest.mark.parametrize("suite, workers", [("all", 0), ("constants", True)])
    def test_bad_worker_count_refused_before_any_suite(self, no_suite_runs, suite, workers):
        with pytest.raises(InvalidParams, match="workers must be"):
            verify.run_suite(suite, workers=workers)

    def test_suite_choices_come_from_the_suite_table(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope"])
        assert exc.value.code == 2
        assert "{constants,slater,fringe,embedding,figure1,all}" in capsys.readouterr().err
        assert list(verify.SUITES) == ["constants", "slater", "fringe", "embedding", "figure1"]

    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--model", "--trials", "--seed", "--threads", "--stat", "--out", "--compare"):
            assert flag in out


class TestGenerateDigests:
    # sha256 of `treedim generate ... -n 200 --seed 11`; a change here is a
    # change of a sampler stream and must be recorded as such.
    @pytest.mark.parametrize(
        "args, digest",
        [
            (("--model", "gw"), "b2eb03be11cb7e67f0a415aa1a5bc30a970f416e73bba1b595d8b49d582ae849"),
            (("--model", "uniform"), "4d29dedbedbd81393e6f11dc15382a053c09d5746c682e52355bd6b91d5827cd"),
            (
                ("--model", "pa", "--rho", "2", "--chi", "-1"),
                "a285d59880160e2c1effe91a56426fc92ae8c0b72e56dddb54666c3207644ffa",
            ),
            (
                ("--model", "cmj", "--rho", "1", "--chi", "1"),
                "b389302f8a2cceeb6983c9ee4c1e3b9b7cf69b15eefdad18dde7f2a98faec4a6",
            ),
        ],
    )
    def test_output_is_pinned(self, capsys, args, digest):
        code, out, _ = run(capsys, "generate", *args, "-n", "200", "--seed", "11")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestBadInput:
    @pytest.mark.parametrize("command", ["md", "fringe"])
    @pytest.mark.parametrize(
        "data",
        [b"3\nR\n0\nx\n", b"", b"2\nR\n\xff\n"],
        ids=["bad-token", "empty", "non-utf8"],
    )
    def test_malformed_tree_file(self, tmp_path, capsys, command, data):
        target = tmp_path / "bad.tree"
        target.write_bytes(data)
        argv = [command, str(target)]
        if command == "fringe":
            argv += ["--property", "pl"]
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("command", ["constant", "generate"])
    def test_non_numeric_pmf_line(self, tmp_path, capsys, command):
        pmf = tmp_path / "pmf.txt"
        pmf.write_text("0.5\nhalf\n0.5\n")
        argv = [command, "--model", "gw", "--pmf", str(pmf)]
        if command == "generate":
            argv += ["-n", "5", "--seed", "1"]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "line 2" in err and "'half'" in err

    @pytest.mark.parametrize("command", ["constant", "generate"])
    def test_nan_pmf_line(self, tmp_path, capsys, command):
        pmf = tmp_path / "pmf.txt"
        pmf.write_text("0.5\nnan\n0.5\n")
        argv = [command, "--model", "gw", "--pmf", str(pmf)]
        if command == "generate":
            argv += ["-n", "5", "--seed", "1"]
        code, out, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and "nan" in err
        assert "value" not in out

    @pytest.mark.parametrize("command", ["constant", "generate"])
    def test_non_utf8_pmf(self, tmp_path, capsys, command):
        pmf = tmp_path / "pmf.txt"
        pmf.write_bytes(b"0.5\n\xff\n0.5\n")
        argv = [command, "--model", "gw", "--pmf", str(pmf)]
        if command == "generate":
            argv += ["-n", "5", "--seed", "1"]
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and "pmf.txt" in err

    def test_tree_file_is_directory(self, tmp_path, capsys):
        code, _, err = run(capsys, "md", str(tmp_path))
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("command", ["constant", "generate"])
    def test_pmf_is_directory(self, tmp_path, capsys, command):
        argv = [command, "--model", "gw", "--pmf", str(tmp_path)]
        if command == "generate":
            argv += ["-n", "5", "--seed", "1"]
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("generate", "--model", "pa", "-n", "5", "--seed", "1"),
            ("constant", "--model", "general"),
            ("experiment", "--model", "pa", "-n", "5", "--trials", "2", "--seed", "1"),
        ],
        ids=["generate", "constant", "experiment"],
    )
    def test_infinite_rho(self, capsys, argv):
        code, _, err = run(capsys, *argv, "--rho", "inf", "--chi", "-1")
        assert code == 2 and err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("command", ["generate", "experiment"])
    def test_slot_count_beyond_float64(self, capsys, command):
        argv = [command, "--model", "pa", "--rho", "1e19", "--chi", "-1", "-n", "5", "--seed", "1"]
        if command == "experiment":
            argv += ["--trials", "2"]
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.startswith("error:") and "2^53" in err

    @pytest.mark.parametrize(
        "argv, target",
        [
            (("generate", "--model", "uniform"), "treedim.cli._model"),
            (("experiment", "--model", "uniform", "--trials", "1"), "treedim.cli.run_experiment"),
        ],
        ids=["generate", "experiment"],
    )
    def test_unallocatable_size(self, capsys, monkeypatch, argv, target):
        # numpy raises MemoryError for an array no memory can hold; the
        # stand-in raises it without allocating.
        def fail(*args):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(target, fail)
        code, out, err = run(capsys, *argv, "-n", "100000000000", "--seed", "1")
        assert code == 2 and out == "" and err == "error: Unable to allocate\n"

    @pytest.mark.parametrize(
        "model",
        [("uniform",), ("gw",), ("pa", "--rho", "1", "--chi", "1"), ("cmj", "--rho", "1", "--chi", "1")],
        ids=["uniform", "gw", "pa", "cmj"],
    )
    @pytest.mark.parametrize(
        "size,message",
        [
            ("2305843009213693952", "tree size must be <= 2^53, got 2305843009213693952"),
            ("0", "tree size must be >= 1, got 0"),
        ],
        ids=["2^61", "0"],
    )
    def test_size_outside_the_sampler_range(self, capsys, model, size, message):
        # Refused before any draw, so nothing is allocated.
        code, out, err = run(capsys, "generate", "--model", *model, "-n", size, "--seed", "1")
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_experiment_size_refused_before_any_work(self, capsys, monkeypatch):
        # The config refuses the size: no reference constant, no worker pool.
        def fail(*args):
            raise AssertionError("reached past the size check")

        for target in (
            "treedim.experiments.default_reference",
            "treedim.experiments.ProcessPoolExecutor",
        ):
            monkeypatch.setattr(target, fail)
        code, out, err = run(
            capsys, "experiment", "--model", "uniform", "-n", "2305843009213693952",
            "--trials", "4", "--seed", "1", "--threads", "2",
        )
        assert code == 2 and out == ""
        assert err == "error: tree size must be <= 2^53, got 2305843009213693952\n"

    def test_mary_constant_overflow(self, capsys):
        code, _, err = run(capsys, "constant", "--model", "mary", "--m", "200")
        assert code == 2 and "c_mary(200)" in err

    def test_experiment_without_representable_constant(self, capsys):
        # chi = 0 is evaluated at rho = 1 only (Unsupported elsewhere)
        code, out, _ = run(
            capsys, "experiment", "--model", "pa", "--rho", "2", "--chi", "0",
            "-n", "50", "--trials", "2", "--seed", "1",
        )
        assert code == 0
        assert "mean=" in out and "constant=" not in out

    def test_large_rho_constant(self, capsys):
        code, out, _ = run(capsys, "constant", "--model", "general", "--rho", "200", "--chi", "-1")
        assert code == 0 and "0.262113" in out
        code, out, _ = run(
            capsys, "experiment", "--model", "pa", "--rho", "200", "--chi", "-1",
            "-n", "50", "--trials", "2", "--seed", "1",
        )
        assert code == 0 and "constant=0.262113" in out


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

        def treedim(*argv):
            command = [sys.executable, "-m", "treedim.cli", *argv]
            return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)

        version = treedim("--version")
        assert (version.returncode, version.stdout) == (0, f"treedim {__version__}\n")
        assert treedim("verify", "nope").returncode == 2
