import hashlib

import pytest

from treedim import build_from_parents, write_tree
from treedim.cli import main


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
        ],
        ids=["gw", "mary", "rrt", "rich", "general"],
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

    def test_compare_failure_sets_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "experiment", "--model", "uniform", "-n", "50", "--trials", "5",
            "--seed", "8", "--compare", "--tol", "1e-6",
        )
        assert code == 1

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


class TestVerify:
    def test_constants_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "constants")
        assert code == 0
        assert "checks passed" in out and "FAIL" not in out

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
