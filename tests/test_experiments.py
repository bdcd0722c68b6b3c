import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from treedim import (
    ExperimentConfig,
    GWModel,
    OffspringPmf,
    PAModel,
    PAParams,
    UniformModel,
    c_general,
    c_gw,
    compare_to_constant,
    export,
    p_leaf,
    run_experiment,
)
from treedim.cli import main
from treedim.errors import InvalidParams, Unsupported
from treedim.experiments import CSV_COLUMNS, STATISTICS, default_reference
from treedim.fringe import count_subtree_property, is_pk, is_pl
from treedim.generators import RngSpec
from treedim.metric_dimension import md_report

BST = PAModel(PAParams(2.0, -1))


def small_config(**overrides):
    base = dict(
        model=UniformModel(), n=40, trials=20, master_seed=7, statistic="beta_over_n"
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            small_config(trials=0)
        with pytest.raises(InvalidParams):
            small_config(n=1)
        with pytest.raises(InvalidParams):
            small_config(statistic="nope")
        with pytest.raises(InvalidParams):
            small_config(workers=0)
        with pytest.raises(InvalidParams):
            small_config(model=object())

    @pytest.mark.parametrize("n", [2**53 + 1, 2**61])
    def test_size_beyond_the_sampler_range(self, n):
        with pytest.raises(InvalidParams, match=rf"tree size must be <= 2\^53, got {n}$"):
            small_config(n=n)

    @pytest.mark.parametrize(
        "n,message",
        [(50.5, "must be an integer, got 50.5"), (3.0, "must be an integer, got 3.0"),
         (True, "must be an integer, got True"), ("5", "must be an integer, got '5'"),
         (None, "must be an integer, got None"), (1.5, "must be an integer, got 1.5"),
         (0, "must be >= 2, got 0"), (1, "must be >= 2, got 1")],
    )
    def test_non_integer_size_refused(self, n, message):
        with pytest.raises(InvalidParams, match=rf"tree size {message}$"):
            small_config(n=n)

    def test_numpy_integer_size_accepted(self, tmp_path):
        config = small_config(n=np.int64(5), trials=3)
        assert config.n == 5
        path = tmp_path / "np.json"
        export([run_experiment(config)], path)
        (row,) = json.loads(path.read_text())
        assert row["n"] == 5

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("field", ["trials", "workers", "master_seed"])
    def test_non_integer_count_or_seed_refused(self, field, value):
        with pytest.raises(InvalidParams, match=rf"^{field} must be an integer, got {value!r}$"):
            small_config(**{field: value})

    @pytest.mark.parametrize("field", ["trials", "workers", "master_seed", "rho", "chi"])
    def test_numpy_integer_count_or_seed_accepted(self, field, tmp_path):
        def config(integer):
            if field == "rho":
                return small_config(n=5, trials=3, model=PAModel(PAParams(integer(2), -1)))
            if field == "chi":
                return small_config(n=5, trials=3, model=PAModel(PAParams(2.0, integer(-1))))
            return small_config(**{"n": 5, "trials": 3, field: integer(3)})

        summary, python = run_experiment(config(np.int64)), run_experiment(config(int))
        assert summary == python
        export([summary], tmp_path / "np.json")
        export([python], tmp_path / "py.json")
        assert (tmp_path / "np.json").read_bytes() == (tmp_path / "py.json").read_bytes()

    def test_seed_out_of_range_refused_by_the_config(self):
        with pytest.raises(InvalidParams, match="master_seed must be >= 0, got -1"):
            small_config(master_seed=-1)
        with pytest.raises(InvalidParams, match="master_seed must fit in 64 unsigned bits"):
            small_config(master_seed=1 << 64)


class TestReferences:
    def test_bst(self):
        config = small_config(model=BST)
        assert default_reference(config) == pytest.approx(
            c_general(2.0, -1).value, abs=1e-12
        )

    def test_uniform_uses_poisson(self):
        assert default_reference(small_config()) == pytest.approx(
            c_gw(OffspringPmf.poisson(1.0)).value, abs=1e-12
        )

    def test_leaf_fraction(self):
        config = small_config(model=BST, statistic="pl_fraction")
        assert default_reference(config) == pytest.approx(p_leaf(2.0, -1), abs=1e-12)

    def test_branch_fraction(self):
        config = small_config(model=BST, statistic="pk_fraction")
        expected = p_leaf(2.0, -1) - c_general(2.0, -1).value
        assert default_reference(config) == pytest.approx(expected, abs=1e-10)

    def test_degenerate_model_has_none(self):
        config = small_config(model=PAModel(PAParams(1.0, -1)))
        assert default_reference(config) is None


class TestRun:
    def test_reproducible(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert a == b

    def test_worker_count_does_not_change_results(self):
        serial = run_experiment(small_config(trials=24))
        parallel = run_experiment(small_config(trials=24, workers=2))
        assert serial == parallel

    def test_ci_shape(self):
        s = run_experiment(small_config())
        assert s.ci_lo == pytest.approx(s.mean - 1.96 * s.stderr, abs=1e-15)
        assert s.ci_hi == pytest.approx(s.mean + 1.96 * s.stderr, abs=1e-15)
        assert 0.0 <= s.mean <= 1.0
        assert s.stderr == pytest.approx(s.stddev / math.sqrt(s.trials), abs=1e-15)

    def test_gw_model(self):
        config = small_config(model=GWModel(OffspringPmf.poisson(1.0)), trials=10)
        s = run_experiment(config)
        assert s.model == "gw" and s.rho is None

    def test_histogram_statistic(self, capsys):
        # Refused by the library and at the CLI; its scalar, the size-1
        # fraction, is pl_fraction.
        with pytest.raises(InvalidParams):
            small_config(statistic="fringe_histogram")
        with pytest.raises(SystemExit) as exc:
            main([
                "experiment", "--model", "uniform", "-n", "20", "--trials", "2",
                "--seed", "1", "--stat", "fringe_histogram",
            ])
        assert exc.value.code == 2 and "fringe_histogram" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "workers, trials, cores, pool",
        [
            (100_000, 1, 8, None),
            (100_000, 3, 8, 3),
            (100_000, 24, 2, 2),
            (5, 24, None, None),
        ],
    )
    def test_pool_is_bounded_by_trials_and_cores(self, monkeypatch, workers, trials, cores, pool):
        # An in-process stand-in for the executor: no process is started.
        sizes = []

        class Inline:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr("treedim.experiments.ProcessPoolExecutor", Inline)
        monkeypatch.setattr("treedim.experiments.os.cpu_count", lambda: cores)
        summary = run_experiment(small_config(trials=trials, workers=workers))
        assert sizes == ([] if pool is None else [pool])
        assert summary == run_experiment(small_config(trials=trials))

    @pytest.mark.parametrize("statistic", STATISTICS)
    def test_trial_values_are_counts_over_n(self, statistic):
        count = {
            "beta_over_n": lambda t: md_report(t).beta,
            "pl_fraction": lambda t: count_subtree_property(t, is_pl),
            "pk_fraction": lambda t: count_subtree_property(t, is_pk),
        }[statistic]
        trees = [UniformModel().sample(40, RngSpec(7).stream(i)) for i in range(5)]
        expected = sum(count(t) / t.n for t in trees) / len(trees)
        summary = run_experiment(small_config(statistic=statistic, trials=5))
        assert summary.mean == pytest.approx(expected, abs=1e-15)

    def test_convergence_tightens_with_n(self):
        # coarse two-point check that larger trees sit closer to the limit:
        # the RMS deviation of the trial values from the constant c is
        # sqrt(mean (v - c)^2) = sqrt(population variance + (mean - c)^2)
        c = c_general(2.0, -1).value
        rms = []
        for n, seed in ((250, 100), (4000, 101)):
            config = ExperimentConfig(
                model=BST,
                n=n,
                trials=200,
                master_seed=seed,
                statistic="beta_over_n",
            )
            s = run_experiment(config)
            assert s.constant == c
            t = s.trials
            rms.append(math.sqrt(s.stddev**2 * (t - 1) / t + s.abs_diff**2))
        assert rms[1] <= rms[0]


class TestCompare:
    def test_pass_within_tolerance(self):
        s = dataclasses.replace(run_experiment(small_config()), mean=0.1095)
        report = compare_to_constant(dataclasses.replace(s, constant=0.10969), 0.01)
        assert report.within_tolerance

    def test_fail_outside_tolerance(self):
        s = dataclasses.replace(run_experiment(small_config()), mean=0.15)
        report = compare_to_constant(dataclasses.replace(s, constant=0.10969), 0.01)
        assert not report.within_tolerance

    def test_pa_grid_example(self):
        s = dataclasses.replace(run_experiment(small_config()), mean=0.502)
        report = compare_to_constant(dataclasses.replace(s, constant=0.50120), 0.01)
        assert report.within_tolerance

    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_useless_tolerance_refused(self, tol):
        s = run_experiment(small_config(trials=2))
        with pytest.raises(InvalidParams):
            compare_to_constant(dataclasses.replace(s, constant=0.10969), tol)

    def test_summary_without_constant_refused(self):
        s = dataclasses.replace(run_experiment(small_config(trials=2)), constant=None)
        with pytest.raises(Unsupported, match="no reference constant"):
            compare_to_constant(s, 0.01)


class TestExport:
    def test_csv_schema(self, tmp_path):
        s = run_experiment(small_config(model=BST, trials=5))
        path = tmp_path / "out.csv"
        export([s], path)
        text = path.read_text()
        header, row = text.strip().split("\n")
        assert header == "model,rho,chi,n,trials,seed,mean,stddev,stderr,ci_lo,ci_hi,constant,abs_diff"
        assert row.startswith("pa,2,-1,40,5,7,")

    def test_two_rows_one_header(self, tmp_path):
        a = run_experiment(small_config(trials=5))
        b = run_experiment(small_config(trials=6))
        path = tmp_path / "two.csv"
        export([a, b], path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("model,")

    def test_round_trip_csv(self, tmp_path):
        s = run_experiment(small_config(model=BST, trials=8))
        path = tmp_path / "rt.csv"
        export([s], path)
        with open(path, encoding="utf-8", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert list(row) == list(CSV_COLUMNS)
        for key in CSV_COLUMNS:
            value = getattr(s, key)
            if isinstance(value, float):
                assert float(row[key]) == pytest.approx(value, rel=1e-11)
            else:
                assert row[key] == str(value)

    def test_round_trip_json(self, tmp_path):
        s = run_experiment(small_config(trials=5))
        path = tmp_path / "rt.json"
        export([s], path)
        (row,) = json.loads(path.read_text())
        assert row["mean"] == pytest.approx(s.mean, rel=1e-14)
        assert row["rho"] is None

    def test_overwrite_guard(self, tmp_path):
        s = run_experiment(small_config(trials=5))
        path = tmp_path / "guard.csv"
        export([s], path)
        before = path.read_bytes()
        with pytest.raises(FileExistsError):
            export([dataclasses.replace(s, mean=0.5)], path)
        assert path.read_bytes() == before
        export([s], path, overwrite=True)

    @pytest.mark.parametrize("overwrite", [False, True])
    def test_unencodable_summary_leaves_the_path_untouched(self, overwrite, tmp_path):
        s = run_experiment(small_config(trials=5))
        path = tmp_path / "x.json"
        if overwrite:
            export([s], path)
            before = path.read_bytes()
        with pytest.raises(TypeError, match="not JSON serializable"):
            export([dataclasses.replace(s, rho=object())], path, overwrite=overwrite)
        if overwrite:
            assert path.read_bytes() == before
        else:
            assert not path.exists()

    def test_reexport_identical_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export([run_experiment(small_config())], a)
        export([run_experiment(small_config())], b)
        assert a.read_bytes() == b.read_bytes()

    def test_format_from_path(self, tmp_path):
        s = run_experiment(small_config(trials=5))
        export([s], tmp_path / "x.txt")
        export([s], tmp_path / "x.json")
        assert (tmp_path / "x.txt").read_text().startswith(",".join(CSV_COLUMNS) + "\n")
        (row,) = json.loads((tmp_path / "x.json").read_text())
        assert list(row) == list(CSV_COLUMNS)
