import dataclasses
import math

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
from treedim.errors import InvalidParams
from treedim.experiments import default_reference, read_rows, summary_row

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

    def test_histogram_has_none(self):
        assert default_reference(small_config(statistic="fringe_histogram")) is None


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

    def test_retained_values(self):
        s = run_experiment(small_config(retain_values=True))
        assert len(s.values) == 20
        assert s.mean == pytest.approx(sum(s.values) / 20, abs=1e-12)

    def test_gw_model(self):
        config = small_config(model=GWModel(OffspringPmf.poisson(1.0)), trials=10)
        s = run_experiment(config)
        assert s.model == "gw" and s.rho is None

    def test_histogram_statistic(self):
        config = small_config(statistic="fringe_histogram", trials=10)
        s = run_experiment(config)
        assert sum(s.histogram.values()) == 10 * 40
        assert s.mean == pytest.approx(s.histogram.get(1, 0) / (10 * 40), abs=0.2)

    def test_convergence_tightens_with_n(self):
        # coarse two-point check that larger trees sit closer to the limit
        c = c_general(2.0, -1).value
        diffs = []
        for n, seed in ((250, 100), (4000, 101)):
            config = ExperimentConfig(
                model=BST,
                n=n,
                trials=200,
                master_seed=seed,
                statistic="beta_over_n",
                retain_values=True,
            )
            s = run_experiment(config)
            diffs.append(sum(abs(v - c) for v in s.values) / len(s.values))
        assert diffs[1] <= diffs[0]


class TestCompare:
    def test_pass_within_tolerance(self):
        s = dataclasses.replace(run_experiment(small_config()), mean=0.1095)
        assert compare_to_constant(s, 0.10969, 0.01).within_tolerance

    def test_fail_outside_tolerance(self):
        s = dataclasses.replace(run_experiment(small_config()), mean=0.15)
        assert not compare_to_constant(s, 0.10969, 0.01).within_tolerance

    def test_pa_grid_example(self):
        s = dataclasses.replace(run_experiment(small_config()), mean=0.502)
        assert compare_to_constant(s, 0.50120, 0.01).within_tolerance

    def test_accepts_constant_result(self):
        s = run_experiment(small_config())
        report = compare_to_constant(s, c_gw(OffspringPmf.poisson(1.0)), 0.5)
        assert report.within_tolerance


class TestExport:
    def test_csv_schema(self, tmp_path):
        s = run_experiment(small_config(model=BST, trials=5))
        path = tmp_path / "out.csv"
        export(s, "csv", path)
        text = path.read_text()
        header, row = text.strip().split("\n")
        assert header == "model,rho,chi,n,trials,seed,mean,stddev,stderr,ci_lo,ci_hi,constant,abs_diff"
        assert row.startswith("pa,2,-1,40,5,7,")

    def test_two_rows_one_header(self, tmp_path):
        a = run_experiment(small_config(trials=5))
        b = run_experiment(small_config(trials=6))
        path = tmp_path / "two.csv"
        export([a, b], "csv", path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[0].startswith("model,")

    def test_round_trip_csv(self, tmp_path):
        s = run_experiment(small_config(model=BST, trials=8))
        path = tmp_path / "rt.csv"
        export(s, "csv", path)
        (row,) = read_rows(path, "csv")
        original = summary_row(s)
        for key, value in original.items():
            if isinstance(value, float):
                assert row[key] == pytest.approx(value, rel=1e-11)
            else:
                assert row[key] == value

    def test_round_trip_json(self, tmp_path):
        s = run_experiment(small_config(trials=5))
        path = tmp_path / "rt.json"
        export(s, "json", path)
        (row,) = read_rows(path, "json")
        assert row["mean"] == pytest.approx(s.mean, rel=1e-14)
        assert row["rho"] is None

    def test_overwrite_guard(self, tmp_path):
        s = run_experiment(small_config(trials=5))
        path = tmp_path / "guard.csv"
        export(s, "csv", path)
        with pytest.raises(FileExistsError):
            export(s, "csv", path)
        export(s, "csv", path, overwrite=True)

    def test_reexport_identical_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        export(run_experiment(small_config()), "csv", a)
        export(run_experiment(small_config()), "csv", b)
        assert a.read_bytes() == b.read_bytes()
