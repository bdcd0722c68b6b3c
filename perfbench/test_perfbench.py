"""Tests of the benchmark itself: python -m pytest perfbench"""

import dataclasses

import numpy as np
import pytest

import treedim
import inputs
import spans
import workloads
from run import Tally, run_plain


def _run(ops):
    tally = Tally(calibrated=False)
    tally.run_round(ops, run_plain, first=True)
    return tally


@pytest.fixture(scope="module")
def exact_plan():
    return workloads.setup_exact_side(0)


def test_exact_side_passes_unchanged(exact_plan):
    tally = _run(exact_plan.ops(0))
    assert tally.attempted == 33 + 5913
    assert tally.failed == 0


def test_wrong_beta_is_counted_as_failed(exact_plan, monkeypatch):
    real = treedim.md_report
    monkeypatch.setattr(
        treedim, "md_report", lambda tree: dataclasses.replace(real(tree), beta=real(tree).beta + 1)
    )
    oracle = [op for op in exact_plan.ops(0) if op.kind.name == "oracle"][:50]
    tally = _run(oracle)
    assert (tally.attempted, tally.failed) == (50, 50)


def test_wrong_beta_fails_the_measure_check(monkeypatch):
    plan = workloads.setup_measure_1e5(3, n=3000)
    assert _run(plan.ops(0)).failed == 0
    real = treedim.md_report
    monkeypatch.setattr(
        treedim, "md_report", lambda tree: dataclasses.replace(real(tree), beta=real(tree).beta + 5)
    )
    assert _run(plan.ops(0)).failed == 4


def test_exception_counts_as_failed_operation():
    def boom(call):
        raise ValueError("broken layer")

    ok = workloads.Op(workloads.Kind("ok"), lambda call: True)
    bad = workloads.Op(workloads.Kind("bad"), boom)
    tally = _run([ok, bad, ok])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "broken layer" in tally.errors[0]


def test_experiment_mean_check():
    summary = treedim.run_experiment(
        treedim.ExperimentConfig(treedim.UniformModel(), n=300, trials=20, master_seed=4)
    )
    assert workloads.experiment_ok(summary)
    assert not workloads.experiment_ok(dataclasses.replace(summary, mean=summary.mean + 0.02))


def test_self_time_of_synthetic_span_tree():
    # root [0,10]; a [1,4] with child [2,3]; b [3,6] overlaps a; c [8,12]
    # outlasts the root, so only [8,10] of it counts against the root.
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    assert spans.self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_nested_spans_self_times_sum_to_root():
    tracer = spans.Tracer()

    def leaf():
        return sum(range(2000))

    def middle():
        return tracer.call("leaf", leaf) + tracer.call("leaf", leaf)

    tracer.call("root", lambda: tracer.call("middle", middle) + leaf())
    table = spans.summarize(tracer)
    assert table["leaf"][0] == 2
    assert sum(row[2] for row in table.values()) == pytest.approx(spans.root_total(tracer), abs=1e-12)


def test_installed_rebinds_and_restores(monkeypatch):
    import sys

    modules = {m: sys.modules[m] for m, _, _ in spans.REBOUND}
    originals = {(m, a): getattr(modules[m], a) for m, a, _ in spans.REBOUND}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(modules):
            treedim.c_rrt()  # adaptive_simpson and lower_incomplete_gamma, rebound
            assert tracer.calls["quadrature.simpson"] == 1
            assert tracer.integrand_evals > 0
            raise RuntimeError
    for (m, a), fn in originals.items():
        assert getattr(modules[m], a) is fn


def test_measure_inputs_are_a_pure_function_of_the_seed():
    first = inputs.tree_texts(5, 2000)
    assert first == inputs.tree_texts(5, 2000)
    other = inputs.tree_texts(6, 2000)
    assert all(first[key] != other[key] for key in first)
    for (shape, labelling), text in first.items():
        tree = treedim.parse(text)
        parents = np.array([-1 if p is None else p for p in tree.parents])
        increasing = bool(np.all(parents[1:] < np.arange(1, tree.n))) and parents[0] == -1
        assert increasing == (labelling == "increasing")
        twin = treedim.parse(first[shape, "increasing"])
        assert sorted(map(len, tree.children)) == sorted(map(len, twin.children))
