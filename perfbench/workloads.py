"""The benchmark's workloads: what each one runs and how its outputs are checked.

A workload's set-up returns a :class:`Plan`.  Measurement then runs whole
rounds of operations until the time is up; every round has the same
composition, so per-round counts repeat exactly.  Each operation returns
whether its output passed its check; one that raises counts as failed.

Operations reach treedim through ``call(span_name, fn, *args)``, which a
traced run turns into a span and an untraced run into a plain call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

import treedim as td
from treedim.verify import FIGURE_GRID

import inputs

MEAN_TOL = 0.01  # |mean beta/n - reference|, the tolerance `treedim verify figure1` uses
GRID_TOL = 5e-6  # c_general against the 5-digit FIGURE_GRID references
ROUTE_TOL = 1e-10  # independent evaluation routes of the same constant
CLOSED_FORM_TOL = 1e-12  # c_gw against the benchmark's own closed forms
EPSILON_BOUND = 2  # |beta - (n_pl - n_pk)|, the EpsilonAudit bound


@dataclass(frozen=True)
class Kind:
    """One kind of operation in a round.

    ``units`` is the work one operation completes (trials, trees or
    evaluations); ``gated`` kinds make up the workload's ``ops_per_s``.
    """

    name: str
    family: str = ""
    units: int = 1
    gated: bool = True


@dataclass(frozen=True)
class Op:
    kind: Kind
    run: Callable[[Callable], bool]


@dataclass
class Plan:
    kinds: list[Kind]
    ops: Callable[[int], list[Op]]  # the operations of round r
    rates: dict[str, tuple[str, tuple[str, ...]]] = field(default_factory=dict)
    """Display name -> (unit, kind names) for the per-family throughputs."""


def derive_seed(*words: int) -> int:
    """A 64-bit master seed that is a pure function of ``words``."""
    return int(np.random.SeedSequence(list(words)).generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Monte Carlo workloads: run_experiment(statistic="beta_over_n", workers=1)
# ---------------------------------------------------------------------------


def experiment_ok(summary) -> bool:
    return summary.constant is not None and abs(summary.mean - summary.constant) <= MEAN_TOL


def _experiment_op(kind: Kind, model, n: int, trials: int, master_seed: int) -> Op:
    config = td.ExperimentConfig(
        model=model,
        n=n,
        trials=trials,
        master_seed=master_seed,
        statistic="beta_over_n",
        workers=1,
    )

    def run(call):
        return experiment_ok(call("experiments.run_experiment", td.run_experiment, config))

    return Op(kind, run)


def _experiment_plan(seed: int, tag: int, families, n: int, trials: int) -> Plan:
    """``families``: (kind, model) pairs; one experiment of each per round."""
    for kind, model in families:  # warm-up: first-call costs stay out of the timed rounds
        td.run_experiment(td.ExperimentConfig(model=model, n=1000, trials=1, master_seed=seed))
    kinds = [k for k, _ in families]

    def ops(r: int) -> list[Op]:
        return [
            _experiment_op(kind, model, n, trials, derive_seed(tag, seed, r, i))
            for i, (kind, model) in enumerate(families)
        ]

    labels = dict.fromkeys(k.family for k in kinds)
    rates = {"trials_per_s": ("1/s", tuple(k.name for k in kinds))}
    for label in labels:
        rates[f"trials_per_s.{label}"] = (
            "1/s",
            tuple(k.name for k in kinds if k.family == label),
        )
    return Plan(kinds=kinds, ops=ops, rates=rates)


def setup_sample_1e5(seed: int) -> Plan:
    families = [
        # The conditioned GW sampler rejects whole offspring batches until one
        # sums to n - 1; at n = 10^5 the batch count is geometric (mean ~50,
        # coefficient of variation ~1), so its per-tree time is not steady
        # enough to gate.  It still runs, is checked and is traced.
        (Kind("gw-poisson", "gw-poisson", gated=False), td.GWModel(td.OffspringPmf.poisson(1.0))),
        (Kind("uniform", "uniform"), td.UniformModel()),
        (Kind("bst", "bst"), td.PAModel(td.PAParams(2.0, -1))),
        (Kind("rrt", "rrt"), td.PAModel(td.PAParams(1.0, 0))),
        (Kind("pa-1-1", "pa-1-1"), td.PAModel(td.PAParams(1.0, 1))),
    ]
    return _experiment_plan(seed, 1, families, n=100_000, trials=1)


FIGURE1_TRIALS = 100  # mean of 100 trials: the 0.01 check sits > 4 standard errors out


def setup_figure1_1e3(seed: int) -> Plan:
    families = [
        (
            Kind(f"pa({rho:g},{chi:+d})", "pa-grid", units=FIGURE1_TRIALS),
            td.PAModel(td.PAParams(rho, chi)),
        )
        for rho, chi, _, _ in FIGURE_GRID
    ]
    families += [
        (Kind("gw-poisson", "gw-poisson", FIGURE1_TRIALS), td.GWModel(td.OffspringPmf.poisson(1.0))),
        (Kind("gw-geometric", "gw-geometric", FIGURE1_TRIALS), td.GWModel(td.OffspringPmf.geometric(0.5))),
        (Kind("uniform", "uniform", FIGURE1_TRIALS), td.UniformModel()),
    ]
    return _experiment_plan(seed, 2, families, n=1000, trials=FIGURE1_TRIALS)


# ---------------------------------------------------------------------------
# measure-1e5: parse -> md_report -> fringe counts -> serialize
# ---------------------------------------------------------------------------

MEASURE_N = 100_000


def measure_ok(text: str, n: int, report, n_pl: int, n_pk: int, n_line: int, hist, out: str) -> bool:
    # out == text means serialize(parse(text)) is the identity on this canonical
    # text, so parse(serialize(t)) returns t's parents.
    return (
        out == text
        and sum(hist.values()) == n
        and abs(len(report.leaves) - n_pl) <= 1
        and abs(report.beta - (n_pl - n_pk)) <= EPSILON_BOUND
        and n_pl <= n_line
    )


def _measure_op(kind: Kind, text: str, n: int) -> Op:
    def run(call):
        tree = call("tree.parse", td.parse, text)
        report = call("metric_dimension.md_report", td.md_report, tree)
        n_pl = call("fringe.count_pl", td.count_subtree_property, tree, td.is_pl)
        n_pk = call("fringe.count_pk", td.count_subtree_property, tree, td.is_pk)
        n_line = call("fringe.count_line", td.count_subtree_property, tree, td.is_line)
        hist = call("fringe.size_counts", td.fringe_size_counts, tree)
        out = call("tree.serialize", td.serialize, tree)
        return measure_ok(text, n, report, n_pl, n_pk, n_line, hist, out)

    return Op(kind, run)


def setup_measure_1e5(seed: int, n: int = MEASURE_N) -> Plan:
    texts = inputs.tree_texts(seed, n)
    kinds = [Kind(f"{shape}/{labelling}") for shape, labelling in texts]
    ops = [_measure_op(kind, text, n) for kind, text in zip(kinds, texts.values())]
    rates = {"trees_per_s": ("1/s", tuple(k.name for k in kinds))}
    return Plan(kinds=kinds, ops=lambda r: ops, rates=rates)


# ---------------------------------------------------------------------------
# exact-side: constants and the brute-force oracle, no random trees
# ---------------------------------------------------------------------------

ORACLE_SIZES = range(2, 9)  # every increasing tree: sum of (n-1)! = 5,913 trees
MARY_ORDERS = range(2, 9)
PK_POINTS = ((2.0, -1), (5.0, -1), (1.0, 0), (1.0, 1), (0.1, 1))
TIGHT_SPEC = td.QuadratureSpec(rel_tol=1e-13)


def increasing_trees():
    for n in ORACLE_SIZES:
        for choice in product(*[range(i) for i in range(1, n)]):
            yield td.build_from_parents([None, *choice])


def gw_closed_forms() -> list[tuple[object, float]]:
    """(pmf, limit) pairs evaluated here from the offspring law's own formulas.

    Poisson(1): G(x) = e^(x-1), p0 = p1 = 1/e.  Geometric(1/2): p_k =
    2^-(k+1), G(x) = 1/(2-x).  Limit: p0 - 1 + G(1-q) + p1 q, q = p0/(1-p1).
    """
    e1 = math.exp(-1.0)
    q = e1 / (1.0 - e1)
    poisson = e1 - 1.0 + math.exp(-q) + e1 * q
    q = 0.5 / 0.75
    geometric = 0.5 - 1.0 + 1.0 / (1.0 + q) + 0.25 * q
    return [(td.OffspringPmf.poisson(1.0), poisson), (td.OffspringPmf.geometric(0.5), geometric)]


def _constant_op(kind: Kind, fn, args, ok: Callable[[float], bool]) -> Op:
    def run(call):
        result = call(f"constants.{fn.__name__}", fn, *args)
        value = result[0] if isinstance(result, tuple) else result.value
        return ok(value)

    return Op(kind, run)


def _oracle_op(kind: Kind, tree) -> Op:
    def run(call):
        beta = call("metric_dimension.md_report", td.md_report, tree).beta
        return beta == call("metric_dimension.brute_force", td.brute_force_md, tree)[0]

    return Op(kind, run)


def setup_exact_side(seed: int) -> Plan:
    """``seed`` is unused: every input of the exact side is fixed."""
    constants, oracle = Kind("constants"), Kind("oracle")
    general = {(rho, chi): td.c_general(rho, chi).value for rho, chi, _, _ in FIGURE_GRID}
    general.update({(float(m), -1): td.c_general(float(m), -1).value for m in MARY_ORDERS})

    def within(*targets):
        return lambda value: all(abs(value - t) <= tol for t, tol in targets)

    ops = []
    for rho, chi, ref, _ in FIGURE_GRID:
        for args, check in (
            ((rho, chi), within((ref, GRID_TOL))),
            ((rho, chi, TIGHT_SPEC), within((ref, GRID_TOL), (general[rho, chi], ROUTE_TOL))),
        ):
            ops.append(_constant_op(constants, td.c_general, args, check))
    for m in MARY_ORDERS:
        check = within((general[float(m), -1], ROUTE_TOL))
        ops.append(_constant_op(constants, td.c_mary, (m,), check))
    rrt_ref = next(ref for _, chi, ref, _ in FIGURE_GRID if chi == 0)
    ops.append(_constant_op(constants, td.c_rrt, (), within((rrt_ref, GRID_TOL))))
    for pmf, limit in gw_closed_forms():
        ops.append(_constant_op(constants, td.c_gw, (pmf,), within((limit, CLOSED_FORM_TOL))))
    for rho, chi in PK_POINTS:
        check = within((general[rho, chi], ROUTE_TOL))
        ops.append(_constant_op(constants, td.c_from_pk_integral, (rho, chi), check))
    ops += [_oracle_op(oracle, tree) for tree in increasing_trees()]
    rates = {
        "constants_per_s": ("1/s", ("constants",)),
        "oracle_trees_per_s": ("1/s", ("oracle",)),
    }
    return Plan(kinds=[constants, oracle], ops=lambda r: ops, rates=rates)


SETUPS = {
    "sample-1e5": setup_sample_1e5,
    "figure1-1e3": setup_figure1_1e3,
    "measure-1e5": setup_measure_1e5,
    "exact-side": setup_exact_side,
}
