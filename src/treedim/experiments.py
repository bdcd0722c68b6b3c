"""Seeded Monte Carlo harness with deterministic parallel aggregation.

Trial ``i`` of an experiment always consumes RNG stream
``(master_seed, i)``, and the one reduction streams the per-trial values in
trial order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import cached_property, partial

import numpy as np

from .constants import c_general, c_gw, gw_pk_prob, p_leaf
from .errors import DomainError, InvalidParams, Unsupported
from .fringe import count_subtree_property, is_pk, is_pl
from .generators import (
    OffspringPmf,
    PAParams,
    RngSpec,
    check_count,
    check_size,
    sample_conditioned_gw,
    sample_pa_tree,
    sample_uniform_shape,
    sample_uniform_tree,
)
from .metric_dimension import md_report
from .tree import RootedTree

# Statistic name -> the count it divides by the tree size.  ``md_report``
# is looked up when a trial runs, so a rebinding of the module name is seen.
_COUNTS = {
    "beta_over_n": lambda tree: md_report(tree).beta,
    "pl_fraction": lambda tree: count_subtree_property(tree, is_pl),
    "pk_fraction": lambda tree: count_subtree_property(tree, is_pk),
}
STATISTICS = tuple(_COUNTS)


# Each model samples its family, draws a tree whose labels do not matter
# (``shape``: what a trial measures, as every statistic is label-invariant)
# and gives the limit of each scalar statistic; ``name``, ``rho`` and
# ``chi`` fill the summary row.


@dataclass(frozen=True)
class GWModel:
    """Critical branching trees conditioned on their size."""

    pmf: OffspringPmf
    name = "gw"
    rho = chi = None

    def sample(self, n: int, rng) -> RootedTree:
        return sample_conditioned_gw(self.pmf, n, rng)

    shape = sample

    def limit(self, statistic: str) -> float:
        if statistic == "beta_over_n":
            return c_gw(self.pmf).value
        if statistic == "pl_fraction":
            return self.pmf.p0
        return gw_pk_prob(self.pmf)


@dataclass(frozen=True)
class UniformModel:
    """Uniform labeled trees: the Poisson(1) branching limits."""

    name = "uniform"
    rho = chi = None

    def sample(self, n: int, rng) -> RootedTree:
        return sample_uniform_tree(n, rng)

    def shape(self, n: int, rng) -> RootedTree:
        """The tree ``sample`` draws before its last draw, the labels."""
        return sample_uniform_shape(n, rng)

    def limit(self, statistic: str) -> float:
        return GWModel(OffspringPmf.poisson(1.0)).limit(statistic)


@dataclass(frozen=True)
class PAModel:
    """Linear-attachment growth trees."""

    params: PAParams
    name = "pa"

    @property
    def rho(self) -> float:
        return self.params.rho

    @property
    def chi(self) -> int:
        return self.params.chi

    def sample(self, n: int, rng) -> RootedTree:
        return sample_pa_tree(self.params, n, rng)

    shape = sample

    def limit(self, statistic: str) -> float:
        rho, chi = self.params.rho, self.params.chi
        if statistic == "beta_over_n":
            return c_general(rho, chi).value
        if statistic == "pl_fraction":
            return p_leaf(rho, chi)
        return p_leaf(rho, chi) - c_general(rho, chi).value


ModelSpec = GWModel | UniformModel | PAModel


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    n: int
    trials: int
    master_seed: int
    statistic: str = "beta_over_n"
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.model, ModelSpec):
            raise InvalidParams(f"unknown model {self.model!r}")
        for name in ("trials", "workers"):
            check_count(getattr(self, name), name, 1)
        check_count(self.n, "tree size", 2)
        check_size(self.n)
        if self.statistic not in STATISTICS:
            raise InvalidParams(f"unknown statistic {self.statistic!r}")
        RngSpec(self.master_seed)  # refuses a bad seed before any work

    @cached_property
    def reference(self) -> float | None:
        """``default_reference(self)``, looked up and evaluated on first read."""
        return default_reference(self)


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate of one Monte Carlo experiment.

    ``constant`` is the model's limiting value for the chosen statistic when
    one is defined.
    """

    model: str
    rho: float | None
    chi: int | None
    n: int
    trials: int
    seed: int
    statistic: str
    mean: float
    stddev: float
    stderr: float
    ci_lo: float
    ci_hi: float
    constant: float | None
    abs_diff: float | None


# The export format's columns: every summary field but ``statistic``.
CSV_COLUMNS = tuple(f.name for f in fields(ExperimentSummary) if f.name != "statistic")


@dataclass(frozen=True)
class ComparisonReport:
    tolerance: float
    abs_diff: float
    within_tolerance: bool
    band_halfwidth: float
    within_band: bool


def generate_tree(model: ModelSpec, n: int, rng) -> RootedTree:
    return model.shape(n, rng)


def default_reference(config: ExperimentConfig) -> float | None:
    """Limiting value of the configured statistic, when one is defined."""
    try:
        return config.model.limit(config.statistic)
    except (DomainError, Unsupported):
        return None


def _trial(config: ExperimentConfig, i: int) -> float:
    rng = RngSpec(config.master_seed).stream(i)
    tree = generate_tree(config.model, config.n, rng)
    return _COUNTS[config.statistic](tree) / tree.n


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run all trials and aggregate.

    Trial values stream in trial-index order into one mean/variance
    reduction whatever the worker count, so two runs with the same config
    agree bit for bit.
    """
    reference = config.reference
    # The executor forks every worker up front, so there are never more
    # than there are trials or cores.
    workers = min(config.workers, config.trials, os.cpu_count() or 1)
    count, mean, m2 = 0, 0.0, 0.0
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        chunk = max(1, config.trials // (workers * 4))
        # Both maps yield in input order, so the pool's stream is the
        # single-worker stream.
        trial_map = map if pool is None else partial(pool.map, chunksize=chunk)
        for x in trial_map(partial(_trial, config), range(config.trials)):
            count += 1
            delta = x - mean
            mean += delta / count
            m2 += delta * (x - mean)
    stddev = math.sqrt(m2 / (count - 1)) if count > 1 else 0.0
    stderr = stddev / math.sqrt(config.trials)
    model = config.model
    return ExperimentSummary(
        model=model.name,
        rho=model.rho,
        chi=model.chi,
        # numpy integers would not write to JSON
        n=int(config.n),
        trials=int(config.trials),
        seed=int(config.master_seed),
        statistic=config.statistic,
        mean=mean,
        stddev=stddev,
        stderr=stderr,
        ci_lo=mean - 1.96 * stderr,
        ci_hi=mean + 1.96 * stderr,
        constant=reference,
        abs_diff=None if reference is None else abs(mean - reference),
    )


def check_tolerance(tolerance: float) -> None:
    """Refuse a comparison tolerance that is not finite and >= 0: NaN or a
    negative one fails every mean, an infinite one passes every mean."""
    if not 0 <= tolerance < math.inf:
        raise InvalidParams(f"tolerance must be finite and >= 0, got {tolerance!r}")


def compare_to_constant(summary: ExperimentSummary, tolerance: float) -> ComparisonReport:
    """Check the experiment mean against the summary's limiting constant.

    Reports pass/fail both for the caller's absolute tolerance and for the
    three-standard-error band around the Monte Carlo mean.  A summary
    without a constant is refused.
    """
    check_tolerance(tolerance)
    if summary.constant is None:
        raise Unsupported("no reference constant exists for this configuration")
    diff = abs(summary.mean - summary.constant)
    band = 3.0 * summary.stderr
    return ComparisonReport(
        tolerance=tolerance,
        abs_diff=diff,
        within_tolerance=diff <= tolerance,
        band_halfwidth=band,
        within_band=diff <= band,
    )


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _json_scalar(value):
    """``json.dumps`` default: numpy scalars become Python numbers."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def export(summaries: list[ExperimentSummary], path, overwrite: bool = False) -> None:
    """Write experiment summaries to ``path``: JSON when the path ends in
    ``.json``, CSV otherwise.

    CSV columns are :data:`CSV_COLUMNS`, one row per experiment; JSON
    mirrors the same fields.  Existing files are only replaced when
    ``overwrite`` is set; otherwise the open itself refuses them with
    :class:`FileExistsError`.  The whole text is built before the file is
    opened, so summaries that cannot be encoded leave the path untouched.
    """
    rows = [{column: getattr(s, column) for column in CSV_COLUMNS} for s in summaries]
    if str(path).endswith(".json"):
        text = json.dumps(rows, indent=1, default=_json_scalar) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_format_cell(row[c]) for c in CSV_COLUMNS] for row in rows)
        text = buffer.getvalue()
    with open(path, "w" if overwrite else "x", encoding="utf-8", newline="") as fh:
        fh.write(text)
