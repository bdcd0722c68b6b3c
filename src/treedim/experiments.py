"""Seeded Monte Carlo harness with deterministic parallel aggregation.

Trial ``i`` of an experiment always consumes RNG stream
``(master_seed, i)``, and the final reduction replays per-trial values in
trial order, so results are bit-identical for any worker count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from .constants import c_general, c_gw, gw_pk_prob, p_leaf
from .errors import DomainError, InvalidParams, Unsupported
from .fringe import count_subtree_property, fringe_size_counts, is_pk, is_pl
from .generators import (
    OffspringPmf,
    PAParams,
    RngSpec,
    sample_conditioned_gw,
    sample_pa_tree,
    sample_uniform_tree,
)
from .metric_dimension import md_report
from .tree import RootedTree

STATISTICS = ("beta_over_n", "pl_fraction", "pk_fraction", "fringe_histogram")

CSV_COLUMNS = (
    "model",
    "rho",
    "chi",
    "n",
    "trials",
    "seed",
    "mean",
    "stddev",
    "stderr",
    "ci_lo",
    "ci_hi",
    "constant",
    "abs_diff",
)


# Each model samples its family and gives the limit of each scalar
# statistic; ``name``, ``rho`` and ``chi`` fill the summary row.


@dataclass(frozen=True)
class GWModel:
    """Critical branching trees conditioned on their size."""

    pmf: OffspringPmf
    name = "gw"
    rho = chi = None

    def sample(self, n: int, rng) -> RootedTree:
        return sample_conditioned_gw(self.pmf, n, rng)

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
    retain_values: bool = False

    def __post_init__(self):
        if not isinstance(self.model, ModelSpec):
            raise InvalidParams(f"unknown model {self.model!r}")
        if self.trials < 1:
            raise InvalidParams(f"trials must be >= 1, got {self.trials}")
        if self.n < 2:
            raise InvalidParams(f"tree size must be >= 2, got {self.n}")
        if self.statistic not in STATISTICS:
            raise InvalidParams(f"unknown statistic {self.statistic!r}")
        if self.workers < 1:
            raise InvalidParams(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregate of one Monte Carlo experiment.

    ``constant`` is the model's limiting value for the chosen statistic when
    one is defined.  For the histogram statistic the scalar per-trial value
    is the size-1 (leaf) fraction and ``histogram`` carries the summed
    subtree-size counts across trials.
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
    values: tuple[float, ...] | None = None
    histogram: dict[int, int] | None = None


@dataclass(frozen=True)
class ComparisonReport:
    constant: float
    tolerance: float
    abs_diff: float
    within_tolerance: bool
    band_halfwidth: float
    within_band: bool


class _Welford:
    """Streaming mean/variance; updates in trial order for determinism."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    @property
    def sample_std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1))


def generate_tree(model: ModelSpec, n: int, rng) -> RootedTree:
    return model.sample(n, rng)


def default_reference(config: ExperimentConfig) -> float | None:
    """Limiting value of the configured statistic, when one is defined."""
    if config.statistic == "fringe_histogram":
        return None
    try:
        return config.model.limit(config.statistic)
    except (DomainError, Unsupported):
        return None


def _trial(config: ExperimentConfig, i: int) -> tuple[float, dict[int, int] | None]:
    rng = RngSpec(config.master_seed).stream(i)
    tree = generate_tree(config.model, config.n, rng)
    stat = config.statistic
    if stat == "beta_over_n":
        return md_report(tree).beta / tree.n, None
    if stat == "pl_fraction":
        return count_subtree_property(tree, is_pl) / tree.n, None
    if stat == "pk_fraction":
        return count_subtree_property(tree, is_pk) / tree.n, None
    hist = fringe_size_counts(tree)
    return hist.get(1, 0) / tree.n, hist


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run all trials and aggregate.

    The mean/variance reduction happens in trial-index order whatever the
    worker count, so two runs with the same config agree bit for bit.
    """
    reference = default_reference(config)
    wants_hist = config.statistic == "fringe_histogram"
    welford = _Welford()
    histogram: Counter[int] | None = Counter() if wants_hist else None
    values: list[float] | None = [] if config.retain_values else None

    def consume(value: float, hist: dict[int, int] | None) -> None:
        welford.update(value)
        if histogram is not None and hist is not None:
            histogram.update(hist)
        if values is not None:
            values.append(value)

    if config.workers == 1:
        for i in range(config.trials):
            consume(*_trial(config, i))
    else:
        chunk = max(1, config.trials // (config.workers * 4))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            # map preserves input order, so the replayed reduction below is
            # identical to the single-worker stream.
            for value, hist in pool.map(
                partial(_trial, config), range(config.trials), chunksize=chunk
            ):
                consume(value, hist)

    stddev = welford.sample_std
    stderr = stddev / math.sqrt(config.trials)
    mean = welford.mean
    model = config.model
    return ExperimentSummary(
        model=model.name,
        rho=model.rho,
        chi=model.chi,
        n=config.n,
        trials=config.trials,
        seed=config.master_seed,
        statistic=config.statistic,
        mean=mean,
        stddev=stddev,
        stderr=stderr,
        ci_lo=mean - 1.96 * stderr,
        ci_hi=mean + 1.96 * stderr,
        constant=reference,
        abs_diff=None if reference is None else abs(mean - reference),
        values=tuple(values) if values is not None else None,
        histogram=dict(histogram) if histogram is not None else None,
    )


def compare_to_constant(
    summary: ExperimentSummary, constant, tolerance: float
) -> ComparisonReport:
    """Check the experiment mean against a limiting constant.

    Reports pass/fail both for the caller's absolute tolerance and for the
    three-standard-error band around the Monte Carlo mean.
    """
    value = getattr(constant, "value", constant)
    diff = abs(summary.mean - value)
    band = 3.0 * summary.stderr
    return ComparisonReport(
        constant=value,
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


def summary_row(summary: ExperimentSummary) -> dict:
    return {column: getattr(summary, column) for column in CSV_COLUMNS}


def export(summaries, fmt: str, path, overwrite: bool = False) -> None:
    """Write experiment summaries to ``path`` as CSV or JSON.

    CSV columns are exactly ``model,rho,chi,n,trials,seed,mean,stddev,
    stderr,ci_lo,ci_hi,constant,abs_diff``, one row per experiment; JSON
    mirrors the same fields.  Existing files are only replaced when
    ``overwrite`` is set.
    """
    if isinstance(summaries, ExperimentSummary):
        summaries = [summaries]
    if fmt not in ("csv", "json"):
        raise InvalidParams(f"format must be csv or json, got {fmt!r}")
    if os.path.exists(path) and not overwrite:
        raise FileExistsError(f"{path} exists; pass overwrite to replace it")
    rows = [summary_row(s) for s in summaries]
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([_format_cell(row[c]) for c in CSV_COLUMNS])
    else:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")


def read_rows(path, fmt: str = "csv") -> list[dict]:
    """Parse a file written by :func:`export` back into row dictionaries."""
    if fmt == "csv":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = []
            for raw in reader:
                row = {}
                for key, text in raw.items():
                    if text == "" or text is None:
                        row[key] = None
                    elif key in ("model",):
                        row[key] = text
                    elif key in ("n", "trials", "seed", "chi"):
                        row[key] = int(text)
                    else:
                        row[key] = float(text)
                rows.append(row)
            return rows
    if fmt == "json":
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    raise InvalidParams(f"format must be csv or json, got {fmt!r}")
