"""Command-line interface: generate / md / fringe / constant / experiment / verify.

Every randomized subcommand requires an explicit ``--seed`` (``verify``
defaults to a fixed built-in seed so its checks are reproducible as shipped).
Output files are only overwritten with ``--force``.  Worker counts come from
``--threads``, falling back to the ``MDTREE_THREADS`` environment variable,
defaulting to 1; an experiment starts no more workers than trials or cores.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .constants import c_general, c_gw, c_mary, c_rrt
from .errors import InvalidPmf, TreedimError
from .experiments import (
    STATISTICS,
    ExperimentConfig,
    GWModel,
    ModelSpec,
    PAModel,
    UniformModel,
    check_tolerance,
    compare_to_constant,
    export,
    run_experiment,
)
from .fringe import (
    count_subtree_property,
    fringe_size_counts,
    is_line,
    is_pk,
    is_pl,
)
from .generators import CHI_VALUES, OffspringPmf, PAParams, RngSpec, simulate_cmj
from .metric_dimension import BRUTE_FORCE_CAP, brute_force_md, md_report
from .quadrature import DEFAULT_SPEC, QuadratureSpec
from .tree import read_tree, serialize, write_tree
from .verify import DEFAULT_SEED, SUITES, format_table, run_suite


def _threads(value: int | None) -> int:
    if value is None:
        source, raw = "MDTREE_THREADS", os.environ.get("MDTREE_THREADS", "1")
    else:
        source, raw = "--threads", str(value)
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise TreedimError(f"{source} must be a positive integer, got {raw!r}")
    return int(raw)


def _load_pmf(path: str | None) -> OffspringPmf:
    """Offspring probabilities, one per line (index = child count).

    Defaults to Poisson(1) truncated at 30 when no file is given.
    """
    if path is None:
        return OffspringPmf.poisson(1.0)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise InvalidPmf(f"{path} is not UTF-8 text: {exc}") from None
    probs = []
    for number, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            probs.append(float(line))
        except ValueError:
            raise InvalidPmf(
                f"{path} line {number}: {line.strip()!r} is not a probability"
            ) from None
    return OffspringPmf.from_probs(probs)


def _refuse_existing(out: str | None, force: bool) -> None:
    """Called before any work, so a refused ``--out`` costs nothing."""
    if out is None:
        return
    if not out:
        raise TreedimError("--out must name a file, got ''")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise TreedimError(f"{out}: no such directory")
    if os.path.isdir(out):
        raise TreedimError(f"{out} is a directory")
    if os.path.exists(out) and not force:
        raise TreedimError(f"{out} exists; pass --force to overwrite")


def _require(args, *flags: str) -> None:
    if any(getattr(args, flag) is None for flag in flags):
        needs = " and ".join(f"--{flag}" for flag in flags)
        raise TreedimError(f"model {args.model!r} needs {needs}")


def _pa_params(args) -> PAParams:
    _require(args, "rho", "chi")
    return PAParams(args.rho, args.chi)


def _model(args) -> ModelSpec:
    if args.model == "gw":
        return GWModel(_load_pmf(args.pmf))
    if args.model == "uniform":
        return UniformModel()
    return PAModel(_pa_params(args))


def _cmd_generate(args) -> int:
    _refuse_existing(args.out, args.force)
    rng = RngSpec(args.seed).stream(0)
    if args.model == "cmj":  # stopped at the requested size; birth times are dropped
        tree = simulate_cmj(_pa_params(args), args.n, rng).tree
    else:
        tree = _model(args).sample(args.n, rng)
    if args.out is None:
        sys.stdout.write(serialize(tree))
    else:
        write_tree(tree, args.out)
    return 0


def _cmd_md(args) -> int:
    tree = read_tree(args.treefile)
    report = md_report(tree)
    print(f"n        {tree.n}")
    print(f"leaves   {len(report.leaves)}")
    print(f"exterior {len(report.exterior_major)}")
    print(f"beta     {report.beta}")
    print(f"beta/n   {report.beta / tree.n:.6g}")
    print(f"path     {'yes' if report.is_path else 'no'}")
    if args.witness:
        if tree.n <= BRUTE_FORCE_CAP:
            beta, witness = brute_force_md(tree)
            print(f"oracle   beta {beta}, witness {list(witness)}")
        else:
            print(f"oracle   skipped (n > {BRUTE_FORCE_CAP})")
    return 0


_PROPERTIES = {"pl": is_pl, "pk": is_pk, "line": is_line}


def _cmd_fringe(args) -> int:
    tree = read_tree(args.treefile)
    count = count_subtree_property(tree, _PROPERTIES[args.property])
    print(f"n          {tree.n}")
    print(f"{args.property:10} {count}")
    print(f"fraction   {count / tree.n:.6g}")
    if args.histogram:
        print("size  count  fraction")
        for size, cnt in fringe_size_counts(tree).items():
            print(f"{size:5d} {cnt:6d}  {cnt / tree.n:.6g}")
    return 0


# Model name -> (evaluator of the parsed arguments and the quadrature
# spec, the flags the evaluator reads).
_CONSTANT_MODELS = {
    "gw": (lambda args, spec: c_gw(_load_pmf(args.pmf)), ()),
    "mary": (lambda args, spec: c_mary(args.m), ("m",)),
    "rrt": (lambda args, spec: c_rrt(spec), ()),
    "rich": (lambda args, spec: c_general(args.rho, 1, spec), ("rho",)),
    "general": (lambda args, spec: c_general(args.rho, args.chi, spec), ("rho", "chi")),
}


def _cmd_constant(args) -> int:
    spec = QuadratureSpec(rel_tol=args.tol, abs_tol=args.tol * 1e-2)
    evaluate, flags = _CONSTANT_MODELS[args.model]
    _require(args, *flags)
    result = evaluate(args, spec)
    print(f"value     {result.value:.12g}")
    print(f"abs_error {result.abs_error_estimate:.3g}")
    print(f"method    {result.method}")
    return 0


def _cmd_experiment(args) -> int:
    _refuse_existing(args.out, args.force)
    if args.compare:
        check_tolerance(args.tol)
    config = ExperimentConfig(
        model=_model(args),
        n=args.n,
        trials=args.trials,
        master_seed=args.seed,
        statistic=args.stat,
        workers=_threads(args.threads),
    )
    if args.compare and config.reference is None:
        raise TreedimError("no reference constant exists for this configuration")
    summary = run_experiment(config)
    if args.out is not None:
        export([summary], args.out, overwrite=args.force)
    print(
        f"{summary.model} n={summary.n} trials={summary.trials} "
        f"mean={summary.mean:.6g} stderr={summary.stderr:.3g} "
        f"ci=[{summary.ci_lo:.6g}, {summary.ci_hi:.6g}]"
    )
    if summary.constant is not None:
        print(f"constant={summary.constant:.6g} abs_diff={summary.abs_diff:.3g}")
    if args.compare:
        report = compare_to_constant(summary, args.tol)
        print(
            f"compare: |diff| {report.abs_diff:.3g} vs tol {report.tolerance:g} "
            f"-> {'pass' if report.within_tolerance else 'FAIL'}; "
            f"3-stderr band {report.band_halfwidth:.3g} "
            f"-> {'inside' if report.within_band else 'outside'}"
        )
        if not report.within_tolerance:
            return 1
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed, workers=_threads(args.threads))
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedim",
        description="Metric dimension of random trees: generators, exact "
        "algorithms, limiting constants, and Monte Carlo verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample a random tree and write the tree file")
    gen.add_argument("--model", required=True, choices=("gw", "uniform", "pa", "cmj"))
    gen.add_argument("--rho", type=float, help="attachment weight offset (pa/cmj)")
    gen.add_argument("--chi", type=int, choices=CHI_VALUES, help="attachment weight slope (pa/cmj)")
    gen.add_argument("--pmf", help="offspring probability file for gw (default Poisson(1))")
    gen.add_argument("-n", type=int, required=True, help="number of vertices")
    gen.add_argument("--seed", type=int, required=True, help="master seed")
    gen.add_argument("--out", help="output path (default: stdout)")
    gen.add_argument("--force", action="store_true", help="overwrite existing output")
    gen.set_defaults(func=_cmd_generate)

    md = sub.add_parser("md", help="metric dimension of a tree file")
    md.add_argument("treefile")
    md.add_argument(
        "--witness",
        action="store_true",
        help=f"also run the exhaustive oracle (n <= {BRUTE_FORCE_CAP})",
    )
    md.set_defaults(func=_cmd_md)

    fr = sub.add_parser("fringe", help="subtree-property counts of a tree file")
    fr.add_argument("treefile")
    fr.add_argument("--property", required=True, choices=tuple(_PROPERTIES))
    fr.add_argument("--histogram", action="store_true", help="print the subtree-size histogram")
    fr.set_defaults(func=_cmd_fringe)

    co = sub.add_parser("constant", help="evaluate a limiting constant")
    co.add_argument("--model", required=True, choices=tuple(_CONSTANT_MODELS))
    co.add_argument("--rho", type=float)
    co.add_argument("--chi", type=int, choices=CHI_VALUES)
    co.add_argument("--m", type=int, help="slot count for the mary model")
    co.add_argument("--pmf", help="offspring probability file for gw (default Poisson(1))")
    co.add_argument(
        "--tol", type=float, default=DEFAULT_SPEC.rel_tol, help="quadrature relative tolerance >= 2^-52"
    )
    co.set_defaults(func=_cmd_constant)

    ex = sub.add_parser("experiment", help="seeded Monte Carlo experiment")
    ex.add_argument("--model", required=True, choices=("gw", "uniform", "pa"))
    ex.add_argument("--rho", type=float)
    ex.add_argument("--chi", type=int, choices=CHI_VALUES)
    ex.add_argument("--pmf")
    ex.add_argument("-n", type=int, required=True)
    ex.add_argument("--trials", type=int, required=True)
    ex.add_argument("--seed", type=int, required=True)
    ex.add_argument("--threads", type=int, help="worker count (default MDTREE_THREADS or 1)")
    ex.add_argument("--stat", default="beta_over_n", choices=STATISTICS)
    ex.add_argument("--out", help="write results (.csv or .json)")
    ex.add_argument("--force", action="store_true", help="overwrite existing output")
    ex.add_argument("--compare", action="store_true", help="exit nonzero if the mean misses the constant")
    ex.add_argument("--tol", type=float, default=0.01, help="tolerance for --compare")
    ex.set_defaults(func=_cmd_experiment)

    ve = sub.add_parser("verify", help="run acceptance suites")
    ve.add_argument("suite", choices=(*SUITES, "all"))
    ve.add_argument("--seed", type=int, default=DEFAULT_SEED, help="suite seed")
    ve.add_argument("--threads", type=int, help="worker count for simulations")
    ve.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TreedimError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
