"""What the benchmark measures: workloads, metrics, bounds, and the table of
which layer metric should move which end-to-end metric on which workload.

``python3 perfbench/run.py --write-spec`` writes this module's content to
``BENCHMARK.json`` and ``perfbench/layers.json``.
"""

from __future__ import annotations

RUN_SECONDS = 25

WORKLOADS = [
    (
        "sample-1e5",
        "run_experiment(beta_over_n, workers=1) at n=1e5 for gw-poisson, uniform, bst, rrt, pa-1-1:"
        " the paper's Monte Carlo path, samplers dominate; fringe and parse/serialize bypassed",
    ),
    (
        "figure1-1e3",
        "the same call at n=1e3 over the 9 FIGURE_GRID points, gw-poisson, gw-geometric, uniform:"
        " fixed per-trial and per-call costs (RNG streams, GW batch, validation, reference) dominate",
    ),
    (
        "measure-1e5",
        "parse, md_report, fringe counts, serialize on seeded numpy tree texts at n=1e5, two shapes,"
        " increasing and shuffled labels: tree files without sampling",
    ),
    (
        "exact-side",
        "c_general over FIGURE_GRID at two tolerances, c_mary, c_rrt, c_gw, c_from_pk_integral, and"
        " md_report vs brute_force_md on all 5,913 increasing trees of 2..8 vertices: no random trees",
    ),
]

# (name, unit, better, bound).  Every metric is reported on every workload;
# ops_per_s counts each workload's own unit of work (see layers.json).
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("ok_fraction", "fraction", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
]

FAMILIES = ("gw-poisson", "gw-geometric", "uniform", "bst", "rrt", "pa-1-1", "pa-grid")

# (name, unit, better).  Times are self seconds per call, counts are per
# round; a layer a workload never calls reads 0.
PER_LAYER = [
    *[(f"generators.self_s.{f}", "s", "lower") for f in FAMILIES],
    *[(f"generators.vertices_per_s.{f}", "1/s", "higher") for f in FAMILIES],
    ("tree.build_s", "s", "lower"),
    ("tree.build_calls", "count", "lower"),
    ("tree.parse_s", "s", "lower"),
    ("tree.serialize_s", "s", "lower"),
    ("tree.bytes_per_vertex", "B", "lower"),
    ("metric_dimension.md_report_s", "s", "lower"),
    ("metric_dimension.brute_force_s", "s", "lower"),
    ("fringe.count_pl_s", "s", "lower"),
    ("fringe.count_pk_s", "s", "lower"),
    ("fringe.count_line_s", "s", "lower"),
    ("fringe.size_counts_s", "s", "lower"),
    ("constants.c_general_s", "s", "lower"),
    ("constants.c_mary_s", "s", "lower"),
    ("constants.c_rrt_s", "s", "lower"),
    ("constants.c_gw_s", "s", "lower"),
    ("constants.c_from_pk_integral_s", "s", "lower"),
    ("constants.lower_incomplete_gamma_s", "s", "lower"),
    ("constants.default_reference_s", "s", "lower"),
    ("quadrature.simpson_s", "s", "lower"),
    ("quadrature.integrand_evals", "count", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.unaccounted_share", "share", "lower"),
]

# What ops_per_s counts on each workload, and the per-family throughputs
# that `run.py` prints beside it.
OPS_PER_S = {
    "sample-1e5": "trials/s over uniform, bst, rrt and pa-1-1 (gw-poisson's rejection count is"
    " geometric at n=1e5, so its trials_per_s is printed but not gated)",
    "figure1-1e3": "trials/s over all 12 experiments (trials_per_s)",
    "measure-1e5": "tree texts through the whole pipeline per second (trees_per_s)",
    "exact-side": "constant evaluations plus oracle trees per second"
    " (constants_per_s and oracle_trees_per_s are printed separately)",
}

LAYER_TABLE = [
    {
        "layer": "generators",
        "metrics": ["generators.self_s.<family>", "generators.vertices_per_s.<family>"],
        "moves": ["ops_per_s", "trials_per_s", "trials_per_s.<family>"],
        "workloads": ["sample-1e5", "figure1-1e3"],
        "bypassed_on": ["measure-1e5", "exact-side"],
    },
    {
        "layer": "tree",
        "metrics": ["tree.build_s", "tree.build_calls"],
        "moves": ["ops_per_s", "trials_per_s.<family>", "trees_per_s"],
        "workloads": ["sample-1e5", "measure-1e5"],
        "bypassed_on": ["exact-side"],
    },
    {
        "layer": "tree",
        "metrics": ["tree.parse_s", "tree.serialize_s"],
        "moves": ["ops_per_s", "trees_per_s"],
        "workloads": ["measure-1e5"],
        "bypassed_on": ["sample-1e5", "figure1-1e3", "exact-side"],
    },
    {
        "layer": "tree",
        "metrics": ["tree.bytes_per_vertex"],
        "moves": ["peak_rss_mb"],
        "workloads": ["measure-1e5", "sample-1e5"],
        "bypassed_on": ["exact-side"],
    },
    {
        "layer": "metric_dimension",
        "metrics": ["metric_dimension.md_report_s"],
        "moves": ["ops_per_s", "trees_per_s", "trials_per_s.<family>"],
        "workloads": ["measure-1e5", "sample-1e5"],
        "bypassed_on": [],
        "note": "small share on figure1-1e3",
    },
    {
        "layer": "metric_dimension",
        "metrics": ["metric_dimension.brute_force_s"],
        "moves": ["ops_per_s", "oracle_trees_per_s"],
        "workloads": ["exact-side"],
        "bypassed_on": ["sample-1e5", "figure1-1e3", "measure-1e5"],
    },
    {
        "layer": "fringe",
        "metrics": [
            "fringe.count_pl_s",
            "fringe.count_pk_s",
            "fringe.count_line_s",
            "fringe.size_counts_s",
        ],
        "moves": ["ops_per_s", "trees_per_s"],
        "workloads": ["measure-1e5"],
        "bypassed_on": ["sample-1e5", "figure1-1e3", "exact-side"],
    },
    {
        "layer": "constants",
        "metrics": ["constants.<evaluator>_s", "constants.default_reference_s"],
        "moves": ["ops_per_s", "constants_per_s"],
        "workloads": ["exact-side"],
        "bypassed_on": ["measure-1e5"],
        "note": "under 1% of figure1-1e3 and sample-1e5",
    },
    {
        "layer": "quadrature",
        "metrics": ["quadrature.simpson_s", "quadrature.integrand_evals"],
        "moves": ["ops_per_s", "constants_per_s"],
        "workloads": ["exact-side"],
        "bypassed_on": ["measure-1e5"],
    },
    {
        "layer": "experiments",
        "metrics": ["experiments.self_s"],
        "moves": ["ops_per_s", "trials_per_s"],
        "workloads": ["figure1-1e3"],
        "bypassed_on": ["measure-1e5", "exact-side"],
        "note": "invisible at n=1e5",
    },
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def layers_json() -> dict:
    return {"ops_per_s": OPS_PER_S, "layers": LAYER_TABLE}
