#!/usr/bin/env python3
"""treedim benchmark: one workload per process, single-threaded, workers=1.

    python3 perfbench/run.py --workload sample-1e5 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 [--trace 1]
    python3 perfbench/run.py --write-spec

Each run imports treedim from ``src/`` of the checkout it sits in, sets the
workload up (five times; ``setup_s`` is the median), then runs whole rounds
of operations until ``--seconds`` have passed.  It prints each metric with
its unit and sample count, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``spec.END_TO_END`` when untraced, the per-layer metrics of
``spec.PER_LAYER`` with ``--trace 1``.

Untraced times are scaled by the host speed that a fixed calibration loop
measures between operations, and each kind of operation is timed by the
mean of its faster half of rounds; both remove the drift of a shared
machine, not the cost of the work.  The unscaled rate and the host speed
are printed beside them.

A traced run runs every round twice on the same inputs, once plain and once
with spans around each call into a layer (``spans.py``), so the difference
is the tracing overhead.  Its times are not scaled.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from collections import Counter, defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5
UNACCOUNTED_LIMIT = 0.05  # share of traced wall time the spans may leave uncovered
# Host speed is measured by a fixed pure-Python loop that runs between
# operations (see ``calibration_s``).  Untraced times are scaled to a host on
# which that loop takes CALIBRATION_REF_S, so minutes-long slow phases of a
# shared machine, which slow the loop and treedim alike, cancel out.
CALIBRATION_REF_S = 1.7e-4
CALIBRATE_EVERY_S = 0.025  # one calibration per this much operation time, about 0.7 %
_CALIBRATION_TABLE = list(range(256))


def load_treedim():
    """Import treedim from this checkout's ``src/``, never from elsewhere."""
    pkg = ROOT / "src" / "treedim"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no treedim package at {pkg}")
    sys.path.insert(0, str(ROOT / "src"))
    import treedim

    if Path(treedim.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"benchmark: imported treedim from {treedim.__file__}, not {pkg}")
    return treedim


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def plain_call(_span, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_plain(op) -> bool:
    return op.run(plain_call)


def calibration_s() -> float:
    """Seconds one run of a fixed loop takes on the host right now.

    The loop touches no treedim code and allocates no containers, so it
    triggers no garbage collection and a change to treedim cannot speed
    it up or slow it down.  The first run after other work is slower while
    caches refill, so callers discard it (see ``calibrations``).
    """
    table = _CALIBRATION_TABLE
    x = 0
    t0 = time.perf_counter()
    for i in range(2000):
        x = table[(x + i) & 255] ^ (i & 1023)
    return time.perf_counter() - t0


def calibrations(count: int) -> list[float]:
    calibration_s()
    return [calibration_s() for _ in range(count)]


def faster_half_mean(values: list[float]) -> float:
    fastest = sorted(values)[: max(1, len(values) // 2)]
    return sum(fastest) / len(fastest)


class Tally:
    """Per-kind, per-round seconds and units, and the failure count.

    With ``calibrated`` each round's seconds are also scaled by
    ``CALIBRATION_REF_S`` over the mean calibration time of that round.
    """

    def __init__(self, calibrated: bool):
        self.calibrated = calibrated
        self.seconds: dict[str, list[float]] = defaultdict(list)  # scaled if calibrated
        self.raw_seconds: dict[str, list[float]] = defaultdict(list)
        self.host_speed: list[float] = []  # CALIBRATION_REF_S / round's calibration time
        self.units: Counter[str] = Counter()  # units per round
        self.done: Counter[str] = Counter()  # units timed, all rounds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @staticmethod
    def _calibrate(samples: list[float], since: float) -> float:
        """Add one calibration per CALIBRATE_EVERY_S since ``since`` (1 to 50)."""
        due = int((time.perf_counter() - since) / CALIBRATE_EVERY_S)
        samples += calibrations(min(max(due, 1), 50))
        return time.perf_counter()

    def run_round(self, ops, execute, first: bool) -> None:
        spent: Counter[str] = Counter()
        samples: list[float] = []
        last = time.perf_counter()
        for op in ops:
            if self.calibrated and (
                not samples or time.perf_counter() - last >= CALIBRATE_EVERY_S
            ):
                last = self._calibrate(samples, last)
            t0 = time.perf_counter()
            try:
                ok = execute(op)
            except Exception:
                ok = False
                if len(self.errors) < 5:
                    self.errors.append(f"{op.kind.name}: {traceback.format_exc()}")
            spent[op.kind.name] += time.perf_counter() - t0
            self.attempted += 1
            self.failed += not ok
            self.done[op.kind.name] += op.kind.units
            if first:
                self.units[op.kind.name] += op.kind.units
        speed = 1.0
        if self.calibrated:
            self._calibrate(samples, last)
            speed = CALIBRATION_REF_S / statistics.fmean(samples)
            self.host_speed.append(speed)
        for name, secs in spent.items():
            self.raw_seconds[name].append(secs)
            self.seconds[name].append(secs * speed)

    def rate(self, kinds, scaled: bool = True) -> tuple[float, int]:
        """Units per second over ``kinds``, from each kind's fastest rounds.

        Every round of a kind does the same work, and the shared host only
        ever adds time to a round, so the mean of the faster half of the
        rounds is the steadiest estimate of the work's cost.
        """
        seconds = self.seconds if scaled else self.raw_seconds
        units = sum(self.units[k] for k in kinds)
        secs = sum(faster_half_mean(seconds[k]) for k in kinds)
        return units / secs, sum(self.done[k] for k in kinds)

    def total_seconds(self) -> float:
        return sum(sum(v) for v in self.raw_seconds.values())


def timed_setup(setup, seed: int):
    """The plan, and the median set-up time scaled like the rounds' times."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrations(10)
        t0 = time.perf_counter()
        plan = setup(seed)
        elapsed = time.perf_counter() - t0
        around = before + calibrations(10)
        times.append(elapsed * CALIBRATION_REF_S / statistics.fmean(around))
    return plan, statistics.median(times)


def run_untraced(plan, seconds: float) -> Tally:
    tally = Tally(calibrated=True)
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        tally.run_round(plan.ops(r), run_plain, r == 0)
        r += 1
        if time.perf_counter() >= deadline:
            return tally


def run_traced(plan, seconds: float, tracer):
    """Every round twice on the same inputs, plain and traced, in alternating order."""
    from spans import REBOUND

    modules = {m: sys.modules[m] for m, _, _ in REBOUND}
    plain, traced = Tally(calibrated=False), Tally(calibrated=False)
    traced_wall = 0.0
    per_round = defaultdict(list)

    def execute(op):
        tracer.family = op.kind.family
        return tracer.call("bench.op", op.run, tracer.call)

    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        ops = plan.ops(r)
        for with_spans in (False, True) if r % 2 == 0 else (True, False):
            if not with_spans:
                plain.run_round(ops, run_plain, r == 0)
                continue
            builds, evals = tracer.calls["tree.build"], tracer.integrand_evals
            t0 = time.perf_counter()
            with tracer.installed(modules):
                traced.run_round(ops, execute, r == 0)
            traced_wall += time.perf_counter() - t0
            per_round["tree.build_calls"].append(tracer.calls["tree.build"] - builds)
            per_round["quadrature.integrand_evals"].append(tracer.integrand_evals - evals)
        r += 1
        if time.perf_counter() >= deadline:
            return plain, traced, traced_wall, per_round


def bytes_per_vertex(td, tree) -> float:
    """Memory a parsed copy of ``tree`` keeps, per vertex, by tracemalloc."""
    if tree is None:
        return 0.0
    text = td.serialize(tree)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        copy = td.parse(text)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / copy.n


def layer_metrics(td, tracer, plain, traced, traced_wall, per_round):
    """Per-layer metrics (value, unit, samples) from the spans of a traced run."""
    from spans import root_total, summarize
    from spec import FAMILIES, PER_LAYER

    table = summarize(tracer)
    units = {name: unit for name, unit, _ in PER_LAYER}
    out = {}

    def put(name, value, samples):
        out[name] = (value, units[name], samples)

    for family in FAMILIES:
        calls, _, self_s = table.get(f"generators.{family}", (0, 0.0, 0.0))
        vertices = tracer.vertices[family]
        put(f"generators.self_s.{family}", self_s / calls if calls else 0.0, calls)
        put(f"generators.vertices_per_s.{family}", vertices / self_s if calls else 0.0, calls)
    trials = sum(v[0] for k, v in table.items() if k.startswith("generators."))
    calls, _, self_s = table.get("experiments.run_experiment", (0, 0.0, 0.0))
    put("experiments.self_s", self_s / trials if trials else 0.0, calls)
    for name, _, _ in PER_LAYER:
        if name.endswith("_s") and name not in out and not name.startswith("generators."):
            calls, _, self_s = table.get(name[:-2], (0, 0.0, 0.0))
            put(name, self_s / calls if calls else 0.0, calls)
    for name, counts in per_round.items():
        put(name, statistics.median(counts), len(counts))
    put("tree.bytes_per_vertex", bytes_per_vertex(td, tracer.first_tree), 1)
    put("trace.overhead_share", traced.total_seconds() / plain.total_seconds() - 1.0, plain.attempted)
    self_sum = sum(v[2] for v in table.values())
    put("trace.unaccounted_share", 1.0 - self_sum / traced_wall, len(tracer.names))
    consistent = (
        abs(self_sum - root_total(tracer)) <= 1e-9 * len(tracer.names) + 1e-9
        and 0.0 <= out["trace.unaccounted_share"][0] <= UNACCOUNTED_LIMIT
    )
    return {name: out[name] for name, _, _ in PER_LAYER}, table, consistent


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_info() -> dict:
    info = {"model": platform.processor() or "unknown", "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def environment(td, workload: str, seed: int, trace: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": git_commit(),
        "treedim": td.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_info(),
    }


def show(name: str, value: float, unit: str, samples: int) -> None:
    print(f"  {name:<44} {value:>16.8g} {unit:<8} n={samples}")


def result_line(correct: bool, tally_list, metrics) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": sum(t.attempted for t in tally_list),
            "failed": sum(t.failed for t in tally_list),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        }
    )


def report_errors(tallies) -> None:
    for tally in tallies:
        for err in tally.errors:
            print(err, file=sys.stderr)


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    td = load_treedim()
    import workloads
    from spec import END_TO_END

    print("env " + json.dumps(environment(td, workload, seed, trace)))
    setup = workloads.SETUPS[workload]
    if trace:
        from spans import Tracer

        plan = setup(seed)
        tracer = Tracer()
        plain, traced, wall, per_round = run_traced(plan, seconds, tracer)
        metrics, table, consistent = layer_metrics(td, tracer, plain, traced, wall, per_round)
        print(f"spans of {workload}: name, calls, total s, self s")
        for name, (calls, total, self_s) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            print(f"  {name:<44} {calls:>9} {total:>12.6f} {self_s:>12.6f}")
        if not consistent:
            print("span self times do not add up to the traced wall time", file=sys.stderr)
        tallies = [plain, traced]
        correct = consistent
    else:
        plan, setup_s = timed_setup(setup, seed)
        tally = run_untraced(plan, seconds)
        tallies = [tally]
        print(f"{workload}: throughput by family (faster half of rounds, scaled to host speed 1)")
        for name, (unit, kinds) in plan.rates.items():
            value, samples = tally.rate(kinds)
            show(name, value, unit, samples)
        show("failed_fraction", tally.failed / tally.attempted, "fraction", tally.attempted)
        gated = [k.name for k in plan.kinds if k.gated]
        ops_rate, ops_samples = tally.rate(gated)
        show("ops_per_s.unscaled", tally.rate(gated, scaled=False)[0], "1/s", ops_samples)
        show("host_speed", statistics.median(tally.host_speed), "x", len(tally.host_speed))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "ops_per_s": (ops_rate, ops_samples),
            "peak_rss_mb": (rss_mb, 1),
            "ok_fraction": (1.0 - tally.failed / tally.attempted, tally.attempted),
            "setup_s": (setup_s, SETUP_REPEATS),
        }
        metrics = {name: (values[name][0], unit, values[name][1]) for name, unit, _, _ in END_TO_END}
        correct = True
    report_errors(tallies)
    correct = correct and all(t.failed == 0 for t in tallies)
    print(f"{workload}: {'traced' if trace else 'end-to-end'} metrics")
    for name, (value, unit, samples) in metrics.items():
        show(name, value, unit, samples)
    print(result_line(correct, tallies, metrics))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, so peak RSS belongs to that workload."""
    from spec import WORKLOADS

    results, status = {}, 0
    for name, _ in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        status |= not results[name]["correct"]
    print(json.dumps(results))
    return status


def write_spec() -> int:
    from spec import benchmark_json, layers_json

    for path, content in ((ROOT / "BENCHMARK.json", benchmark_json()), (BENCH / "layers.json", layers_json())):
        path.write_text(json.dumps(content, indent=2) + "\n")
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    from spec import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    mode.add_argument("--all", action="store_true", help="run every workload, one process each")
    mode.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and layers.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.write_spec:
        return write_spec()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    from spec import RUN_SECONDS

    seconds = RUN_SECONDS if args.seconds is None else args.seconds
    if args.all:
        return run_all(args.seed, seconds, args.trace)
    return run_one(args.workload, args.seed, seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
