"""transys benchmark: one workload per run, everything in one process and
one thread.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the library is imported from `src/`.
The last line of standard output is the result object; the line before it
records the configuration (Python version, nproc, commit, passes, the tail
percentile, the reach ladder).  `--trace 0` reports the end-to-end
metrics; `--trace 1` alternates untraced and traced passes and reports the
per-layer metrics, writing the spans of the first traced pass to
`perfbench/out/`.  `--smoke` runs every workload at minimal size with both
settings and checks that every metric named in BENCHMARK.json is emitted
with its unit and that no check failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "transys"

from reference import REACH_BUDGET_S, REACH_LADDER, TRANSFER_COUNTS  # noqa: E402
from tracer import LAYERS, Tracer, aggregate, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("groups", "transfer", "functors", "indexing", "operads",
           "rewrite", "catalog", "suites")
#: set-up runs at least SETUP_REPS times, and again while it has taken
#: less than SETUP_SECONDS in all, up to SETUP_MAX_REPS times
SETUP_REPS, SETUP_SECONDS, SETUP_MAX_REPS = 3, 2.0, 9
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms",
    "reach_groups": "count", "peak_rss_mb": "MB", "pass_rate": "ratio",
}

#: span rows reported as calls and self time
SPAN_ROWS = (
    "groups.hsets", "transfer.cogenerate", "transfer.refines",
    "transfer.generate", "transfer.join", "transfer.meet",
    "functors.fL", "functors.finvL", "functors.fR", "functors.finvR",
    "indexing.admits", "indexing.admissible_class",
    "operads.free_model", "operads.symseq_transfer",
    "rewrite.one_step_reducts", "rewrite.complexity", "rewrite.reduce_term",
    "rewrite.witness",
)
#: span rows reported as self time only
SELF_ONLY = ("transfer.enumerate", "transfer.hasse", "operads.checks")
COUNTERS = ("groups.gset_builds", "transfer.enumerate.systems",
            "transfer.hasse.covers", "functors.law_cases",
            "rewrite.reduce_term.steps", "rewrite.join_pairs")


def per_layer_units() -> dict[str, str]:
    units = {"groups.lattice_of.misses": "count"}
    for row in SPAN_ROWS:
        units[f"{row}.calls"] = "count"
        units[f"{row}.self_s"] = "s"
    for row in SELF_ONLY:
        units[f"{row}.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["functors.applications_per_case"] = "ratio"
    units["rewrite.reducts_per_join_pair"] = "ratio"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units.update({"bench.unspanned_s": "s", "trace.wall_s": "s",
                  "trace.overhead_frac": "ratio", "error_rate": "ratio"})
    for name in source_line_counts():
        units[name] = "lines"
    return units


def source_line_counts() -> dict[str, int]:
    """`src.<module>.loc` for every module of the seed layout, plus the total."""
    names = ("__init__", "catalog", "cli", "functors", "groups", "indexing",
             "operads", "rewrite", "suites", "transfer")
    counts = {}
    for name in names:
        path = PACKAGE / f"{name}.py"
        counts[f"src.{name}.loc"] = (len(path.read_text().splitlines())
                                     if path.is_file() else 0)
    counts["src.total.loc"] = sum(len(p.read_text().splitlines())
                                  for p in PACKAGE.glob("*.py"))
    return counts


# ---------------------------------------------------------------------------
# bookkeeping


class Tally:
    """Checks attempted and failed; keeps the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)


def load_library() -> dict:
    """Import transys afresh, so that each set-up pays for its imports."""
    for name in [m for m in sys.modules if m == "transys"
                 or m.startswith("transys.")]:
        del sys.modules[name]
    mods = {"transys": importlib.import_module("transys")}
    for name in MODULES:
        mods[name] = importlib.import_module(f"transys.{name}")
    return mods


def run_pass(chains, rng: random.Random, tally: Tally,
             tracer: Tracer | None = None):
    """Run every job once, the chains in a fresh order; time each job."""
    chains = list(chains)
    rng.shuffle(chains)
    times = {}
    start = perf_counter()
    for chain in chains:
        for job_id, fn in chain:
            if tracer is not None:
                tracer.job = job_id
            t0 = perf_counter()
            try:
                fn(tally.check)
            except Exception as exc:  # one broken job must not hide the others
                tally.fail(f"{job_id}: {type(exc).__name__}: {exc}")
            times[job_id] = perf_counter() - t0
    return perf_counter() - start, times


def job_stats(passes: list[dict[str, float]]) -> dict:
    """The job list's time and the median and tail job, each job timed at
    its median over the passes."""
    per_job = sorted(statistics.median(p[job] for p in passes)
                     for job in passes[0])
    n = len(per_job)
    # never below the median, which only matters for tiny smoke lists
    idx = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return {"jobs": n, "wall_s": sum(per_job),
            "p50_s": statistics.median(per_job),
            "tail_s": per_job[idx], "tail_percentile": 100.0 * (idx + 1) / n,
            "tail_jobs_beyond": n - idx - 1}


class CpuRotation:
    """Pins the process to each of its CPUs in turn, one round each.  On a
    shared host one CPU is often slowed by its neighbours for seconds to
    minutes while the other is not; spreading the rounds over every CPU
    keeps one slowed CPU from deciding a whole run."""

    def __init__(self):
        self.saved = (os.sched_getaffinity(0)
                      if hasattr(os, "sched_setaffinity") else None)
        self.cpus = sorted(self.saved) if self.saved else []
        self.round = 0

    def next(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self.round % len(self.cpus)]})
        self.round += 1

    def restore(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.saved)


class BudgetSpent(Exception):
    pass


def _alarm(signum, frame):
    raise BudgetSpent


def reach(mods, tally: Tally, budget: float, smoke: bool) -> tuple[int, list]:
    """Walk the ladder; stop at the first group whose budget is spent.  A
    spent budget is recorded, not counted as a failure."""
    catalog, transfer = mods["catalog"], mods["transfer"]
    ladder = REACH_LADDER[:2] if smoke else REACH_LADDER
    count, log = 0, []
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for name, _ in ladder:
            G = catalog.group_by_name(name)
            t0 = perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, budget)
                systems = transfer.enumerate_transfer_systems(G)
                signal.setitimer(signal.ITIMER_REAL, 0)
            except BudgetSpent:
                log.append({"group": name, "status": "budget spent",
                            "seconds": round(perf_counter() - t0, 3)})
                break
            seconds = perf_counter() - t0
            ref = TRANSFER_COUNTS.get(name)
            status = "no reference"
            if ref is not None:
                tally.check(len(systems) == ref[0],
                            f"reach {name}: {len(systems)} systems, "
                            f"reference {ref[0]}")
                status = "ok" if len(systems) == ref[0] else "wrong count"
                count += status == "ok"
            log.append({"group": name, "status": status,
                        "systems": len(systems), "seconds": round(seconds, 3)})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return count, log


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# one run


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool) -> tuple[dict, dict]:
    wl = WORKLOADS[workload]
    tally = Tally()
    setup_times = []
    while len(setup_times) < (1 if smoke else SETUP_MAX_REPS):
        if (len(setup_times) >= SETUP_REPS
                and sum(setup_times) >= SETUP_SECONDS):
            break
        t0 = perf_counter()
        mods = load_library()
        state = wl.setup(mods, smoke)
        setup_times.append(perf_counter() - t0)
    chains = wl.jobs(mods, state, seed, smoke)
    order = random.Random(seed)
    info = {"workload": workload, "seed": seed, "trace": int(trace),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit(), "src_sha256": source_digest(),
            "setup_reps_s": [round(t, 4) for t in setup_times],
            "jobs": sum(map(len, chains))}

    walls, job_times = [], []
    traced_walls, aggs, counters = [], [], {}
    tracer = Tracer(mods) if trace else None
    spans_path = HERE / "out" / f"spans-{workload}-{seed}.jsonl.gz"
    start = perf_counter()
    longest = 0.0
    cpus = CpuRotation()
    while True:
        round_start = perf_counter()
        cpus.next()
        wall, times = run_pass(chains, order, tally)
        walls.append(wall)
        job_times.append(times)
        if trace:
            tracer.install()
            try:
                wall, _ = run_pass(chains, order, tally, tracer)
            finally:
                tracer.uninstall()
            spans, counts = tracer.take()
            traced_walls.append(wall)
            aggs.append(aggregate(spans))
            for key, value in counts.items():
                counters[key] = counters.get(key, 0) + value
            if "spans_written" not in info:
                t0 = perf_counter()
                write_spans(spans_path, spans)
                start += perf_counter() - t0    # writing is not measured
                info["spans_file"] = str(spans_path.relative_to(ROOT))
                info["spans_written"] = len(spans)
            del spans
        # stop before a round that would run past --seconds
        longest = max(longest, perf_counter() - round_start)
        if smoke or perf_counter() - start + longest > seconds:
            break
    cpus.restore()
    info["cpus"] = cpus.cpus
    info["passes"] = len(walls)
    info["pass_walls_s"] = [round(w, 4) for w in walls]
    info["measured_s"] = round(perf_counter() - start, 3)

    if not trace:
        stats = job_stats(job_times)
        info.update({k: stats[k] for k in
                     ("tail_percentile", "tail_jobs_beyond")})
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        info["reach_budget_s"] = 0.5 if smoke else REACH_BUDGET_S
        reached, info["reach"] = reach(mods, tally, info["reach_budget_s"],
                                       smoke)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": stats["wall_s"],
            "job_p50_ms": stats["p50_s"] * 1e3,
            "job_tail_ms": stats["tail_s"] * 1e3,
            "reach_groups": reached,
            "peak_rss_mb": peak,
            "pass_rate": 1.0 - tally.failed / max(tally.attempted, 1),
        }
        units = END_TO_END
    else:
        metrics = layer_metrics(mods, aggs, counters, traced_walls, walls,
                                tally)
        units = per_layer_units()
    info["failures"] = tally.messages
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    return info, result


def layer_metrics(mods, aggs, counters, traced_walls, walls, tally) -> dict:
    """Per-pass means over the traced passes."""
    n = len(aggs)
    rows: dict[str, list] = {}
    for agg in aggs:
        for name, (calls, self_s) in agg["rows"].items():
            row = rows.setdefault(name, [0, 0.0])
            row[0] += calls
            row[1] += self_s
    out = {"groups.lattice_of.misses":
           mods["groups"].lattice_of.cache_info().misses}
    for row in SPAN_ROWS:
        calls, self_s = rows.get(row, (0, 0.0))
        out[f"{row}.calls"] = calls / n
        out[f"{row}.self_s"] = self_s / n
    for row in SELF_ONLY:
        out[f"{row}.self_s"] = rows.get(row, (0, 0.0))[1] / n
    for name in COUNTERS:
        out[name] = counters.get(name, 0) / n
    law_apps = sum(a["law_applications"] for a in aggs)
    free_reducts = sum(a["free_reducts"] for a in aggs)
    out["functors.applications_per_case"] = (
        law_apps / counters["functors.law_cases"]
        if counters.get("functors.law_cases") else 0.0)
    out["rewrite.reducts_per_join_pair"] = (
        free_reducts / counters["rewrite.join_pairs"]
        if counters.get("rewrite.join_pairs") else 0.0)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(a["layers"][layer]
                                           for a in aggs) / n
    traced = sum(traced_walls) / n
    rooted = sum(a["rooted_s"] for a in aggs) / n
    layer_sum = sum(out[f"layer.{layer}.self_s"] for layer in LAYERS)
    tally.check(abs(layer_sum - rooted) <= 1e-6 * max(traced, 1.0),
                f"layer self times {layer_sum} do not add up to the "
                f"spanned time {rooted}")
    out["trace.wall_s"] = traced
    out["bench.unspanned_s"] = traced - rooted
    out["trace.overhead_frac"] = (statistics.median(traced_walls)
                                  / statistics.median(walls) - 1.0)
    out["error_rate"] = tally.failed / max(tally.attempted, 1)
    out.update(source_line_counts())
    return out


# ---------------------------------------------------------------------------
# smoke check


def smoke() -> int:
    """Every workload at minimal size, traced and untraced, in a fresh
    process each; compare the emitted metrics with BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--size", "smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                units = [k for k in got if k in want and got[k] != want[k]]
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {units}")
            error_rate = result["failed"] / result["attempted"]
            if error_rate != 0 or not result["correct"]:
                problems.append(f"{label}: error_rate {error_rate}")
            print(f"{label}: {len(got)} metrics, {result['attempted']} checks, "
                  f"error_rate {error_rate}")
    for p in problems:
        print("SMOKE FAILURE:", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload at minimal size")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no transys package under {SRC}; run from the root of "
              "a transys checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    info, result = run(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.size == "smoke")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
