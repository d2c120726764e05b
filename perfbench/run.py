"""End-to-end benchmark of the converging-pairs system.

Run from the repository root::

    python3 perfbench/run.py --workload exact-topk --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``exact-topk``    -- ``repro truth <file> --k 10`` on four datasets.
* ``budgeted-topk`` -- ``repro topk <file> --selector MMSD`` (Algorithm 1).
* ``serve-stream``  -- an in-process ``ConvergenceService`` over a stream.

Each run generates its inputs from ``--seed`` (harness work, untimed),
times interpreter start plus import in fresh processes, runs the
workload's fixed operation list in one fresh single-threaded process,
checks every output, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same list once untraced and
once traced and reports per-layer self time, counters and the tracing
overhead.  Lines before the last carry provenance and details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import calibrate
from guard import SampleGuardError, by_kind, check_not_time_boxed, percentile

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_PY = HERE / "workload.py"

#: Fresh-process set-up samples per run; the median is reported.
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170


def _child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _run_child(args: List[str], deadline: float) -> str:
    """Run one workload process to completion; its stdout on success."""
    proc = subprocess.run(
        [sys.executable, str(WORKLOAD_PY)] + args,
        env=_child_env(), cwd=str(ROOT), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return proc.stdout


def _setup_probes(workload: str, deadline: float) -> Tuple[List[float], List[float]]:
    """Interpreter start plus import, in fresh processes: (scaled, raw)."""
    scaled, raw = [], []
    speed = calibrate.sample()
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = _run_child(["--probe", workload], deadline)
        elapsed = float(out.strip().splitlines()[-1]) - start
        after = calibrate.sample()
        scaled.append(calibrate.scale(elapsed, speed, after))
        raw.append(elapsed)
        speed = after
    return scaled, raw


def _run_workload(plan_path: Path, workdir: Path, trace: bool,
                  deadline: float) -> Dict[str, Any]:
    out_path = workdir / ("result-traced.json" if trace else "result.json")
    args = ["--plan", str(plan_path), "--out", str(out_path),
            "--workdir", str(workdir)]
    _run_child(args + (["--trace"] if trace else []), deadline)
    with out_path.open(encoding="utf-8") as fh:
        return json.load(fh)


def _scaled(record) -> float:
    return calibrate.scale(record["seconds"], *record["cal"])


def _records(result) -> List[Dict[str, Any]]:
    """Every timed operation of a workload result, in order."""
    if "passes" in result:
        return [r for p in result["passes"] for r in p["records"]]
    return result["records"]


# ----------------------------------------------------------------------
# Checking outputs
# ----------------------------------------------------------------------
def _check_batch(plan, result) -> Tuple[List[Tuple[str, float]], List[str]]:
    """Samples and failure reasons for a CLI workload result."""
    from oracle import BudgetedOracle, ExactOracle

    oracle = ExactOracle() if plan["workload"] == "exact-topk" else BudgetedOracle()
    argv_of = {op["kind"]: op["argv"] for op in plan["ops"]}
    samples, failures = [], []
    for record in result["records"]:
        samples.append((record["kind"], _scaled(record)))
        if record["code"] != 0:
            failures.append(f"{record['kind']}: exit {record['code']}: "
                            f"{record['stderr'][-200:]}")
            continue
        why = oracle.check(argv_of[record["kind"]], record["stdout"])
        if why is not None:
            failures.append(f"{record['kind']}: {why}")
    return samples, failures


def _check_serve(result) -> Tuple[List[Tuple[str, float]], List[str]]:
    """Samples and failure reasons; the process already ran the oracle."""
    samples, failures = [], []
    for record in _records(result):
        samples.append((record["kind"], _scaled(record)))
        if record["failed"]:
            failures.append(json.dumps(record["problem"]))
    return samples, failures


def _deterministic_counts(result) -> List[Any]:
    """Counts readable without tracing: the budget line of every
    budgeted-topk op, or the service counters of every serve pass."""
    if "passes" in result:
        return [p["counters"] for p in result["passes"]]
    return [(r["kind"], r["stdout"].splitlines()[0])
            for r in result["records"]
            if r["kind"].startswith("topk") and r["stdout"]]


def _count_mismatches(untraced, traced=None) -> List[str]:
    """Flag any count that differs between two runs of the same code.

    Rounds of one process repeat the same inputs, so their counts must
    repeat; so must the counts of the untraced and the traced process.
    """
    problems = []
    seen: Dict[str, Any] = {}
    for count in _deterministic_counts(untraced):
        kind = count[0] if isinstance(count, tuple) else "serve pass"
        if seen.setdefault(kind, count) != count:
            problems.append(f"{kind}: counts differ between rounds: "
                            f"{seen[kind]} vs {count}")
    if traced is None:
        return problems
    rounds = traced["trace"]["per_round_counts"]
    for i, counts in enumerate(rounds[1:], start=2):
        for name in sorted(set(counts) | set(rounds[0])):
            if counts.get(name) != rounds[0].get(name):
                problems.append(f"count {name}: round 1 = "
                                f"{rounds[0].get(name)}, round {i} = "
                                f"{counts.get(name)}")
    a, b = _deterministic_counts(untraced), _deterministic_counts(traced)
    if a != b:
        problems.append(f"counts differ between untraced and traced run: "
                        f"{a} vs {b}")
    return problems


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
#: Serve-stream latency percentiles: one request kind each (``topk`` is
#: the cache-miss read; its repeat is the separate kind ``topk-hit``).
SERVE_LATENCIES = {
    "advance_p50_ms": ("advance", 0.5),
    "node_p50_ms": ("node", 0.5),
    "node_p90_ms": ("node", 0.9),
    "topk_p50_ms": ("topk", 0.5),
}


def _e2e_metrics(plan, result, samples, setup_s) -> Tuple[Dict, Dict]:
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(v for _, v in samples), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    kinds = by_kind(samples)
    details = {kind: {"n": len(v), "p50_ms": 1000 * statistics.median(
        [x for _, x in v])} for kind, v in kinds.items()}
    if plan["workload"] == "serve-stream":
        details["serve_latency_ms"] = {
            name: 1000 * percentile(kinds[kind], q)
            for name, (kind, q) in SERVE_LATENCIES.items()
        }
    return metrics, details


PER_LAYER_TIMES = {
    "cli.command_self_ms": "cli.command",
    "datasets.read_ms": "datasets.read",
    "graph.snapshot_ms": "graph.snapshot",
    "graph.csr_build_ms": "graph.csr_build",
    "graph.bfs_ms": "graph.bfs",
    "graph.msbfs_ms": "graph.msbfs",
    "graph.incremental_ms": "graph.incremental",
    "graph.dijkstra_ms": "graph.dijkstra",
    "core.pairs_self_ms": "core.pairs",
    "core.histogram_ms": "core.histogram",
    "core.threshold_ms": "core.threshold",
    "selection.select_ms": "selection.select",
    "core.algorithm_self_ms": "core.algorithm",
    "runtime.run_self_ms": "runtime.run",
    "runtime.wal_append_ms": "runtime.wal_append",
    "runtime.window_snapshots_ms": "runtime.window_snapshots",
    "resilience.checkpoint_put_ms": "resilience.checkpoint_put",
    "service.answer_ms": "service.answer",
    "service.overhead_ms": "service.handle",
}
PER_LAYER_COUNTS = (
    "datasets.events", "graph.csr_builds", "graph.bfs_calls",
    "graph.msbfs_calls", "graph.msbfs_sources", "graph.incremental_calls",
    "graph.dijkstra_calls", "budget.generation", "budget.topk",
    "budget.service", "resilience.checkpoint_bytes",
)


def _speed_factor(result) -> float:
    """Median reference-speed scale factor over a run's operations."""
    return statistics.median(
        calibrate.scale(1.0, *r["cal"]) for r in _records(result))


def _layer_metrics(traced, untraced_wall, traced_wall, serve_latency_ms) -> Dict:
    trace = traced["trace"]
    # Self times are scaled like the end-to-end times, by the traced
    # run's median speed factor.
    ms = 1000 * _speed_factor(traced)
    metrics: Dict[str, Tuple[float, str]] = {
        "cli.import_ms": (ms * traced["import_s"], "ms"),
    }
    for name, layer in PER_LAYER_TIMES.items():
        metrics[name] = (ms * trace["self_s"].get(layer, 0.0), "ms")
    counts = trace["counts"]
    for name in PER_LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    sweeps = counts.get("graph.msbfs_sweeps", 0)
    metrics["graph.msbfs_lane_fill"] = (
        counts.get("graph.msbfs_sources", 0) / (64 * sweeps) if sweeps else 0.0,
        "ratio",
    )
    serve = {"windows": 0, "cache_hits": 0, "cache_misses": 0, "rejected": 0}
    for p in traced.get("passes", []):
        for key in serve:
            serve[key] += p["counters"][key]
    lookups = serve["cache_hits"] + serve["cache_misses"]
    metrics["runtime.windows"] = (serve["windows"], "count")
    metrics["service.cache_hits"] = (serve["cache_hits"], "count")
    metrics["service.cache_misses"] = (serve["cache_misses"], "count")
    metrics["service.cache_hit_ratio"] = (
        serve["cache_hits"] / lookups if lookups else 0.0, "ratio")
    metrics["service.rejected"] = (serve["rejected"], "count")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.spans"] = (trace["spans"], "count")
    for name in SERVE_LATENCIES:
        metrics[f"serve.{name}"] = (serve_latency_ms.get(name, 0.0), "ms")
    return metrics


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def _versions() -> Dict[str, str]:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _emit(correct: bool, attempted: int, failed: int,
          metrics: Dict[str, Tuple[float, str]]) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from the repository "
              "root", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    load_before = os.getloadavg()
    sys.path.insert(0, str(SRC))
    from inputs import WORKLOADS, make_plan

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = make_plan(args.workload, args.seed, args.seconds, workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")

        probes, raw_probes = _setup_probes(args.workload, deadline)
        untraced = _run_workload(plan_path, workdir, False, deadline)
        traced = (_run_workload(plan_path, workdir, True, deadline)
                  if args.trace else None)

        results = [untraced] + ([traced] if traced else [])
        checked = []
        for result in results:
            if plan["workload"] == "serve-stream":
                checked.append(_check_serve(result))
            else:
                checked.append(_check_batch(plan, result))
        samples = checked[0][0]
        failures = [f for _, fs in checked for f in fs]
        planned = (len(plan["requests"]) if plan["workload"] == "serve-stream"
                   else len(plan["ops"])) * plan["rounds"]
        for s, _ in checked:
            check_not_time_boxed(planned, len(s))

        setup_s = statistics.median(probes)
        if plan["workload"] == "serve-stream":
            setup_s += statistics.median(untraced["setup_s"])
        e2e, details = _e2e_metrics(plan, untraced, samples, setup_s)

        problems = _count_mismatches(untraced, traced)
        attempted = sum(len(s) for s, _ in checked)
        if traced is None:
            metrics = e2e
        else:
            metrics = _layer_metrics(
                traced, e2e["wall_s"][0], sum(v for _, v in checked[1][0]),
                details.get("serve_latency_ms", {}),
            )
    except SampleGuardError as exc:
        print(f"error: sample guard: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "rounds": plan["rounds"], "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        **_versions(),
        "setup_probes_s": raw_probes,
        "raw_wall_s": sum(r["seconds"] for r in _records(untraced)),
        "speed_factor": _speed_factor(untraced),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"samples": details}))
    for line in failures[:20] + problems[:20]:
        print(json.dumps({"problem": line}))
    correct = not failures and not problems
    _emit(correct, attempted, len(failures), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
