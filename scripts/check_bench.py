"""Validate the committed ``BENCH_*.json`` benchmark baselines.

Discovers every ``BENCH_*.json`` at the repository root (or takes
explicit paths), validates each file's schema and host provenance, and
enforces a per-schema speedup floor on the best recorded speedup:

* ``bench-parallel/v2`` (``BENCH_parallel.json``) — floor 1.3× on the
  best worker count, and the committed baseline **must** have been
  measured on a multi-core host (``cpus >= 2``): the shared-memory
  arena + bit-parallel multi-source BFS make the pool a genuine win, so
  a single-core baseline is a provenance failure, not an exemption.
  Also validates the shm provenance counters (segment bytes published,
  pickled bytes avoided) and the bit-parallel batch speedup.  The v1
  schema (which skipped the floor on single-core hosts) is retired —
  see CHANGELOG.md for the migration.
* ``bench-incremental/v1`` (``BENCH_incremental.json``) — floor 1.3× on
  the best dataset.  The win is algorithmic, so it must exist on any
  host.
* ``bench-service/v1`` (``BENCH_service.json``) — floor 1.5× on the
  best of the query service's cached-answer and coalesced-burst
  speedups over a cold compute; serving a version-keyed cached answer
  must beat recomputing it on any host.  Also validates the service's
  latency percentiles, the one-computation coalescing invariant, and
  that the burst queue depth never exceeded the admission bound.

``--min-speedup`` overrides every schema's default floor (the CI
bench-gate uses it to re-check freshly regenerated smoke baselines);
``--no-floor`` validates structure and provenance only.

Usage::

    python scripts/check_bench.py [paths ...]
                                  [--min-speedup X | --no-floor]
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

_HOST_FIELDS = ("cpus", "platform", "start_method")


def _check_parallel(baseline: dict) -> List[str]:
    problems = []
    timings = baseline.get("timings_s")
    if not isinstance(timings, dict) or "workers1" not in timings:
        problems.append("must time workers=1")
    elif any(not isinstance(t, (int, float)) or t <= 0
             for t in timings.values()):
        problems.append("timings must be positive")
    elif not any(key != "workers1" for key in timings):
        problems.append("must time at least one multi-worker pool")
    shm = baseline.get("shm")
    if not isinstance(shm, dict):
        problems.append("shm provenance must be an object")
    else:
        # Zero-copy provenance: the segment actually published, and the
        # per-worker pickled graph state it replaced.
        for field in ("segment_bytes", "pickled_bytes_avoided"):
            value = shm.get(field)
            if not isinstance(value, int) or value <= 0:
                problems.append(f"shm: bad {field}")
    batch = baseline.get("batch")
    if not isinstance(batch, dict):
        problems.append("batch provenance must be an object")
    else:
        width = batch.get("width")
        if not isinstance(width, int) or width < 1:
            problems.append("batch: bad width")
        bspeed = batch.get("speedup")
        if not isinstance(bspeed, (int, float)) or bspeed <= 0:
            problems.append("batch: bad speedup")
    return problems


def _check_incremental(baseline: dict) -> List[str]:
    problems = []
    datasets = baseline.get("datasets")
    if not isinstance(datasets, dict) or not datasets:
        return ["must record at least one dataset"]
    for name, row in datasets.items():
        for field in ("full_s", "incremental_s", "speedup"):
            value = row.get(field)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"dataset {name!r}: bad {field}")
    return problems


def _check_service(baseline: dict) -> List[str]:
    problems = []
    latency = baseline.get("latency_ms")
    if not isinstance(latency, dict):
        problems.append("latency_ms must be an object")
    else:
        p50, p99 = latency.get("p50"), latency.get("p99")
        for name, value in (("p50", p50), ("p99", p99)):
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"latency_ms: bad {name}")
        if (isinstance(p50, (int, float)) and isinstance(p99, (int, float))
                and p99 < p50):
            problems.append("latency_ms: p99 below p50")
    coalescing = baseline.get("coalescing")
    if not isinstance(coalescing, dict):
        problems.append("coalescing must be an object")
    else:
        hit_rate = coalescing.get("hit_rate")
        if not isinstance(hit_rate, (int, float)) or not 0 <= hit_rate <= 1:
            problems.append("coalescing: hit_rate must be in [0, 1]")
        if coalescing.get("computations") != 1:
            problems.append(
                "coalescing: an identical-query burst must collapse "
                "to exactly one computation"
            )
    burst = baseline.get("burst")
    if not isinstance(burst, dict):
        problems.append("burst must be an object")
    else:
        shed_rate = burst.get("shed_rate")
        if not isinstance(shed_rate, (int, float)) or not 0 <= shed_rate <= 1:
            problems.append("burst: shed_rate must be in [0, 1]")
        depth, capacity = burst.get("max_depth"), burst.get("capacity")
        for name, value in (("max_depth", depth), ("capacity", capacity),
                            ("served", burst.get("served")),
                            ("rejected", burst.get("rejected"))):
            if not isinstance(value, int) or value < 0:
                problems.append(f"burst: bad {name}")
        if (isinstance(depth, int) and isinstance(capacity, int)
                and depth > capacity):
            problems.append(
                "burst: queue depth exceeded the admission bound"
            )
    return problems


@dataclass(frozen=True)
class SchemaSpec:
    """What one benchmark-baseline schema requires."""

    required: tuple
    default_floor: float
    #: Pool speedups only exist on multi-core hardware, so schemas that
    #: measure them must be *recorded* there: a floor-enforced check of
    #: a 1-cpu baseline fails outright instead of being skipped.
    require_multicore: bool
    extra_check: Callable[[dict], List[str]]


SCHEMAS: Dict[str, SchemaSpec] = {
    "bench-parallel/v2": SchemaSpec(
        required=("schema", "dataset", "scale", "nodes", "edges", "host",
                  "timings_s", "speedup", "shm", "batch"),
        default_floor=1.3,
        require_multicore=True,
        extra_check=_check_parallel,
    ),
    "bench-incremental/v1": SchemaSpec(
        required=("schema", "scale", "host", "datasets", "speedup"),
        default_floor=1.3,
        require_multicore=False,
        extra_check=_check_incremental,
    ),
    "bench-service/v1": SchemaSpec(
        required=("schema", "scale", "host", "latency_ms", "coalescing",
                  "burst", "speedup"),
        default_floor=1.5,
        require_multicore=False,
        extra_check=_check_service,
    ),
}


def discover(root: Path = ROOT) -> List[Path]:
    """Every committed benchmark baseline at the repository root."""
    return sorted(root.glob("BENCH_*.json"))


def check(path: Path, min_speedup: Optional[float],
          use_default_floor: bool) -> int:
    """Validate one baseline; returns 0 when clean, 1 otherwise."""
    try:
        baseline = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        print(f"{path} is missing", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"{path} is not valid JSON: {exc}", file=sys.stderr)
        return 1

    spec = SCHEMAS.get(baseline.get("schema"))
    if spec is None:
        known = ", ".join(sorted(SCHEMAS))
        print(f"{path.name}: unknown schema {baseline.get('schema')!r} "
              f"(known: {known})", file=sys.stderr)
        return 1

    problems = [f"lacks field {f!r}" for f in spec.required
                if f not in baseline]
    host = baseline.get("host")
    if not isinstance(host, dict):
        problems.append("host provenance must be an object")
    else:
        problems += [f"host provenance lacks {f!r}" for f in _HOST_FIELDS
                     if f not in host]
    speedup = baseline.get("speedup")
    if not isinstance(speedup, dict) or not speedup:
        problems.append("must record at least one speedup")
    elif any(not isinstance(s, (int, float)) or s <= 0
             for s in speedup.values()):
        problems.append("speedups must be positive")
    if not problems:
        problems += spec.extra_check(baseline)
    if problems:
        for problem in problems:
            print(f"{path.name}: {problem}", file=sys.stderr)
        return 1

    cpus = int(host.get("cpus") or 1)
    best = max(speedup.values())
    floor = min_speedup if min_speedup is not None else (
        spec.default_floor if use_default_floor else None
    )
    print(
        f"{path.name}: {baseline['schema']} @ scale {baseline['scale']}, "
        f"recorded on {cpus} cpu(s), best speedup {best:.2f}x"
        + (f" (floor {floor:.2f}x)" if floor is not None else "")
    )
    if floor is None:
        return 0
    if spec.require_multicore and cpus < 2:
        print(
            f"{path.name}: baseline was recorded on a single-core host; "
            f"{baseline['schema']} requires a committed baseline measured "
            f"with cpus >= 2 (regenerate on a multi-core runner)",
            file=sys.stderr,
        )
        return 1
    if best < floor:
        print(
            f"{path.name}: best speedup {best:.2f}x is below the "
            f"required {floor:.2f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "paths", nargs="*", type=Path,
        help="baselines to check (default: every BENCH_*.json at the "
             "repository root)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="override every schema's default floor",
    )
    parser.add_argument(
        "--no-floor", action="store_true",
        help="validate structure and provenance only",
    )
    args = parser.parse_args(argv)
    if args.no_floor and args.min_speedup is not None:
        parser.error("--no-floor and --min-speedup are mutually exclusive")
    paths = args.paths or discover()
    if not paths:
        print("no BENCH_*.json baselines found", file=sys.stderr)
        return 1
    return max(
        check(p, args.min_speedup, use_default_floor=not args.no_floor)
        for p in paths
    )


if __name__ == "__main__":
    sys.exit(main())
