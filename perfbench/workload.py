"""One workload process: runs a fixed operation list and records it.

Started by ``run.py`` in a fresh interpreter with ``src`` on
``PYTHONPATH``, one thread per numeric library and ``workers=1``::

    python3 perfbench/workload.py --probe WORKLOAD
    python3 perfbench/workload.py --plan PLAN.json --out RESULT.json [--trace]

``--probe`` imports what the workload's command imports and prints the
monotonic clock, so the parent can time interpreter start plus import.
Otherwise the process times each operation (nothing else is inside the
timed region), keeps every output for the oracle, and writes a result
file.  With ``--trace`` it first wraps the layer boundaries
(``tracer.py``) and also records per-layer self time and counters, per
round, so counts can be compared round against round.
"""

from __future__ import annotations

import sys
import time
import traceback

_clock = time.perf_counter


def _probe(workload: str) -> None:
    import repro.cli  # noqa: F401

    if workload == "serve-stream":
        import repro.datasets.io  # noqa: F401
        import repro.runtime  # noqa: F401
        import repro.service  # noqa: F401
    print(repr(time.monotonic()), flush=True)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_cli(ops, rounds, tracer):
    """Closed loop of CLI commands through ``repro.cli.main`` in-process."""
    import contextlib
    import io

    import calibrate
    import repro.cli as cli

    records, per_round = [], []
    speed = calibrate.sample()
    for _ in range(rounds):
        before = dict(tracer.counts) if tracer is not None else {}
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = _clock()
                try:
                    code = cli.main(list(op["argv"]))
                except Exception:  # noqa: BLE001 - a crash is a failed op
                    traceback.print_exc()
                    code = 1
                elapsed = _clock() - start
            after = calibrate.sample()
            records.append({"kind": op["kind"], "seconds": elapsed,
                            "cal": [speed, after], "code": code,
                            "stdout": out.getvalue(),
                            "stderr": err.getvalue()})
            speed = after
        if tracer is not None:
            per_round.append(tracer.counts_since(before))
    return records, per_round


def _open_service(plan, directory):
    from repro.datasets import io
    from repro.runtime import RuntimeConfig, StreamRuntime
    from repro.service import ConvergenceService

    temporal = io.read_edge_stream(plan["stream"])
    runtime = StreamRuntime(
        temporal, directory, RuntimeConfig(**plan["config"]), workers=1,
    )
    service = ConvergenceService(
        runtime, capacity=plan["capacity"],
        advance_batches=plan["advance_batches"],
    )
    return runtime, service


def _serve_pass(plan, runtime, service, tracer, reference):
    """One client, closed loop: send, await the answer, check, repeat.

    The oracle (``compute_answer`` on the same runtime at the same state
    version) runs between requests, outside the timed region and with
    tracing paused.  A later pass replays the same schedule on a fresh
    runtime, so its responses must equal the first pass's checked ones
    byte for byte; ``reference`` holds those (empty on the first pass).
    """
    import asyncio
    import json

    from repro.service import canonical_json, compute_answer

    import calibrate

    records = []

    def failure(request, response, why):
        return {"kind": request["kind"], "why": why,
                "response": response[:300]}

    async def client():
        service.start_worker()
        # Calibrate around each window's group of requests (an advance
        # and the reads that follow it); a request takes milliseconds.
        speed, group = calibrate.sample(), []
        for n, request in enumerate(plan["requests"]):
            if request["verb"] == "advance" and group:
                after = calibrate.sample()
                for record in group:
                    record["cal"] = [speed, after]
                speed, group = after, []
            line = json.dumps({"id": n, "verb": request["verb"],
                               "args": request["args"]})
            start = _clock()
            response = await service.handle_line(line)
            elapsed = _clock() - start
            if tracer is not None:
                tracer.active = False
            if n < len(reference):
                problem = (None if response == reference[n] else
                           "response differs from the first pass")
            else:
                problem = _check_response(
                    request, response, runtime, compute_answer,
                    canonical_json,
                )
                reference.append(response)
            if tracer is not None:
                tracer.active = True
            group.append({
                "kind": request["kind"], "seconds": elapsed,
                "failed": problem is not None,
                "problem": None if problem is None
                else failure(request, response, problem),
            })
            records.append(group[-1])
        after = calibrate.sample()
        for record in group:
            record["cal"] = [speed, after]
        await service.drain()

    asyncio.run(client())
    counters = service.counters.to_payload()
    return records, {
        "windows": len(runtime.windows),
        "consumed": runtime.consumed,
        "version": runtime.state_version,
        "cache_hits": counters["cache_hits"],
        "cache_misses": counters["cache_misses"],
        "served": counters["served"],
        "rejected": sum(v for k, v in counters.items()
                        if k.startswith("rejected_")) + counters["shed"],
    }


def _check_response(request, response, runtime, compute_answer,
                    canonical_json):
    """``None`` when the served response is right, else the reason."""
    import json

    payload = json.loads(response)
    if not payload.get("ok"):
        return "not ok"
    if payload.get("stale"):
        return "stale answer"
    if payload.get("version") != runtime.state_version:
        return "version differs from the runtime's"
    result = payload["result"]
    if request["verb"] == "advance":
        if result.get("windows") != request["window"]:
            return "advance did not close exactly one window"
        return None
    expected = compute_answer(runtime, request["verb"], request["args"])
    if canonical_json(result) != canonical_json(expected):
        return "result differs from compute_answer at the same version"
    if request["verb"] == "node" and not result.get("present"):
        return "node read on a node absent from the window"
    return None


def _run_serve(plan, workdir, tracer):
    import shutil
    from pathlib import Path

    import calibrate

    setup_s, passes, per_round, reference = [], [], [], []
    for r in range(plan["rounds"]):
        speed = calibrate.sample()
        reps = plan["setup_reps"] if r == 0 else 1
        for rep in range(reps):
            directory = Path(workdir) / f"wal-{r}-{rep}"
            start = _clock()
            runtime, service = _open_service(plan, directory)
            elapsed = _clock() - start
            after = calibrate.sample()
            setup_s.append(calibrate.scale(elapsed, speed, after))
            speed = after
            if rep + 1 < reps:
                shutil.rmtree(directory)
        before = dict(tracer.counts) if tracer is not None else {}
        records, counters = _serve_pass(plan, runtime, service, tracer,
                                        reference)
        shutil.rmtree(directory)
        passes.append({"records": records, "counters": counters})
        if tracer is not None:
            per_round.append(tracer.counts_since(before))
    return passes, setup_s, per_round


def main(argv) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", default=None)
    parser.add_argument("--plan")
    parser.add_argument("--out")
    parser.add_argument("--workdir")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.probe is not None:
        _probe(args.probe)
        return 0

    start = _clock()
    import repro.cli  # noqa: F401
    import_s = _clock() - start

    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    result = {"workload": plan["workload"], "import_s": import_s}
    if plan["workload"] == "serve-stream":
        passes, setup_s, per_round = _run_serve(plan, args.workdir, tracer)
        result.update(passes=passes, setup_s=setup_s)
    else:
        records, per_round = _run_cli(plan["ops"], plan["rounds"], tracer)
        result["records"] = records
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        result["trace"] = {
            "self_s": dict(tracer.self_s),
            "counts": dict(tracer.counts),
            "per_round_counts": per_round,
            "spans": tracer.spans,
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
