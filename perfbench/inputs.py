"""Inputs and fixed operation lists for the three workloads.

Inputs are the catalog datasets at scale 1.0 (each generated with its
catalog seed, so graph shape and size never change), with node ids
relabelled by a permutation drawn from the workload seed.  Relabelling
keeps every graph isomorphic to the catalog one, so the amount of work is
the same for every seed while the bytes the program reads, the ties it
breaks and the answers it prints all change with the seed.

The operation list depends only on the workload, the seed and
``--seconds``, never on how fast the program runs: ``--seconds`` buys a
whole number of rounds at a fixed cost per round, stated in reference
seconds (``calibrate.py``) as measured on the seed code.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Any, Dict, List

from repro.datasets import catalog, io
from repro.graph.dynamic import EdgeEvent, TemporalGraph

SCALE = 1.0

#: exact-topk: ``repro truth <file> --k 10`` on each dataset, in order.
EXACT_DATASETS = ("internet", "actors", "facebook", "dblp")
EXACT_K = 10
#: Reference seconds one exact-topk round costs; sets the round count only.
EXACT_ROUND_S = 3.5

#: budgeted-topk: ``repro topk <file> --selector MMSD --k 20 --m <m>``.
BUDGETED_OPS = (("internet", 200), ("actors", 40), ("internet-weighted", 40))
BUDGETED_K = 20
BUDGETED_ROUND_S = 1.67

#: serve-stream: budgeted window mode over the dblp stream.
SERVE_DATASET = "dblp"
SERVE_CONFIG = {
    "k": 10, "batch_size": 50, "checkpoint_every": 2,
    "selector": "MMSD", "m": 20, "seed": 0,
}
SERVE_ADVANCE_BATCHES = 2
SERVE_CAPACITY = 64
SERVE_NODE_READS = 4
SERVE_TOPK_READS = 2
SERVE_TOPK_K_RANGE = (1, 50)
SERVE_PASS_S = 5.4
#: How many times the first serve-stream pass opens a fresh runtime and
#: service to time set-up (the last one is served).
SERVE_SETUP_REPS = 5

WORKLOADS = ("exact-topk", "budgeted-topk", "serve-stream")


def relabelled(name: str, seed: int) -> TemporalGraph:
    """Catalog dataset ``name`` with node ids permuted by ``seed``."""
    temporal = catalog.load(name, scale=SCALE)
    nodes = sorted({n for ev in temporal.events() for n in ev.endpoints()})
    shuffled = list(nodes)
    random.Random(f"{name}:{seed}").shuffle(shuffled)
    mapping = dict(zip(nodes, shuffled))
    return TemporalGraph(
        EdgeEvent(ev.time, mapping[ev.u], mapping[ev.v], ev.weight)
        for ev in temporal.events()
    )


def _write(name: str, seed: int, workdir: Path) -> Path:
    path = workdir / f"{name}.tsv"
    io.write_edge_stream(relabelled(name, seed), path)
    return path


def _rounds(seconds: int, round_s: float) -> int:
    return max(1, round(seconds / round_s))


def make_plan(workload: str, seed: int, seconds: int,
              workdir: Path) -> Dict[str, Any]:
    """Write the workload's input files and return its operation list."""
    if workload == "exact-topk":
        files = {name: _write(name, seed, workdir) for name in EXACT_DATASETS}
        ops = [
            {"kind": f"truth:{name}",
             "argv": ["truth", str(files[name]), "--k", str(EXACT_K)]}
            for name in EXACT_DATASETS
        ]
        rounds = _rounds(seconds, EXACT_ROUND_S)
    elif workload == "budgeted-topk":
        files = {
            name: _write(name, seed, workdir) for name, _ in BUDGETED_OPS
        }
        ops = [
            {"kind": f"topk:{name}:m{m}",
             "argv": ["topk", str(files[name]), "--selector", "MMSD",
                      "--k", str(BUDGETED_K), "--m", str(m),
                      "--workers", "1"]}
            for name, m in BUDGETED_OPS
        ]
        rounds = _rounds(seconds, BUDGETED_ROUND_S)
    elif workload == "serve-stream":
        return _serve_plan(seed, seconds, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "rounds": rounds, "ops": ops}


def _serve_plan(seed: int, seconds: int, workdir: Path) -> Dict[str, Any]:
    """One client's closed-loop request schedule over the whole stream.

    After each ``advance`` (one closed window) it reads ``node`` for
    distinct nodes already present in that window's first snapshot, then
    ``topk`` for fresh k values, each sent twice so the repeat is a cache
    hit.  The first window's first snapshot is empty, so it gets no node
    reads (a node read there would be a different, trivial operation).
    """
    temporal = relabelled(SERVE_DATASET, seed)
    path = workdir / f"{SERVE_DATASET}.tsv"
    io.write_edge_stream(temporal, path)
    events = temporal.events()
    window = SERVE_CONFIG["batch_size"] * SERVE_CONFIG["checkpoint_every"]
    windows = -(-len(events) // window)
    rng = random.Random(f"serve:{seed}")
    requests: List[Dict[str, Any]] = []
    seen: set = set()
    for w in range(windows):
        requests.append({"kind": "advance", "verb": "advance", "args": {},
                         "window": w + 1})
        for ev in events[max(0, w - 1) * window:w * window]:
            seen.update(ev.endpoints())
        if seen:
            for u in rng.sample(sorted(seen), SERVE_NODE_READS):
                requests.append({"kind": "node", "verb": "node",
                                 "args": {"u": u}})
        for k in rng.sample(range(*SERVE_TOPK_K_RANGE), SERVE_TOPK_READS):
            for kind in ("topk", "topk-hit"):
                requests.append({"kind": kind, "verb": "topk",
                                 "args": {"k": k}})
    return {
        "workload": "serve-stream",
        "rounds": _rounds(seconds, SERVE_PASS_S),
        "stream": str(path),
        "config": SERVE_CONFIG,
        "advance_batches": SERVE_ADVANCE_BATCHES,
        "capacity": SERVE_CAPACITY,
        "setup_reps": SERVE_SETUP_REPS,
        "requests": requests,
    }
