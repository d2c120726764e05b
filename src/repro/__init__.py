"""repro — Identifying Converging Pairs of Nodes on a Budget (EDBT 2015).

A complete reproduction of Lazaridou, Pitoura, Semertzidis & Tsaparas:
given two snapshots of a growing graph, find the top-k pairs of nodes
whose shortest-path distance decreased the most, using only a fixed
budget of single-source shortest-path computations.

Quickstart
----------
>>> from repro import datasets, find_top_k_converging_pairs, get_selector
>>> tg = datasets.load("facebook", scale=0.2)
>>> g1, g2 = datasets.eval_snapshots(tg)
>>> result = find_top_k_converging_pairs(
...     g1, g2, k=20, m=30, selector=get_selector("MMSD"), seed=0)
>>> len(result.pairs) <= 20
True

Package layout
--------------
* :mod:`repro.graph` — graph substrate (static graphs, temporal streams,
  BFS/Dijkstra, components, APSP, landmarks, betweenness).
* :mod:`repro.core` — the paper's contribution: converging pairs, the
  pair graph, greedy covers, the SSSP budget, Algorithm 1, metrics.
* :mod:`repro.selection` — all candidate-selection algorithms of
  Section 4 under their paper names.
* :mod:`repro.ml` — from-scratch logistic regression, features, and the
  local/global classifier training pipelines.
* :mod:`repro.datasets` — synthetic analogues of the paper's four
  datasets plus edge-list IO.
* :mod:`repro.experiments` — the harness that regenerates every table
  and figure of the evaluation section.
"""

import importlib
from types import ModuleType

from repro import core, datasets, graph, selection
from repro.core import (
    BudgetExceededError,
    ConvergingPair,
    PairGraph,
    SPBudget,
    TopKResult,
    candidate_pair_coverage,
    converging_pairs_at_threshold,
    coverage,
    find_top_k_converging_pairs,
    greedy_max_coverage,
    greedy_vertex_cover,
    top_k_converging_pairs,
)
from repro.graph import Graph, TemporalGraph
from repro.selection import (
    SINGLE_FEATURE_SELECTORS,
    available_selectors,
    get_selector,
)

__version__ = "1.0.0"


def __getattr__(name: str) -> ModuleType:
    """Import :mod:`repro.ml` on first use (PEP 562).

    It pulls in ``scipy.optimize``, which no CLI command, worker or
    service path needs until a classifier is trained or loaded.
    """
    if name == "ml":
        return importlib.import_module("repro.ml")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "core",
    "datasets",
    "graph",
    "ml",
    "selection",
    "BudgetExceededError",
    "ConvergingPair",
    "PairGraph",
    "SPBudget",
    "TopKResult",
    "candidate_pair_coverage",
    "converging_pairs_at_threshold",
    "coverage",
    "find_top_k_converging_pairs",
    "greedy_max_coverage",
    "greedy_vertex_cover",
    "top_k_converging_pairs",
    "Graph",
    "TemporalGraph",
    "SINGLE_FEATURE_SELECTORS",
    "available_selectors",
    "get_selector",
    "__version__",
]
