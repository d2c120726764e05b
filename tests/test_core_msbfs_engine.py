"""The bit-plane ``msbfs`` ground-truth engine.

Three contracts:

* **Byte identity.**  ``msbfs``, ``csr`` and ``dict`` return the same
  histograms, and the same pairs in the same order, on all three entry
  points — across the 64-lane block boundaries, ties at the k-th Δ, k
  above the number of converging pairs, disconnected components, nodes
  that exist only at t2, and snapshot pairs with no inserted edge.
* **Work.**  Single-pass top-k runs exactly one plane sweep per snapshot
  and 64-source block, and never falls back to level rows or repairs.
* **Guard.**  A pair that breaks ``G_t1 ⊆ G_t2`` is rejected by the
  ``msbfs`` and ``csr`` engines even when validation is skipped.

The top-k results are also checked against an independent networkx
oracle, including ties at the k-th Δ.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.fastpairs as fastpairs
import repro.graph.csr as csr
import repro.graph.incremental as incremental
import repro.graph.msbfs as msbfs
from conftest import to_networkx
from repro.core.pairs import (
    ConvergingPair,
    canonical_pair,
    converging_pairs_at_threshold,
    delta_histogram,
    top_k_converging_pairs,
)
from repro.datasets import catalog
from repro.graph.graph import Graph

ENGINES = ("msbfs", "csr", "dict")
BLOCK_SIZES = (1, 2, 5, 63, 64, 65, 129)
SUPPRESS = [HealthCheck.too_slow, HealthCheck.data_too_large]


@st.composite
def snapshot_pair(draw):
    """A seeded insertion-only pair with shuffled node insertion orders."""
    n = draw(st.sampled_from(BLOCK_SIZES))
    t2_only = draw(st.integers(min_value=0, max_value=3))
    density = draw(st.sampled_from([0.5, 1.0, 1.5, 3.0]))
    inserted = draw(st.sampled_from([0.0, 0.1, 0.3]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    universe = n + t2_only
    edges = set()
    for _ in range(int(density * n)):
        u, v = rng.randrange(universe), rng.randrange(universe)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    labels = list(range(universe))
    rng.shuffle(labels)
    old = [
        e for e in sorted(edges)
        if e[1] < n and (not inserted or rng.random() >= inserted)
    ]
    g1 = Graph()
    order = list(range(n))
    rng.shuffle(order)
    for u in order:  # isolated t1 nodes are kept, in shuffled order
        g1.add_node(labels[u])
    for u, v in old:
        g1.add_edge(labels[u], labels[v])
    g2 = Graph()
    new = sorted(edges) if inserted else old
    for u, v in rng.sample(new, len(new)):
        g2.add_edge(labels[u], labels[v])
    for u in order:
        g2.add_node(labels[u])
    return g1, g2


def _agree(results):
    first = repr(results[0])
    for engine, got in zip(ENGINES[1:], results[1:]):
        assert repr(got) == first, engine


def nx_top_k(g1, g2, k):
    """Independent networkx ground truth with the library's tie-break."""
    import networkx as nx

    nx1, nx2 = to_networkx(g1), to_networkx(g2)
    pairs = []
    nodes = list(g1.nodes())
    for i, u in enumerate(nodes):
        d1 = nx.single_source_shortest_path_length(nx1, u)
        d2 = nx.single_source_shortest_path_length(nx2, u)
        for v in nodes[i + 1:]:
            if v in d1 and d1[v] - d2[v] > 0:
                cu, cv = canonical_pair(u, v)
                pairs.append(ConvergingPair(cu, cv, d1[v], d2[v]))
    pairs.sort(key=ConvergingPair.sort_key)
    return pairs[:k]


class TestByteIdentity:
    @settings(max_examples=60, deadline=None, suppress_health_check=SUPPRESS)
    @given(snapshot_pair())
    def test_histograms(self, pair):
        g1, g2 = pair
        hists = [delta_histogram(g1, g2, engine=e) for e in ENGINES]
        _agree([sorted(h.items()) for h in hists])

    @settings(max_examples=60, deadline=None, suppress_health_check=SUPPRESS)
    @given(snapshot_pair(), st.sampled_from([1, 2, 2.5, 3]))
    def test_pairs_at_threshold(self, pair, delta_min):
        g1, g2 = pair
        _agree([
            converging_pairs_at_threshold(g1, g2, delta_min, engine=e)
            for e in ENGINES
        ])

    @settings(max_examples=60, deadline=None, suppress_health_check=SUPPRESS)
    @given(snapshot_pair(), st.sampled_from([1, 2, 3, 7, 20, 10**6]))
    def test_top_k(self, pair, k):
        g1, g2 = pair
        _agree([top_k_converging_pairs(g1, g2, k, engine=e) for e in ENGINES])

    @settings(max_examples=40, deadline=None, suppress_health_check=SUPPRESS)
    @given(snapshot_pair(), st.sampled_from([1, 3, 12]))
    def test_top_k_matches_networkx(self, pair, k):
        g1, g2 = pair
        assert repr(top_k_converging_pairs(g1, g2, k)) == repr(
            nx_top_k(g1, g2, k)
        )

    def test_ties_at_the_kth_delta_and_k_beyond_the_positive_pairs(self):
        # Two disjoint 5-paths, each closed into a 5-cycle at t2: two
        # Δ = 3 pairs and four Δ = 1 pairs, every k cutting through a tie.
        g1, g2 = Graph(), Graph()
        for base in (0, 100):
            for i in range(4):
                g1.add_edge(base + i, base + i + 1)
                g2.add_edge(base + i, base + i + 1)
            g2.add_edge(base, base + 4)
        for k in range(1, 9):
            results = [
                top_k_converging_pairs(g1, g2, k, engine=e) for e in ENGINES
            ]
            _agree(results)
            assert results[0] == nx_top_k(g1, g2, k)
        assert len(top_k_converging_pairs(g1, g2, 8)) == 6

    def test_no_inserted_edges(self):
        g1 = Graph((i, i + 1) for i in range(70))
        assert top_k_converging_pairs(g1, g1.copy(), 5) == []
        assert delta_histogram(g1, g1.copy()) == Counter({0: 71 * 70 // 2})


def _relabelled_pair(name: str, seed: int):
    """Catalog snapshot pair at scale 0.5, node ids seed-permuted."""
    tg = catalog.load(name, scale=0.5)
    g1, g2 = tg.snapshot_pair(0.8, 1.0)
    nodes = sorted(g2.nodes())
    shuffled = list(nodes)
    random.Random(f"{name}:{seed}").shuffle(shuffled)
    mapping = dict(zip(nodes, shuffled))
    out = []
    for g in (g1, g2):
        h = Graph()
        for u in g.nodes():
            h.add_node(mapping[u])
        for u, v in g.edges():
            h.add_edge(mapping[u], mapping[v])
        out.append(h)
    return out


@pytest.mark.parametrize("name", ["internet", "actors", "facebook", "dblp"])
def test_catalog_datasets_match_the_dict_engine(name):
    g1, g2 = _relabelled_pair(name, seed=7)
    got = top_k_converging_pairs(g1, g2, 10, engine="msbfs")
    assert repr(got) == repr(top_k_converging_pairs(g1, g2, 10, engine="dict"))
    assert delta_histogram(g1, g2, engine="msbfs") == delta_histogram(
        g1, g2, engine="csr"
    )


class TestSweepCount:
    def _spy(self, monkeypatch):
        calls = []
        real = msbfs.msbfs_planes

        def planes(csr, src):
            calls.append((id(csr), len(src)))
            return real(csr, src)

        monkeypatch.setattr(fastpairs, "msbfs_planes", planes)

        def forbidden(*args, **kwargs):
            raise AssertionError("the msbfs engine unpacked rows or repaired")

        for module, name in (
            (incremental, "repair_levels"), (csr, "bfs_levels"),
            (fastpairs, "msbfs_levels"), (msbfs, "iter_msbfs_rows"),
            (msbfs, "_msbfs_block"),
        ):
            monkeypatch.setattr(module, name, forbidden)
        return calls

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 200])
    def test_single_pass_top_k_sweeps_once_per_block_and_snapshot(
        self, monkeypatch, n
    ):
        g1 = Graph((i, i + 1) for i in range(n - 1))
        g1.add_node(0)
        g2 = g1.copy()
        g2.add_edge(0, n + 5)
        if n > 1:
            g2.add_edge(n + 5, n - 1)
        calls = self._spy(monkeypatch)
        top_k_converging_pairs(g1, g2, 10)
        blocks = math.ceil(n / 64)
        assert len(calls) == 2 * blocks
        per_csr = Counter(csr for csr, _ in calls)
        assert sorted(per_csr.values()) == [blocks, blocks]
        assert sum(size for _, size in calls) == 2 * n

    def test_histogram_and_threshold_also_sweep_once(self, monkeypatch):
        g1 = Graph((i, i + 1) for i in range(99))
        g2 = g1.copy()
        g2.add_edge(0, 99)
        calls = self._spy(monkeypatch)
        delta_histogram(g1, g2)
        assert len(calls) == 2 * 2
        calls.clear()
        converging_pairs_at_threshold(g1, g2, 3)
        assert len(calls) == 2 * 2


class TestSubgraphGuard:
    @staticmethod
    def _entry_points(g1, g2):
        for engine in ("msbfs", "csr"):
            yield lambda e=engine: delta_histogram(
                g1, g2, validate=False, engine=e
            )
            yield lambda e=engine: converging_pairs_at_threshold(
                g1, g2, 1, validate=False, engine=e
            )
            yield lambda e=engine: top_k_converging_pairs(
                g1, g2, 3, validate=False, engine=e
            )

    def test_deleted_edge_is_rejected(self):
        g1 = Graph((i, i + 1) for i in range(5))
        g2 = Graph((i, i + 1) for i in range(5) if i != 2)
        g2.add_edge(0, 5)
        for call in self._entry_points(g1, g2):
            with pytest.raises(ValueError, match="negative distance change"):
                call()

    def test_node_unreached_at_t2_is_rejected(self):
        # 2 is reached from 0 at t1 depth 2, but is isolated at t2: no t2
        # plane holds it at any depth.
        g1 = Graph([(0, 1), (1, 2)])
        g2 = Graph([(0, 1)])
        g2.add_node(2)
        g2.add_edge(0, 3)
        for call in self._entry_points(g1, g2):
            with pytest.raises(ValueError, match="negative distance change"):
                call()

    def test_valid_pair_passes_the_guard(self):
        g1 = Graph((i, i + 1) for i in range(5))
        g2 = g1.copy()
        g2.add_edge(0, 5)
        assert top_k_converging_pairs(g1, g2, 1, validate=False)[0].pair == (
            0, 5
        )
