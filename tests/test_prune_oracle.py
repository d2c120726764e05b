"""Pruning-equivalence differential harness.

The Δ-aware pruning layer promises two things: byte-identical output
across the whole engine matrix (prune × engine × worker count ×
CLI), and an untouched budget ledger — a skipped or level-cut traversal
charges exactly like the unpruned traversal it replaces, because the
paper's budget counts SSSP *results obtained*, not edges scanned.  This
suite pins both, cell by cell.
"""

from __future__ import annotations

import pytest

from conftest import path_graph, random_snapshot_pair
from repro.cli import main
from repro.core.algorithm import find_top_k_converging_pairs
from repro.core.pairs import (
    converging_pairs_at_threshold,
    top_k_converging_pairs,
)
from repro.graph.graph import Graph
from repro.selection import get_selector

WORKER_COUNTS = (1, 2, 4)


# ----------------------------------------------------------------------
# Ground-truth engines: prune × engine matrix
# ----------------------------------------------------------------------
class TestGroundTruthMatrix:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_top_k_identical_across_the_matrix(self, seed, k):
        g1, g2 = random_snapshot_pair(num_nodes=50, num_edges=120, seed=seed)
        ref = top_k_converging_pairs(g1, g2, k)
        for engine in ("msbfs", "csr"):
            for prune in (False, True):
                assert (
                    top_k_converging_pairs(
                        g1, g2, k, engine=engine, prune=prune
                    )
                    == ref
                ), f"engine={engine} prune={prune}"

    @pytest.mark.parametrize("seed", [4, 5])
    @pytest.mark.parametrize("delta_min", [1, 2, 2.5])
    def test_threshold_identical_across_the_matrix(self, seed, delta_min):
        g1, g2 = random_snapshot_pair(num_nodes=50, num_edges=120, seed=seed)
        ref = converging_pairs_at_threshold(g1, g2, delta_min)
        for engine in ("msbfs", "csr"):
            for prune in (False, True):
                assert (
                    converging_pairs_at_threshold(
                        g1, g2, delta_min, engine=engine, prune=prune
                    )
                    == ref
                ), f"engine={engine} prune={prune}"

    def test_no_inserted_edges_fully_pruned_run(self):
        # Identical snapshots: every source is provably skippable, so the
        # pruned pass does no t2 work at all — and must still agree.
        g = path_graph(30)
        assert top_k_converging_pairs(g, g.copy(), 5, prune=True) == []
        assert top_k_converging_pairs(g, g.copy(), 5) == []


# ----------------------------------------------------------------------
# Budgeted path: prune × workers, pairs and ledger identical
# ----------------------------------------------------------------------
def _outcome(result):
    return (
        result.pairs,
        result.candidates,
        result.budget.spent,
        result.budget.by_phase(),
    )


class TestBudgetedMatrix:
    @pytest.mark.parametrize("selector_name", ["Degree", "MMSD", "SumDiff"])
    def test_identical_across_prune_and_worker_counts(self, selector_name):
        g1, g2 = random_snapshot_pair(num_nodes=60, num_edges=140, seed=6)
        outcomes = set()
        for prune in (False, True):
            for workers in WORKER_COUNTS:
                result = find_top_k_converging_pairs(
                    g1, g2, k=12, m=10,
                    selector=get_selector(selector_name),
                    seed=11, workers=workers, prune=prune,
                )
                outcomes.add(repr(_outcome(result)))
        assert len(outcomes) == 1

    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_small_k_prunes_hard_but_stays_identical(self, k):
        # Small k fills the tracker fast, maximising skips/cuts — the
        # regime where an unsound bound would actually bite.
        g1, g2 = random_snapshot_pair(num_nodes=60, num_edges=150, seed=7)
        base = find_top_k_converging_pairs(
            g1, g2, k=k, m=12, selector=get_selector("Degree"), seed=5
        )
        pruned = find_top_k_converging_pairs(
            g1, g2, k=k, m=12, selector=get_selector("Degree"), seed=5,
            prune=True,
        )
        assert _outcome(pruned) == _outcome(base)

    def test_skipped_traversals_still_charge_the_ledger(self):
        # Identical snapshots: with prune=True every candidate's t2
        # traversal is skipped outright, yet the ledger must not move by
        # a single charge — the budget counts SSSP results, and the
        # skipped traversal's result (all Δ ≤ 0) was still obtained.
        g = path_graph(40)
        base = find_top_k_converging_pairs(
            g, g.copy(), k=5, m=8, selector=get_selector("Degree"), seed=1
        )
        for workers in WORKER_COUNTS:
            pruned = find_top_k_converging_pairs(
                g, g.copy(), k=5, m=8, selector=get_selector("Degree"),
                seed=1, workers=workers, prune=True,
            )
            assert pruned.pairs == [] == base.pairs
            assert pruned.budget.spent == base.budget.spent
            assert pruned.budget.by_phase() == base.budget.by_phase()

    def test_cached_selector_rows_stay_free_under_prune(self):
        # Selectors that pre-pay rows (MMSD caches d1/d2 rows during
        # generation) keep them free in phase 2; pruning must not
        # re-charge or un-charge them.
        g1, g2 = random_snapshot_pair(num_nodes=50, num_edges=120, seed=8)
        base = find_top_k_converging_pairs(
            g1, g2, k=6, m=10, selector=get_selector("MMSD"), seed=2
        )
        pruned = find_top_k_converging_pairs(
            g1, g2, k=6, m=10, selector=get_selector("MMSD"), seed=2,
            prune=True,
        )
        assert pruned.budget.by_phase() == base.budget.by_phase()
        assert pruned.budget.spent == base.budget.spent
        assert pruned.pairs == base.pairs

    def test_prune_rejects_weighted_snapshots(self):
        g1 = Graph()
        g1.add_edge("a", "b", weight=2.0)
        g2 = g1.copy()
        g2.add_edge("b", "c", weight=3.0)
        with pytest.raises(ValueError, match="prune"):
            find_top_k_converging_pairs(
                g1, g2, k=2, m=2, selector=get_selector("Degree"),
                prune=True,
            )


# ----------------------------------------------------------------------
# CLI truth path: --prune output is byte-identical
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("prune-cli") / "stream.tsv"
    rc = main(["generate", "facebook", "--scale", "0.2",
               "--out", str(path)])
    assert rc == 0
    return path


class TestCLIByteIdentity:
    @pytest.mark.parametrize("engine", ["auto", "msbfs", "csr"])
    def test_truth_top_k_identical(self, engine, stream_path, capsys):
        capsys.readouterr()
        outputs = {}
        for flags in ((), ("--prune",)):
            rc = main(["truth", str(stream_path), "--k", "15",
                       "--engine", engine, *flags])
            assert rc == 0
            outputs[flags] = capsys.readouterr().out
        assert outputs[("--prune",)] == outputs[()]

    def test_truth_threshold_identical(self, stream_path, capsys):
        capsys.readouterr()
        outputs = {}
        for flags in ((), ("--prune",)):
            rc = main(["truth", str(stream_path), "--delta-offset", "2",
                       *flags])
            assert rc == 0
            outputs[flags] = capsys.readouterr().out
        assert outputs[("--prune",)] == outputs[()]

    def test_prune_with_dict_engine_is_a_usage_error(
        self, stream_path, capsys
    ):
        rc = main(["truth", str(stream_path), "--k", "5",
                   "--engine", "dict", "--prune"])
        assert rc == 2
        assert "--prune" in capsys.readouterr().err
