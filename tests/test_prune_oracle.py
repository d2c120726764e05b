"""Pair-pruning differential harness.

Two places drop pairs before ranking, and both promise byte-identical
output.  The exact engines (``msbfs``, ``csr``, ``dict``) only unpack
or collect pairs that can clear the k-th Δ, and must agree with each
other cell by cell, library and CLI alike.  Algorithm 1's CSR scoring
stores a pair only when its Δ is at or above the running k-th Δ; its
pairs and budget ledger must equal the unfiltered dict scoring path at
every worker count, because the paper's budget counts SSSP *results
obtained*, which the filter never changes.
"""

from __future__ import annotations

import pytest

from conftest import path_graph, random_snapshot_pair
from repro.cli import main
from repro.core import algorithm as alg
from repro.core.algorithm import find_top_k_converging_pairs
from repro.core.pairs import (
    converging_pairs_at_threshold,
    top_k_converging_pairs,
)
from repro.selection import get_selector

WORKER_COUNTS = (1, 2, 4)
SELECTORS = ("Degree", "MMSD", "SumDiff")


# ----------------------------------------------------------------------
# Ground-truth engines
# ----------------------------------------------------------------------
class TestGroundTruthMatrix:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [1, 5, 25])
    def test_top_k_identical_across_the_matrix(self, seed, k):
        g1, g2 = random_snapshot_pair(num_nodes=50, num_edges=120, seed=seed)
        ref = top_k_converging_pairs(g1, g2, k, engine="dict")
        for engine in ("auto", "msbfs", "csr"):
            assert (
                top_k_converging_pairs(g1, g2, k, engine=engine) == ref
            ), f"engine={engine}"

    @pytest.mark.parametrize("seed", [4, 5])
    @pytest.mark.parametrize("delta_min", [1, 2, 2.5])
    def test_threshold_identical_across_the_matrix(self, seed, delta_min):
        g1, g2 = random_snapshot_pair(num_nodes=50, num_edges=120, seed=seed)
        ref = converging_pairs_at_threshold(g1, g2, delta_min, engine="dict")
        for engine in ("auto", "msbfs", "csr"):
            assert (
                converging_pairs_at_threshold(
                    g1, g2, delta_min, engine=engine
                )
                == ref
            ), f"engine={engine}"


# ----------------------------------------------------------------------
# Budgeted path: filtered CSR scoring × workers vs the dict reference
# ----------------------------------------------------------------------
def _outcome(result):
    return repr((
        result.pairs,
        result.candidates,
        result.budget.spent,
        result.budget.by_phase(),
    ))


def _run(monkeypatch, g1, g2, *, unfiltered=False, workers=1, **kwargs):
    """One Algorithm 1 run; ``unfiltered`` scores on the dict path."""
    with monkeypatch.context() as patch:
        if unfiltered:
            patch.setattr(
                alg, "_score_candidates_csr", alg._score_candidates_dict
            )
        return _outcome(
            find_top_k_converging_pairs(g1, g2, workers=workers, **kwargs)
        )


class TestBudgetedMatrix:
    @pytest.mark.parametrize("selector_name", SELECTORS)
    def test_identical_across_prune_and_worker_counts(
        self, monkeypatch, selector_name
    ):
        g1, g2 = random_snapshot_pair(num_nodes=60, num_edges=140, seed=6)
        kwargs = dict(k=12, m=10, selector=get_selector(selector_name),
                      seed=11)
        ref = _run(monkeypatch, g1, g2, unfiltered=True, **kwargs)
        for workers in WORKER_COUNTS:
            assert _run(monkeypatch, g1, g2, workers=workers, **kwargs) == ref

    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_small_k_prunes_hard_but_stays_identical(self, monkeypatch, k):
        # Small k fills the running k-th fast, so the filter drops the
        # most pairs — the regime where an over-eager threshold would
        # actually bite.
        g1, g2 = random_snapshot_pair(num_nodes=60, num_edges=150, seed=7)
        for name in SELECTORS:
            kwargs = dict(k=k, m=12, selector=get_selector(name), seed=5)
            ref = _run(monkeypatch, g1, g2, unfiltered=True, **kwargs)
            for workers in WORKER_COUNTS:
                got = _run(monkeypatch, g1, g2, workers=workers, **kwargs)
                assert got == ref, f"selector={name} workers={workers}"

    def test_no_converging_pairs_still_charge_the_ledger(self, monkeypatch):
        # Identical snapshots: nothing clears the threshold, so nothing
        # is stored, yet every fresh row was still obtained and charged.
        g = path_graph(40)
        kwargs = dict(k=5, m=8, selector=get_selector("Degree"), seed=1)
        ref = _run(monkeypatch, g, g.copy(), unfiltered=True, **kwargs)
        for workers in WORKER_COUNTS:
            assert _run(
                monkeypatch, g, g.copy(), workers=workers, **kwargs
            ) == ref

    def test_cached_selector_rows_stay_free_under_prune(self, monkeypatch):
        # Selectors that pre-pay rows (MMSD caches d1/d2 rows during
        # generation) keep them free in phase 2; the filter must not
        # re-charge or un-charge them.
        g1, g2 = random_snapshot_pair(num_nodes=50, num_edges=120, seed=8)
        kwargs = dict(k=6, m=10, selector=get_selector("MMSD"), seed=2)
        assert _run(monkeypatch, g1, g2, **kwargs) == _run(
            monkeypatch, g1, g2, unfiltered=True, **kwargs
        )


# ----------------------------------------------------------------------
# CLI truth path: every engine prints the same bytes
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def stream_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("prune-cli") / "stream.tsv"
    rc = main(["generate", "facebook", "--scale", "0.2",
               "--out", str(path)])
    assert rc == 0
    return path


def _truth(capsys, *argv):
    capsys.readouterr()
    assert main(["truth", *argv]) == 0
    return capsys.readouterr().out


class TestCLIByteIdentity:
    @pytest.mark.parametrize("engine", ["auto", "msbfs", "csr"])
    def test_truth_top_k_identical(self, engine, stream_path, capsys):
        args = (str(stream_path), "--k", "15")
        assert _truth(capsys, *args, "--engine", engine) == _truth(
            capsys, *args, "--engine", "dict"
        )

    def test_truth_threshold_identical(self, stream_path, capsys):
        args = (str(stream_path), "--delta-offset", "2")
        ref = _truth(capsys, *args, "--engine", "dict")
        for engine in ("auto", "msbfs", "csr"):
            assert _truth(capsys, *args, "--engine", engine) == ref, engine

    def test_prune_with_dict_engine_is_a_usage_error(
        self, stream_path, capsys
    ):
        # The pruned traversals are gone, so is their flag: argparse
        # rejects it under every engine.
        for engine in ("auto", "msbfs", "csr", "dict"):
            with pytest.raises(SystemExit) as exc:
                main(["truth", str(stream_path), "--k", "5",
                      "--engine", engine, "--prune"])
            assert exc.value.code == 2
            assert "--prune" in capsys.readouterr().err

