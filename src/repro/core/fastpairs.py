"""Vectorised (CSR) ground-truth engines for unweighted snapshot pairs.

The streaming ground truth in :mod:`repro.core.pairs` spends most of its
time in the per-pair Python loop comparing the two distance maps.  For
unweighted graphs the comparison vectorises, and this module holds the
two engines that do it:

* ``msbfs`` — the bit-plane engine (:func:`msbfs_top_k_rows`,
  :func:`msbfs_delta_histogram`, :func:`msbfs_pairs_at_threshold`).
  One 64-lane multi-source sweep per snapshot and block of t1 sources;
  Δ is counted on the per-level lane words with ``popcount``, and only
  the words that can clear the threshold are ever unpacked into pairs.
  Top-k is a single pass with a running k-th-Δ threshold.
* ``csr`` — the level-row engine (:func:`csr_delta_histogram`,
  :func:`csr_pairs_at_threshold`): unpacked level arrays per source, a
  subtraction and a bincount, in two passes.  It is kept as the
  independent reference the differential tests compare against.

:func:`repro.core.pairs.delta_histogram`,
:func:`repro.core.pairs.converging_pairs_at_threshold` and
:func:`repro.core.pairs.top_k_converging_pairs` dispatch here
(``engine="auto"`` resolves to ``msbfs`` for unweighted snapshots); the
equivalence tests assert all engines agree exactly, pair for pair.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, UNREACHED
from repro.graph.graph import Graph
from repro.graph.msbfs import (
    DEFAULT_BATCH,
    WORD_BITS,
    msbfs_levels,
    msbfs_planes,
    unpack_lanes,
)


def _csr_views(g1: Graph, g2: Graph) -> Tuple[CSRGraph, CSRGraph, np.ndarray]:
    """CSR views of both snapshots plus the V1 -> csr2-index map.

    ``csr2`` keeps the full ``G_t2`` (paths may route through new
    nodes); the returned map aligns its level arrays with ``csr1``'s
    node order.
    """
    csr1 = CSRGraph.from_graph(g1)
    csr2 = CSRGraph.from_graph(g2)
    mapping = np.array([csr2.index[u] for u in csr1.nodes], dtype=np.int64)
    return csr1, csr2, mapping


def _row_stream(
    g1: Graph, g2: Graph
) -> Tuple[Sequence[object], Iterator[Tuple[int, np.ndarray, np.ndarray]]]:
    """t1 node order plus a ``(i, lv1, lv2)`` stream over every t1 source.

    Both level arrays are aligned to ``csr1``'s node order and freshly
    allocated (consumers may mutate them — :func:`iter_msbfs_rows` and
    :func:`msbfs_levels` rows honour the same contract).  Both snapshots
    advance through the bit-parallel multi-source kernel, 64 traversals
    per frontier sweep.
    """
    csr1, csr2, mapping = _csr_views(g1, g2)

    def recomputed() -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        n = csr1.num_nodes
        for start in range(0, n, DEFAULT_BATCH):
            stop = min(start + DEFAULT_BATCH, n)
            block1 = msbfs_levels(csr1, range(start, stop))
            block2 = msbfs_levels(csr2, mapping[start:stop])
            for j in range(stop - start):
                yield start + j, block1[j], block2[j][mapping]

    return csr1.nodes, recomputed()


def _reached_deltas(lv1: np.ndarray, lv2: np.ndarray) -> np.ndarray:
    """Δ of every t1-reached entry, refusing rows that break ``G_t1 ⊆ G_t2``.

    A node reached at t1 must be reached at t2 no deeper; a t2 level of
    ``UNREACHED`` would otherwise read as ``Δ = d1 + 1``.
    """
    reached = lv1 != UNREACHED
    r1, r2 = lv1[reached], lv2[reached]
    if np.any((r2 == UNREACHED) | (r2 > r1)):
        raise ValueError(
            "negative distance change: G_t1 is not a subgraph of "
            "G_t2 (run check_snapshot_pair for details)"
        )
    return r1 - r2


def csr_delta_histogram(g1: Graph, g2: Graph) -> Counter:
    """Exact Δ histogram over connected t1 pairs (unweighted fast path)."""
    _, rows = _row_stream(g1, g2)
    hist: Counter = Counter()
    for i, lv1, lv2 in rows:
        # reprolint: disable=R011 -- _row_stream rows are freshly allocated per source (documented), so in-place masking saves an O(n) copy per row
        lv1[: i + 1] = UNREACHED  # count each unordered pair once
        deltas = _reached_deltas(lv1, lv2)
        if deltas.size:
            counts = np.bincount(deltas)
            # flatnonzero covers the 0 bin too when Δ = 0 pairs exist.
            for d in np.flatnonzero(counts):
                hist[int(d)] += int(counts[d])
    return hist


def csr_pairs_at_threshold(
    g1: Graph, g2: Graph, delta_min: float
) -> List[Tuple[object, object, int, int]]:
    """All ``(u, v, d1, d2)`` rows with ``Δ >= delta_min`` (u-index < v-index).

    Returned as raw tuples; :mod:`repro.core.pairs` wraps them into
    canonical :class:`~repro.core.pairs.ConvergingPair` objects so all
    engines share one construction path.
    """
    nodes, stream = _row_stream(g1, g2)
    rows: List[Tuple[object, object, int, int]] = []
    for i, lv1, lv2 in stream:
        # reprolint: disable=R011 -- _row_stream rows are freshly allocated per source (documented), so in-place masking saves an O(n) copy per row
        lv1[: i + 1] = UNREACHED
        reached = np.flatnonzero(lv1 != UNREACHED)
        hits = reached[_reached_deltas(lv1, lv2) >= delta_min]
        u = nodes[i]
        for j in hits:
            rows.append((u, nodes[j], int(lv1[j]), int(lv2[j])))
    return rows


# ----------------------------------------------------------------------
# The bit-plane engine (``engine="msbfs"``)
# ----------------------------------------------------------------------
_ALL_LANES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Raw ``(u, v, d1, d2)`` rows as column arrays: t1 source index, t1
#: target index, and both distances.
_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class _DeltaBlock:
    """Δ of one block of ≤ 64 consecutive t1 sources, held in bit space.

    ``levels`` lists ``(d1, nodes, w)``: the t1 nodes whose fresh lane
    word at depth ``d1`` is non-zero once masked to the lanes that *own*
    the pair (source index < node index, so each unordered pair is seen
    once), and those masked words.  ``p2[j, d2]`` is the t2 fresh lane
    word of t1 node ``j`` at depth ``d2``.  Pair (lane, j) has
    ``Δ = d1 − d2`` exactly when its bit is set in both ``w`` and
    ``p2[j, d2]``, so ``#{Δ = δ} = Σ_d1 popcount(w & p2[:, d1 − δ])``.
    """

    def __init__(
        self, start: int, levels: List[Tuple[int, np.ndarray, np.ndarray]],
        p2: np.ndarray,
    ) -> None:
        self.start = start
        self.levels = levels
        self.p2 = p2

    def histogram(self) -> np.ndarray:
        """Pair counts indexed by Δ (0 included) for this block."""
        top = self.levels[-1][0] if self.levels else 0
        counts = np.zeros(top + 1, dtype=np.int64)
        for d1, nodes, w in self.levels:
            # Columns d2 < d1 are the positive Δ; every other owned bit
            # sits at d2 = d1 (the subgraph check guarantees it).
            hits = np.bitwise_count(self.p2[nodes, :d1] & w[:, None])
            positive = hits.sum(axis=0, dtype=np.int64)
            counts[d1 - np.arange(positive.size)] += positive
            counts[0] += int(np.bitwise_count(w).sum()) - int(positive.sum())
        return counts

    def pairs(self, theta: int) -> _Columns:
        """Column arrays of the pairs with ``Δ >= theta``, index-ordered."""
        parts: List[_Columns] = []
        for d1, nodes, w in self.levels:
            if d1 < theta:
                continue
            hits = self.p2[nodes, : d1 - theta + 1] & w[:, None]
            pos, d2 = np.nonzero(hits)
            if not pos.size:
                continue
            row, lane = unpack_lanes(hits[pos, d2])
            parts.append((
                self.start + lane, nodes[pos[row]],
                np.full(row.size, d1), d2[row],
            ))
        return _sorted_columns(parts)


def _sorted_columns(parts: Sequence[_Columns]) -> _Columns:
    """Concatenate column chunks, ordered by (source, target) index."""
    if not parts:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty, empty
    src, tgt, d1, d2 = (np.concatenate(col) for col in zip(*parts))
    order = np.lexsort((tgt, src))
    return src[order], tgt[order], d1[order], d2[order]


def _at_least(columns: _Columns, theta: int) -> _Columns:
    """The rows of ``columns`` with ``Δ >= theta``."""
    src, tgt, d1, d2 = columns
    keep = d1 - d2 >= theta
    return src[keep], tgt[keep], d1[keep], d2[keep]


def _delta_blocks(
    g1: Graph, g2: Graph
) -> Tuple[Sequence[object], Iterator[_DeltaBlock]]:
    """t1 node order plus the :class:`_DeltaBlock` of every source block.

    Each block costs one :func:`msbfs_planes` sweep per snapshot over
    the same 64 lanes.  The t2 planes are remapped onto t1's node order
    (nodes that exist only at t2 are never pair endpoints, so they drop
    out), and the owned t1 words are checked against them: every pair
    reached at t1 depth ``d1`` must be reached at t2 by depth ``d1``,
    or ``G_t1`` is not a subgraph of ``G_t2``.
    """
    csr1, csr2, mapping = _csr_views(g1, g2)
    n1 = csr1.num_nodes
    to_t1 = np.full(csr2.num_nodes, -1, dtype=np.int64)
    to_t1[mapping] = np.arange(n1)

    def blocks() -> Iterator[_DeltaBlock]:
        for start in range(0, n1, WORD_BITS):
            stop = min(start + WORD_BITS, n1)
            planes1 = msbfs_planes(csr1, np.arange(start, stop))
            planes2 = msbfs_planes(csr2, mapping[start:stop])
            p2 = np.zeros((n1, len(planes2)), dtype=np.uint64)
            for d2, (reached, fresh) in enumerate(planes2):
                index = to_t1[reached]
                kept = index >= 0
                p2[index[kept], d2] = fresh[kept, 0]
            # Lane l (source start + l) owns the pairs with nodes above
            # it: a node j inside the block keeps lanes < j − start.
            owned = np.zeros(n1, dtype=np.uint64)
            owned[stop:] = _ALL_LANES
            shift = np.arange(1, stop - start, dtype=np.uint64)
            owned[start + 1 : stop] = (np.uint64(1) << shift) - np.uint64(1)
            reached2 = np.bitwise_or.accumulate(p2, axis=1)
            depth2 = p2.shape[1] - 1
            levels: List[Tuple[int, np.ndarray, np.ndarray]] = []
            for d1 in range(1, len(planes1)):
                reached, fresh = planes1[d1]
                w = fresh[:, 0] & owned[reached]
                keep = w != 0
                nodes, w = reached[keep], w[keep]
                if not nodes.size:
                    continue
                if np.any(w & ~reached2[nodes, min(d1, depth2)]):
                    raise ValueError(
                        "negative distance change: G_t1 is not a subgraph "
                        "of G_t2 (run check_snapshot_pair for details)"
                    )
                levels.append((d1, nodes, w))
            yield _DeltaBlock(start, levels, p2)

    return csr1.nodes, blocks()


def _rows(
    nodes: Sequence[object], columns: _Columns
) -> List[Tuple[object, object, int, int]]:
    src, tgt, d1, d2 = (col.tolist() for col in columns)
    return [
        (nodes[i], nodes[j], a, b) for i, j, a, b in zip(src, tgt, d1, d2)
    ]


def _accumulate(hist: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``hist + counts`` for Δ-indexed count arrays of any lengths."""
    if counts.size > hist.size:
        hist = np.pad(hist, (0, counts.size - hist.size))
    hist[: counts.size] += counts
    return hist


def msbfs_delta_histogram(g1: Graph, g2: Graph) -> Counter:
    """Exact Δ histogram over connected t1 pairs, counted in bit space."""
    _, blocks = _delta_blocks(g1, g2)
    hist = np.zeros(1, dtype=np.int64)
    for block in blocks:
        hist = _accumulate(hist, block.histogram())
    return Counter({int(d): int(hist[d]) for d in np.flatnonzero(hist)})


def msbfs_pairs_at_threshold(
    g1: Graph, g2: Graph, delta_min: float
) -> List[Tuple[object, object, int, int]]:
    """All ``(u, v, d1, d2)`` rows with ``Δ >= delta_min`` (u-index < v-index).

    Same rows, in the same order, as :func:`csr_pairs_at_threshold`.
    """
    # Δ is integral on unweighted graphs: a fractional threshold rounds
    # up to the first achievable one.
    theta = max(1, math.ceil(delta_min))
    nodes, blocks = _delta_blocks(g1, g2)
    return _rows(nodes, _sorted_columns([b.pairs(theta) for b in blocks]))


def _kth_delta(hist: np.ndarray, k: int) -> int:
    """The largest positive δ with at least k pairs at Δ >= δ, else 1."""
    at_least = np.cumsum(hist[::-1])[::-1]
    qualified = np.flatnonzero(at_least[1:] >= k)
    return int(qualified[-1]) + 1 if qualified.size else 1


def msbfs_top_k_rows(
    g1: Graph, g2: Graph, k: int
) -> List[Tuple[object, object, int, int]]:
    """Every ``(u, v, d1, d2)`` row with Δ at or above the exact k-th Δ.

    One pass: each block's histogram joins the running one, whose k-th
    positive Δ can only grow towards the final k-th Δ, so unpacking each
    block at the running threshold collects every row the final
    threshold keeps.  The rows are exactly those of
    :func:`csr_pairs_at_threshold` at the two-pass threshold, in the same
    order; the caller sorts by ``(−Δ, repr)`` and truncates to k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    nodes, blocks = _delta_blocks(g1, g2)
    hist = np.zeros(1, dtype=np.int64)
    theta = 1
    kept: List[_Columns] = []
    size, compact_at = 0, max(4 * k, 4096)
    for block in blocks:
        hist = _accumulate(hist, block.histogram())
        theta = _kth_delta(hist, k)
        found = block.pairs(theta)
        kept.append(found)
        size += found[0].size
        if size > compact_at:
            kept = [_at_least(_sorted_columns(kept), theta)]
            size = kept[0][0].size
            compact_at = max(compact_at, 2 * size)
    return _rows(nodes, _at_least(_sorted_columns(kept), theta))

