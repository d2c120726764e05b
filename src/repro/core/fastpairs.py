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
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, UNREACHED, bfs_levels
from repro.graph.graph import Graph
from repro.graph.incremental import SnapshotDelta, repair_levels
from repro.graph.msbfs import (
    DEFAULT_BATCH,
    WORD_BITS,
    iter_msbfs_rows,
    msbfs_levels,
    msbfs_planes,
    unpack_lanes,
)
from repro.graph.prune import (
    KthTracker,
    PrunePlan,
    PruneStats,
    bounded_bfs_levels,
    source_bound,
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


def csr_delta_histogram(g1: Graph, g2: Graph) -> Counter:
    """Exact Δ histogram over connected t1 pairs (unweighted fast path)."""
    _, rows = _row_stream(g1, g2)
    hist: Counter = Counter()
    for i, lv1, lv2 in rows:
        # reprolint: disable=R011 -- _row_stream rows are freshly allocated per source (documented), so in-place masking saves an O(n) copy per row
        lv1[: i + 1] = UNREACHED  # count each unordered pair once
        reached = lv1 != UNREACHED
        deltas = lv1[reached] - lv2[reached]
        if deltas.size:
            if deltas.min() < 0:
                raise ValueError(
                    "negative distance change: G_t1 is not a subgraph of "
                    "G_t2 (run check_snapshot_pair for details)"
                )
            counts = np.bincount(deltas)
            # flatnonzero covers the 0 bin too when Δ = 0 pairs exist.
            for d in np.flatnonzero(counts):
                hist[int(d)] += int(counts[d])
    return hist


def csr_pairs_at_threshold(
    g1: Graph,
    g2: Graph,
    delta_min: float,
    incremental: bool = False,
    prune: bool = False,
    stats: Optional[PruneStats] = None,
) -> List[Tuple[object, object, int, int]]:
    """All ``(u, v, d1, d2)`` rows with ``Δ >= delta_min`` (u-index < v-index).

    Returned as raw tuples; :mod:`repro.core.pairs` wraps them into
    canonical :class:`~repro.core.pairs.ConvergingPair` objects so both
    engines share one construction path.

    ``prune=True`` applies the static Δ-bound from
    :mod:`repro.graph.prune` at threshold ``θ = ⌈delta_min⌉``: sources
    whose bound falls below ``θ`` skip their t2 traversal entirely, and
    surviving traversals are cut at depth ``ecc1 − θ``.  The returned
    rows are identical, in identical order; ``stats`` (when given)
    receives the skip/cut counters.  ``incremental`` picks the pruned
    pass's t2 traversal: a repair of the t1 row (``True``) or a
    depth-limited BFS (``False``); the unpruned pass ignores it.
    """
    if prune:
        return _pruned_pairs_at_threshold(
            g1, g2, delta_min, incremental=incremental, stats=stats
        )
    nodes, stream = _row_stream(g1, g2)
    rows: List[Tuple[object, object, int, int]] = []
    for i, lv1, lv2 in stream:
        # reprolint: disable=R011 -- _row_stream rows are freshly allocated per source (documented), so in-place masking saves an O(n) copy per row
        lv1[: i + 1] = UNREACHED
        reached = lv1 != UNREACHED
        hits = np.flatnonzero(reached & (lv1 - lv2 >= delta_min))
        u = nodes[i]
        for j in hits:
            rows.append((u, nodes[j], int(lv1[j]), int(lv2[j])))
    return rows


def _pruned_pairs_at_threshold(
    g1: Graph,
    g2: Graph,
    delta_min: float,
    incremental: bool,
    stats: Optional[PruneStats],
) -> List[Tuple[object, object, int, int]]:
    """Static-threshold pruned variant of :func:`csr_pairs_at_threshold`.

    Same row order as the unpruned engines: sources are visited in index
    order (the threshold is fixed, so there is no gain from reordering),
    each either skipped outright or traversed level-limited.
    """
    delta = SnapshotDelta.from_graphs(g1, g2)
    plan = PrunePlan.from_delta(delta)
    if stats is None:
        stats = PruneStats()
    # Δ values are integral on unweighted graphs, so a fractional
    # threshold rounds up to the first achievable one.
    theta = max(1, math.ceil(delta_min))
    nodes = delta.csr1.nodes
    rows: List[Tuple[object, object, int, int]] = []
    n = delta.csr1.num_nodes
    stats.sources += n
    for i, lv1 in iter_msbfs_rows(delta.csr1, range(n)):
        if source_bound(lv1, plan) < theta:
            stats.skipped += 1
            continue
        stats.cut += 1
        max_level = int(lv1.max()) - theta
        if incremental:
            lv2 = repair_levels(delta, lv1, max_level=max_level)[delta.mapping]
        else:
            lv2 = bounded_bfs_levels(
                delta.csr2, int(delta.mapping[i]), max_level
            )[delta.mapping]
        reached = lv1 != UNREACHED
        reached[: i + 1] = False
        hits = np.flatnonzero(reached & (lv1 - lv2 >= delta_min))
        u = nodes[i]
        for j in hits:
            rows.append((u, nodes[j], int(lv1[j]), int(lv2[j])))
    return rows


def csr_top_k_rows(
    g1: Graph,
    g2: Graph,
    k: int,
    *,
    incremental: bool = True,
    prune: bool = True,
    delta: Optional[SnapshotDelta] = None,
    rows1: Optional[Sequence[np.ndarray]] = None,
    stats: Optional[PruneStats] = None,
) -> List[Tuple[object, object, int, int]]:
    """Single-pass top-k candidate rows with dynamic Δ-aware pruning.

    Returns every ``(u, v, d1, d2)`` row whose Δ was at or above the
    *running* k-th best Δ at the moment its source was scored — a
    deterministic superset of the exact top-k.  The caller sorts by
    ``(−Δ, repr)`` and truncates; because the running threshold never
    exceeds the final k-th Δ, the truncation yields exactly the same
    pairs (ties included) as the unpruned two-pass engine.

    ``prune=True`` processes sources in decreasing bound order so the
    tracker fills with large Δ values early; as soon as the next bound
    drops below the running threshold, *all* remaining sources are
    skipped (their t2 traversals never run), and surviving traversals
    are cut at depth ``ecc1 − threshold``.  ``prune=False`` runs the
    same single-pass collection without bounds or cuts — the honest
    baseline the benchmark compares against.

    ``delta`` and ``rows1`` (precomputed t1 level rows, index-aligned,
    never mutated) let benchmarks time the t2 phase in isolation.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if delta is None:
        delta = SnapshotDelta.from_graphs(g1, g2)
    if stats is None:
        stats = PruneStats()
    csr1, csr2, mapping = delta.csr1, delta.csr2, delta.mapping
    n = csr1.num_nodes
    stats.sources += n
    nodes = csr1.nodes

    def t1_row(i: int) -> np.ndarray:
        if rows1 is not None:
            return rows1[i]
        return bfs_levels(csr1, i)

    if prune:
        plan = PrunePlan.from_delta(delta)
        bounds = np.empty(n, dtype=np.int64)
        eccs = np.empty(n, dtype=np.int64)
        for i in range(n):
            lv1 = t1_row(i)
            eccs[i] = int(lv1.max())
            bounds[i] = source_bound(lv1, plan)
        order = np.argsort(-bounds, kind="stable")
    else:
        order = np.arange(n)

    tracker = KthTracker(k)
    rows: List[Tuple[object, object, int, int]] = []
    compact_at = max(4 * k, 256)
    for pos in range(n):
        i = int(order[pos])
        theta = tracker.threshold
        if prune and bounds[i] < theta:
            # Bounds are sorted descending: every remaining source is
            # ruled out by the same comparison.
            stats.skipped += n - pos
            break
        lv1 = t1_row(i)
        if prune:
            stats.cut += 1
            max_level: Optional[int] = int(eccs[i]) - theta
        else:
            stats.full += 1
            max_level = None
        if incremental:
            lv2 = repair_levels(delta, lv1, max_level=max_level)[mapping]
        elif prune:
            lv2 = bounded_bfs_levels(csr2, int(mapping[i]), max_level)[mapping]
        else:
            lv2 = bfs_levels(csr2, int(mapping[i]))[mapping]
        valid = lv1 != UNREACHED
        valid[: i + 1] = False  # unordered pairs owned by the lower index
        deltas = lv1.astype(np.int64) - lv2.astype(np.int64)
        tracker.offer(deltas[valid])
        hits = np.flatnonzero(valid & (deltas >= theta))
        u = nodes[i]
        for j in hits:
            rows.append((u, nodes[int(j)], int(lv1[j]), int(lv2[j])))
        if len(rows) > compact_at:
            floor = tracker.threshold
            rows = [r for r in rows if r[2] - r[3] >= floor]
            compact_at = max(compact_at, 4 * len(rows))
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

