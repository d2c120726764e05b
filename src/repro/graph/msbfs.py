"""Bit-parallel multi-source BFS: up to 64 traversals per frontier sweep.

:func:`repro.graph.csr.bfs_levels` already expands whole levels with
vectorised gathers, but a batch of ``b`` sources still pays ``b``
independent Python-level frontier loops over the same adjacency.  This
module amortises that: the frontiers of up to 64 sources are packed into
one ``uint64`` word per node (*lane* ``j`` = bit ``j`` = source ``j``),
so a single sweep advances every traversal in the batch at once —

* ``visited`` / ``frontier`` / ``next`` are ``(num_nodes, words)``
  ``uint64`` arrays (``words = ceil(batch / 64)``);
* one level step OR-accumulates each frontier node's word into its
  neighbors' ``next`` words (``np.bitwise_or.at`` — a scatter with
  duplicate accumulation), then masks off already-visited lanes;
* each level's freshly set words form one *plane*
  (:func:`msbfs_planes`); unpacking the planes yields per-source
  ``int32`` level rows, while the bit-plane Δ engine in
  :mod:`repro.core.fastpairs` counts them with ``popcount`` instead.

BFS levels do not depend on visit order within a level, so the output is
**bit-identical** to running :func:`~repro.graph.csr.bfs_levels` once per
source — same values, same dtype, any batch width.  The differential and
hypothesis suites (``tests/test_graph_msbfs.py``) pin this.

Budget semantics are untouched: one *source* in a batch is still one
SSSP result, charged exactly like a lone traversal (the ledger counts
results obtained, not frontier sweeps — see docs/budget-model.md).
"""

from __future__ import annotations

import sys
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.graph.csr import CSRGraph, UNREACHED, _multi_arange

#: Lanes per frontier word — one uint64 bit per source.
WORD_BITS = 64

#: Default batch width: one full word of sources per sweep.
DEFAULT_BATCH = 64

Sources = Union[Sequence[int], np.ndarray, range]

#: One BFS level of a batch in bit space: ``(nodes, lane words)``.
Plane = Tuple[np.ndarray, np.ndarray]


def _as_source_array(csr: CSRGraph, sources: Sources) -> np.ndarray:
    src = np.asarray(sources, dtype=np.int64).ravel()
    n = csr.num_nodes
    if src.size and (int(src.min()) < 0 or int(src.max()) >= n):
        bad = src[(src < 0) | (src >= n)][0]
        raise IndexError(f"source index {int(bad)} out of range [0, {n})")
    return src


def msbfs_planes(csr: CSRGraph, src: np.ndarray) -> List[Plane]:
    """Per-level fresh lane words of one sweep over a batch of sources.

    ``planes[d]`` is ``(nodes, words)``: the ascending node indices
    first reached at depth ``d`` by at least one lane, and their
    ``(len(nodes), ceil(len(src) / 64))`` ``uint64`` words holding
    exactly the lanes that reached them at ``d`` (lane ``j`` is bit
    ``j % 64`` of word ``j // 64``).  ``planes[0]`` holds the seeds.
    Every (lane, node) pair at a finite distance appears in exactly one
    plane, so the planes are the level rows of the batch in bit space —
    :func:`msbfs_levels` unpacks them, the bit-plane Δ engine
    (:mod:`repro.core.fastpairs`) counts them with ``popcount`` without
    unpacking.
    """
    n = csr.num_nodes
    b = int(src.size)
    words = (b + WORD_BITS - 1) // WORD_BITS
    lanes = np.arange(b, dtype=np.int64)
    visited = np.zeros((n, words), dtype=np.uint64)
    lane_word = lanes // WORD_BITS
    lane_bit = np.left_shift(
        np.uint64(1), (lanes % WORD_BITS).astype(np.uint64)
    )
    # Duplicate sources (two lanes seeded on one node) must both set
    # their bits, so the seed is a scatter-OR, not plain assignment.
    np.bitwise_or.at(visited, (src, lane_word), lane_bit)
    seeds = np.flatnonzero(visited.any(axis=1))
    planes = [(seeds, visited[seeds])]
    frontier = visited.copy()
    scratch = np.zeros((n, words), dtype=np.uint64)

    indptr, indices = csr.indptr, csr.indices
    while True:
        active = np.flatnonzero(frontier.any(axis=1))
        if not active.size:
            break
        starts = indptr[active]
        counts = indptr[active + 1] - starts
        nonzero = counts > 0
        if not nonzero.any():
            break
        gather = _multi_arange(starts[nonzero], counts[nonzero])
        neighbors = indices[gather]
        owners = np.repeat(active[nonzero], counts[nonzero])
        scratch[:] = 0
        np.bitwise_or.at(scratch, neighbors, frontier[owners])
        np.bitwise_and(scratch, ~visited, out=scratch)
        reached = np.flatnonzero(scratch.any(axis=1))
        if not reached.size:
            break
        visited[reached] |= scratch[reached]
        planes.append((reached, scratch[reached]))
        frontier, scratch = scratch, frontier
    return planes


def unpack_lanes(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(row, lane)`` of every set bit in a ``(rows, words)`` word array.

    Rows ascend and lanes ascend within a row (``np.nonzero`` order).
    """
    if sys.byteorder != "little":  # pragma: no cover - BE hosts only
        words = words.byteswap()
    bits = np.unpackbits(
        words.reshape(len(words), -1).view(np.uint8), axis=1,
        bitorder="little",
    )
    return np.nonzero(bits)


def _msbfs_block(csr: CSRGraph, src: np.ndarray) -> np.ndarray:
    """Level rows for one batch of sources: the planes, unpacked."""
    b = int(src.size)
    levels = np.full((b, csr.num_nodes), UNREACHED, dtype=np.int32)
    levels[np.arange(b), src] = 0
    planes = msbfs_planes(csr, src)
    for depth in range(1, len(planes)):
        reached, fresh = planes[depth]
        node_pos, lane = unpack_lanes(fresh)
        levels[lane, reached[node_pos]] = depth
    return levels


def msbfs_levels(
    csr: CSRGraph, sources: Sources, batch_size: int = DEFAULT_BATCH
) -> np.ndarray:
    """Level rows for every source, ``batch_size`` traversals per sweep.

    Returns a ``(len(sources), num_nodes)`` ``int32`` matrix whose row
    ``j`` equals ``bfs_levels(csr, sources[j])`` bit for bit
    (``UNREACHED`` off-component).  ``batch_size`` only controls how
    many sources share a frontier sweep — never the output.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    src = _as_source_array(csr, sources)
    out = np.empty((src.size, csr.num_nodes), dtype=np.int32)
    for start in range(0, src.size, batch_size):
        block = src[start : start + batch_size]
        out[start : start + block.size] = _msbfs_block(csr, block)
    return out


def iter_msbfs_rows(
    csr: CSRGraph, sources: Sources, batch_size: int = DEFAULT_BATCH
) -> Iterator[Tuple[int, np.ndarray]]:
    """Stream ``(source_idx, level_row)`` pairs, batched under the hood.

    Rows are yielded in ``sources`` order; each row is a distinct slice
    of its batch matrix (freshly allocated per batch, never reused), so
    consumers may mutate a yielded row in place — the documented
    contract of :func:`repro.core.fastpairs._row_stream`.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    src = _as_source_array(csr, sources)
    for start in range(0, src.size, batch_size):
        block_src = src[start : start + batch_size]
        block = _msbfs_block(csr, block_src)
        for j in range(block_src.size):
            yield int(block_src[j]), block[j]
