"""Pareto front over (execution time, cost).

Paper Sec. III-E: "The Pareto front represents the solutions that are
Pareto efficient, i.e. a set of solutions that are non-dominated relative to
each other but are superior to the rest of solutions in the search space."
Both objectives are minimised.

Both kernels (:func:`pareto_indices` for two objectives,
:func:`pareto_indices_nd` for any number) are output-sensitive.  A
prefilter first drops every row that one of a few sample rows dominates,
in O(n*k*d) for n rows, d objectives and k <= d + 1 samples; only the m
survivors are sorted (O(m log m)) and swept.  On an advice corpus the
front is a handful of rows, so m is tiny next to n.  When every row is on
the front nothing is dropped: the 2-D sweep is then O(n log n) and the
N-D running-front sweep O(n * f) for a front of f rows.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")


def dominates(a: Tuple[float, float], b: Tuple[float, float]) -> bool:
    """True when ``a`` dominates ``b``: <= in both objectives, < in one."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def is_dominated(point: Tuple[float, float],
                 others: Iterable[Tuple[float, float]]) -> bool:
    """Whether any of ``others`` dominates ``point``.

    A point never dominates itself (domination requires strict improvement
    in at least one objective), so ``point`` may appear in ``others``.
    """
    return any(dominates(o, point) for o in others)


def _sample_survivors(cols: np.ndarray) -> np.ndarray:
    """Indices of the rows that none of a few sample rows dominates.

    ``cols`` holds one contiguous row per objective.  The samples are
    the argmin of the range-normalised objective sum (non-finite sums
    skipped) and each objective's argmin: rows that tend to sit on the
    front.  Any real row is a valid dominator, so the choice of samples
    decides how many rows survive, never the front.  Each sample works
    column by column on the rows that survived the previous ones.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        span = cols.max(axis=1) - cols.min(axis=1)
        scale = np.where((span > 0) & (span < np.inf), span, 1.0)
        total = cols[0] / scale[0]
        for col, s in zip(cols[1:], scale[1:]):
            total += col / s
    total[~np.isfinite(total)] = np.inf
    samples = cols[:, list(dict.fromkeys(
        [int(total.argmin()), *cols.argmin(axis=1).tolist()]))]
    survivors = np.arange(cols.shape[1])
    for point in samples.T:
        # <= on every objective and < on one (NaN compares False, so a
        # row with NaN neither dominates nor is dominated).
        weak = cols[0] >= point[0]
        strict = cols[0] > point[0]
        for col, v in zip(cols[1:], point[1:]):
            weak &= col >= v
            strict |= col > v
        keep = np.flatnonzero(~(weak & strict))
        if keep.size < survivors.size:
            survivors = survivors[keep]
            cols = cols[:, keep]
    return survivors


def pareto_indices(points: Sequence[Tuple[float, float]]) -> List[int]:
    """Indices of the non-dominated points, in ascending first-objective order.

    Ties on the first objective are ordered by the second, then by
    index.  Duplicate coordinate pairs are all kept (they do not
    dominate each other under the strict-in-one definition).
    """
    n = len(points)
    if n == 0:
        return []
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {arr.shape}")
    # The sweep drops every dominated row, and dropping one first never
    # changes its verdict on another (a surviving dominator bounds the
    # running best at least as tightly), so it only needs the survivors.
    cols = np.ascontiguousarray(arr.T)
    idx = _sample_survivors(cols)
    # Sort by first objective, then second; keep each equal-x block's
    # minimal-y points when that minimum beats every earlier block's.
    # Fully vectorized: within a block y is ascending (lexsort), so the
    # block minimum sits at the block start, and the scalar sweep's
    # running best is an exclusive prefix-min over block minima.
    xs, ys = cols[:, idx]
    order = np.lexsort((ys, xs))
    xs, ys = xs[order], ys[order]
    new_block = np.concatenate(([True], xs[1:] != xs[:-1]))
    block_id = np.cumsum(new_block) - 1
    block_min = ys[new_block]
    # fmin (not minimum): a NaN block must not poison the running best,
    # matching the scalar sweep where NaN comparisons simply never win.
    prev_best = np.concatenate(
        ([np.inf], np.fmin.accumulate(block_min)[:-1]))
    block_keep = block_min < prev_best
    keep = block_keep[block_id] & (ys == block_min[block_id])
    return idx[order[keep]].tolist()


def pareto_front(points: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """The non-dominated subset of ``points`` sorted by first objective."""
    return [tuple(points[i]) for i in pareto_indices(points)]


def pareto_select(items: Sequence[T], key) -> List[T]:
    """Select the items whose ``key(item) -> (obj1, obj2)`` is non-dominated."""
    points = [key(item) for item in items]
    return [items[i] for i in pareto_indices(points)]


# -- N-objective fronts (risk-adjusted advice) ---------------------------------------
#
# Spot capacity adds a third axis to the paper's (time, cost) trade-off:
# the tail of the makespan distribution (e.g. P95) under eviction risk.
# Two configurations can tie on expected time and cost yet differ wildly
# in how badly an unlucky run ends, so the risk-adjusted advice keeps
# both — which needs a front over arbitrarily many objectives.


def dominates_nd(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` dominates ``b``: <= everywhere, < somewhere."""
    if len(a) != len(b):
        raise ValueError(
            f"objective vectors differ in length: {len(a)} vs {len(b)}"
        )
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def pareto_indices_nd(points: Sequence[Sequence[float]]) -> List[int]:
    """Indices of the non-dominated points for any number of objectives.

    Result is ordered ascending by the full objective tuple, ties by
    index (duplicates kept, as in :func:`pareto_indices`).  Cost: the
    sample prefilter is O(n * k * d) over n rows and d objectives; the
    m rows it leaves are sorted once (O(m log m)) and swept against the
    running front of non-dominated predecessors, O(m * f) for a front
    of f rows in chunked NumPy broadcasts.  A corpus with a small front
    pays for the prefilter only.
    """
    n = len(points)
    if n == 0:
        return []
    if isinstance(points, np.ndarray) and points.ndim == 2:
        # Columnar callers hand in a ready (n, d) array; skip the
        # per-row tuple round-trip.
        dims = {points.shape[1]}
        arr = np.asarray(points, dtype=float)
    else:
        dims = {len(p) for p in points}
        arr = None
    if len(dims) != 1:
        raise ValueError(f"mixed objective dimensions: {sorted(dims)}")
    if dims == {2}:
        return pareto_indices(
            arr if arr is not None else [tuple(p) for p in points])
    if arr is None:
        arr = np.asarray([tuple(p) for p in points], dtype=float)
    cols = np.ascontiguousarray(arr.T)
    idx = _sample_survivors(cols)
    cols = cols[:, idx]
    # One stable sort serves twice: it groups duplicate rows for the
    # sweep, and it is the output order (ascending tuple, ties by index).
    order = np.lexsort(cols[::-1])
    rows = cols.T[order]
    # Duplicate vectors never dominate each other, so domination is a
    # property of the unique row (NaN never equals, so a row with NaN
    # stays its own).  Adjacent equal rows are duplicates; the unique
    # rows come out lexicographically sorted, and a dominator is always
    # lex-<= its victim, so row u only needs candidates uniq[:u+1].
    first = np.empty(len(rows), dtype=bool)
    first[:1] = True
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    uniq = rows[first]
    m = len(uniq)
    dominated = np.zeros(m, dtype=bool)
    # Dominance is transitive and a lex-later unique row can never
    # dominate a lex-earlier one, so checking each block against the
    # *running front* of non-dominated predecessors (instead of every
    # predecessor) gives the same verdicts in O(m * front) — the front
    # of a real corpus is tiny next to the corpus itself.  Unique rows
    # always differ somewhere, so "<= on every axis" already implies
    # "< somewhere" and the strict-inequality pass drops out.
    front = np.empty((0, arr.shape[1]))
    block = 512
    for s in range(0, m, block):
        e = min(s + block, m)
        tgt = uniq[s:e]
        if front.shape[0]:
            hit = (front[None, :, :] <= tgt[:, None, :]).all(-1).any(-1)
        else:
            hit = np.zeros(e - s, dtype=bool)
        # Within-block dominators must themselves survive the front
        # check (transitivity again), so the pairwise pass only needs
        # the survivors — typically a handful per block.
        sub = np.flatnonzero(~hit)
        if sub.size:
            t2 = tgt[sub]
            within = (t2[None, :, :] <= t2[:, None, :]).all(-1)
            w = (within & np.tri(sub.size, k=-1, dtype=bool)).any(-1)
            hit[sub[w]] = True
            front = np.concatenate([front, t2[~w]])
        dominated[s:e] = hit
    keep = ~dominated[np.cumsum(first) - 1]
    return idx[order[keep]].tolist()


def pareto_select_nd(items: Sequence[T], key) -> List[T]:
    """Select items whose ``key(item) -> (obj1, ..., objN)`` is non-dominated."""
    points = [key(item) for item in items]
    return [items[i] for i in pareto_indices_nd(points)]
