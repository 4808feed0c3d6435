"""Property-based tests for the Pareto fronts (hypothesis).

The 2-D and N-D kernels run a sample prefilter before their sweeps.  Both
advice engines call the same kernels, so the columnar == objects contract
cannot catch a kernel bug; these tests pin the kernels against copies of
the plain sweeps they replaced (same output, order included, on ties,
duplicates, NaN, +-inf and -0.0) and against the dominance definition.
"""

import math
from typing import List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pareto import (_sample_survivors, dominates, dominates_nd,
                               is_dominated, pareto_front, pareto_indices,
                               pareto_indices_nd)

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
points_strategy = st.lists(st.tuples(finite, finite), min_size=0, max_size=60)


@given(points_strategy)
def test_front_is_subset(points):
    front = pareto_front(points)
    remaining = list(points)
    for p in front:
        assert p in remaining
        remaining.remove(p)  # respects multiplicity


@given(points_strategy)
def test_front_members_not_dominated(points):
    front = pareto_front(points)
    for p in front:
        assert not is_dominated(p, points)


@given(points_strategy)
def test_non_members_are_dominated(points):
    front = pareto_front(points)
    front_multiset = list(front)
    leftovers = list(points)
    for p in front_multiset:
        leftovers.remove(p)
    for p in leftovers:
        assert is_dominated(p, front)


@given(points_strategy)
def test_idempotent(points):
    once = pareto_front(points)
    twice = pareto_front(once)
    assert sorted(once) == sorted(twice)


@given(points_strategy)
def test_sorted_by_first_objective(points):
    front = pareto_front(points)
    xs = [p[0] for p in front]
    assert xs == sorted(xs)


@given(points_strategy)
def test_second_objective_strictly_decreasing(points):
    front = pareto_front(points)
    # Along the front, as time increases cost must strictly decrease
    # (otherwise the later point would be dominated), except exact duplicates.
    for (x1, y1), (x2, y2) in zip(front, front[1:]):
        if (x1, y1) == (x2, y2):
            continue
        assert x2 > x1
        assert y2 < y1


@given(points_strategy, st.tuples(finite, finite))
def test_adding_dominated_point_never_changes_front(points, candidate):
    front_before = pareto_front(points)
    if front_before and is_dominated(candidate, front_before):
        front_after = pareto_front(points + [candidate])
        assert sorted(front_after) == sorted(front_before)


@given(points_strategy)
@settings(max_examples=50)
def test_matches_bruteforce(points):
    front = pareto_front(points)
    brute = [p for p in points
             if not any(dominates(q, p) for q in points)]
    assert sorted(front) == sorted(brute)


@given(st.tuples(finite, finite), st.tuples(finite, finite))
def test_domination_antisymmetric(a, b):
    assert not (dominates(a, b) and dominates(b, a))


@given(st.tuples(finite, finite))
def test_no_self_domination(a):
    assert not dominates(a, a)


# -- reference oracles: the sweeps without the sample prefilter ---------------------


def _reference_pareto_indices(points) -> List[int]:
    n = len(points)
    if n == 0:
        return []
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected (n, 2) points, got shape {arr.shape}")
    # Sort by first objective, then second; keep each equal-x block's
    # minimal-y points when that minimum beats every earlier block's.
    # Fully vectorized: within a block y is ascending (lexsort), so the
    # block minimum sits at the block start, and the scalar sweep's
    # running best is an exclusive prefix-min over block minima.
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    xs = arr[order, 0]
    ys = arr[order, 1]
    new_block = np.concatenate(([True], xs[1:] != xs[:-1]))
    block_id = np.cumsum(new_block) - 1
    block_min = ys[new_block]
    # fmin (not minimum): a NaN block must not poison the running best,
    # matching the scalar sweep where NaN comparisons simply never win.
    prev_best = np.concatenate(
        ([np.inf], np.fmin.accumulate(block_min)[:-1]))
    block_keep = block_min < prev_best
    keep = block_keep[block_id] & (ys == block_min[block_id])
    return order[keep].tolist()


def _reference_pareto_indices_nd(points) -> List[int]:
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
        return _reference_pareto_indices(
            arr if arr is not None else [tuple(p) for p in points])
    if arr is None:
        arr = np.asarray([tuple(p) for p in points], dtype=float)
    # Duplicate vectors never dominate each other, so domination is a
    # property of the unique row; np.unique(axis=0) also hands the rows
    # back lexicographically sorted, and a dominator is always lex-<=
    # its victim, so row u only needs candidates uniq[:u+1].
    uniq, inverse = np.unique(arr, axis=0, return_inverse=True)
    inverse = np.asarray(inverse).reshape(-1)
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
    # Same output order as the scalar sweep: ascending objective tuple,
    # ties by original index (both sorts are stable).
    order = np.lexsort(arr.T[::-1])
    keep = ~dominated[inverse[order]]
    return order[keep].tolist()


def _definition_front(points) -> set:
    """Indices no other point dominates, straight from the definition."""
    rows = [tuple(float(v) for v in p) for p in points]
    return {i for i, p in enumerate(rows)
            if not any(dominates_nd(q, p) for q in rows)}


# -- kernel inputs --------------------------------------------------------------------

#: Small integer grids make ties and duplicate rows common.
GRID = st.integers(min_value=-1, max_value=2).map(float)
SPECIAL = st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, -math.inf,
                           math.nan])
FINITE = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False,
                   allow_infinity=False)


@st.composite
def objective_rows(draw, dims=(2, 3, 4), values=(GRID, SPECIAL, FINITE)):
    """1-40 rows of one width from ``dims``, as a list of tuples or an
    (n, d) ndarray, with elements drawn from one of ``values`` (or a mix
    of all of them)."""
    d = draw(st.sampled_from(dims))
    elements = draw(st.sampled_from(values + (st.one_of(*values),)))
    rows = draw(st.lists(st.tuples(*[elements] * d), min_size=1,
                         max_size=40))
    if draw(st.booleans()):
        return np.asarray(rows, dtype=float)
    return rows


@settings(max_examples=300)
@given(objective_rows(dims=(2,)))
def test_2d_kernel_matches_reference(points):
    assert pareto_indices(points) == _reference_pareto_indices(points)


@settings(max_examples=300)
@given(objective_rows())
def test_nd_kernel_matches_reference(points):
    assert pareto_indices_nd(points) == _reference_pareto_indices_nd(points)


@given(objective_rows(values=(GRID, FINITE)))
def test_verdicts_match_definition_on_finite_rows(points):
    assert set(pareto_indices_nd(points)) == _definition_front(points)


@given(objective_rows(dims=(3, 4)))
def test_nd_verdicts_match_definition_on_any_rows(points):
    # NaN compares False, so a row with NaN neither dominates nor is
    # dominated.  (The 2-D sweep is pinned by the reference instead: its
    # running best starts at +inf, so a row whose second objective is
    # +inf or NaN falls to the sweep, not the definition.)
    assert set(pareto_indices_nd(points)) == _definition_front(points)


def test_one_row():
    assert pareto_indices([(3.0, 1.0)]) == [0]
    for d in (2, 3, 4):
        assert pareto_indices_nd([tuple(range(d))]) == [0]
        assert pareto_indices_nd(np.ones((1, d))) == [0]


def test_all_rows_equal_are_all_kept_in_index_order():
    assert pareto_indices([(2.0, 5.0)] * 6) == list(range(6))
    for d in (2, 3, 4):
        assert pareto_indices_nd(np.full((7, d), 1.5)) == list(range(7))


def test_every_row_on_the_front():
    """Anti-correlated rows with equal sums: none dominates another, so
    the prefilter removes nothing and the sweeps see every row (1,225
    3-D rows span several of the N-D sweep's 512-row blocks)."""
    rng = np.random.default_rng(7)
    line = np.stack([np.arange(500.0), 499.0 - np.arange(500.0)], axis=1)
    line = line[rng.permutation(len(line))]
    grid = np.asarray([(i, j, 48 - i - j) for i in range(49)
                       for j in range(49 - i)], dtype=float)
    grid = grid[rng.permutation(len(grid))]
    for rows in (line, grid):
        assert len(_sample_survivors(np.ascontiguousarray(rows.T))) \
            == len(rows)
        got = pareto_indices_nd(rows)
        assert got == np.lexsort(rows.T[::-1]).tolist()
        assert got == _reference_pareto_indices_nd(rows)
    assert pareto_indices(line) == _reference_pareto_indices(line)


def test_prefilter_leaves_only_the_front_of_a_dominated_cloud():
    """Output-sensitivity: two front rows below a 10k-row cloud are all
    that the sweep gets to sort."""
    rng = np.random.default_rng(3)
    cloud = 1.0 + rng.random((10_000, 3))
    rows = np.vstack([cloud[:6_000], [[0.0, 0.5, 0.5]], cloud[6_000:],
                      [[0.5, 0.0, 0.0]]])
    survivors = _sample_survivors(np.ascontiguousarray(rows.T))
    assert survivors.tolist() == [6_000, 10_001]
    assert pareto_indices_nd(rows) == [6_000, 10_001]
    assert pareto_indices(rows[:, :2]) == [6_000, 10_001]
