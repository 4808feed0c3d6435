"""The batched Monte-Carlo P95 kernel against the scalar oracle, bit for bit.

``cost.p95_spot_runtimes`` answers many ``(exec time, rate)`` pairs at
once for the columnar advice engine.  Its contract is exact: every
element has the same float64 bits as the scalar oracle
(``p95_spot_runtime``, or the P95 of ``simulate_spot_makespans`` when
the attempt cap is not the default).  Both walks of the kernel (lanes
in lockstep, lanes skipping alone) are held to it separately and in the
mix the kernel picks, across chunk boundaries, duplicates, attempt-cap
edges and times within one ulp of a checkpoint boundary.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import cost
from repro.core.cost import (p95_rank, p95_spot_runtime, p95_spot_runtimes,
                             simulate_spot_makespans)
from repro.errors import AdvisorError
from repro.rng import rng_for

#: Oracle draws allowed per example (the scalar walk costs ~1.5 µs each).
DRAW_BUDGET = 8_000
#: ``_LOCKSTEP_ATTEMPTS`` values forcing each walk, or the kernel's mix.
WALKS = {"mixed": cost._LOCKSTEP_ATTEMPTS, "lockstep": math.inf,
         "skipping": -1.0}


def oracle(work, rate, recovery, interval, overhead, samples, seed,
           max_attempts):
    if max_attempts == 4096:
        return p95_spot_runtime(work, rate, recovery, interval, overhead,
                                samples=samples, seed=seed)
    spans = np.sort(simulate_spot_makespans(
        work, rate, recovery, interval, overhead, samples=samples,
        seed=seed, max_attempts=max_attempts))
    return float(spans[p95_rank(samples)])


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def batched(pairs, recovery, interval, overhead, samples, seed=0,
            max_attempts=4096, walk="mixed", chunk=None):
    with mock.patch.object(cost, "_LOCKSTEP_ATTEMPTS", WALKS[walk]), \
            mock.patch.object(cost, "_LANE_CHUNK",
                              chunk or cost._LANE_CHUNK):
        return p95_spot_runtimes(
            [w for w, _ in pairs], [r for _, r in pairs], recovery,
            interval, overhead, samples=samples, seed=seed,
            max_attempts=max_attempts)


def assert_bit_identical(pairs, recovery, interval, overhead, samples,
                         seed=0, max_attempts=4096, **kernel):
    got = batched(pairs, recovery, interval, overhead, samples, seed,
                  max_attempts, **kernel)
    want = [oracle(w, r, recovery, interval, overhead, samples, seed,
                   max_attempts) for w, r in pairs]
    assert bits(got) == bits(want), list(zip(pairs, got.tolist(), want))


# -- strategies -------------------------------------------------------------------


def _work_times(interval: float):
    """Multiples of the checkpoint interval and their ±1-ulp
    neighbours (where ``floor`` flips), zero, tiny and ordinary times."""
    multiple = st.integers(1, 6).map(lambda k: k * interval)
    return st.one_of(
        multiple,
        multiple.map(lambda t: math.nextafter(t, math.inf)),
        multiple.map(lambda t: math.nextafter(t, 0.0)),
        st.sampled_from([0.0, 5e-324, 1e-9, 0.25]),
        st.floats(min_value=1e-3, max_value=5_000.0),
    )


def _rate_cap(work, nodes, recovery, interval, overhead, attempts):
    """Highest per-node rate at which a sample of ``work`` expects at
    most ``attempts`` attempts (the inverse of the kernel's estimate,
    ``1 + chunks * evictions per chunk``)."""
    if work <= 0:
        return 600.0
    if recovery == "restart":
        lam = math.log(attempts) / work
    else:
        chunks = max(1, math.ceil(work / interval))
        uptime = min(work, interval) + (overhead if chunks > 1 else 0.0)
        lam = math.log1p((attempts - 1) / chunks) / uptime
    return min(600.0, lam * 3600.0 / nodes)


@st.composite
def kernel_calls(draw):
    recovery = draw(st.sampled_from(["restart", "checkpoint_restart"]))
    interval = draw(st.sampled_from([600.0, 30.0, 0.7]))
    overhead = draw(st.sampled_from([60.0, 5.0, 0.0]))
    samples = draw(st.sampled_from([1, 2, 20, 256]))
    max_attempts = draw(st.sampled_from([1, 2, 5, 40, 4096]))
    count = draw(st.integers(1, 6))
    # Keep the oracle's draws within budget: where the cap cannot, bound
    # the rate so that a sample expects few attempts.
    attempts = DRAW_BUDGET / (count * samples)
    pairs = []
    for _ in range(count):
        work = draw(_work_times(interval))
        nodes = draw(st.integers(1, 32))
        top = (600.0 if max_attempts <= attempts else
               _rate_cap(work, nodes, recovery, interval, overhead,
                         max(1.0, attempts)))
        per_node = draw(st.one_of(st.just(0.0),
                                  st.floats(min_value=0.0, max_value=top)))
        pairs.append((work, per_node * nodes))
    if draw(st.booleans()):
        pairs += pairs[::-1]  # duplicate pairs, in another order
    return dict(pairs=pairs, recovery=recovery, interval=interval,
                overhead=overhead, samples=samples,
                max_attempts=max_attempts,
                seed=draw(st.sampled_from([0, 7])))


# -- properties -------------------------------------------------------------------


class TestBitIdentity:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(call=kernel_calls(), walk=st.sampled_from(sorted(WALKS)),
           chunk=st.sampled_from([None, 1, 3]))
    def test_matches_the_scalar_oracle(self, call, walk, chunk):
        """Any rate 0-600/node-hour on 1-32 nodes, both policies, any
        attempt cap, either walk, any chunking: the same bits."""
        assert_bit_identical(walk=walk, chunk=chunk, **call)

    @pytest.mark.parametrize("walk", sorted(WALKS))
    @pytest.mark.parametrize("recovery, rate, max_attempts, censored", [
        ("restart", 23.5, 4, 12),
        ("restart", 38.0, 8, 13),
        ("checkpoint_restart", 25.5, 4, 12),
        ("checkpoint_restart", 30.0, 4, 13),
    ])
    def test_attempt_cap_edges(self, walk, recovery, rate, max_attempts,
                               censored):
        """12 censored samples of 256 leave P95 finite (the largest
        finished makespan); 13 make it inf, where the skipping walk
        stops, and lockstep hands its lanes over before the cap.  The
        seeded cases hit each count exactly."""
        spans = simulate_spot_makespans(100.0, rate, recovery, 30.0, 5.0,
                                        max_attempts=max_attempts)
        assert int(np.isinf(spans).sum()) == censored
        want = oracle(100.0, rate, recovery, 30.0, 5.0, 256, 0,
                      max_attempts)
        assert math.isinf(want) == (censored == 13)
        assert_bit_identical([(100.0, rate)], recovery, 30.0, 5.0, 256,
                             max_attempts=max_attempts, walk=walk)

    @pytest.mark.parametrize("recovery", ["restart", "checkpoint_restart"])
    def test_batch_spanning_chunks_with_duplicates(self, recovery):
        """More lanes than one lockstep chunk holds, duplicates included
        (each occurrence gets its own lane, with the same answer)."""
        rng = np.random.default_rng(3)
        works = np.round(rng.uniform(30.0, 1_500.0, 700), 1)
        rates = rng.choice([0.1, 0.4, 1.6, 6.4], 700)
        pairs = list(zip(works.tolist(), rates.tolist()))
        pairs += pairs[:400]
        assert len(pairs) > cost._LANE_CHUNK
        assert_bit_identical(pairs, recovery, 600.0, 60.0, 20,
                             walk="lockstep")

    def test_brutal_rates_finish_quickly(self):
        """The spot demo's brutal what-if (600/node-hour): every sample
        runs into the cap, and the kernel stops each lane at 13."""
        pairs = [(300.0 / n, 600.0 * n) for n in (2, 4, 8)]
        got = p95_spot_runtimes([w for w, _ in pairs],
                                [r for _, r in pairs], "restart")
        assert got.tolist() == [math.inf] * 3


# -- the every-start walk's hand-over paths ---------------------------------------


def oracle_draws(work, rate, recovery, interval, overhead, samples, seed=0):
    """Uptimes the oracle's samples consume.  It is handed one-draw
    blocks, one per generator call, so the calls count the draws; the
    draws do not depend on the block size, so its makespans stay the
    same (asserted)."""
    calls = []

    def one_draw_blocks(*key, base_seed):
        gen = rng_for(*key, base_seed=base_seed)

        class OneDraw:
            def exponential(self, mean, size):
                calls.append(size)
                return gen.exponential(mean, size=1)

        return OneDraw()

    with mock.patch.object(cost, "rng_for", one_draw_blocks):
        spans = simulate_spot_makespans(work, rate, recovery, interval,
                                        overhead, samples=samples, seed=seed)
    assert bits(spans) == bits(simulate_spot_makespans(
        work, rate, recovery, interval, overhead, samples=samples,
        seed=seed))
    return len(calls)


def handed_over(pairs, recovery, interval, overhead, samples, budgets=None,
                max_attempts=4096):
    """Bit-compare the every-start walk (every lane forced onto it, one
    chunk) with the oracle, lane ``i`` drawing ``budgets[i]`` uptimes if
    given; returns the works of the lanes handed to the skipping walk."""
    draw_budget = cost._draw_budget
    if budgets is not None:
        def draw_budget(expected, samples):
            assert len(expected) == len(budgets)
            return np.asarray(budgets, dtype=np.intp)
    with mock.patch.object(cost, "_draw_budget", draw_budget), \
            mock.patch.object(cost, "_skipping_p95",
                              wraps=cost._skipping_p95) as skipping:
        assert_bit_identical(pairs, recovery, interval, overhead, samples,
                             max_attempts=max_attempts, walk="lockstep")
    return [call.args[0] for call in skipping.call_args_list]


class TestEveryStartHandOver:
    """The every-start walk hands a lane over to the skipping walk when
    the lane's chain of samples runs out of drawn uptimes or would reach
    the attempt cap; the answer is the oracle's either way."""

    @pytest.mark.parametrize("samples", [20, 256])
    @pytest.mark.parametrize("recovery", ["restart", "checkpoint_restart"])
    def test_lane_that_runs_out_of_draws_is_handed_over(self, recovery,
                                                        samples):
        pairs = [(900.0, 1.0), (700.0, 3.0), (450.0, 5.0)]
        need = [oracle_draws(work, rate, recovery, 600.0, 60.0, samples)
                for work, rate in pairs]
        # Exactly the draws the samples take: every chain fits.
        assert handed_over(pairs, recovery, 600.0, 60.0, samples,
                           need) == []
        # One draw short: the middle lane's last sample runs out.
        assert handed_over(pairs, recovery, 600.0, 60.0, samples,
                           [need[0], need[1] - 1, need[2]]) == [700.0]

    @pytest.mark.parametrize("max_attempts", [1, 2])
    @pytest.mark.parametrize("recovery, work, rate", [
        ("restart", 1200.0, 2.0),
        ("checkpoint_restart", 900.0, 4.0),
    ])
    def test_single_sample_that_fails_its_first_attempt(
            self, recovery, work, rate, max_attempts):
        """With one attempt allowed, the first is the capped one; with
        two, the first fails and the second is capped.  The walk makes
        neither capped attempt: the lane is handed over, and the oracle's
        inf (one attempt) or finish on the second attempt comes back."""
        first, second = (
            simulate_spot_makespans(work, rate, recovery, 600.0, 60.0,
                                    samples=1, max_attempts=cap)[0]
            for cap in (1, 2))
        assert math.isinf(first) and math.isfinite(second)
        assert handed_over([(work, rate)], recovery, 600.0, 60.0, 1,
                           max_attempts=max_attempts) == [work]

    @pytest.mark.parametrize("samples", [1, 3, 20])
    def test_lanes_end_where_their_draws_do(self, samples):
        """One chunk mixing lanes at ~1 and ~4 expected attempts, one
        of them twice, each drawing exactly what its samples take or
        one or two draws fewer.  A speculative sample that reaches the
        end of its lane's draws stops there and never goes on with the
        next lane's: the chains fit exactly or are handed over."""
        recovery = "checkpoint_restart"
        pairs = [(1000.0, 0.2), (900.0, 4.0), (1100.0, 0.1), (450.0, 9.0),
                 (1000.0, 0.2), (900.0, 4.0)]
        need = [oracle_draws(work, rate, recovery, 600.0, 60.0, samples)
                for work, rate in pairs]
        assert handed_over(pairs, recovery, 600.0, 60.0, samples,
                           need) == []
        for fewer in (1, 2):
            budgets = [max(0, draws - fewer) for draws in need]
            assert handed_over(pairs, recovery, 600.0, 60.0, samples,
                               budgets) == [work for work, _ in pairs]

    @pytest.mark.parametrize("draws", [1, 511, 512, 513, 1024, 1500])
    def test_one_call_draws_the_oracles_blocks(self, draws):
        """The walk draws a lane's uptimes in one generator call, the
        oracle in 512-draw blocks: the same values, bit for bit."""
        key = ("spot-makespan", 900.0, 4.0, "checkpoint_restart", 600.0,
               60.0)
        mean = 1.0 / (4.0 / 3600.0)
        blocks = rng_for(*key, base_seed=7)
        stream = np.concatenate([blocks.exponential(mean, size=512)
                                 for _ in range(-(-draws // 512))])
        once = rng_for(*key, base_seed=7).exponential(mean, size=draws)
        assert bits(once) == bits(stream[:draws])


class TestInputs:
    def test_trivial_lanes_return_the_work(self):
        got = p95_spot_runtimes([0.0, 50.0, -0.0], [6.0, 0.0, 6.0])
        assert bits(got) == bits([0.0, 50.0, -0.0])

    def test_empty_batch(self):
        assert p95_spot_runtimes([], []).shape == (0,)

    def test_rejects_what_the_oracle_rejects(self):
        with pytest.raises(AdvisorError, match="samples"):
            p95_spot_runtimes([10.0], [1.0], samples=0)
        with pytest.raises(AdvisorError, match="recovery policy"):
            p95_spot_runtimes([10.0], [1.0], recovery="fail")
        with pytest.raises(AdvisorError, match="equal-length"):
            p95_spot_runtimes([10.0, 20.0], [1.0])


class TestPairRiskMemo:
    """``spot_pair_risks``: the columnar engine's memo over both risk
    kernels."""

    def test_memo_answers_equal_the_kernels(self, monkeypatch):
        monkeypatch.setattr(cost, "_PAIR_RISK_MEMO", {})
        works = np.array([100.0, 250.0, 100.0, 900.0])
        rates = np.array([3.0, 3.0, 6.0, 0.0])
        for _ in range(2):  # cold, then every pair from the memo
            p95, expected = cost.spot_pair_risks(works, rates, "restart")
            assert bits(p95) == bits(p95_spot_runtimes(works, rates,
                                                       "restart"))
            assert expected.tolist() == [
                cost.expected_spot_runtime(w, r, "restart")
                for w, r in zip(works.tolist(), rates.tolist())]

    def test_memo_never_exceeds_its_bound(self, monkeypatch):
        """A batch missing more pairs than the bound keeps only its last
        ones; the answers are the kernels' either way."""
        monkeypatch.setattr(cost, "_PAIR_RISK_MEMO", {})
        monkeypatch.setattr(cost, "_RISK_MEMO_MAX", 5)
        works = np.arange(1.0, 13.0) * 40.0
        rates = np.full(12, 2.0)

        def size():
            return sum(map(len, cost._PAIR_RISK_MEMO.values()))

        cost.spot_pair_risks(works[:3], rates[:3], "restart")
        assert size() == 3
        p95, _ = cost.spot_pair_risks(works, rates, "restart")
        assert bits(p95) == bits(p95_spot_runtimes(works, rates, "restart"))
        assert size() == 5
        assert set(cost._PAIR_RISK_MEMO[("restart", 600.0, 60.0, 256, 0)]) \
            == set(zip(works[-5:].tolist(), rates[-5:].tolist()))

    def test_threads_share_the_memo_safely(self, monkeypatch):
        """Service threads fill, clear and read the memo at once (a tiny
        bound forces clears, many contexts make sizing it slow): every
        call succeeds with the kernels' answer."""
        import sys
        import threading

        monkeypatch.setattr(cost, "_PAIR_RISK_MEMO", {})
        monkeypatch.setattr(cost, "_RISK_MEMO_MAX", 40)
        works = np.round(np.linspace(50.0, 900.0, 6), 1)
        rates = np.full(6, 2.0)
        seeds = range(12)
        expected = [cost.expected_spot_runtime(w, 2.0, "restart")
                    for w in works.tolist()]
        want = {seed: p95_spot_runtimes(works, rates, "restart", seed=seed)
                for seed in seeds}
        errors, answers = [], []

        def client(seed):
            try:
                for _ in range(10):
                    answers.append((seed, cost.spot_pair_risks(
                        works, rates, "restart", seed=seed)))
            except Exception as exc:  # asserted below, in this thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(seed,))
                       for seed in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(answers) == 10 * len(seeds)
        for seed, (p95, makespan) in answers:
            assert bits(p95) == bits(want[seed])
            assert bits(makespan) == bits(expected)
