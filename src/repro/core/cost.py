"""Cost utilities: repricing, spot-risk adjustment, and what-if analyses.

Measured datasets embed the pay-as-you-go cost at collection time.  The
questions users ask next:

* *what if I ran the advised configuration on spot capacity?* — spot is
  ~70% cheaper but interruptible, so the honest answer adjusts both axes:
  expected cost *and* expected/P95 makespan under an eviction model and a
  recovery policy, not just a discount on the price column;
* *what if prices change / I move region?* — reprice against a different
  catalog (times untouched: the hardware is the same).

The risk model matches the collector's spot simulation: evictions are a
memoryless per-node hazard, ``restart`` loses the whole attempt,
``checkpoint_restart`` loses at most one checkpoint interval plus a
restore overhead per resume, and every attempt bills until the eviction
instant.  For a task needing ``T`` seconds of work under task-level rate
``lam`` (per second), the classic expected completion time with restart
is ``(e^{lam T} - 1) / lam``; with per-resume overhead ``o`` it becomes
``(e^{lam T} - 1) (1/lam + o)``, applied per checkpoint chunk.

The tail risk is a seeded Monte-Carlo P95 makespan with two
implementations that agree bit for bit:

* :func:`p95_spot_runtime` (over :func:`simulate_spot_makespans`) walks
  one configuration's samples in plain Python.  It is the oracle, and
  the objects advice engine calls it through its own memo;
* :func:`p95_spot_runtimes` answers many ``(exec time, rate)`` pairs in
  one call for the columnar engine (:func:`spot_pair_risks`).  Each pair
  keeps its own generator and draw stream, and its float operations run
  in the oracle's order; only the walk over the draws is batched.  A
  pair expecting few attempts per sample is walked from every draw at
  once and its samples chained afterwards; any other pair skips the
  attempts that change nothing.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.eviction import EvictionModel
from repro.cloud.pricing import PriceCatalog
from repro.core.dataset import DataPoint, Dataset
from repro.core.query import Query
from repro.errors import AdvisorError
from repro.rng import rng_for

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.plotdata import PlotInput

#: infra_metrics key under which capacity views stash the P95 makespan.
P95_METRIC = "p95_makespan_s"


def reprice_point(
    point: DataPoint,
    catalog: PriceCatalog,
    region: Optional[str] = None,
    spot: bool = False,
) -> DataPoint:
    """A copy of ``point`` with cost recomputed from the catalog."""
    new_cost = catalog.task_cost(
        point.sku, point.nnodes, point.exec_time_s, region=region, spot=spot
    )
    return replace(point, cost_usd=new_cost)


def reprice_dataset(
    dataset: Dataset,
    catalog: PriceCatalog,
    region: Optional[str] = None,
    spot: bool = False,
) -> Dataset:
    """Reprice every point (times preserved, costs recomputed)."""
    return Dataset([
        reprice_point(p, catalog, region=region, spot=spot) for p in dataset
    ])


# -- spot-risk model -----------------------------------------------------------------


def _chunks(work_s: float, interval_s: float) -> List[float]:
    """Work split at checkpoint boundaries (last chunk may be short)."""
    if work_s <= 0:
        return []
    full = int(work_s // interval_s)
    chunks = [interval_s] * full
    remainder = work_s - full * interval_s
    if remainder > 1e-12:
        chunks.append(remainder)
    return chunks


def expected_spot_runtime(
    exec_time_s: float,
    rate_per_hour: float,
    recovery: str = "checkpoint_restart",
    checkpoint_interval_s: float = 600.0,
    checkpoint_overhead_s: float = 60.0,
) -> float:
    """Expected seconds to finish ``exec_time_s`` of work on spot capacity.

    ``rate_per_hour`` is the *task-level* eviction rate (the per-node rate
    times the node count — see :meth:`EvictionModel.rate_per_hour`).
    Closed-form under the memoryless model; converges to ``exec_time_s``
    as the rate goes to zero.
    """
    if not math.isfinite(exec_time_s):
        raise AdvisorError(f"non-finite work: {exec_time_s}")
    if exec_time_s < 0:
        raise AdvisorError(f"negative work: {exec_time_s}")
    lam = rate_per_hour / 3600.0
    if lam <= 0 or exec_time_s == 0:
        return exec_time_s
    if recovery == "restart":
        return _expm1_or_inf(lam * exec_time_s) / lam
    if recovery == "checkpoint_restart":
        # Memorylessness makes the per-chunk decomposition exact: each
        # chunk's first attempt continues the running streak (no restore),
        # and every attempt after an eviction restores first — except on
        # the first chunk, where no checkpoint exists yet, so retries
        # start from zero with nothing to restore (exactly what the
        # collector and the Monte-Carlo simulation do).
        total = 0.0
        for index, chunk in enumerate(
                _chunks(exec_time_s, checkpoint_interval_s)):
            overhead = checkpoint_overhead_s if index > 0 else 0.0
            total += _chunk_expected_s(chunk, overhead, lam)
            if math.isinf(total):
                break
        return total
    raise AdvisorError(
        f"no expected-runtime model for recovery policy {recovery!r}"
    )


def _chunk_expected_s(chunk_s: float, overhead_s: float, lam: float) -> float:
    """Expected time to bank one checkpoint chunk of ``chunk_s`` work.

    First attempt needs ``chunk_s`` of uptime; retries pay the restore
    first, so they need ``chunk_s + overhead_s`` each.  Standard renewal
    argument under exponential uptimes.
    """
    p0 = math.exp(-lam * chunk_s)
    if p0 >= 1.0:
        return chunk_s
    # Expected completion from the retry state, restarts included:
    # (e^{lam a} - 1) / lam with a = chunk + restore.
    retry = _expm1_or_inf(lam * (chunk_s + overhead_s)) / lam
    if math.isinf(retry):
        return math.inf
    # Mean uptime burned by the failed first attempt, given it failed.
    wasted = 1.0 / lam - chunk_s * p0 / (1.0 - p0)
    return p0 * chunk_s + (1.0 - p0) * (wasted + retry)


def _expm1_or_inf(x: float) -> float:
    """``e^x - 1`` saturating to inf instead of overflowing (x ~ 710+)."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


# -- memoized kernels ----------------------------------------------------------------
#
# Both kernels are pure functions of their arguments (the Monte-Carlo
# sampler is seeded from them), so results can be shared process-wide:
# across rows, across requests, and across snapshot generations.  Each
# advice engine keeps its own memo.  The objects engine (spot_view_point)
# goes through the scalar ``_cached`` entry points below; the columnar
# engine goes through spot_pair_risks and the batched kernel.  Neither
# can serve the other a value, so the columnar == objects suites compare
# the batched kernel with the scalar oracle on every run.

_RISK_MEMO_MAX = 65536
_EXPECTED_MEMO: dict = {}
_P95_MEMO: dict = {}
#: The columnar engine's memo: (recovery, interval, overhead, samples,
#: seed) -> {(exec time, rate): (P95, expected makespan)}.
_PAIR_RISK_MEMO: Dict[tuple, Dict[Tuple[float, float], Tuple[float, float]]] = {}
_PAIR_RISK_LOCK = threading.Lock()


def expected_spot_runtime_cached(
    exec_time_s: float,
    rate_per_hour: float,
    recovery: str = "checkpoint_restart",
    checkpoint_interval_s: float = 600.0,
    checkpoint_overhead_s: float = 60.0,
) -> float:
    """Memoized :func:`expected_spot_runtime` (bit-identical results)."""
    key = (exec_time_s, rate_per_hour, recovery,
           checkpoint_interval_s, checkpoint_overhead_s)
    got = _EXPECTED_MEMO.get(key)
    if got is None:
        got = expected_spot_runtime(
            exec_time_s, rate_per_hour, recovery,
            checkpoint_interval_s, checkpoint_overhead_s,
        )
        if len(_EXPECTED_MEMO) >= _RISK_MEMO_MAX:
            _EXPECTED_MEMO.clear()
        _EXPECTED_MEMO[key] = got
    return got


def p95_spot_runtime_cached(
    exec_time_s: float,
    rate_per_hour: float,
    recovery: str = "checkpoint_restart",
    checkpoint_interval_s: float = 600.0,
    checkpoint_overhead_s: float = 60.0,
    samples: int = 256,
    seed: int = 0,
) -> float:
    """Memoized :func:`p95_spot_runtime` (bit-identical results)."""
    key = (exec_time_s, rate_per_hour, recovery, checkpoint_interval_s,
           checkpoint_overhead_s, samples, seed)
    got = _P95_MEMO.get(key)
    if got is None:
        got = p95_spot_runtime(
            exec_time_s, rate_per_hour, recovery,
            checkpoint_interval_s, checkpoint_overhead_s,
            samples=samples, seed=seed,
        )
        if len(_P95_MEMO) >= _RISK_MEMO_MAX:
            _P95_MEMO.clear()
        _P95_MEMO[key] = got
    return got


def simulate_spot_makespans(
    exec_time_s: float,
    rate_per_hour: float,
    recovery: str = "checkpoint_restart",
    checkpoint_interval_s: float = 600.0,
    checkpoint_overhead_s: float = 60.0,
    samples: int = 256,
    seed: int = 0,
    max_attempts: int = 4096,
) -> np.ndarray:
    """Seeded Monte-Carlo makespans for one task (tail statistics).

    Deterministic for a given seed (built on :func:`repro.rng.rng_for`),
    so advice tables and benchmarks that quote a P95 are reproducible.
    A sample still unfinished after ``max_attempts`` evictions records
    ``inf`` — an honest "effectively never finishes", never a fictitious
    small makespan that would hide the tail from the Pareto front.
    """
    if samples < 1:
        raise AdvisorError(f"samples must be >= 1, got {samples}")
    if recovery not in ("restart", "checkpoint_restart"):
        raise AdvisorError(f"no simulation for recovery policy {recovery!r}")
    lam = rate_per_hour / 3600.0
    if lam <= 0 or exec_time_s <= 0:
        return np.full(samples, float(exec_time_s))
    rng = rng_for("spot-makespan", exec_time_s, rate_per_hour, recovery,
                  checkpoint_interval_s, checkpoint_overhead_s,
                  base_seed=seed)
    mean = 1.0 / lam
    # Uptimes come from a block buffer: censored samples burn thousands
    # of draws, and per-draw generator calls would dominate the runtime.
    buffer = np.empty(0)
    position = 0

    def next_uptime() -> float:
        nonlocal buffer, position
        if position >= len(buffer):
            buffer = rng.exponential(mean, size=512)
            position = 0
        value = float(buffer[position])
        position += 1
        return value

    out = np.empty(samples)
    for i in range(samples):
        elapsed = 0.0
        done = 0.0
        finished = False
        overhead = 0.0  # restore cost of the *next* attempt
        for _attempt in range(max_attempts):
            remaining = exec_time_s - done + overhead
            uptime = next_uptime()
            if uptime >= remaining:
                elapsed += remaining
                finished = True
                break
            elapsed += uptime
            if recovery == "checkpoint_restart":
                progress = max(0.0, uptime - overhead)
                done = math.floor(
                    (done + progress) / checkpoint_interval_s
                ) * checkpoint_interval_s
                overhead = checkpoint_overhead_s if done > 0 else 0.0
            else:  # restart
                done = 0.0
        out[i] = elapsed if finished else math.inf
    return out


def p95_spot_runtime(
    exec_time_s: float,
    rate_per_hour: float,
    recovery: str = "checkpoint_restart",
    checkpoint_interval_s: float = 600.0,
    checkpoint_overhead_s: float = 60.0,
    samples: int = 256,
    seed: int = 0,
) -> float:
    """P95 of the simulated makespan distribution (see above).

    Uses the "higher" order statistic rather than interpolation: it never
    understates the tail, and it stays well-defined when censored samples
    put ``inf`` in the distribution (interpolating between two infs is
    NaN, which would poison the Pareto front).
    """
    spans = np.sort(simulate_spot_makespans(
        exec_time_s, rate_per_hour, recovery,
        checkpoint_interval_s, checkpoint_overhead_s,
        samples=samples, seed=seed,
    ))
    return float(spans[p95_rank(len(spans))])


def p95_rank(samples: int) -> int:
    """Index of the P95 ("higher") order statistic among ``samples``
    sorted values: 243 of 256, so 13 censored samples make it ``inf``."""
    return min(samples - 1, math.ceil(0.95 * (samples - 1)))


# -- batched Monte-Carlo P95 (columnar engine) ---------------------------------------
#
# A pair's samples share one draw stream: sample i starts at the draw
# after sample i - 1's last attempt, so one pair is inherently
# sequential.  Pairs are independent, and the batched kernel walks many
# of them at once.  Each pair becomes a *lane* with its own
# ``rng_for`` generator.  Its draws do not depend on how many one
# generator call makes, so a lane that draws all its uptimes in one
# call gets the oracle's 512-draw blocks value for value.  Every float
# operation runs in the oracle's order, so each lane's samples, and its
# P95, are the oracle's bit for bit.
#
# A lane's walk is chosen from its expected attempts per sample:
# * short lanes (a few attempts per sample: every low-rate what-if)
#   draw their uptimes up front, and a speculative sample is walked
#   from every draw of a chunk of lanes at once, one NumPy step per
#   attempt within a sample; each lane then chains its real samples
#   from its first draw.  Its cost follows the number of draws, not the
#   longest lane's attempts.  A lane whose chain runs out of drawn
#   uptimes, or would reach the attempt cap, goes to the other walk,
#   which starts it over;
# * long lanes (high rates, where the oracle can run into its attempt
#   cap) walk alone, and skip each run of attempts that changes no
#   state with one vector compare over the draw block.  A long lane
#   stops once P95 is known to be ``inf``: when ``samples -
#   p95_rank(samples)`` of its samples are censored.

#: Exponential draws per generator call of the skipping walk (the
#: oracle's block size).
_DRAW_BLOCK = 512
#: Short lanes walked together.  Their uptime, span and next-start
#: buffers take 24 bytes a draw: at most 3.7 MB at 256 samples (1,203
#: draws a lane at 4 expected attempts), ~1 MB at perfbench's rates.
#: Small chunks keep a walk step's arrays in cache (1,024-lane chunks
#: took a third longer on ``bench_advice_path``'s ``cold_spot`` pairs).
_LANE_CHUNK = 128
#: Lanes expecting at most this many attempts per sample are walked
#: from every draw; the others skip.
_LOCKSTEP_ATTEMPTS = 4.0


def p95_spot_runtimes(
    exec_times_s,
    rates_per_hour,
    recovery: str = "checkpoint_restart",
    checkpoint_interval_s: float = 600.0,
    checkpoint_overhead_s: float = 60.0,
    samples: int = 256,
    seed: int = 0,
    max_attempts: int = 4096,
) -> np.ndarray:
    """:func:`p95_spot_runtime` of every ``(exec time, rate)`` pair.

    ``exec_times_s`` and ``rates_per_hour`` are equal-length float
    sequences.  Element ``i`` of the result is bit-identical to
    ``p95_spot_runtime(float(exec_times_s[i]), float(rates_per_hour[i]),
    ...)`` with the same remaining arguments, and to the P95 of
    :func:`simulate_spot_makespans` for any ``max_attempts``.  Duplicate
    pairs are simulated once per occurrence; dedupe first if that
    matters.
    """
    if samples < 1:
        raise AdvisorError(f"samples must be >= 1, got {samples}")
    if recovery not in ("restart", "checkpoint_restart"):
        raise AdvisorError(f"no simulation for recovery policy {recovery!r}")
    if recovery == "checkpoint_restart" and not checkpoint_interval_s > 0:
        raise AdvisorError(
            f"checkpoint interval must be > 0, got {checkpoint_interval_s}"
        )
    times = np.asarray(exec_times_s, dtype=np.float64)
    rates = np.asarray(rates_per_hour, dtype=np.float64)
    if times.shape != rates.shape or times.ndim != 1:
        raise AdvisorError("exec times and rates must be equal-length 1-D")
    # Without a hazard or work every sample is the work itself.
    out = times.copy()
    lam = rates / 3600.0
    live = np.flatnonzero(~((lam <= 0) | (times <= 0)))
    if not live.size:
        return out
    rank = p95_rank(samples)
    work = times[live]
    expected = _expected_attempts(work, lam[live], recovery,
                                  checkpoint_interval_s,
                                  checkpoint_overhead_s)
    short = expected <= _LOCKSTEP_ATTEMPTS
    work_list = work.tolist()
    rate_list = rates[live].tolist()
    with np.errstate(over="ignore"):  # a subnormal rate: inf uptimes
        mean_list = (1.0 / lam[live]).tolist()

    def generator(lane: int) -> np.random.Generator:
        return rng_for("spot-makespan", work_list[lane], rate_list[lane],
                       recovery, checkpoint_interval_s, checkpoint_overhead_s,
                       base_seed=seed)

    walk = (recovery, checkpoint_interval_s, checkpoint_overhead_s, samples,
            max_attempts, rank)
    every_start = np.flatnonzero(short)
    skipping = [np.flatnonzero(~short)]
    for begin in range(0, every_start.size, _LANE_CHUNK):
        chunk = every_start[begin:begin + _LANE_CHUNK]
        lanes = chunk.tolist()
        out[live[chunk]], unfinished = _every_start_p95(
            work[chunk], _draw_budget(expected[chunk], samples),
            [mean_list[i] for i in lanes], [generator(i) for i in lanes],
            *walk)
        skipping.append(chunk[unfinished])
    for lane in np.concatenate(skipping).tolist():
        out[live[lane]] = _skipping_p95(
            work_list[lane], mean_list[lane], generator(lane), *walk)
    return out


def _expected_attempts(
        work: np.ndarray, lam: np.ndarray, recovery: str, interval: float,
        overhead: float) -> np.ndarray:
    """Expected attempts per sample of each lane: one plus, per
    checkpoint chunk, the ``e^{lam a} - 1`` evictions expected before
    ``a`` seconds of uptime bank it; restart banks the whole run at
    once.  Rough, and only used to pick a walk."""
    with np.errstate(over="ignore", invalid="ignore"):
        if recovery == "restart":
            return 1.0 + np.expm1(lam * work)
        chunks = np.ceil(work / interval)
        uptime = np.minimum(work, interval) + np.where(chunks > 1, overhead,
                                                       0.0)
        return 1.0 + chunks * np.expm1(lam * uptime)


def _draw_budget(expected: np.ndarray, samples: int) -> np.ndarray:
    """Uptimes drawn up front for each short lane: the draws its samples
    are expected to take (at most 8 attempts each counted), with 15%
    and 24 draws to spare.  A lane whose samples need more is handed
    over to :func:`_skipping_p95`."""
    draws = np.ceil(samples * np.minimum(expected, 8.0) * 1.15 + 24.0)
    return draws.astype(np.intp)


def _lowest_remaining(work: np.ndarray, recovery: str, interval: float,
                      overhead: float) -> np.ndarray:
    """A floor under the oracle's ``remaining`` in every state a sample
    of each lane can reach, so under any finishing draw.

    Restart keeps the whole work.  A checkpointed sample banks ``done =
    floor(y / interval) * interval`` of a ``y`` that stays within
    rounding of the work, and ``(work - done) + overhead`` falls as
    ``done`` grows: the floor is that of the largest multiple the work
    could bank, counted generously (it may fall to or below zero, and
    then no start is left out).  A start left out keeps a NaN span, so
    a floor set too high would cost hand-overs, never a wrong answer."""
    if recovery == "restart":
        return work
    with np.errstate(over="ignore", invalid="ignore"):
        most = np.floor(work / interval * (1.0 + 1e-6))
        most *= interval
        lowest = work - most
        lowest += overhead
    return np.where(most > 0, np.minimum(work, lowest), work)


def _every_start_p95(work: np.ndarray, counts: np.ndarray,
                     means: List[float],
                     generators: List[np.random.Generator], recovery: str,
                     interval: float, overhead: float, samples: int,
                     max_attempts: int,
                     rank: int) -> Tuple[np.ndarray, np.ndarray]:
    """(P95 per lane, lanes left unfinished) for short lanes, walked
    from every draw at once.

    A sample starts from the fresh state, so the sample that starts at
    a lane's draw ``p`` depends on the draws from ``p`` on and nothing
    else.  Each lane's ``counts`` uptimes (from one generator call) are
    drawn up front into one flat buffer, and a *speculative* sample is
    walked from every position that can start one: one NumPy step per
    attempt within a sample, over the starts still running.  A finished start records its span and the start
    after its last attempt; a lane's samples are the chain of those
    pointers from its first draw.

    A speculative sample stays unresolved (a NaN span) where it would
    read past its lane's draws or make the capped attempt, so it never
    reads another lane's draws and the cap stays with
    :func:`_skipping_p95`.  A lane whose chain meets an unresolved
    start is reported (NaN in the result), and a restart of it there
    handles it exactly.
    """
    n = len(work)
    if max_attempts < 2:  # a sample's first attempt may be capped
        return np.full(n, math.nan), np.arange(n)
    # Each lane's draws, then one NaN pad: the lane's sentinel, a NaN
    # span that points to itself, and the end of any walk that reads it.
    pads = np.cumsum(counts + 1) - 1
    firsts = pads - counts
    slots = np.column_stack((counts, np.ones(n, np.intp))).ravel()

    def per_slot(values: np.ndarray) -> np.ndarray:
        """Each lane's value at its draws, NaN at its pad."""
        return np.repeat(
            np.column_stack((values, np.full(n, math.nan))).ravel(), slots)

    uptimes = np.empty(int(pads[-1]) + 1)
    for gen, mean, first, pad in zip(generators, means, firsts.tolist(),
                                     pads.tolist()):
        uptimes[first:pad] = gen.exponential(mean, size=pad - first)
    uptimes[pads] = math.nan
    # Per start: its span and the start of the lane's next sample.
    # Attempt 0 from the fresh state: a finish's span is the work.
    spans = per_slot(work)
    nxt = np.arange(1, uptimes.size + 1)
    nxt[pads] = pads
    failed = uptimes < spans
    # A lane's later samples start right after a finishing draw, which
    # is at least the lowest ``remaining`` any of its states has: the
    # other starts are never reached, and are not walked.
    lowest = per_slot(_lowest_remaining(work, recovery, interval,
                                        overhead))
    walked = failed.copy()
    # (after a NaN pad, a lane's first draw is always walked)
    walked[1:] &= ~(uptimes[:-1] < lowest[1:])
    start = np.flatnonzero(walked)
    work = spans[start]
    spans[failed] = math.nan
    checkpoint = recovery == "checkpoint_restart"
    elapsed = uptimes[start]  # 0.0 + uptime
    done = np.zeros(start.size)  # restart never banks
    if checkpoint:
        done = np.floor(elapsed / interval)
        done *= interval
    reserve = np.where(done > 0, overhead, 0.0)  # the next restore
    for attempt in range(1, max_attempts - 1):
        if not start.size:
            break
        uptime = uptimes[start + attempt]
        remaining = work - done
        remaining += reserve
        finished = uptime >= remaining
        if finished.any():
            ended = start[finished]
            spans[ended] = elapsed[finished] + remaining[finished]
            nxt[ended] = ended + (attempt + 1)
        # A NaN uptime, the lane's pad, ends the walk unresolved.
        keep = np.flatnonzero(uptime < remaining)
        if keep.size < start.size:
            start, work, elapsed, uptime, done, reserve = (
                start[keep], work[keep], elapsed[keep], uptime[keep],
                done[keep], reserve[keep])
        elapsed += uptime
        if checkpoint:
            progress = uptime - reserve
            np.maximum(progress, 0.0, out=progress)
            progress += done
            progress /= interval
            np.floor(progress, out=progress)
            progress *= interval
            done = progress
            reserve = np.where(done > 0, overhead, 0.0)
    # Starts still running here stay unresolved.  Follow each lane's
    # samples: a NaN among them sends the lane to the other walk.
    chain = np.empty((samples, n), dtype=np.intp)
    chain[0] = firsts
    for sample in range(1, samples):
        chain[sample] = nxt[chain[sample - 1]]
    taken = spans.take(chain.T)  # one row per lane
    unfinished = np.flatnonzero(np.isnan(taken).any(axis=1))
    taken.partition(rank, axis=1)
    return taken[:, rank], unfinished


def _skipping_p95(work: float, mean: float, gen: np.random.Generator,
                  recovery: str, interval: float, overhead: float,
                  samples: int, max_attempts: int, rank: int) -> float:
    """P95 of one long lane: the oracle's walk, except that runs of
    attempts that change no state are summed in one go.

    In each state, an uptime below ``min(remaining, quiet)`` neither
    finishes the sample nor banks a checkpoint (:func:`_quiet_below`).
    When the next draw is such an uptime, one compare over the rest of
    the draw block finds the next attempt worth the oracle's
    arithmetic.  ``quiet`` is worked out only once an attempt in the
    state has banked nothing: a lane that banks a checkpoint on almost
    every attempt then walks like the oracle.
    """
    limit = samples - rank
    checkpoint = recovery == "checkpoint_restart"
    quiet_from_zero = (_quiet_below(0.0, 0.0, interval) if checkpoint
                       else math.inf)
    spans: List[float] = []
    censored = 0
    block = gen.exponential(mean, size=_DRAW_BLOCK)
    position = 0
    for _sample in range(samples):
        elapsed = 0.0
        done = 0.0
        reserve = 0.0
        quiet = quiet_from_zero
        tries = 0
        finished = False
        while tries < max_attempts:
            if position == _DRAW_BLOCK:
                block = gen.exponential(mean, size=_DRAW_BLOCK)
                position = 0
            remaining = work - done + reserve
            uptime = float(block[position])
            if uptime < quiet and uptime < remaining:
                budget = min(_DRAW_BLOCK - position, max_attempts - tries)
                ahead = block[position:position + budget]
                worth = ahead >= min(remaining, quiet)
                skip = int(worth.argmax())
                if not worth[skip]:
                    skip = budget
                # A sample cut at the cap never reports its elapsed.
                if skip < max_attempts - tries:
                    elapsed = _add_in_order(elapsed, ahead[:skip])
                position += skip
                tries += skip
                if skip == budget:
                    continue
                uptime = float(block[position])
            position += 1
            tries += 1
            if uptime >= remaining:
                elapsed += remaining
                finished = True
                break
            elapsed += uptime
            if checkpoint:
                progress = max(0.0, uptime - reserve)
                banked = math.floor((done + progress) / interval) * interval
                if banked != done:
                    done = banked
                    reserve = overhead if done > 0 else 0.0
                    quiet = -math.inf  # not worked out yet
                elif quiet == -math.inf:
                    quiet = _quiet_below(done, reserve, interval)
        if finished:
            spans.append(elapsed)
        else:
            censored += 1
            if censored >= limit:
                return math.inf
    spans.extend([math.inf] * censored)
    spans.sort()
    return spans[rank]


def _quiet_below(done: float, reserve: float, interval: float) -> float:
    """An uptime up to which a failed attempt banks nothing new, from
    ``done`` banked with ``reserve`` to restore; 0.0 if none is found.

    The oracle's ``floor((done + max(0, uptime - reserve)) / interval) *
    interval`` never decreases as the uptime grows (each operation is
    monotone under round-to-nearest).  So if it equals ``done`` at zero
    and at the guess, it does everywhere in between.  The guess sits a
    hair below the next checkpoint, ``interval + reserve`` away.
    """
    def banked(uptime: float) -> float:
        return math.floor(
            (done + max(0.0, uptime - reserve)) / interval) * interval

    steps = done / interval
    if not math.isfinite(steps):
        return 0.0
    guess = (round(steps + 1) * interval - done + reserve) * (1.0 - 1e-12)
    if guess > 0 and banked(0.0) == done and banked(guess) == done:
        return guess
    return 0.0


def _add_in_order(total: float, values: np.ndarray) -> float:
    """``total`` plus each of ``values`` in turn, as the oracle's
    ``elapsed += uptime`` does.  ``np.cumsum`` accumulates sequentially
    (unlike ``np.sum``'s pairwise summation) but costs ~2.5 µs a call
    whatever the length; a Python loop costs ~0.35 µs up to 8 values
    and breaks even near 64-128 (2-vCPU host, NumPy 2.4).  Most runs
    are short: at 1.0/node-hour on 2k points, 67% of calls sum fewer
    than 32 values."""
    if len(values) < 32:
        for value in values.tolist():
            total += value
        return total
    terms = np.empty(len(values) + 1)
    terms[0] = total
    terms[1:] = values
    return float(np.cumsum(terms)[-1])


def spot_pair_risks(
    exec_times_s: np.ndarray,
    rates_per_hour: np.ndarray,
    recovery: str = "checkpoint_restart",
    checkpoint_interval_s: float = 600.0,
    checkpoint_overhead_s: float = 60.0,
    samples: int = 256,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """(P95, expected) makespans of unique ``(exec time, rate)`` pairs.

    The columnar engine's memo pass: one lookup per pair, then one
    :func:`p95_spot_runtimes` call for every pair the memo lacks, whose
    expected makespans come from :func:`expected_spot_runtime`.
    """
    context = (recovery, checkpoint_interval_s, checkpoint_overhead_s,
               samples, seed)
    memo = _PAIR_RISK_MEMO.get(context, {})
    keys = list(zip(exec_times_s.tolist(), rates_per_hour.tolist()))
    found = list(map(memo.get, keys))
    missing = [i for i, value in enumerate(found) if value is None]
    if missing:
        p95 = p95_spot_runtimes(
            exec_times_s[missing], rates_per_hour[missing], recovery,
            checkpoint_interval_s, checkpoint_overhead_s,
            samples=samples, seed=seed,
        ).tolist()
        for i, tail in zip(missing, p95):
            work, rate = keys[i]
            found[i] = (tail, expected_spot_runtime(
                work, rate, recovery, checkpoint_interval_s,
                checkpoint_overhead_s,
            ))
        # A batch larger than the bound keeps only its last pairs.
        kept = missing[max(0, len(missing) - _RISK_MEMO_MAX):]
        # Service threads share the memo: size it and fill it atomically.
        with _PAIR_RISK_LOCK:
            size = sum(len(entries) for entries in _PAIR_RISK_MEMO.values())
            if size + len(kept) > _RISK_MEMO_MAX:
                _PAIR_RISK_MEMO.clear()
            memo = _PAIR_RISK_MEMO.setdefault(context, {})
            for i in kept:
                memo[keys[i]] = found[i]
    risks = np.asarray(found, dtype=np.float64).reshape(len(found), 2)
    return risks[:, 0], risks[:, 1]


# -- capacity views ------------------------------------------------------------------


def spot_view_point(
    point: DataPoint,
    catalog: PriceCatalog,
    eviction: EvictionModel,
    region: Optional[str] = None,
    recovery: str = "checkpoint_restart",
    checkpoint_interval_s: float = 600.0,
    checkpoint_overhead_s: float = 60.0,
    p95_samples: int = 256,
) -> DataPoint:
    """``point`` as it would look on spot capacity.

    A point *measured* on spot keeps its realized makespan and effective
    cost (the simulation already paid the risk); an on-demand measurement
    gets the closed-form expected makespan and the spot price applied to
    the expected billed time.  Both get a seeded P95 makespan stashed in
    ``infra_metrics[P95_METRIC]``, giving the advisor its third axis.
    """
    rate = eviction.rate_per_hour(point.sku, point.nnodes)
    # The scalar oracle, memoized for this engine alone (see the memo
    # section above): repeated shapes still cost one simulation each.
    p95 = p95_spot_runtime_cached(
        point.exec_time_s, rate, recovery,
        checkpoint_interval_s, checkpoint_overhead_s,
        samples=p95_samples, seed=eviction.seed,
    )
    metrics = dict(point.infra_metrics)
    metrics[P95_METRIC] = p95
    if point.capacity == "spot":
        return replace(
            point,
            makespan_s=point.makespan_s or point.exec_time_s,
            infra_metrics=metrics,
        )
    expected = expected_spot_runtime_cached(
        point.exec_time_s, rate, recovery,
        checkpoint_interval_s, checkpoint_overhead_s,
    )
    return replace(
        point,
        capacity="spot",
        makespan_s=expected,
        # All uptime bills, lost work included: expected cost follows the
        # expected *makespan*, not the useful work.
        cost_usd=catalog.task_cost(
            point.sku, point.nnodes, expected, region=region, spot=True
        ),
        wasted_node_s=max(0.0, expected - point.exec_time_s) * point.nnodes,
        infra_metrics=metrics,
    )


def ondemand_view_point(
    point: DataPoint,
    catalog: PriceCatalog,
    region: Optional[str] = None,
) -> DataPoint:
    """``point`` as it would look on uninterrupted on-demand capacity.

    Strips spot dynamics: the useful work time is what an on-demand run
    takes, billed at the on-demand rate.
    """
    return replace(
        point,
        capacity="ondemand",
        makespan_s=point.exec_time_s,
        cost_usd=catalog.task_cost(
            point.sku, point.nnodes, point.exec_time_s,
            region=region, spot=False,
        ),
        preemptions=0,
        wasted_node_s=0.0,
    )


def capacity_view(
    dataset: Dataset,
    catalog: PriceCatalog,
    capacity: str,
    eviction: Optional[EvictionModel] = None,
    region: Optional[str] = None,
    recovery: str = "checkpoint_restart",
    checkpoint_interval_s: float = 600.0,
    checkpoint_overhead_s: float = 60.0,
    query: Optional[Query] = None,
) -> Dataset:
    """The dataset re-expressed on one capacity tier (what-if advice).

    ``query`` narrows the view first (store-backed callers should push
    it down when loading instead; see ``AdvisorSession.query_dataset``).
    """
    if query is not None:
        dataset = dataset.query(query)
    if capacity == "ondemand":
        return Dataset([
            ondemand_view_point(p, catalog, region=region) for p in dataset
        ])
    if capacity == "spot":
        model = eviction if eviction is not None else EvictionModel(
            region=region
        )
        return Dataset([
            spot_view_point(
                p, catalog, model, region=region, recovery=recovery,
                checkpoint_interval_s=checkpoint_interval_s,
                checkpoint_overhead_s=checkpoint_overhead_s,
            )
            for p in dataset
        ])
    raise AdvisorError(
        f"capacity must be 'ondemand' or 'spot', got {capacity!r}"
    )


# -- what-if summary (CLI `advice --spot`) -------------------------------------------


def spot_savings_summary(
    dataset: PlotInput,
    catalog: PriceCatalog,
    region: Optional[str] = None,
    eviction: Optional[EvictionModel] = None,
    recovery: str = "checkpoint_restart",
    checkpoint_interval_s: float = 600.0,
    checkpoint_overhead_s: float = 60.0,
) -> str:
    """Render the on-demand vs spot advice comparison.

    Both sides of the table are fronts over *their own* dynamics: the
    spot column reprices **and** re-times each configuration under the
    eviction model (an earlier version kept the on-demand execution time
    next to the spot price, which overstated spot exactly when the risk
    mattered — with eviction dynamics the makespans differ).

    Runs on the columnar engine: one snapshot of the dataset feeds both
    capacity views as array ops instead of two per-point rebuild passes
    (the views used to reallocate every point's metric dict twice per
    request) — the advice rows are identical either way, pinned by the
    columnar equivalence suite.  ``dataset`` is a :class:`Dataset` or
    snapshot columns already filtered (``session.snapshot(name).view(q)``,
    what the advice table read), converted by
    :func:`repro.core.plotdata.as_columns`.
    """
    from repro.core.columnar import advise_columns, capacity_columns
    from repro.core.plotdata import as_columns

    model = eviction if eviction is not None else EvictionModel(region=region)
    snap = as_columns(dataset)
    on_demand = advise_columns(
        capacity_columns(snap, catalog, "ondemand", region=region)
    )
    spot_rows = advise_columns(
        capacity_columns(
            snap, catalog, "spot", eviction=model, region=region,
            recovery=recovery,
            checkpoint_interval_s=checkpoint_interval_s,
            checkpoint_overhead_s=checkpoint_overhead_s,
        ),
        objective="effective",
    )
    lines = [
        "configuration                     on-demand            spot "
        "(risk-adjusted)"
    ]
    spot_index = {(r.sku, r.nnodes): r for r in spot_rows}
    for row in on_demand:
        spot_row = spot_index.get((row.sku, row.nnodes))
        if spot_row is None:
            spot_cell = "(off front)"
        else:
            spot_cell = (f"${spot_row.cost_usd:.4f} "
                         f"E[{spot_row.makespan_s:.0f}s]")
        lines.append(
            f"{row.nnodes:>3}x {row.sku_short:<24} "
            f"${row.cost_usd:.4f} {row.exec_time_s:>5.0f}s   {spot_cell}"
        )
    discount = catalog.spot_discount
    lines.append(
        f"(spot assumes a {discount:.0%} discount; expected makespans "
        f"include eviction recovery via {recovery})"
    )
    return "\n".join(lines) + "\n"


def cheapest_capacity(
    rows_by_capacity: Sequence,
) -> Optional[str]:
    """Label of the capacity tier whose cheapest advice row wins.

    ``rows_by_capacity`` is an iterable of ``(label, rows)`` pairs; rows
    are :class:`~repro.core.advisor.AdviceRow`.  Ties go to the earlier
    entry.  Convenience for benchmarks and examples that ask "on-demand
    or spot?".
    """
    best_label, best_cost = None, math.inf
    for label, rows in rows_by_capacity:
        for row in rows:
            if row.cost_usd < best_cost:
                best_label, best_cost = label, row.cost_usd
    return best_label
