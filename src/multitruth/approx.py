"""Quadratic-time approximation of the possible-world enumeration.

Every value gets a vote count from its providers' accuracies; the "no
more truth" decision gets a per-step vote combining the stop prior with
how many values each source provided.  The loop adds, step by step, the
probability of a value being the i-th truth, and stops once the stop vote
overtakes the i-th strongest value.  The absolute error against the exact
enumeration is typically far below 0.01, but 1/6 does not bound it on
every instance: the worst-case family `case_one_fixture` drives it towards
1/6, and some instances exceed even that.  `ERROR_BOUND` (1/6) is the
family's limit and the threshold `verify_bound` enforces, not a guarantee.

Votes are built in the log domain, as sums of per-source log terms taken
in source order, so no source count overflows them.  `approx_fuse` runs
one item through the step loop on weights shifted by the item's largest
vote; `approx_fuse_round` runs every item of a `ClaimIndex` at once on
arrays, with log-sum-exp denominators, and is what `iterate` uses: it
returns an `index.FusionRound`, the probabilities as one array, and
builds the result objects only when its `results()` is called.
`vote_count`, `bot_vote_count` and `fixture_from_qualities` build the
same votes as linear-domain products, an independent reference that
`approx_fuse_from_votes` runs through the scalar step loop.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .errors import FusionError
from .index import ClaimIndex, FusionRound, blocks
from .model import (
    ClaimSet,
    FusionDiagnostics,
    FusionResult,
    PriorConfig,
    SourceQuality,
    StepTrace,
    VoteCountFixture,
    beta_at,
    prior_slot_count,
    quality_of,
    sort_values,
)

ERROR_BOUND = 1.0 / 6.0


def vote_count(value: Any, providers: Iterable[Any],
               qualities: Mapping[Any, SourceQuality], n: int) -> float:
    """Evidence weight of a value: the product of n*A/(1-A) over its
    providers, multiplied in source order.  An empty provider set (a
    candidate kept alive after its sources were filtered out) contributes a
    neutral vote of 1."""
    total = 1.0
    for s in sorted(providers, key=str):
        a = quality_of(qualities, s).accuracy
        if a >= 1.0:
            raise FusionError(
                f"infinite vote count for {value!r}: source {s!r} has accuracy 1; "
                "clamp accuracy below 1")
        total *= n * a / (1.0 - a)
    return total


def bot_vote_count(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
                   prior: PriorConfig, i: int) -> float:
    """Vote of "no more truth" at step i, once i - 1 values are committed.

    Sources that provided more values than already committed argue against
    stopping; sources already fully accounted for argue in favor.
    """
    beta = beta_at(prior, i)
    prefactor = beta * prior_slot_count(prior, len(claims.candidates), i) / (1.0 - beta)
    total = prefactor
    for s in sorted(claims.per_source, key=str):
        provided = claims.per_source[s]
        q = quality_of(qualities, s)
        if len(provided) > i - 1:
            total *= q.false_positive_rate / (q.recall * (1.0 - q.accuracy))
        else:
            if q.recall >= 1.0:
                raise FusionError(
                    f"infinite stop vote: source {s!r} has recall 1; clamp recall below 1")
            total *= (1.0 - q.false_positive_rate) / (1.0 - q.recall)
    return total


def _run_steps(votes: Mapping[Any, float], bot_at: Callable[[int], float],
               method: str, item_id: Any,
               terminate: bool = True, record_steps: bool = True) -> FusionResult:
    """The shared step loop over a sorted vote list.

    With `terminate` false all |V| steps run (used for complexity checks);
    the truth cut is determined by the first step where the stop vote
    overtakes the step's value either way.
    """
    order = sort_values(votes)
    m = len(order)
    lv = [votes[v] for v in order]
    tail = [0.0] * (m + 1)
    for j in range(m - 1, -1, -1):
        tail[j] = tail[j + 1] + lv[j]

    p = [0.0] * m
    inc = [0.0] * m  # the current step's increments
    bots: List[float] = []
    steps: Optional[List[StepTrace]] = [] if record_steps else None
    cut_step: Optional[int] = None
    last_step = m
    for i in range(1, m + 1):
        bot = bot_at(i)
        bots.append(bot)
        denom = tail[i - 1] + bot
        if denom <= 0:
            raise FusionError("degenerate votes: zero denominator")
        for j in range(m):
            c = lv[j] / denom
            if c > 1.0:
                c = 1.0
            q = p[j]
            d = inc[j] = (1.0 - q) * c
            p[j] = q + d
        stop_here = bot > lv[i - 1]
        if steps is not None:
            steps.append(StepTrace(step=i, bot_vote=bot, increments=dict(zip(order, inc)),
                                   terminated=stop_here))
        if stop_here and cut_step is None:
            cut_step = i
            if terminate:
                last_step = i
                break

    if cut_step is None:
        truths = list(order)
    else:
        truths = order[: cut_step - 1]
        # the stop vote beat the boundary value, so its whole vote-tie
        # group is ruled out
        boundary = lv[cut_step - 1]
        truths = [v for v in truths if votes[v] != boundary]

    return FusionResult(
        item_id=item_id,
        probabilities={order[j]: p[j] for j in range(m)},
        selected_truths=truths,
        diagnostics=FusionDiagnostics(method=method, bot_votes=bots,
                                      termination_step=last_step, steps=steps),
    )


def _log_terms(qualities: Mapping[Any, SourceQuality], sources: Iterable[Any],
               n: int) -> Dict[Any, Tuple[float, float, float]]:
    """Per-source log terms of the votes, from the clamped quality; the
    hybrid's only clamp site.

    Returns (log n*A/(1-A), the log stop term while the source provided
    more values than are selected, the log stop term once it did not)."""
    terms = {}
    for s in sources:
        q = quality_of(qualities, s).clamped()
        a, r, f = q.accuracy, q.recall, q.false_positive_rate
        terms[s] = (math.log(n * a / (1.0 - a)),
                    math.log(f / (r * (1.0 - a))),
                    math.log((1.0 - f) / (1.0 - r)))
    return terms


def _log_prior_odds(prior: PriorConfig, i: int) -> float:
    """log(beta/(1-beta)) at step i; -inf where no item stops that early."""
    beta = beta_at(prior, i)
    return math.log(beta / (1.0 - beta)) if beta > 0 else -math.inf


def _shifted_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def approx_fuse(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
                prior: PriorConfig) -> FusionResult:
    """Approximate fusion of one item from source qualities (no step
    trace is recorded).

    The step loop runs on every vote divided by the largest one (the stop
    votes in the diagnostics are on that scale too), so no number of
    sources overflows it.  Where a step's votes and stop vote all lie some
    e^700 below the largest vote, their sum underflows on that scale and
    this raises `FusionError`; `approx_fuse_round` normalises each step
    on its own and does not."""
    sources = sorted(claims.per_source, key=str)
    terms = _log_terms(qualities, sources, prior.n)
    log_votes = dict.fromkeys(claims.candidates, 0.0)
    for s in sources:
        for v in claims.per_source[s]:
            log_votes[v] += terms[s][0]
    m = len(log_votes)
    sizes = [(len(claims.per_source[s]),) + terms[s][1:] for s in sources]
    top = max(log_votes.values())

    def bot(i):
        total = 0.0
        for k, more, rest in sizes:
            total += more if k >= i else rest
        total += _log_prior_odds(prior, i) + math.log(prior_slot_count(prior, m, i))
        return _shifted_exp(total - top)

    votes = {v: math.exp(lv - top) for v, lv in log_votes.items()}
    return _run_steps(votes, bot, "hybrid", claims.item_id, record_steps=False)


# Cells (items x candidates) of one block of the dataset pass: bounds the
# memory of its padded matrices, also when a few items have far more
# candidates than the rest.
BLOCK_CELLS = 1 << 14


def approx_fuse_round(index: ClaimIndex, qualities: Mapping[Any, SourceQuality],
                      prior: PriorConfig, active: Optional[Iterable[Any]] = None) -> FusionRound:
    """`approx_fuse` on every item of the index, with only the `active`
    sources (all if None) contributing, as one round.

    One pass: each quality is clamped once, the log votes and log stop
    votes are sums over the claim arrays in source order, and the step
    loop runs over many items at once in the log domain, in blocks of at
    most BLOCK_CELLS (items x candidates) cells."""
    if not len(index):
        return FusionRound(np.zeros(0), dict)
    mask = index.source_mask(active)
    terms = _log_terms(qualities, [s for s, on in zip(index.sources, mask) if on], prior.n)
    # an inactive source's terms are 0, which leaves every sum it enters
    # exactly as if it were skipped
    source_terms = np.zeros((len(index.sources), 3))
    for j, s in enumerate(index.sources):
        if mask[j]:
            source_terms[j] = terms[s]
    pair_terms = source_terms[index.pair_source]

    width = int(index.cand_count.max())
    log_odds = np.array([0.0] + [_log_prior_odds(prior, i) for i in range(1, width + 1)])
    log_int = np.array([-math.inf] + [math.log(k) for k in range(1, width + 2)])
    parts = [_fuse_block(index, lo, hi, pair_terms, log_odds, log_int, prior)
             for lo, hi in blocks([1] * len(index), index.cand_count.tolist(), BLOCK_CELLS)]
    ranked, probs, n_selected, last, bots = (np.concatenate(part) for part in zip(*parts))
    del parts
    probabilities = np.empty(len(probs))
    probabilities[ranked] = probs
    return FusionRound(probabilities, partial(_results, index, probabilities, ranked,
                                              n_selected, last, bots))


def _results(index: ClaimIndex, probabilities: np.ndarray, ranked: np.ndarray,
             n_selected: np.ndarray, last: np.ndarray,
             bots: np.ndarray) -> Dict[Any, FusionResult]:
    """Every item's `FusionResult`, its probabilities in vote order, from
    the arrays of a round: each candidate's probability in candidate
    order, the candidates of each item in vote order, each item's number
    of selected truths and termination step, and each item's stop votes
    up to that step, item after item."""
    tokens = index.tokens
    ranked_tokens = [tokens[g] for g in ranked.tolist()]
    probs, bots = probabilities[ranked].tolist(), bots.tolist()
    results: Dict[Any, FusionResult] = {}
    a = b = 0
    for d, (m, k, t) in enumerate(zip(index.cand_count.tolist(), n_selected.tolist(),
                                      last.tolist())):
        values = ranked_tokens[a:a + m]
        results[index.items[d]] = FusionResult(
            item_id=index.item_ids[d],
            probabilities=dict(zip(values, probs[a:a + m])),
            selected_truths=values[:k],
            diagnostics=FusionDiagnostics(method="hybrid", bot_votes=bots[b:b + t],
                                          termination_step=t),
        )
        a += m
        b += t
    return results


def _fuse_block(index: ClaimIndex, lo: int, hi: int, pair_terms: np.ndarray,
                log_odds: np.ndarray, log_int: np.ndarray, prior: PriorConfig):
    """The step loop over items lo..hi-1: one row per item, its
    candidates in vote order, padded with -inf votes.

    Returns the items' candidates in vote order, their probabilities in
    that order, each item's number of selected truths and termination
    step, and each item's stop votes up to that step."""
    c0, c1 = index.cand_start[lo], index.cand_start[hi]
    p0, p1 = index.pair_start[lo], index.pair_start[hi]
    k0, k1 = index.claim_start[lo], index.claim_start[hi]
    rows = hi - lo
    m = index.cand_count[lo:hi]
    width = int(m.max())

    log_votes = np.bincount(index.claim_cand[k0:k1] - c0,
                            weights=pair_terms[index.claim_pair[k0:k1], 0], minlength=c1 - c0)
    # the items' candidates by vote, then token; each stays in its item's range
    item = index.cand_item[c0:c1] - lo
    order = np.lexsort((-log_votes, item))
    row = item[order]
    col = np.arange(c1 - c0) - (index.cand_start[lo:hi] - c0)[row]
    lv = np.full((rows, width), -np.inf)
    lv[row, col] = log_votes[order]

    # log of each step's tail sum of votes (one row per step), and of each
    # item's stop vote at each step
    log_tail = np.full((width + 1, rows), -np.inf)
    for j in range(width - 1, -1, -1):
        np.logaddexp(lv[:, j], log_tail[j + 1], out=log_tail[j])
    pair_row = index.pair_item[p0:p1] - lo
    pair_size = index.pair_size[p0:p1]
    pair_more, pair_rest = pair_terms[p0:p1, 1], pair_terms[p0:p1, 2]
    log_bot = np.empty((rows, width))
    for i in range(1, width + 1):
        total = np.bincount(pair_row, weights=np.where(pair_size >= i, pair_more, pair_rest),
                            minlength=rows)
        slots = np.maximum(prior_slot_count(prior, m, i), 1)
        log_bot[:, i - 1] = total + (log_odds[i] + log_int[slots])

    p = np.zeros((rows, width))
    cut = np.zeros(rows, dtype=np.intp)
    last = m.copy()
    running = np.ones(rows, dtype=bool)
    for i in range(1, width + 1):
        live = np.flatnonzero(running)
        if not live.size:
            break
        bot = log_bot[live, i - 1]
        denom = np.logaddexp(log_tail[i - 1, live], bot)
        c = lv[live]
        c -= denom[:, None]
        np.minimum(c, 0.0, out=c)  # the conditional is clamped at 1
        np.exp(c, out=c)
        pl = p[live]
        c *= 1.0 - pl
        pl += c
        p[live] = pl
        stopped = live[bot > lv[live, i - 1]]
        cut[stopped] = i
        last[stopped] = i
        running[stopped] = False
        running[live[m[live] == i]] = False

    # the stop vote beat the boundary value, so its whole vote-tie group
    # is ruled out along with it
    boundary = np.where(cut > 0, lv[np.arange(rows), np.maximum(cut - 1, 0)], np.nan)
    before_cut = np.arange(width) < np.where(cut > 0, cut - 1, m)[:, None]
    n_selected = (before_cut & (lv != boundary[:, None])).sum(axis=1)
    bots = log_bot
    bots -= lv[:, :1]
    with np.errstate(over="ignore"):
        np.exp(bots, out=bots)
    return (c0 + order, p[row, col], n_selected, last,
            bots[np.arange(width) < last[:, None]])


def approx_fuse_from_votes(fixture: VoteCountFixture, item_id: Any = None,
                           terminate: bool = True, record_steps: bool = True) -> FusionResult:
    """Approximate fusion from injected vote counts."""
    return _run_steps(dict(fixture.votes), fixture.bot_at, "hybrid-votes", item_id,
                      terminate=terminate, record_steps=record_steps)


def fixture_from_qualities(claims: ClaimSet, qualities: Mapping[Any, SourceQuality],
                           prior: PriorConfig) -> VoteCountFixture:
    """Materialize the vote counts an instance induces, enabling the
    vote-injection backends to replay it."""
    clamped = {s: q.clamped() for s, q in qualities.items()}
    votes = {v: vote_count(v, [s for s, vs in claims.per_source.items() if v in vs],
                           clamped, prior.n)
             for v in claims.candidates}
    bots = [bot_vote_count(claims, clamped, prior, i) for i in range(1, len(votes) + 1)]
    return VoteCountFixture(votes=votes, bot_votes=bots)


def case_one_fixture(gamma: float) -> VoteCountFixture:
    """Three-value worst case for early termination: one value with vote
    gamma, two tied at 1, and stop votes of 1 + 1e-9 that overtake at step
    2.  The exact-minus-approx deviation on the weakest value tends to
    (1/6)*(gamma+1)/(gamma+2) as the 1e-9 margin goes to 0."""
    if gamma < 1:
        raise ValueError("gamma must be >= 1")
    return VoteCountFixture(
        votes={"v1": gamma, "v2": 1.0, "v3": 1.0},
        bot_votes=[0.0, 1.0 + 1e-9, 1.0 + 1e-9],
    )


def verify_bound(exact: FusionResult, approx: FusionResult) -> float:
    """Maximum absolute per-value deviation between the exact and
    approximate results; raises if it reaches the 1/6 threshold
    (`ERROR_BOUND`, the limit of the `case_one_fixture` worst case), which
    most instances stay below but some exceed."""
    if set(exact.probabilities) != set(approx.probabilities):
        raise ValueError("mismatched candidate sets")
    deviation = max(abs(exact.probabilities[v] - approx.probabilities[v])
                    for v in exact.probabilities)
    if not deviation < ERROR_BOUND:
        raise FusionError(
            f"approximation bound violated: deviation {deviation} >= 1/6 "
            f"on item {exact.item_id!r}")
    return deviation
