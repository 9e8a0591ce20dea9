"""Host-speed reference for the benchmark's time metrics.

A shared VM can run the same code up to about twice as slow for
stretches of seconds to minutes, on every core alike.  The reference
work below is fixed pure-Python code shaped like the package's two
engines: a product of vote weights over attribute and dict lookups, as
in the approximation, and a pruned recursive walk over frozensets of
selected values, as in the exact enumeration.  It is timed right before
and right after each timed operation, and the ratio of the times cancels
most of the host's swing.  A scaled time is the operation's wall time on
a host that runs the reference work in REF_S seconds.

The reference work never calls the package, so a change to the package
moves the scaled times as it moves the wall times.
"""

from __future__ import annotations

import math
import time

REF_S = 0.1
VOTE_ROUNDS = 4000
WALK_ROUNDS = 60


class _Quality:
    __slots__ = ("accuracy", "recall")

    def __init__(self, accuracy, recall):
        self.accuracy, self.recall = accuracy, recall


_QUALITIES = {f"s{k}": _Quality(0.55 + 0.04 * k, 0.5 + 0.03 * k) for k in range(10)}
_PROVIDERS = [frozenset(f"s{k}" for k in range(10) if (v * 7 + k * 3) % 5 < 3)
              for v in range(12)]
_VALUES = tuple(range(6))
_WEIGHTS = {v: 1.0 + 0.7 * v for v in _VALUES}


def _vote(providers, n):
    total = 1.0
    for s in providers:
        a = _QUALITIES[s].accuracy
        total *= n * a / (1.0 - a)
    return total


def _walk(selected, p, totals):
    rest = [v for v in _VALUES if v not in selected]
    denom = sum(_WEIGHTS[v] for v in rest) + 1.5
    for v in rest:
        branch = p * _WEIGHTS[v] / denom
        totals[v] += branch
        if branch > 2e-3 and len(selected) + 1 < len(_VALUES):
            _walk(selected | {v}, branch, totals)


def reference_s() -> float:
    """Wall seconds the reference work takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(VOTE_ROUNDS):
        votes = {v: _vote(providers, 10) for v, providers in enumerate(_PROVIDERS)}
        total = sum(votes.values())
        for v, vote in votes.items():
            if "s3" in _PROVIDERS[v]:
                acc += math.log(vote / total + 1e-12)
    for _ in range(WALK_ROUNDS):
        totals = dict.fromkeys(_VALUES, 0.0)
        _walk(frozenset(), 1.0, totals)
        acc += math.log(sum(totals.values()))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise ArithmeticError("the reference work lost its result")
    return elapsed


def scaled(times, refs):
    """Scale each time by the reference times taken around it:
    `times[i]` ran between `refs[i]` and `refs[i + 1]`."""
    if len(refs) != len(times) + 1:
        raise ValueError("need one reference time before each time and one after the last")
    return [t * REF_S / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(times)]
