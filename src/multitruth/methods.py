"""Name -> fusion-backend registry shared by the benchmark harness and
the command line, and the iteration settings each method runs with."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .approx import approx_fuse, approx_fuse_round
from .baselines import (
    accu_fuse,
    accu_round,
    majority_round,
    majority_vote,
    precrec_fuse,
    precrec_round,
    twostep_fuse,
    twostep_round,
)
from .exact import exact_fuse, exact_fuse_round
from .quality import FusionBackend, IterationConfig


@dataclass(frozen=True)
class DatasetBackend:
    """An engine with a dataset pass: called on one item it runs
    `fuse_item`, and `iterate` calls `fuse_dataset(index, qualities,
    prior, active)` to fuse a whole dataset at once.  That returns an
    `index.FusionRound`, the one round type of every backend."""

    fuse_item: Callable
    fuse_dataset: Callable

    def __call__(self, claims, qualities, prior):
        return self.fuse_item(claims, qualities, prior)


def _accu(claims, qualities, prior):
    return accu_fuse(claims, qualities, prior.n)


def _majority(claims, qualities, prior):
    return majority_vote(claims)


FUSION_BACKENDS: dict[str, FusionBackend] = {
    "hybrid": DatasetBackend(approx_fuse, approx_fuse_round),
    # on the qualities `iterate` clamps once per round
    "hybrid-exact": DatasetBackend(exact_fuse, exact_fuse_round),
    "accu": DatasetBackend(_accu, accu_round),
    "precrec": DatasetBackend(precrec_fuse, precrec_round),
    "twostep": DatasetBackend(twostep_fuse, twostep_round),
    "majority": DatasetBackend(_majority, majority_round),
}


def fusion_backend(name: str) -> FusionBackend:
    """The backend registered under `name`."""
    try:
        return FUSION_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; expected one of {sorted(FUSION_BACKENDS)}") from None


# Backends whose per-item probabilities sum to one truth by construction;
# see IterationConfig.update_slot_metrics.
_SINGLE_TRUTH_METHODS = frozenset({"majority", "accu", "twostep"})


def method_iteration_config(name: str, base: IterationConfig) -> IterationConfig:
    """`base` as method `name` runs it: a single-truth method keeps its
    initial precision, recall and false-positive rate."""
    if name in _SINGLE_TRUTH_METHODS:
        return replace(base, update_slot_metrics=False)
    return base
