"""Name -> fusion-backend registry shared by the benchmark harness and
the command line."""

from __future__ import annotations

from dataclasses import dataclass

from .approx import approx_fuse, approx_fuse_dataset
from .baselines import accu_fuse, majority_vote, precrec_fuse, twostep_fuse
from .exact import DEFAULT_CANDIDATE_CAP, exact_fuse
from .quality import FusionBackend


@dataclass(frozen=True)
class HybridBackend:
    """The quadratic approximation: `approx_fuse` per item, and
    `approx_fuse_dataset` when `iterate` fuses a whole dataset."""

    prior_mode: str = "literal"

    def __call__(self, claims, qualities, prior):
        return approx_fuse(claims, qualities, prior, prior_mode=self.prior_mode)

    def fuse_dataset(self, index, qualities, prior, active=None):
        return approx_fuse_dataset(index, qualities, prior, active, prior_mode=self.prior_mode)


@dataclass(frozen=True)
class ExactBackend:
    """Possible-world enumeration, item by item, on clamped qualities;
    `exact_fuse` raises `UnknownSourceError` for a source left out."""

    prior_mode: str = "literal"
    max_candidates: int = DEFAULT_CANDIDATE_CAP

    def __call__(self, claims, qualities, prior):
        clamped = {s: qualities[s].clamped() for s in claims.per_source if s in qualities}
        return exact_fuse(claims, clamped, prior, max_candidates=self.max_candidates,
                          prior_mode=self.prior_mode)


def _accu(claims, qualities, prior):
    return accu_fuse(claims, qualities, prior.n)


def _majority(claims, qualities, prior):
    return majority_vote(claims)


FUSION_BACKENDS: dict[str, FusionBackend] = {
    "hybrid": HybridBackend(),
    "hybrid-exact": ExactBackend(),
    "accu": _accu,
    "precrec": precrec_fuse,
    "twostep": twostep_fuse,
    "majority": _majority,
}


def fusion_backend(name: str, prior_mode: str = "literal",
                   exact_candidate_cap: int = DEFAULT_CANDIDATE_CAP) -> FusionBackend:
    """The backend registered under `name`; the two hybrid backends take
    the prior mode, and `hybrid-exact` the candidate cap too.  A backend
    built here equals (and hashes like) its registry entry when the
    settings are the defaults."""
    if name == "hybrid":
        return HybridBackend(prior_mode)
    if name == "hybrid-exact":
        return ExactBackend(prior_mode, exact_candidate_cap)
    try:
        return FUSION_BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; expected one of {sorted(FUSION_BACKENDS)}") from None
