"""Flat, array-backed index of a dataset's claims, and the frame that
the dataset passes run in.

`iterate` builds one per run and drives both halves of its loop from it:
the fusion round, a `FusionRound` that every backend hands back (the
dataset passes of the registered backends -- `approx.approx_fuse_round`,
`exact.exact_fuse_round` and the four in `baselines` -- or the per-item
calls of a plain callable), and the quality update
(`quality.source_metrics`), which reads the round's probability array.
The passes that pad their arrays split the index into item ranges with
`blocks`.  Everything is laid out in a fixed order -- items, sources and
each item's candidates sorted by their `str`, and each (item, source)
pair's values in candidate order -- so every sum over these arrays runs
in an order that does not depend on the hash seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from .model import ClaimSet, FusionResult


class ClaimIndex:
    """Claims of a dataset as int arrays.

    Candidates are numbered globally, item after item; `cand_start[d]` is
    the number of item d's first candidate, so item d owns candidates
    `cand_start[d]` to `cand_start[d + 1] - 1`, in token order.  A pair is
    one (item, source) with the number of values the source provides
    there.  A claim is one (pair, candidate); claims run item by item,
    source by source, and candidate by candidate within a pair.  Pairs
    and claims of item d start at `pair_start[d]` and `claim_start[d]`.
    """

    def __init__(self, dataset: Mapping[Any, ClaimSet]):
        self.items: List[Any] = sorted(dataset, key=str)
        self.item_ids: List[Any] = [dataset[item].item_id for item in self.items]
        self.sources: List[Any] = sorted(
            {s for cs in dataset.values() for s in cs.per_source}, key=str)
        source_rank = {s: j for j, s in enumerate(self.sources)}

        tokens: List[Any] = []
        cand_start = [0]
        pair_start = [0]
        claim_start = [0]
        pair_item: List[int] = []
        pair_source: List[int] = []
        pair_size: List[int] = []
        claim_cand: List[int] = []
        for d, item in enumerate(self.items):
            cs = dataset[item]
            values = sorted(cs.candidates, key=str)
            local = dict(zip(values, range(len(tokens), len(tokens) + len(values)))).__getitem__
            tokens.extend(values)
            cand_start.append(len(tokens))
            for s in sorted(cs.per_source, key=source_rank.__getitem__):
                provided = sorted(map(local, cs.per_source[s]))
                claim_cand.extend(provided)
                pair_item.append(d)
                pair_source.append(source_rank[s])
                pair_size.append(len(provided))
            pair_start.append(len(pair_item))
            claim_start.append(len(claim_cand))

        self.tokens = tokens
        self.cand_start = np.array(cand_start, dtype=np.intp)
        self.cand_count = np.diff(self.cand_start)
        self.cand_item = np.repeat(np.arange(len(self.items), dtype=np.int32), self.cand_count)
        self.pair_start = np.array(pair_start, dtype=np.intp)
        self.claim_start = np.array(claim_start, dtype=np.intp)
        self.pair_item = np.array(pair_item, dtype=np.intp)
        self.pair_source = np.array(pair_source, dtype=np.intp)
        self.pair_size = np.array(pair_size, dtype=np.intp)
        self.claim_pair = np.repeat(np.arange(len(pair_item), dtype=np.int32), self.pair_size)
        self.claim_cand = np.array(claim_cand, dtype=np.int32)

    def __len__(self) -> int:
        return len(self.items)

    def source_mask(self, active) -> np.ndarray:
        """Boolean mask over `sources`: all true when `active` is None."""
        if active is None:
            return np.ones(len(self.sources), dtype=bool)
        return np.array([s in active for s in self.sources], dtype=bool)

    def candidate_probabilities(self, results: Mapping[Any, FusionResult]) -> np.ndarray:
        """Each candidate's probability in `results` (item -> result), in
        candidate order; 0 where an item's result leaves a candidate out."""
        probs: List[float] = []
        bounds = self.cand_start.tolist()
        for d, item in enumerate(self.items):
            get = results[item].probabilities.get
            probs.extend(get(v, 0.0) for v in self.tokens[bounds[d]:bounds[d + 1]])
        return np.array(probs, dtype=float)


@dataclass(frozen=True, eq=False)
class FusionRound:
    """One fusion round of every item of an index: each candidate's
    probability in candidate order (`ClaimIndex.tokens`), and `results()`,
    which builds every item's `FusionResult`, keyed as `ClaimIndex.items`."""

    probabilities: np.ndarray
    results: Callable[[], Dict[Any, FusionResult]]


def blocks(rows: Sequence[int], cols: Sequence[int], budget: int) -> Iterator[Tuple[int, int]]:
    """Consecutive item ranges [lo, hi) whose summed `rows` times largest
    `cols` stay within `budget`: the cells of a block's padded arrays.  An
    item over the budget on its own gets a range of its own."""
    lo, total, width = 0, 0, 0
    for d, (r, c) in enumerate(zip(rows, cols)):
        if d > lo and (total + r) * max(width, c) > budget:
            yield lo, d
            lo, total, width = d, 0, 0
        total += r
        width = max(width, c)
    if lo < len(rows):
        yield lo, len(rows)
