"""Flat, array-backed index of a dataset's claims, and the frame that
the dataset passes run in.

A `ClaimIndex` is the dataset: `group_columns` groups (source, item,
value) columns straight into one (`claims_by_item` groups rows, split
into columns as they come), and it reads as a mapping from item key to
`ClaimSet`.  `iterate` drives both halves of its loop from it: the
fusion round, a `FusionRound` that every backend hands back (the
dataset passes of the registered backends -- `approx.approx_fuse_round`,
`exact.exact_fuse_round` and the four in `baselines` -- or the per-item
calls of a plain callable), and the quality update
(`quality.source_metrics`), which reads the round's probability array.
`iterate` returns the last round as a `RoundResults`, a read-only
mapping from item key to `FusionResult` that builds no result object
until an item is read; `io.write_probabilities` writes it straight from
the round's arrays, so `fuse` builds none at all, and
`RoundResults.selections` hands out the round's selected truths, so
`synth.compare` scores a round without one.
The frame the passes share lives here: each source's terms
(`ClaimIndex.source_terms`), each item's ranking, the selections
(`ranked_selection`) and the result objects (`item_results`,
`above_half_results`), which every pass but the approximation's builds
through.  The two engines, which pad their arrays, split the index into
item ranges with `blocks`.  Everything is laid out in a fixed order --
items, sources and each item's candidates sorted by their `str`, and
each (item, source) pair's values in candidate order -- so every sum
over these arrays runs in an order that does not depend on the hash
seed.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .model import (ClaimSet, FusionDiagnostics, FusionResult, PriorConfig, SourceQuality,
                    normalize_value, quality_of)


def _numbered(column: Sequence[Any]) -> Tuple[List[Any], np.ndarray]:
    """The distinct entries of `column` sorted by their `str` (equal
    strings in order of first appearance), and the number of each entry
    of `column` among them."""
    distinct = sorted(dict.fromkeys(column), key=str)
    number = dict(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(number.__getitem__, column), np.intp, len(column))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct entries of the int array `keys`, sorted.  (`np.unique`
    would import numpy.ma.)"""
    keys = np.sort(keys)
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _starts(of: np.ndarray, n: int) -> np.ndarray:
    """Where each of `n` runs begins in the sorted array `of` of run
    numbers, and its end, as n + 1 offsets."""
    return of.searchsorted(np.arange(n + 1))


class ClaimIndex(Mapping):
    """Claims of a dataset as int arrays, read as a mapping from each item
    key to its `ClaimSet` (a view built from the arrays on access).

    `ClaimIndex(dataset)` lays out any mapping of `ClaimSet`s, such as a
    hand-built dict; `group_columns` lays out (source, item, value)
    columns through the same code.  `item_keys` are the item keys in index
    order, `item_ids` the `ClaimSet.item_id` of each.  Candidates are numbered
    globally, item after item; `cand_start[d]` is the number of item d's
    first candidate, so item d owns candidates `cand_start[d]` to
    `cand_start[d + 1] - 1`, in token order.  A pair is one (item, source)
    with the number of values the source provides there.  A claim is one
    (pair, candidate); claims run item by item, source by source, and
    candidate by candidate within a pair.  Pairs and claims of item d
    start at `pair_start[d]` and `claim_start[d]`.
    """

    def __init__(self, dataset: Mapping[Any, ClaimSet]):
        keys = sorted(dataset, key=str)
        claim_sets = [dataset[key] for key in keys]
        items: List[int] = []
        sources: List[Any] = []
        values: List[Any] = []
        for d, cs in enumerate(claim_sets):
            for s, provided in cs.per_source.items():
                items += [d] * len(provided)
                sources += [s] * len(provided)
                values += provided
        for d, cs in enumerate(claim_sets):
            items += [d] * len(cs.candidates)
            values += cs.candidates
        self._lay_out(keys, [cs.item_id for cs in claim_sets], np.array(items, dtype=np.intp),
                      *_numbered(sources), *_numbered(values))

    def _lay_out(self, keys: Sequence[Any], item_ids: Sequence[Any], items: np.ndarray,
                 sources: Sequence[Any], source_code: np.ndarray,
                 values: Sequence[Any], value_code: np.ndarray) -> None:
        """Lay out the claims (`keys[items[j]]`, `sources[source_code[j]]`,
        `values[value_code[j]]`), each kept once; `keys`, `sources` and
        `values` are sorted by their `str`, and `item_ids` are the ids of
        `keys`.  An item's candidates are the values of its claims and of
        the rows past the claims in `items` and `value_code`, which make
        no claim: they keep values that no source provides."""
        self.item_keys: List[Any] = list(keys)
        self.item_ids: List[Any] = list(item_ids)
        self._position = dict(zip(keys, range(len(keys))))
        self.sources: List[Any] = list(sources)

        # a pair (item, source), a claim (pair, value) and a candidate
        # (item, value) are each one int key, whose order is the layout's;
        # no key reaches the product of two of the counts below
        n_items, n_sources, n_values = len(keys), len(sources), len(values)
        n_rows = len(source_code)
        pair_key = items[:n_rows] * n_sources + source_code
        pair_keys = _distinct(pair_key)
        claim_keys = _distinct(pair_keys.searchsorted(pair_key) * n_values + value_code[:n_rows])
        claim_pair, claim_value = np.divmod(claim_keys, n_values)
        cand_keys = _distinct(items * n_values + value_code)
        cand_item, cand_value = np.divmod(cand_keys, n_values)

        self.tokens: List[Any] = [values[r] for r in cand_value.tolist()]
        self.cand_start = _starts(cand_item, n_items)
        self.cand_count = self.cand_start[1:] - self.cand_start[:-1]
        self.cand_item = cand_item.astype(np.int32)
        self.pair_item, self.pair_source = np.divmod(pair_keys, n_sources)
        self.pair_size = np.bincount(claim_pair, minlength=len(pair_keys))
        self.pair_start = _starts(self.pair_item, n_items)
        claim_item = self.pair_item[claim_pair]
        self.claim_start = _starts(claim_item, n_items)
        self.claim_pair = claim_pair.astype(np.int32)
        claim_key = claim_item * n_values + claim_value
        self.claim_cand = cand_keys.searchsorted(claim_key).astype(np.int32)

    def __len__(self) -> int:
        return len(self.item_keys)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.item_keys)

    def __contains__(self, key: Any) -> bool:
        return key in self._position

    def __getitem__(self, key: Any) -> ClaimSet:
        d = self._position[key]
        tokens = self.tokens
        a, b = self.cand_start[d:d + 2].tolist()
        lo, hi = self.pair_start[d:d + 2].tolist()
        provided = [tokens[g] for g in
                    self.claim_cand[self.claim_start[d]:self.claim_start[d + 1]].tolist()]
        per_source, c = {}, 0
        for s, k in zip(self.pair_source[lo:hi].tolist(), self.pair_size[lo:hi].tolist()):
            per_source[self.sources[s]] = frozenset(provided[c:c + k])
            c += k
        return ClaimSet(item_id=self.item_ids[d], per_source=per_source,
                        candidates=frozenset(tokens[a:b]))

    def source_mask(self, active) -> np.ndarray:
        """Boolean mask over `sources`: all true when `active` is None."""
        if active is None:
            return np.ones(len(self.sources), dtype=bool)
        return np.array([s in active for s in self.sources], dtype=bool)

    def source_terms(self, qualities: Mapping[Any, SourceQuality], active: Optional[Iterable[Any]],
                     term: Callable[[SourceQuality], Any], neutral: Any) -> np.ndarray:
        """`term` of every source's quality, one row per source in source
        order: a float, or a row of floats where `term` gives a tuple.  A
        source outside `active` (every source is active when it is None)
        needs no quality and gets `neutral`, which leaves every sum or
        product it enters as if the source were skipped."""
        rows = [term(quality_of(qualities, s)) if on else neutral
                for s, on in zip(self.sources, self.source_mask(active))]
        return np.array(rows, dtype=float).reshape((len(rows),) + np.shape(neutral))

    def ranking(self, probabilities: np.ndarray) -> np.ndarray:
        """Each item's candidates by decreasing probability, then token
        (`model.sort_values`), item after item."""
        return np.lexsort((-probabilities, self.cand_item))

    def candidate_probabilities(self, results: Mapping[Any, FusionResult]) -> np.ndarray:
        """Each candidate's probability in `results` (item -> result), in
        candidate order; 0 where an item's result leaves a candidate out."""
        probs: List[float] = []
        bounds = self.cand_start.tolist()
        for d, item in enumerate(self.item_keys):
            get = results[item].probabilities.get
            probs.extend(get(v, 0.0) for v in self.tokens[bounds[d]:bounds[d + 1]])
        return np.array(probs, dtype=float)


def claims_by_item(rows: Iterable[Tuple[Any, Any, Any]]) -> ClaimIndex:
    """Group (source, item, value) rows into a `ClaimIndex`, keyed by item.
    The rows are read as a stream, each split into a source, an item and
    a value column as it comes, so no row need outlive its turn (a row
    that is not a triple raises `ValueError`); `group_columns` groups the
    columns."""
    sources: List[Any] = []
    items: List[Any] = []
    values: List[Any] = []
    add_source, add_item, add_value = sources.append, items.append, values.append
    for source, item, value in rows:
        add_source(source)
        add_item(item)
        add_value(value)
    return group_columns(sources, items, values)


def group_columns(sources: Sequence[Any], items: Sequence[Any],
                  values: Sequence[Any]) -> ClaimIndex:
    """Group the claims (`sources[j]`, `items[j]`, `values[j]`) into a
    `ClaimIndex`, keyed by item.  Each distinct value is normalised once
    (`model.normalize_value`), and claims that are then equal collapse
    into one.  Columns of different lengths raise `ValueError`."""
    if not len(sources) == len(items) == len(values):
        raise ValueError(f"columns of {len(sources)} sources, {len(items)} items and "
                         f"{len(values)} values")
    distinct = dict.fromkeys(values)
    normal, normal_code = _numbered(list(map(normalize_value, distinct)))
    value_code = dict(zip(distinct, normal_code.tolist())).__getitem__
    keys, item_code = _numbered(items)
    index = ClaimIndex.__new__(ClaimIndex)
    index._lay_out(keys, keys, item_code, *_numbered(sources), normal,
                   np.fromiter(map(value_code, values), np.intp, len(values)))
    return index


@dataclass(frozen=True, eq=False)
class FusionRound:
    """One fusion round of every item of an index, in candidate order
    (`ClaimIndex.tokens`): each candidate's `probabilities`; `results()`,
    which builds every item's `FusionResult`, keyed as
    `ClaimIndex.item_keys`; and `selected()`, whether each candidate is
    one of its item's selected truths.  Both are built only when called.
    A dataset pass's arrays are its whole output.  A round of per-item
    calls has no `selected` (None): its results are the calls' own, and
    may give probability to values that are not candidates."""

    probabilities: np.ndarray
    results: Callable[[], Dict[Any, FusionResult]]
    selected: Optional[Callable[[], np.ndarray]] = None


def empty_round() -> FusionRound:
    """The round of an index without items."""
    return FusionRound(np.zeros(0), dict, lambda: np.zeros(0, dtype=bool))


class RoundResults(Mapping):
    """The results of a round, read as the dict its `results()` builds;
    `iterate` returns its last round as one.  Length, iteration and
    membership come from the index and build nothing.  The first read of
    an item, or `repr`, `==` or a view (`keys`, `items`, `values`, the
    dict's own), builds every result in one `results()` call and keeps
    them in place of the round: `round` is None from then on, so a mapping
    that has been read holds no more than that dict.  Until then
    `io.write_probabilities` and `selections` read `index` and `round`
    instead."""

    def __init__(self, index: ClaimIndex, fused: FusionRound):
        self.index = index
        self.round: Optional[FusionRound] = fused
        self._built: Optional[Dict[Any, FusionResult]] = None

    def _results(self) -> Dict[Any, FusionResult]:
        # threads that read it first at once may each build the results,
        # which are equal; `_built` is set before `round` is let go, so a
        # thread that finds no round finds the results
        fused = self.round
        if fused is not None:
            self._built = fused.results()
            self.round = None
        return self._built

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.index)

    def __contains__(self, key: Any) -> bool:
        return key in self.index

    def __getitem__(self, key: Any) -> FusionResult:
        return self._results()[key]

    def selections(self) -> Dict[Any, List[Any]]:
        """Each item's selected truths, keyed as the results: from the
        round's `selected()`, in candidate order and with no result built,
        while the round has a selection; from the results once they are
        built, or where the round has no selection (a plain callable's)."""
        fused = self.round
        if fused is None or fused.selected is None:
            return {item: r.selected_truths for item, r in self._results().items()}
        index = self.index
        chosen = np.flatnonzero(fused.selected())
        bounds = chosen.searchsorted(index.cand_start).tolist()
        truths = list(map(index.tokens.__getitem__, chosen.tolist()))
        return {key: truths[a:b] for key, a, b in zip(index.item_keys, bounds, bounds[1:])}

    def keys(self):
        return self._results().keys()

    def items(self):
        return self._results().items()

    def values(self):
        return self._results().values()

    def __eq__(self, other: Any) -> bool:
        return self._results() == other

    def __repr__(self) -> str:
        return repr(self._results())


def fuse_one(round_fn: Callable[..., FusionRound], claims: ClaimSet,
             qualities: Mapping[Any, SourceQuality], prior: PriorConfig) -> FusionResult:
    """One item's result from a dataset round: `round_fn` on a one-item
    index, which is how every per-item method but the approximation fuses."""
    index = ClaimIndex({claims.item_id: claims})
    return round_fn(index, qualities, prior).results()[claims.item_id]


def item_results(index: ClaimIndex, method: str, probabilities: np.ndarray, ranked: np.ndarray,
                 n_selected: Sequence[int],
                 notes: Mapping[int, List[str]]) -> Dict[Any, FusionResult]:
    """Every item's `FusionResult`: its probabilities in candidate order,
    the first `n_selected[d]` of its candidates in `ranked` order as its
    truths, and `notes[d]` (none if absent) as its notes."""
    tokens, probs = index.tokens, probabilities.tolist()
    ranked_tokens = [tokens[g] for g in ranked.tolist()]
    bounds = index.cand_start.tolist()
    results: Dict[Any, FusionResult] = {}
    for d, (a, b, k) in enumerate(zip(bounds, bounds[1:], n_selected)):
        results[index.item_keys[d]] = FusionResult(
            item_id=index.item_ids[d],
            probabilities=dict(zip(tokens[a:b], probs[a:b])),
            selected_truths=ranked_tokens[a:a + min(k, b - a)],
            diagnostics=FusionDiagnostics(method=method, notes=list(notes.get(d, ()))),
        )
    return results


def ranked_selection(index: ClaimIndex, ranked: np.ndarray,
                     n_selected: Sequence[int]) -> np.ndarray:
    """Whether each candidate, in candidate order, is among the first
    `n_selected[d]` of its item d in `ranked` order, as `item_results`
    selects them."""
    place = np.empty(len(ranked), dtype=np.intp)
    place[ranked] = np.arange(len(ranked)) - index.cand_start[index.cand_item]
    return place < np.asarray(n_selected)[index.cand_item]


def above_half_results(index: ClaimIndex, method: str,
                       probabilities: np.ndarray) -> Dict[Any, FusionResult]:
    """`item_results` with the values of probability above 0.5 selected;
    they lead each item's ranking, and `np.greater(probabilities, 0.5)`
    is the selection."""
    n_selected = np.bincount(index.cand_item, weights=probabilities > 0.5, minlength=len(index))
    return item_results(index, method, probabilities, index.ranking(probabilities),
                        n_selected.astype(int).tolist(), {})


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
