"""Results do not depend on incidental choices of the input: renaming every
source and item, in a way that keeps their `str` order, gives every
registered method the same results bit for bit, under the renaming."""

from dataclasses import replace

import pytest

from multitruth import ClaimSet, IterationConfig, PriorConfig, iterate
from multitruth.methods import FUSION_BACKENDS, fusion_backend, method_iteration_config
from multitruth.model import claims_by_item
from multitruth.synth import SynthConfig, generate, truth_count_distribution

# `hybrid-exact` runs on the `fuse_exact` bench settings, whose items stay
# within the exact engine's candidate cap; the other methods on the
# `compare_methods` settings
EXACT_SETTINGS = dict(num_items=150, truth_count_max=2, false_domain_size=4, extra_ratio=0.6,
                      source_accuracy=0.9, source_recall=0.9)
COMPARE_SETTINGS = dict(num_items=100)


def _dataset(method, seed):
    """A generated dataset with a `junk` source giving a value of its own
    on every item, which fails the good-source test, so that later rounds
    fuse with a source left out; and the prior it is fused with."""
    cfg = SynthConfig(**(EXACT_SETTINGS if method == "hybrid-exact" else COMPARE_SETTINGS),
                      rng_seed=seed)
    claims, _ = generate(cfg)
    claims += [("junk", item, "junk") for item in sorted({c.item_id for c in claims})]
    return claims_by_item(claims), PriorConfig(truth_count_dist=truth_count_distribution(cfg))


def _order_keeping(names, prefix):
    """New names for `names` whose `str` order is the old one."""
    return {old: f"{prefix}{rank:05d}" for rank, old in enumerate(sorted(names, key=str))}


def _renamed(dataset, item_name, source_name):
    return {item_name[item]: ClaimSet(
        item_id=item_name[cs.item_id], candidates=cs.candidates,
        per_source={source_name[s]: values for s, values in cs.per_source.items()})
        for item, cs in dataset.items()}


@pytest.mark.parametrize("path", ["registered", "per-item"])
@pytest.mark.parametrize("method", sorted(FUSION_BACKENDS))
def test_order_keeping_renaming(method, path):
    dataset, prior = _dataset(method, seed=1)
    item_name = _order_keeping(dataset, "item-")
    source_name = _order_keeping({s for cs in dataset.values() for s in cs.per_source}, "src-")
    registered = fusion_backend(method)
    backend = registered if path == "registered" else (
        lambda claims, qualities, prior: registered(claims, qualities, prior))
    config = method_iteration_config(method, IterationConfig())
    results, qualities, records = iterate(dataset, prior, backend, config)
    got = iterate(_renamed(dataset, item_name, source_name), prior, backend, config)

    expected_results = {}
    for item, r in results.items():
        old, new = repr(r.item_id), repr(item_name[r.item_id])
        notes = [note.replace(old, new) for note in r.diagnostics.notes]
        expected_results[item_name[item]] = replace(
            r, item_id=item_name[r.item_id], diagnostics=replace(r.diagnostics, notes=notes))
    assert repr(got[0]) == repr(expected_results)
    assert repr(got[1]) == repr({source_name[s]: q for s, q in qualities.items()})
    assert repr(got[2]) == repr([replace(r, source=source_name[r.source]) for r in records])
    # junk was left out of some round, so the renaming reached `active`
    assert method == "majority" or any(r.source == "junk" and not r.good for r in records)
