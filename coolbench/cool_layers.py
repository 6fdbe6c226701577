"""Layer probes: wrappers that time the program's layers from outside.

Each probe replaces one function at the name its caller resolves it
through (``repro.flow.cool.verify_composition`` is what the verify
stage calls, so that is the name patched) with a wrapper that opens a
``repro.obs`` span of kind ``layer``.  The program itself is not
changed.  Probes exist only inside :func:`installed` and
:func:`payload_probe`; the timed runs call :func:`assert_clean` first,
so they never pay for a wrapper.
"""

from __future__ import annotations

import functools
import importlib
import pickle
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from cool_stats import LAYER_KIND

#: Marker attribute set on every wrapper.
MARK = "__coolbench_layer__"


def _verify_attrs(span, args, kwargs, check) -> None:
    span.set("oracle", check.oracle)
    span.set("pairs", check.pairs_checked)
    span.set("product_states", check.product_states)
    span.set("bdd_nodes", check.bdd_nodes)
    span.set("ite_hit_rate", check.bdd_ite_hit_rate)


def _relational_attrs(span, args, kwargs, result) -> None:
    span.set("relational_check", bool(kwargs.get("relational_check")))


def _store_get_attrs(span, args, kwargs, record) -> None:
    span.set("hit", record is not None)
    span.set("bytes", len(record.payload) if record is not None else 0)


def _store_put_attrs(span, args, kwargs, result) -> None:
    payload = args[2] if len(args) > 2 else kwargs["payload"]
    span.set("bytes", len(payload))


def _l2_get_attrs(span, args, kwargs, outputs) -> None:
    span.set("hit", outputs is not None)


#: (layer, "module:attribute path", annotate).  Stage bodies are probed
#: where the layer has no single public entry point; the stage list is
#: rebuilt on every run, so it picks up the probe.
PROBES: tuple[tuple[str, str, Callable | None], ...] = (
    ("partition", "repro.flow.cool:_stage_partition", None),
    ("partition", "repro.flow.cool:select_eviction_victim", None),
    ("schedule.list_schedule", "repro.partition.base:list_schedule", None),
    ("stg", "repro.flow.cool:_stage_stg", None),
    ("comm", "repro.flow.cool:_stage_communication", None),
    ("hls", "repro.flow.cool:synthesize_resource", None),
    ("controllers", "repro.flow.cool:_stage_controllers", None),
    ("verify", "repro.flow.cool:verify_composition", _verify_attrs),
    ("verify.fixpoint", "repro.controllers.verify:symbolic_trace_equivalence",
     None),
    ("verify.relational", "repro.automata.symbolic:reachable_set_summary",
     _relational_attrs),
    ("verify.oracle", "repro.controllers.verify:controller_product_automaton",
     None),
    ("verify.oracle", "repro.controllers.verify:stg_step_automaton", None),
    ("verify.oracle", "repro.controllers.verify:weak_bisimilar", None),
    ("codegen", "repro.flow.cool:_stage_codegen", None),
    ("codegen.care", "repro.flow.cool:harvest_care_sets", None),
    ("sim", "repro.flow.cool:_stage_cosim", None),
    ("pipeline.fingerprint", "repro.flow.pipeline:fingerprint_of", None),
    ("store.get", "repro.store.disk:ArtifactStore.get", _store_get_attrs),
    ("store.put", "repro.store.disk:ArtifactStore.put", _store_put_attrs),
    ("store.decode", "repro.store.tiered:PersistentCache.get",
     _l2_get_attrs),
    ("store.encode", "repro.store.tiered:PersistentCache.put", None),
)


def _resolve(target: str) -> tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _wrap(layer: str, fn: Callable, annotate: Callable | None) -> Callable:
    from repro.obs import span as obs_span

    @functools.wraps(fn)
    def probe(*args, **kwargs):
        with obs_span(layer, kind=LAYER_KIND) as handle:
            result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(handle, args, kwargs, result)
            return result

    setattr(probe, MARK, layer)
    return probe


@contextmanager
def installed() -> Iterator[None]:
    """Install every probe for the block; always restores the originals."""
    restore: list[tuple[Any, str, Any]] = []
    try:
        for layer, target, annotate in PROBES:
            owner, attr = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            if hasattr(original, MARK):
                raise RuntimeError(f"probe {target} installed twice")
            setattr(owner, attr, _wrap(layer, original, annotate))
            restore.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


@contextmanager
def probed(tracer) -> Iterator[None]:
    """Probes installed and ``tracer`` active for the block; a plain
    block when ``tracer`` is ``None``."""
    if tracer is None:
        yield
        return
    from repro.obs import activate
    with installed(), activate(tracer):
        yield


#: Where the sharded sweep's coordinator checks each shard outcome
#: that a worker shipped home (once in the map, again in the reduce).
PAYLOAD_TARGET = "repro.flow.shard:_check_shard_outcome"


@contextmanager
def payload_probe() -> Iterator[dict[int, int]]:
    """Pickled size of every shard outcome shipped home, by shard.

    No tracer is involved, so the workers do not trace and the sizes
    are those of an untraced sweep.
    """
    owner, attr = _resolve(PAYLOAD_TARGET)
    original = getattr(owner, attr)
    sizes: dict[int, int] = {}

    @functools.wraps(original)
    def probe(shard, outcome):
        if outcome.shard_index not in sizes:
            sizes[outcome.shard_index] = len(pickle.dumps(outcome))
        return original(shard, outcome)

    setattr(probe, MARK, "shard.payload")
    setattr(owner, attr, probe)
    try:
        yield sizes
    finally:
        setattr(owner, attr, original)


def installed_probes() -> list[str]:
    """Targets that currently hold a probe (empty outside ``installed``
    and ``payload_probe``)."""
    targets = [target for _layer, target, _annotate in PROBES]
    return [target for target in targets + [PAYLOAD_TARGET]
            if hasattr(getattr(*_resolve(target)), MARK)]


def assert_clean() -> None:
    """Refuse to time a run while any probe is installed."""
    left = installed_probes()
    if left:
        raise RuntimeError(f"layer probes still installed: {left}")
