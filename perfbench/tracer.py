"""Observe-only layer tracer for one simulation cell.

:class:`Tracer` wraps public functions of the simulator's layers — by
replacing a class attribute or module global for the duration of a
``with`` block, never by editing the package — and records one span per
wrapped call: layer, parent span, and two intervals — the inner one
around the wrapped function alone and the outer one around the whole
wrapper, counters included. After the cell, a layer's self time is the
sum over its spans of the inner duration minus the outer durations of its
direct children. The wrappers' own cost — outer minus inner, plus a
calibrated per-call cost of entering and leaving a wrapper, taken from
the parent — is reported as ``trace.wrapper``, not as the caller's time.
The root ``cell`` span's self time is the runner's own work (query
generation, loops), so the self times of all layers, the runner and
``trace.wrapper`` add up to the traced cell exactly.

Next to spans the wrappers count work at the same boundaries (lookups,
hops, candidates, changed pointer sets) and fold every installed
auxiliary set, as ``node:sorted ids``, into a SHA-256 digest. A bulk
``recompute_all_auxiliary`` is folded from the installed node state when
it returns, one entry per live node in id order — the same entries the
per-node calls inside it would fold — so the digest and the counts do not
depend on whether the bulk path calls ``recompute_auxiliary`` per node.

Layers marked *opaque* (overlay construction, churn transitions) own
everything they call: while one is open, nested wrapped calls — e.g. the
``stabilize`` sweep inside ``build`` — run unrecorded and count towards
the opaque layer.
"""

from __future__ import annotations

import hashlib
import importlib
from array import array
from dataclasses import dataclass
from math import inf
from time import perf_counter
from typing import Callable

import numpy as np

__all__ = ["LAYERS", "OVERLAY_CLASSES", "Target", "Tracer", "targets"]

#: Layer names in report order; ``cell`` is the root span.
LAYERS = (
    "cell",
    "overlay.build",
    "workload.node_frequencies",
    "frequency.seed",
    "selection.install",
    "selection.optimal",
    "selection.oblivious",
    "routing.lookup",
    "engine.snapshot",
    "engine.route",
    "metrics.fold",
    "maintenance.stabilize",
    "churn.transition",
    "sim.scheduler",
)
_LAYER_INDEX = {name: index for index, name in enumerate(LAYERS)}
_OPAQUE = frozenset({"overlay.build", "churn.transition"})

#: The overlay classes whose methods are wrapped (and hooked by ``cell.py``).
OVERLAY_CLASSES = (
    ("repro.chord.ring", "ChordRing"),
    ("repro.pastry.network", "PastryNetwork"),
    ("repro.kademlia.network", "KademliaNetwork"),
)
_SOLVERS = (
    ("repro.chord.ring", "select_chord", "select_chord_oblivious"),
    ("repro.pastry.network", "select_pastry", "select_pastry_oblivious"),
    ("repro.kademlia.network", "select_kademlia", "select_kademlia_oblivious"),
)


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: ``owner.attr`` (a class or a module)."""

    layer: str
    owner: object
    attr: str


def targets() -> list[Target]:
    """Every attribute the tracer replaces, resolved by import."""
    found = []

    def add(layer: str, module: str, owner: str | None, attrs: tuple[str, ...]) -> None:
        obj = importlib.import_module(module)
        if owner is not None:
            obj = getattr(obj, owner)
        found.extend(Target(layer, obj, attr) for attr in attrs)

    for module, cls in OVERLAY_CLASSES:
        add("overlay.build", module, cls, ("build",))
        add("frequency.seed", module, cls, ("seed_frequencies",))
        add("selection.install", module, cls, ("recompute_auxiliary", "recompute_all_auxiliary"))
        add("routing.lookup", module, cls, ("lookup",))
        add("maintenance.stabilize", module, cls, ("stabilize",))
        add("churn.transition", module, cls, ("crash", "rejoin"))
    for module, optimal, oblivious in _SOLVERS:
        add("selection.optimal", module, None, (optimal,))
        add("selection.oblivious", module, None, (oblivious,))
    add("workload.node_frequencies", "repro.workload.items", "PopularityModel", ("node_frequencies",))
    add("engine.snapshot", "repro.engine.columnar", None, ("snapshot_chord", "snapshot_pastry"))
    add("engine.route", "repro.engine.router", None, ("batch_route_chord", "batch_route_pastry"))
    add("metrics.fold", "repro.sim.metrics", "HopStatistics", ("record",))
    add("metrics.fold", "repro.engine.router", "BatchRouteResult", ("fold_into",))
    add("sim.scheduler", "repro.sim.events", "EventScheduler", ("run_until",))
    return found


class Tracer:
    """Span recorder; use as ``with Tracer() as tracer: tracer.cell(fn, cfg)``.

    Entering the block installs the wrappers, leaving it puts every
    original attribute back, also when the cell raises.
    """

    def __init__(self) -> None:
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_enter = array("d")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_exit = array("d")
        self._stack: list[int] = []
        self._opaque = 0
        self._bulk = 0
        self.call_cost = 0.0
        self._saved: list[tuple[object, str, bool, object]] = []
        self.counts = {
            "candidates": 0,
            "recomputes": 0,
            "changed": 0,
            "hops": 0,
            "timeouts": 0,
            "successes": 0,
            "engine_lookups": 0,
            "events_fired": 0,
        }
        self._digest = hashlib.sha256()

    # -- patching -------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.call_cost = _call_cost()
        try:
            for target in targets():
                self._patch(target)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, target: Target) -> None:
        owner, attr = target.owner, target.attr
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        self._saved.append((owner, attr, own, original))
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(target.layer, attr, original.__func__))
        else:
            replacement = self._wrap(target.layer, attr, original)
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every replaced attribute (idempotent)."""
        while self._saved:
            owner, attr, own, original = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _wrap(self, layer: str, attr: str, fn: Callable) -> Callable:
        index = _LAYER_INDEX[layer]
        opaque = int(layer in _OPAQUE)
        observe = _OBSERVERS.get(attr)
        before = _BEFORE.get(attr)

        def wrapper(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            entered = perf_counter()
            state = before(self, args, kwargs) if before is not None else None
            self._opaque += opaque
            span = self._open(index, entered)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
                self._opaque -= opaque
            if observe is not None:
                observe(self, args, kwargs, result, state)
            self.span_exit[span] = perf_counter()
            return result

        return wrapper

    # -- spans ----------------------------------------------------------
    def _open(self, layer_index: int, entered: float) -> int:
        span = len(self.span_layer)
        self.span_layer.append(layer_index)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_enter.append(entered)
        self.span_end.append(0.0)
        self.span_exit.append(0.0)
        self._stack.append(span)
        self.span_start.append(perf_counter())
        return span

    def _close(self, span: int) -> None:
        self.span_end[span] = self.span_exit[span] = perf_counter()
        self._stack.pop()

    def cell(self, run: Callable, config):
        """Run one cell under the root ``cell`` span and return its result."""
        span = self._open(_LAYER_INDEX["cell"], perf_counter())
        try:
            return run(config)
        finally:
            self._close(span)

    @property
    def pointer_digest(self) -> str:
        """SHA-256 over every installed auxiliary set, in call order."""
        return self._digest.hexdigest()

    def self_times(self) -> dict[str, float]:
        """Per-layer self time in seconds (``cell`` = the runner's own),
        plus ``trace.wrapper``, the wrappers' own cost."""
        layer = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        inner = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        outer = np.frombuffer(self.span_exit) - np.frombuffer(self.span_enter)
        nested = parent >= 0
        children = np.zeros_like(inner)
        np.add.at(children, parent[nested], outer[nested])
        own = inner - children
        # Entering and leaving each child's wrapper, outside its outer span.
        calls = np.bincount(parent[nested], minlength=len(inner))
        entry = np.minimum(calls * self.call_cost, np.maximum(own, 0.0))
        totals = np.bincount(layer, weights=own - entry, minlength=len(LAYERS))
        times = {name: float(totals[index]) for index, name in enumerate(LAYERS)}
        times["trace.wrapper"] = float((outer - inner).sum() + entry.sum())
        return times

    def calls(self) -> dict[str, int]:
        """Per-layer span count."""
        counts = np.bincount(np.frombuffer(self.span_layer, dtype=np.int32), minlength=len(LAYERS))
        return {name: int(counts[index]) for index, name in enumerate(LAYERS)}

    def cell_seconds(self) -> float:
        """Duration of the (first) root span."""
        return self.span_exit[0] - self.span_enter[0]


def _call_cost(calls: int = 2000, rounds: int = 7) -> float:
    """Seconds a wrapped call costs its caller beyond a direct call and
    outside the wrapper's outer span: the wrapper frame, argument packing
    and the return. Least over ``rounds`` of a wrapped no-op timed
    against the bare no-op."""

    def noop(first, second):
        return None

    best = inf
    for _ in range(rounds):
        probe = Tracer()
        wrapped = probe._wrap("metrics.fold", "", noop)
        start = perf_counter()
        for _ in range(calls):
            noop(1, 2)
        bare = perf_counter() - start
        start = perf_counter()
        for _ in range(calls):
            wrapped(1, 2)
        total = perf_counter() - start
        outer = sum(probe.span_exit) - sum(probe.span_enter)
        best = min(best, (total - bare - outer) / calls)
    return max(best, 0.0)


# -- per-layer counters -------------------------------------------------
def _fold_install(tracer: Tracer, overlay, node_id: int, previous: frozenset) -> None:
    installed = overlay.node(node_id).auxiliary
    counts = tracer.counts
    counts["recomputes"] += 1
    counts["changed"] += installed != previous
    tracer._digest.update(f"{node_id}:{','.join(map(str, sorted(installed)))};".encode())


def _install_before(tracer: Tracer, args, kwargs):
    if tracer._bulk:
        return None
    overlay, node_id = args[0], args[1]
    return frozenset(overlay.node(node_id).auxiliary)


def _observe_install(tracer: Tracer, args, kwargs, result, previous) -> None:
    if not tracer._bulk:
        _fold_install(tracer, args[0], args[1], previous)


def _install_all_before(tracer: Tracer, args, kwargs):
    overlay = args[0]
    tracer._bulk += 1
    return {node_id: frozenset(overlay.node(node_id).auxiliary) for node_id in overlay.alive_ids()}


def _observe_install_all(tracer: Tracer, args, kwargs, result, previous) -> None:
    tracer._bulk -= 1
    for node_id, before in previous.items():
        _fold_install(tracer, args[0], node_id, before)


def _observe_optimal(tracer: Tracer, args, kwargs, result, state) -> None:
    tracer.counts["candidates"] += len(args[0].frequencies)


def _observe_lookup(tracer: Tracer, args, kwargs, result, state) -> None:
    counts = tracer.counts
    counts["hops"] += result.hops
    counts["timeouts"] += result.timeouts
    counts["successes"] += result.succeeded


def _observe_route(tracer: Tracer, args, kwargs, result, state) -> None:
    tracer.counts["engine_lookups"] += len(result.hops)


def _observe_scheduler(tracer: Tracer, args, kwargs, result, fired_before) -> None:
    tracer.counts["events_fired"] += args[0].events_fired - fired_before


#: Counter hooks by wrapped attribute name.
_BEFORE = {
    "recompute_auxiliary": _install_before,
    "recompute_all_auxiliary": _install_all_before,
    "run_until": lambda tracer, args, kwargs: args[0].events_fired,
}
_OBSERVERS = {
    "recompute_auxiliary": _observe_install,
    "recompute_all_auxiliary": _observe_install_all,
    **dict.fromkeys((optimal for _, optimal, _ in _SOLVERS), _observe_optimal),
    "lookup": _observe_lookup,
    "batch_route_chord": _observe_route,
    "batch_route_pastry": _observe_route,
    "run_until": _observe_scheduler,
}
