"""Columnar Kademlia: XOR frontier, bit-descent oracle, streamed batches.

The object router (:func:`repro.kademlia.routing.route`) is the oracle:
every batch lane must reproduce its lookup exactly — hops, success,
destination, visited ids and per-forward pointer classes — and the
snapshot's XOR-responsible oracle must agree with
:meth:`KademliaNetwork.responsible`. Batching must be invisible: any
partition of a query stream folds to the same statistics, on all three
overlays.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.chord.ring import ChordRing
from repro.engine.columnar import (
    KADEMLIA_PAD_CODE,
    snapshot_chord,
    snapshot_kademlia,
    snapshot_pastry,
)
from repro.engine.router import (
    batch_route_chord,
    batch_route_kademlia,
    batch_route_pastry,
)
from repro.kademlia.network import KademliaNetwork
from repro.kademlia.routing import route
from repro.obs.recorder import LookupTracer
from repro.pastry.network import PastryNetwork
from repro.sim.metrics import HopStatistics
from repro.sim.runner import COLUMNAR_LANE_BATCH, ExperimentConfig, run_stable
from repro.util.ids import IdSpace


def build_network(bits, n, seed, aux_per_node, duplicate_core):
    """A stabilized network with ``aux_per_node`` auxiliaries per node,
    optionally drawn partly from the node's own core contacts."""
    network = KademliaNetwork.build(n, space=IdSpace(bits), seed=seed)
    rng = random.Random(seed ^ 0xA11CE)
    alive = network.alive_ids()
    for node_id in alive:
        node = network.node(node_id)
        pool = sorted(node.core) if duplicate_core and node.core else alive
        aux = set(rng.sample(pool, min(aux_per_node, len(pool))))
        aux |= set(rng.sample(alive, min(aux_per_node // 2, len(alive))))
        node.set_auxiliary(aux)
    return network


def lookup_stream(network, count, seed):
    rng = random.Random(seed)
    alive = network.alive_ids()
    sources = [rng.choice(alive) for __ in range(count)]
    keys = [rng.randrange(network.space.size) for __ in range(count)]
    keys[: count // 4] = [rng.choice(alive) for __ in range(count // 4)]
    return sources, keys


@settings(max_examples=40, deadline=None)
@given(
    bits=st.integers(4, 52),
    n=st.integers(1, 40),
    seed=st.integers(0, 10_000),
    aux_per_node=st.sampled_from([0, 1, 3, 6]),
    duplicate_core=st.booleans(),
    max_hops=st.one_of(st.none(), st.integers(0, 3)),
)
def test_batch_lanes_match_object_route(bits, n, seed, aux_per_node, duplicate_core, max_hops):
    assume(n <= 2**bits)
    network = build_network(bits, n, seed, aux_per_node, duplicate_core)
    sources, keys = lookup_stream(network, 30, seed)
    result = batch_route_kademlia(
        snapshot_kademlia(network), sources, keys, max_hops=max_hops, record_paths=True
    )
    tracer = LookupTracer()
    for source, key in zip(sources, keys):
        route(network, source, key, max_hops=max_hops, record_access=False, trace=tracer)
    for lane, trace in enumerate(tracer.traces):
        assert int(result.hops[lane]) == trace.hops
        assert bool(result.succeeded[lane]) == trace.succeeded
        expected = -1 if trace.destination is None else trace.destination
        assert int(result.destinations[lane]) == expected
        assert result.lane_path(lane) == trace.path
        assert result.lane_classes(lane, "kademlia") == [
            event.pointer_class for event in trace.events if event.delivered
        ]
    assert result.hops_by_class == {
        name: count for name, count in tracer.counters.hops_by_class.items() if count
    }


def test_hop_limit_fails_lanes_like_the_object_router():
    network = build_network(16, 64, 5, 0, False)
    sources, keys = lookup_stream(network, 200, 5)
    limited = batch_route_kademlia(snapshot_kademlia(network), sources, keys, max_hops=0)
    stranded = np.flatnonzero(~limited.succeeded)
    assert stranded.size  # some lanes needed more than one forward
    assert (limited.hops[stranded] == 1).all()
    assert (limited.destinations[stranded] == -1).all()
    for lane in stranded[:10]:
        expected = route(network, sources[lane], keys[lane], max_hops=0, record_access=False)
        assert not expected.succeeded and expected.hops == 1


@settings(max_examples=40, deadline=None)
@given(
    bits=st.integers(1, 62),
    n=st.integers(1, 64),
    seed=st.integers(0, 10_000),
)
def test_xor_oracle_equals_network_responsible(bits, n, seed):
    assume(n <= 2**bits)
    network = KademliaNetwork.build(n, space=IdSpace(bits), seed=seed)
    rng = random.Random(seed)
    alive = network.alive_ids()
    size = network.space.size
    keys = [0, size - 1, *alive, *(node_id ^ 1 for node_id in alive)]
    keys += [rng.randrange(size) for __ in range(40)]
    keys = [key for key in keys if 0 <= key < size]
    snapshot = snapshot_kademlia(network)
    got = snapshot.responsible(np.asarray(keys, dtype=np.int64)).tolist()
    assert got == [network.responsible(key) for key in keys]


class TestSnapshot:
    def test_rows_pads_positions_and_classes(self):
        network = build_network(20, 48, 3, 4, True)
        snapshot = snapshot_kademlia(network)
        alive = network.alive_ids()
        assert snapshot.ids.tolist() == alive
        rows = [sorted(network.node(node_id).neighbor_ids()) for node_id in alive]
        assert snapshot.width == max(len(row) for row in rows) + 1
        for position, (node_id, row) in enumerate(zip(alive, rows)):
            node = network.node(node_id)
            pads = snapshot.width - len(row)
            assert snapshot.contacts[position].tolist() == row + [node_id] * pads
            assert snapshot.ids[snapshot.contact_pos[position]].tolist() == (
                snapshot.contacts[position].tolist()
            )
            # An id in both sets is credited to core, the stronger claim.
            assert snapshot.contact_class[position].tolist() == [
                0 if entry in node.core else 1 for entry in row
            ] + [KADEMLIA_PAD_CODE] * pads
        assert snapshot.nbytes == (
            snapshot.ids.nbytes
            + snapshot.contacts.nbytes
            + snapshot.contact_pos.nbytes
            + snapshot.contact_class.nbytes
        )

    def test_single_node_routes_every_key_home(self):
        network = KademliaNetwork.build(1, space=IdSpace(8), seed=1)
        snapshot = snapshot_kademlia(network)
        assert snapshot.width == 1
        (only,) = network.alive_ids()
        result = batch_route_kademlia(snapshot, [only] * 5, [0, 1, 17, 128, 255])
        assert result.hops.tolist() == [0] * 5
        assert result.succeeded.all()
        assert result.destinations.tolist() == [only] * 5
        assert result.hops_by_class == {}


class TestLaneClasses:
    def test_kademlia_has_its_own_name_table(self):
        network = build_network(16, 32, 9, 6, False)
        sources, keys = lookup_stream(network, 200, 9)
        result = batch_route_kademlia(
            snapshot_kademlia(network), sources, keys, record_paths=True
        )
        names = {
            name
            for lane in range(len(keys))
            for name in result.lane_classes(lane, "kademlia")
        }
        assert names == {"core", "auxiliary"}  # never Pastry's "leaf"

    def test_unknown_overlay_is_refused(self):
        network = build_network(16, 8, 1, 0, False)
        result = batch_route_kademlia(
            snapshot_kademlia(network), network.alive_ids()[:1], [3], record_paths=True
        )
        with pytest.raises(KeyError):
            result.lane_classes(0, "can")


# ----------------------------------------------------------------------
# Batching is invisible
# ----------------------------------------------------------------------


def _overlay_router(overlay_name, seed):
    if overlay_name == "chord":
        overlay = ChordRing.build(40, space=IdSpace(16), seed=seed)
        snapshot_fn, router = snapshot_chord, batch_route_chord
    elif overlay_name == "pastry":
        overlay = PastryNetwork.build(40, space=IdSpace(16), seed=seed)
        snapshot_fn, router = snapshot_pastry, batch_route_pastry
    else:
        overlay = KademliaNetwork.build(40, space=IdSpace(16), seed=seed)
        snapshot_fn, router = snapshot_kademlia, batch_route_kademlia
    rng = random.Random(seed)
    alive = overlay.alive_ids()
    for node_id in alive:
        overlay.node(node_id).set_auxiliary(set(rng.sample(alive, 3)) - {node_id})
    return overlay, snapshot_fn(overlay), router


@settings(max_examples=30, deadline=None)
@given(
    overlay_name=st.sampled_from(["chord", "pastry", "kademlia"]),
    seed=st.integers(0, 1000),
    lanes=st.sampled_from(
        [1, COLUMNAR_LANE_BATCH - 1, COLUMNAR_LANE_BATCH, COLUMNAR_LANE_BATCH + 1, 2500]
    ),
    cuts=st.lists(st.integers(0, 2500), max_size=6),
)
def test_any_partition_folds_to_equal_statistics(overlay_name, seed, lanes, cuts):
    overlay, snapshot, router = _overlay_router(overlay_name, seed)
    sources, keys = lookup_stream(overlay, lanes, seed)
    whole = HopStatistics(keep_samples=True)
    router(snapshot, sources, keys).fold_into(whole)
    bounds = [0, *sorted({cut for cut in cuts if 0 < cut < lanes}), lanes]
    parts = HopStatistics(keep_samples=True)
    for start, end in zip(bounds, bounds[1:]):
        router(snapshot, sources[start:end], keys[start:end]).fold_into(parts)
    assert parts == whole
    assert whole.lookups == lanes


@pytest.mark.parametrize("overlay", ["chord", "pastry", "kademlia"])
@pytest.mark.parametrize(
    "queries", [COLUMNAR_LANE_BATCH - 1, COLUMNAR_LANE_BATCH, COLUMNAR_LANE_BATCH + 1]
)
def test_runner_batches_straddling_the_constant_match_objects(overlay, queries):
    base = ExperimentConfig(overlay=overlay, n=24, k=3, bits=16, queries=queries, seed=2)
    assert run_stable(replace(base, engine="objects")) == run_stable(
        replace(base, engine="columnar")
    )


class TestRunStableKademlia:
    @pytest.mark.parametrize(
        "workload", ["static-zipf", "drifting-zipf:2", "flash-crowd:2", "hotspot-rotation:3"]
    )
    def test_workloads_identical_across_engines(self, workload):
        base = ExperimentConfig(
            overlay="kademlia", n=64, bits=20, queries=600, seed=3, workload=workload
        )
        assert run_stable(replace(base, engine="objects")) == run_stable(
            replace(base, engine="columnar")
        )

    def test_learned_frequencies_identical_across_engines(self):
        base = ExperimentConfig(
            overlay="kademlia",
            n=48,
            bits=20,
            queries=500,
            seed=5,
            learned_frequencies=True,
            warmup_queries=400,
        )
        assert run_stable(replace(base, engine="objects")) == run_stable(
            replace(base, engine="columnar")
        )

    def test_auto_takes_the_columnar_path(self, monkeypatch):
        """A small Kademlia cell under ``auto`` never walks the object
        router for its measured lookups."""
        import repro.kademlia.network as network_module

        calls = []
        real = network_module.route

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(network_module, "route", counting)
        run_stable(ExperimentConfig(overlay="kademlia", n=24, bits=16, queries=200, seed=1))
        assert calls == []
