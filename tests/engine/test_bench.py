"""Engine bench sections: document shape and smoke-mode gates."""

import pytest

pytest.importorskip("numpy")

from repro.perf.engine import (
    ENGINE_MEMORY_THRESHOLD,
    ENGINE_SPEEDUP_THRESHOLD,
    engine_equivalence,
    engine_memory,
    engine_speedup,
)


class TestEngineMemory:
    def test_smoke_gate_passes_with_full_shape(self):
        section = engine_memory(smoke=True)
        assert section["n"] == 10_000
        assert section["threshold"] == ENGINE_MEMORY_THRESHOLD
        assert section["bytes_per_node"] > 0
        assert section["total_bytes"] >= section["bytes_per_node"] * section["n"] * 0.99
        assert section["passed"]


class TestEngineEquivalence:
    def test_smoke_cells_are_identical_across_engines(self):
        section = engine_equivalence(smoke=True)
        assert set(section["cells"]) == {"chord", "pastry", "kademlia"}
        for cell in section["cells"].values():
            assert cell["identical"]
            assert cell["objects_s"] > 0 and cell["columnar_s"] > 0
        assert section["identical"]


class TestEngineSpeedup:
    def test_smoke_batching_wins_with_full_shape(self):
        section = engine_speedup(smoke=True)
        assert set(section["overlays"]) == {"chord", "pastry"}
        for overlay in section["overlays"].values():
            assert overlay["lookups"] == 1024
            assert overlay["routing_speedup"] > 0
            assert overlay["snapshot_s"] > 0
        assert section["threshold"] < ENGINE_SPEEDUP_THRESHOLD  # smoke bar
        assert section["worst_routing_speedup"] == min(
            entry["routing_speedup"] for entry in section["overlays"].values()
        )
        assert section["passed"]
