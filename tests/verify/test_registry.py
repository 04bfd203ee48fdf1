"""Registry shape and scenario schema round-trips."""

import pytest

from repro.util.errors import ConfigurationError
from repro.verify import REGISTRY, Scenario, generate_scenario
from repro.verify.invariants import invariants_for
from repro.verify.scenarios import OVERLAYS, STEP_OPS


class TestRegistry:
    def test_every_invariant_is_scope_dot_property(self):
        for name, invariant in REGISTRY.items():
            scope, __, prop = name.partition(".")
            assert prop, name
            assert invariant.name == name
            assert invariant.scope == scope
            assert invariant.description

    def test_covers_the_eight_layers(self):
        scopes = {invariant.scope for invariant in REGISTRY.values()}
        assert scopes == {
            "selection",
            "routing",
            "state",
            "trace",
            "engine",
            "kademlia",
            "budget",
            "cachestats",
        }
        assert len(REGISTRY) == 19

    def test_overlay_applicability(self):
        for invariant in REGISTRY.values():
            assert set(invariant.overlays) <= set(OVERLAYS)
        # Nesting (Lemma 4.1) needs the prefix cost structure: Pastry, and
        # Kademlia, whose XOR distance classes are prefix lengths.
        assert REGISTRY["selection.nesting"].overlays == ("pastry", "kademlia")
        # Per-overlay structural invariants stay overlay-pinned.
        assert REGISTRY["state.successor_lists"].overlays == ("chord",)
        assert REGISTRY["selection.bulk_install"].overlays == ("chord",)
        assert REGISTRY["state.leaf_sets"].overlays == ("pastry",)
        assert REGISTRY["kademlia.table_coherence"].overlays == ("kademlia",)
        # The routing and responsibility oracles cover all three overlays.
        assert set(REGISTRY["routing.progress"].overlays) == set(OVERLAYS)
        assert set(REGISTRY["state.responsibility"].overlays) == set(OVERLAYS)

    def test_invariants_for_filters_both_axes(self):
        chord_state = invariants_for("state", "chord")
        assert "state.successor_lists" in chord_state
        assert "state.leaf_sets" not in chord_state
        assert invariants_for("selection", "chord") == sorted(
            name
            for name, inv in REGISTRY.items()
            if inv.scope == "selection" and "chord" in inv.overlays
        )


class TestScenarioSchema:
    def test_round_trips_through_dict(self):
        scenario = generate_scenario(7, 3)
        clone = Scenario.from_dict(scenario.to_dict())
        assert clone == scenario

    def test_generated_scenarios_are_valid_and_deterministic(self):
        for index in range(10):
            a = generate_scenario(1, index)
            b = generate_scenario(1, index)
            assert a == b
            assert a.overlay == OVERLAYS[index % len(OVERLAYS)]
            assert all(op in STEP_OPS for op, __ in a.steps)

    def test_different_seeds_differ(self):
        assert generate_scenario(1, 0) != generate_scenario(2, 0)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"overlay": "tapestry"},
            {"n": 1},
            {"n": 100, "bits": 5},
            {"k": -1},
            {"alpha": 0.0},
            {"loss_rate": 1.0},
            {"steps": ()},
            {"steps": (("explode", 1),)},
            {"steps": (("lookups", -3),)},
        ],
    )
    def test_rejects_malformed_scenarios(self, overrides):
        fields = dict(
            overlay="chord",
            seed=0,
            n=12,
            bits=12,
            k=2,
            alpha=1.2,
            loss_rate=0.0,
            steps=(("lookups", 5),),
        )
        fields.update(overrides)
        with pytest.raises(ConfigurationError):
            Scenario(**fields)
