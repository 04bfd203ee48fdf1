"""Mutation tests: deliberately broken code must be caught, shrunk and
replayable.

This is the acceptance gate for the whole subsystem: plant a bug in a
solver or a router, watch the invariant search flag it, shrink the
failing scenario, write the repro JSON, and confirm the JSON replays to
the same violation while the bug is in — and goes green once it is out.
"""

import dataclasses
import inspect
import json
import textwrap

import pytest

from repro.chord import ring as chord_ring
from repro.core import (
    chord_selection,
    frequency,
    kademlia_selection,
    oblivious,
    pastry_selection,
)
from repro.core.frequency import ExactFrequencyTable
from repro.util.errors import ConfigurationError
from repro.verify import (
    check_scenarios,
    failure_document,
    load_failure,
    replay_failure,
    run_scenario,
    shrink,
)
from repro.verify.scenarios import generate_scenario, generate_scenarios


def miscosted(solver, delta=0.5):
    """A solver whose reported cost is off by ``delta`` (selection kept)."""

    def broken(problem):
        result = solver(problem)
        return dataclasses.replace(result, cost=result.cost + delta)

    return broken


def plant_core_offset_bug(monkeypatch):
    """Stack blocks with an off-by-one CSR instance offset: every instance
    after the first reads the core arrays one core too early."""
    real = chord_selection._StackedBlock

    class OffByOne(real):
        def __init__(self, insts, ks):
            super().__init__(insts, ks)
            for i in range(1, len(insts)):
                self.rank[self.pos_base[i] + 1 : self.pos_base[i + 1]] -= 1

    monkeypatch.setattr(chord_selection, "_StackedBlock", OffByOne)


def plant_tie_break_flip(monkeypatch):
    """Recompile the flat prefix greedy with ``<`` for ``<=`` in its eq.-4
    merge: on a tie it now grows the second child instead of the first.
    Costs stay optimal, so only the exact trie-oracle comparison sees it."""
    source = inspect.getsource(pastry_selection.select_pastry_greedy)
    flipped = source.replace(
        "if grow_first <= grow_second:", "if grow_first < grow_second:"
    )
    assert flipped != source
    namespace = dict(vars(pastry_selection))
    exec(compile(flipped, pastry_selection.__file__, "exec"), namespace)
    monkeypatch.setattr(
        pastry_selection, "select_pastry_greedy", namespace["select_pastry_greedy"]
    )


def plant_bucket_off_by_one(monkeypatch):
    """Recompile the bulk oblivious baseline with its finger ranges taken
    from ``gap + 1``: a candidate one below a power-of-two gap lands in the
    next range up, so the draws land on other peers."""
    source = inspect.getsource(oblivious.select_chord_oblivious_arrays)
    broken = source.replace("_bit_lengths(gaps) - 1", "_bit_lengths(gaps + 1) - 1")
    assert broken != source
    namespace = dict(vars(oblivious))
    exec(compile(broken, oblivious.__file__, "exec"), namespace)
    monkeypatch.setattr(
        chord_ring, "select_chord_oblivious_arrays", namespace["select_chord_oblivious_arrays"]
    )


def plant_top_cut_tie_flip(monkeypatch):
    """Recompile the tracker's array snapshot with the ``(weight, id)``
    tie-break flipped at the top-L cut: among tied weights the larger ids
    now make the cut."""
    source = textwrap.dedent(inspect.getsource(ExactFrequencyTable.snapshot_arrays))
    flipped = source.replace("_np.lexsort((peers, -weights))", "_np.lexsort((-peers, -weights))")
    assert flipped != source
    namespace = dict(vars(frequency))
    exec(compile(flipped, frequency.__file__, "exec"), namespace)
    monkeypatch.setattr(ExactFrequencyTable, "snapshot_arrays", namespace["snapshot_arrays"])


def first_chord_scenario_with_selection(master_seed=0, count=20):
    for scenario in generate_scenarios(count, master_seed, "chord"):
        if any(op == "recompute" for op, __ in scenario.steps):
            return scenario
    raise AssertionError("no chord scenario with a recompute step")


class TestMutationIsCaught:
    def test_overspending_allocator_flagged_as_infeasible(self, monkeypatch):
        from repro.core import budget as budget_mod

        scenario = next(iter(generate_scenarios(1, 0, "chord")))
        assert any(op == "allocate" for op, __ in scenario.steps)
        assert run_scenario(scenario).passed
        real = budget_mod.allocate_greedy

        def overspending(curves, total):
            allocation = real(curves, total)
            # One extra pointer: either the spent total now exceeds the
            # budget, or some node's quota exceeds its capacity.
            node = min(allocation.quotas)
            allocation.quotas[node] += 1
            return allocation

        monkeypatch.setattr(budget_mod, "allocate_greedy", overspending)
        report = run_scenario(scenario)
        assert not report.passed
        assert any(
            violation.invariant == "budget.feasibility"
            for violation in report.violations
        )

    def test_broken_fast_solver_flagged_as_equivalence(self, monkeypatch):
        scenario = first_chord_scenario_with_selection()
        assert run_scenario(scenario).passed
        monkeypatch.setattr(
            chord_selection,
            "select_chord_fast",
            miscosted(chord_selection.select_chord_fast),
        )
        report = run_scenario(scenario)
        assert not report.passed
        assert report.violations[0].invariant == "selection.equivalence"

    def test_broken_pastry_greedy_flagged(self, monkeypatch):
        scenario = next(iter(generate_scenarios(2, 0, "pastry")))
        monkeypatch.setattr(
            pastry_selection,
            "select_pastry_greedy",
            miscosted(pastry_selection.select_pastry_greedy),
        )
        report = run_scenario(scenario)
        assert not report.passed
        assert any(
            violation.invariant in ("selection.equivalence", "selection.nesting")
            for violation in report.violations
        )

    def test_broken_kademlia_greedy_flagged(self, monkeypatch):
        scenario = next(iter(generate_scenarios(2, 0, "kademlia")))
        assert run_scenario(scenario).passed
        monkeypatch.setattr(
            kademlia_selection,
            "select_kademlia_greedy",
            miscosted(kademlia_selection.select_kademlia_greedy),
        )
        report = run_scenario(scenario)
        assert not report.passed
        assert any(
            violation.invariant in ("selection.equivalence", "selection.nesting")
            for violation in report.violations
        )


class TestShrinkAndReplay:
    def test_shrink_rejects_a_passing_scenario(self):
        scenario = first_chord_scenario_with_selection()
        with pytest.raises(ConfigurationError):
            shrink(scenario, "selection.equivalence")

    def test_end_to_end_catch_shrink_replay(self, monkeypatch, tmp_path):
        scenario = first_chord_scenario_with_selection()
        monkeypatch.setattr(
            chord_selection,
            "select_chord_fast",
            miscosted(chord_selection.select_chord_fast),
        )
        result = shrink(scenario, "selection.equivalence")
        # The shrunk repro is genuinely smaller and still violating.
        assert result.scenario.n <= scenario.n
        assert len(result.scenario.steps) <= len(scenario.steps)
        assert result.violation.invariant == "selection.equivalence"

        document = failure_document(scenario, result)
        path = tmp_path / "failure.json"

        path.write_text(json.dumps(document, sort_keys=True, indent=2))
        loaded = load_failure(path)
        assert loaded["invariant"] == "selection.equivalence"
        assert loaded["original"] == scenario.to_dict()

        # While the bug is in: the repro file reproduces the violation.
        replayed = replay_failure(loaded)
        assert not replayed.passed
        assert replayed.violations[0].invariant == "selection.equivalence"

        # Bug out: the same file replays green.
        monkeypatch.undo()
        assert replay_failure(loaded).passed

    def test_stacking_offset_bug_caught_shrunk_and_replayed(self, monkeypatch, tmp_path):
        """The block solver is exact only if every instance reads its own
        slice; scenario problems are too small to be stacked alone, so the
        decoy block of ``selection.equivalence`` must expose the bug."""
        scenario = first_chord_scenario_with_selection()
        assert run_scenario(scenario).passed
        plant_core_offset_bug(monkeypatch)
        report = run_scenario(scenario)
        assert not report.passed
        assert any(
            violation.invariant == "selection.equivalence"
            and "block solve" in violation.message
            for violation in report.violations
        )

        result = shrink(scenario, "selection.equivalence", budget=40)
        assert result.scenario.n <= scenario.n
        assert len(result.scenario.steps) <= len(scenario.steps)
        document = failure_document(scenario, result)
        assert document["schema"] == "VERIFY_REPRO_v1"
        path = tmp_path / "stacking_failure.json"

        path.write_text(json.dumps(document, sort_keys=True, indent=2))
        loaded = load_failure(path)
        replayed = replay_failure(loaded)
        assert not replayed.passed
        assert any(
            violation.invariant == "selection.equivalence"
            for violation in replayed.violations
        )

        monkeypatch.undo()
        assert replay_failure(loaded).passed

    def test_flat_tie_break_flip_caught_shrunk_and_replayed(self, monkeypatch, tmp_path):
        scenario = next(
            scenario
            for scenario in generate_scenarios(20, 0, "pastry")
            if any(op == "recompute" for op, __ in scenario.steps)
        )
        assert run_scenario(scenario).passed
        plant_tie_break_flip(monkeypatch)
        report = run_scenario(scenario)
        assert not report.passed
        assert any(
            violation.invariant == "selection.equivalence"
            and "trie greedy" in violation.message
            for violation in report.violations
        )

        result = shrink(scenario, "selection.equivalence", budget=40)
        assert result.scenario.n <= scenario.n
        assert len(result.scenario.steps) <= len(scenario.steps)
        document = failure_document(scenario, result)
        assert document["schema"] == "VERIFY_REPRO_v1"
        path = tmp_path / "tie_break_failure.json"
        path.write_text(json.dumps(document, sort_keys=True, indent=2))
        loaded = load_failure(path)
        replayed = replay_failure(loaded)
        assert not replayed.passed
        assert any(
            violation.invariant == "selection.equivalence"
            and "trie greedy" in violation.message
            for violation in replayed.violations
        )

        monkeypatch.undo()
        assert replay_failure(loaded).passed

    def test_check_scenarios_shrinks_the_failure(self, monkeypatch):
        monkeypatch.setattr(
            chord_selection,
            "select_chord_fast",
            miscosted(chord_selection.select_chord_fast),
        )
        document = check_scenarios(count=4, seed=0, overlay="chord", shrink_budget=40)
        assert not document["passed"]
        assert document["scenarios_failed"] > 0
        failure = document["failures"][0]
        assert failure["schema"] == "VERIFY_REPRO_v1"
        assert failure["invariant"] == "selection.equivalence"
        shrunk = failure["scenario"]
        original = failure["original"]
        assert (shrunk["n"], len(shrunk["steps"])) <= (
            original["n"],
            len(original["steps"]),
        )


class TestBulkInstallMutation:
    @pytest.mark.parametrize(
        "plant, policy",
        [
            (plant_bucket_off_by_one, "oblivious_policy"),
            (plant_top_cut_tie_flip, "optimal_policy"),
        ],
        ids=["finger-range off by one", "top-L tie-break flipped"],
    )
    def test_bulk_path_bug_caught(self, monkeypatch, plant, policy):
        scenario = first_chord_scenario_with_selection()
        assert run_scenario(scenario).passed
        plant(monkeypatch)
        report = run_scenario(scenario)
        assert not report.passed
        assert {violation.invariant for violation in report.violations} == {
            "selection.bulk_install"
        }
        assert any(policy in violation.message for violation in report.violations)
        monkeypatch.undo()
        assert run_scenario(scenario).passed

    def test_tie_flip_shrinks_and_replays(self, monkeypatch, tmp_path):
        scenario = first_chord_scenario_with_selection()
        plant_top_cut_tie_flip(monkeypatch)
        result = shrink(scenario, "selection.bulk_install", budget=30)
        assert result.scenario.n <= scenario.n
        assert len(result.scenario.steps) <= len(scenario.steps)
        path = tmp_path / "bulk_install_failure.json"
        path.write_text(json.dumps(failure_document(scenario, result), sort_keys=True, indent=2))
        loaded = load_failure(path)
        replayed = replay_failure(loaded)
        assert not replayed.passed
        assert replayed.violations[0].invariant == "selection.bulk_install"
        monkeypatch.undo()
        assert replay_failure(loaded).passed


class TestKademliaMutation:
    def test_unfiltered_candidate_breaks_progress(self, monkeypatch):
        """A router that forwards to the best contact even when it is *not*
        strictly closer must trip ``routing.progress`` (the XOR distance no
        longer shrinks on every hop)."""
        from repro.kademlia import routing as kademlia_routing

        def no_filter(node, key):
            best = None
            best_distance = None
            for neighbor in node.core | node.auxiliary:
                distance = neighbor ^ key
                if best_distance is None or distance < best_distance:
                    best = neighbor
                    best_distance = distance
            return best  # may equal a contact farther than the node itself

        scenario = next(iter(generate_scenarios(2, 0, "kademlia")))
        assert run_scenario(scenario).passed
        monkeypatch.setattr(kademlia_routing, "_best_candidate", no_filter)
        report = run_scenario(scenario)
        assert not report.passed
        assert any(
            violation.invariant in ("routing.progress", "routing.termination")
            for violation in report.violations
        )

    def test_stale_class_index_breaks_table_coherence(self, monkeypatch):
        """A ``set_auxiliary`` that leaves replaced pointers filed in the
        per-class index must trip ``kademlia.table_coherence``."""
        from repro.kademlia.node import KademliaNode

        def sloppy(self, pointers):
            # Forgets to unfile dropped pointers from ``classes``.
            self.auxiliary = {p for p in pointers if p != self.node_id}
            for pointer in self.auxiliary:
                self._add_to_class(pointer)

        caught = False
        monkeypatch.setattr(KademliaNode, "set_auxiliary", sloppy)
        # Not every scenario replaces a pointer (a tiny population can
        # re-select the same set every round); scan until one does.
        for scenario in generate_scenarios(12, 0, "kademlia"):
            report = run_scenario(scenario)
            if report.passed:
                continue
            assert any(
                violation.invariant == "kademlia.table_coherence"
                for violation in report.violations
            )
            monkeypatch.undo()
            assert run_scenario(scenario).passed  # bug out -> green again
            caught = True
            break
        assert caught, "no scenario tripped the planted class-index bug"

    def test_kademlia_failure_shrinks_to_repro_schema(self, monkeypatch):
        monkeypatch.setattr(
            kademlia_selection,
            "select_kademlia_greedy",
            miscosted(kademlia_selection.select_kademlia_greedy),
        )
        document = check_scenarios(
            count=4, seed=0, overlay="kademlia", shrink_budget=40
        )
        assert not document["passed"]
        failure = document["failures"][0]
        assert failure["schema"] == "VERIFY_REPRO_v1"
        assert failure["scenario"]["overlay"] == "kademlia"


class TestCachestatsMutation:
    def _scenario_with_credit(self, mutant_active_check, count=12):
        """First chord scenario whose lookups actually earn auxiliary
        credit — a scenario where every credit is zero cannot distinguish
        single from double crediting."""
        for scenario in generate_scenarios(count, 0, "chord"):
            if mutant_active_check(scenario):
                return scenario
        raise AssertionError("no scenario tripped the planted crediting bug")

    def test_double_crediting_recorder_caught(self, monkeypatch):
        """A recorder that credits every hop twice must trip
        ``cachestats.conservation``: the credits no longer telescope to
        oblivious - residual - observed hops."""
        from repro.obs import attribution as attribution_module

        monkeypatch.setattr(
            attribution_module, "_credit", lambda r_from, r_to: 2 * (r_from - r_to - 1)
        )

        def fires(scenario):
            report = run_scenario(scenario)
            return not report.passed and all(
                violation.invariant == "cachestats.conservation"
                for violation in report.violations
            )

        scenario = self._scenario_with_credit(fires)
        monkeypatch.undo()
        assert run_scenario(scenario).passed  # bug out -> green again

    def test_double_crediting_shrinks_to_repro_and_replays(self, monkeypatch, tmp_path):
        from repro.obs import attribution as attribution_module

        monkeypatch.setattr(
            attribution_module, "_credit", lambda r_from, r_to: 2 * (r_from - r_to - 1)
        )
        scenario = self._scenario_with_credit(
            lambda candidate: not run_scenario(candidate).passed
        )
        result = shrink(scenario, "cachestats.conservation", budget=60)
        assert result.scenario.n <= scenario.n
        assert len(result.scenario.steps) <= len(scenario.steps)
        assert result.violation.invariant == "cachestats.conservation"

        document = failure_document(scenario, result)
        assert document["schema"] == "VERIFY_REPRO_v1"
        path = tmp_path / "cachestats_failure.json"

        path.write_text(json.dumps(document, sort_keys=True, indent=2))
        loaded = load_failure(path)

        # Bug in: the repro file reproduces the conservation violation.
        replayed = replay_failure(loaded)
        assert not replayed.passed
        assert replayed.violations[0].invariant == "cachestats.conservation"

        # Bug out: the same file replays green.
        monkeypatch.undo()
        assert replay_failure(loaded).passed

    def test_hit_inflating_recorder_caught(self, monkeypatch):
        """A recorder that books phantom hits must trip the hits <= uses
        side of ``cachestats.conservation``."""
        from repro.obs import attribution as attribution_module

        original = attribution_module.AttributionRecorder.record_lookup

        def inflating(self, result, events):
            original(self, result, events)
            for event in events:
                if event.delivered:
                    self._pointer(
                        event.forwarder, event.target, event.pointer_class
                    ).hits += 1

        scenario = generate_scenario(0, 0, "chord")
        assert run_scenario(scenario).passed
        monkeypatch.setattr(
            attribution_module.AttributionRecorder, "record_lookup", inflating
        )
        report = run_scenario(scenario)
        assert not report.passed
        assert any(
            violation.invariant == "cachestats.conservation"
            for violation in report.violations
        )


class TestRoutingMutation:
    def test_tampered_recorder_breaks_reconciliation(self, monkeypatch):
        """A recorder that silently drops lookups must trip
        ``trace.reconciliation`` (counters no longer cover the stream)."""
        from repro.obs import recorder as recorder_module

        original = recorder_module.LookupTracer.record_lookup
        calls = iter(range(10**9))

        def leaky(self, result, events):
            if next(calls) % 5 != 4:  # drop every fifth lookup on the floor
                original(self, result, events)

        scenario = generate_scenario(0, 0, "chord")
        assert run_scenario(scenario).passed
        monkeypatch.setattr(recorder_module.LookupTracer, "record_lookup", leaky)
        report = run_scenario(scenario)
        assert not report.passed
        assert any(
            violation.invariant == "trace.reconciliation"
            for violation in report.violations
        )
