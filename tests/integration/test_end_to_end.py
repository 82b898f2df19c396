"""End-to-end integration tests: determinism and isolation guarantees."""

import pytest

from repro.datasets import ScenarioConfig, build_scenario
from repro.fusion import FusionInput, popaccu, popaccu_plus, vote
from repro.world.config import WebConfig, WorldConfig


class TestDeterminism:
    def test_scenario_fully_deterministic(self):
        config = ScenarioConfig(
            seed=31,
            world=WorldConfig(n_types=6, n_entities=100),
            web=WebConfig(n_sites=10, n_pages=60),
        )
        a = build_scenario(config, use_cache=False)
        b = build_scenario(config, use_cache=False)
        assert a.records == b.records
        assert a.gold == b.gold
        assert set(a.freebase) == set(b.freebase)

    def test_fusion_deterministic(self, tiny_scenario):
        first = popaccu().fuse(tiny_scenario.fusion_input())
        second = popaccu().fuse(tiny_scenario.fusion_input())
        assert first.probabilities == second.probabilities
        assert first.accuracies == second.accuracies

    def test_fusion_independent_of_record_order(self, tiny_scenario):
        records = list(tiny_scenario.records)
        forward = popaccu().fuse(FusionInput(records))
        backward = popaccu().fuse(FusionInput(list(reversed(records))))
        for triple, probability in forward.probabilities.items():
            assert backward.probabilities[triple] == pytest.approx(probability)


class TestDebugChannelIsolation:
    """Fusion must be blind to the injected-error ground truth."""

    def test_fusion_invariant_to_debug_stripping(self, tiny_scenario):
        stripped = [record.without_debug() for record in tiny_scenario.records]
        with_debug = popaccu_plus(tiny_scenario.gold).fuse(
            tiny_scenario.fusion_input()
        )
        without_debug = popaccu_plus(tiny_scenario.gold).fuse(FusionInput(stripped))
        assert with_debug.probabilities == without_debug.probabilities
        assert with_debug.unpredicted == without_debug.unpredicted

    def test_vote_invariant_to_debug_stripping(self, tiny_scenario):
        stripped = [record.without_debug() for record in tiny_scenario.records]
        a = vote().fuse(tiny_scenario.fusion_input())
        b = vote().fuse(FusionInput(stripped))
        assert a.probabilities == b.probabilities


class TestScaleInvariance:
    """Headline shapes should agree between micro and tiny scales."""

    def test_gold_accuracy_same_regime(self, micro_scenario, tiny_scenario):
        micro = micro_scenario.extraction_stats()["gold_accuracy"]
        tiny = tiny_scenario.extraction_stats()["gold_accuracy"]
        assert abs(micro - tiny) < 0.3

    def test_popaccu_plus_beats_vote_at_both_scales(
        self, micro_scenario, tiny_scenario
    ):
        from repro.experiments.common import metrics_for, standard_fusion_results

        for scenario in (micro_scenario, tiny_scenario):
            results = standard_fusion_results(scenario)
            plus = metrics_for(
                results["POPACCU+"].probabilities, scenario.gold
            )
            base = metrics_for(results["VOTE"].probabilities, scenario.gold)
            assert plus.auc_pr > base.auc_pr


class TestPipelineBackends:
    @pytest.mark.parallel_backend
    def test_parallel_matches_serial_bitwise(self):
        """Pipeline ``parallel`` shards extraction over a pool and fuses
        in-process with the serial reference: bit-identical to
        ``serial`` end to end."""
        from repro.datasets import tiny_config
        from repro.endtoend import run_end_to_end

        serial = run_end_to_end(tiny_config(seed=7), backend="serial")
        parallel = run_end_to_end(
            tiny_config(seed=7), backend="parallel", n_workers=2
        )
        assert parallel.scenario.records == serial.scenario.records
        assert parallel.fusion.probabilities == serial.fusion.probabilities
        assert parallel.fusion.accuracies == serial.fusion.accuracies
        assert parallel.fusion.unpredicted == serial.fusion.unpredicted
        assert parallel.metrics == serial.metrics
        assert parallel.diagnostics["backend_used"] == "serial"
        assert parallel.diagnostics["parity"] == "bitwise"
        assert parallel.diagnostics["n_workers"] == 2
