"""ProtocolSpec expansion, validation, serialisation, and the registry."""

from __future__ import annotations

import pytest

from repro.detectors.base import DriftDetector
from repro.evaluation.experiment import default_classifier_factory
from repro.protocol.registry import (
    DETECTOR_NAMES,
    PAPER_DETECTORS,
    build_detector,
    detector_factory,
)
from repro.protocol.spec import (
    DEFAULT_CLASSIFIER_LABEL,
    ProtocolCell,
    ProtocolSpec,
    benchmark_name,
    build_scenario,
    callable_label,
)
from repro.streams.scenarios import ScenarioStream


class TestExpansion:
    def test_paper_spec_matches_the_papers_cross_product(self):
        spec = ProtocolSpec.paper(seeds=(0, 1))
        # 4 families x 3 class counts x 3 scenarios x 6 detectors x 2 seeds.
        assert len(spec) == 4 * 3 * 3 * 6 * 2
        cells = spec.expand()
        assert len(cells) == len(spec)
        assert len(set(cells)) == len(cells)
        assert len(set(spec.benchmarks())) == 36

    def test_expansion_order_is_deterministic(self):
        spec = ProtocolSpec.quick()
        assert spec.expand() == spec.expand()
        assert [cell.detector for cell in spec.expand()] == ["DDM", "RBM-IM"]

    def test_benchmark_names_match_scenario_builders(self):
        for scenario_id in range(1, 10):
            built = build_scenario(
                0,
                family="rbf",
                n_classes=5,
                scenario=scenario_id,
                n_instances=500,
                n_drifts=1,
                max_imbalance_ratio=10.0,
            )
            assert isinstance(built, ScenarioStream)
            assert built.name == benchmark_name("rbf", 5, scenario_id)

    def test_every_scenario_family_emits_ground_truth(self):
        """Acceptance: all 9 families build, with exact per-family ground truth."""
        for scenario_id in range(1, 10):
            built = build_scenario(
                0,
                family="rbf",
                n_classes=5,
                scenario=scenario_id,
                n_instances=600,
                n_drifts=1,
                max_imbalance_ratio=10.0,
            )
            assert len(built.drift_points) == len(built.drifted_classes)
            if scenario_id == 9:
                assert built.drift_points == []  # blips are not real drifts
                assert built.metadata["blips"]
            else:
                assert built.drift_points, scenario_id
            if scenario_id == 3:
                assert built.drifted_classes == [[4]]
            if scenario_id == 6:
                # Smallest class arrives, majority class leaves.
                assert built.drifted_classes == [[4], [0]]

    def test_stream_factory_is_picklable_and_seed_sensitive(self):
        import pickle

        spec = ProtocolSpec.quick()
        cell = spec.expand()[0]
        factory = pickle.loads(pickle.dumps(spec.stream_factory(cell)))
        a = factory(0)
        b = factory(1)
        xa, _ = a.stream.generate_batch(50)
        xb, _ = b.stream.generate_batch(50)
        assert (xa != xb).any()


class TestValidation:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            ProtocolSpec(families=("sea",))

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenarios"):
            ProtocolSpec(scenarios=(12,))

    def test_extended_scenarios_accepted(self):
        spec = ProtocolSpec(scenarios=tuple(range(1, 10)), seeds=(0,))
        assert len(spec.benchmarks()) == 4 * 3 * 9

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError, match="unknown detector"):
            ProtocolSpec(detectors=("NOPE",))

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ProtocolSpec(seeds=())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("chunk_size", 0),
            ("pretrain_size", -1),
            ("window_size", 9),
            ("drift_tolerance", -1),
        ],
    )
    def test_run_parameters_the_runner_refuses_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ProtocolSpec(**{field: value})

    def test_instance_mode_chunk_size_accepted(self):
        assert ProtocolSpec(chunk_size=None).chunk_size is None

    def test_batch_mode_without_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="batch_mode requires chunk_size"):
            ProtocolSpec(chunk_size=None, batch_mode=True)

    def test_unknown_scenario_in_builder(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario(
                0,
                family="rbf",
                n_classes=5,
                scenario=12,
                n_instances=100,
                n_drifts=1,
                max_imbalance_ratio=10.0,
            )

    def test_stringly_typed_scenario_id_keeps_n_drifts(self):
        # A coerced id must hit the same n_drifts plumbing as the int id.
        from_str = build_scenario(
            0, family="rbf", n_classes=5, scenario="1",
            n_instances=800, n_drifts=3, max_imbalance_ratio=10.0,
        )
        from_int = build_scenario(
            0, family="rbf", n_classes=5, scenario=1,
            n_instances=800, n_drifts=3, max_imbalance_ratio=10.0,
        )
        assert from_str.drift_points == from_int.drift_points
        assert len(from_str.drift_points) == 3


class TestPresets:
    def test_extended_preset_lists_all_nine_scenarios(self):
        spec = ProtocolSpec.extended()
        assert spec.scenarios == tuple(range(1, 10))
        assert spec.name == "extended"
        # Every scenario family appears among the benchmark names.
        names = spec.benchmarks()
        for scenario_id in range(1, 10):
            assert any(n.startswith(f"scenario{scenario_id}-") for n in names)

    def test_stress_preset_targets_the_stressor_families(self):
        spec = ProtocolSpec.stress()
        assert set(spec.scenarios) == {5, 6, 7, 8, 9}
        assert spec.max_imbalance_ratio == 200.0

    def test_presets_round_trip_through_json(self):
        for preset in (ProtocolSpec.extended(), ProtocolSpec.stress()):
            assert ProtocolSpec.from_json(preset.to_json()) == preset


class TestSerialisation:
    def test_json_round_trip(self):
        spec = ProtocolSpec.quick()
        assert ProtocolSpec.from_json(spec.to_json()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            ProtocolSpec.from_dict({"name": "x", "bogus": 1})

    def test_keys_embed_readable_slug(self):
        spec = ProtocolSpec.quick()
        cell = ProtocolCell(
            family="rbf", n_classes=5, scenario=1, detector="DDM", seed=0
        )
        key = spec.cell_key(cell)
        assert key.startswith("scenario1-Rbf5.DDM.s0.")

    def test_default_classifier_label_names_the_default_factory(self):
        # The label is hashed into every cell key; a moved or renamed
        # factory would silently orphan every stored record.
        assert callable_label(default_classifier_factory) == DEFAULT_CLASSIFIER_LABEL

    def test_quick_keys_are_pinned(self):
        # Stored records are found by these keys: a refactor that changes
        # them makes every stored record unreachable.
        spec = ProtocolSpec.quick()
        assert [spec.cell_key(cell) for cell in spec.expand()] == [
            "scenario1-Rbf5.DDM.s0.93cae0cb55b55f8d",
            "scenario1-Rbf5.RBM-IM.s0.dfc0acaa89cc1608",
        ]


class TestRegistry:
    def test_full_zoo_is_registered(self):
        # The paper's six plus the standard baselines; "none" for detector-less.
        assert len([n for n in DETECTOR_NAMES if n != "none"]) >= 11
        assert "RBM-IM" in DETECTOR_NAMES
        assert "none" in DETECTOR_NAMES

    def test_paper_line_up_is_the_spec_default(self):
        assert PAPER_DETECTORS == ProtocolSpec().detectors
        assert PAPER_DETECTORS == (
            "WSTD", "RDDM", "FHDDM", "PerfSim", "DDM-OCI", "RBM-IM",
        )
        for name in PAPER_DETECTORS:
            assert isinstance(build_detector(name, 10, 4), DriftDetector)

    @pytest.mark.parametrize("name", [n for n in DETECTOR_NAMES if n != "none"])
    def test_every_builder_constructs(self, name):
        detector = build_detector(name, n_features=8, n_classes=4)
        assert isinstance(detector, DriftDetector)

    def test_none_builds_no_detector(self):
        assert detector_factory("none") is None
        assert build_detector("none", 8, 4) is None

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown detector"):
            detector_factory("DDM2")

    def test_builders_are_picklable(self):
        import pickle

        for name in DETECTOR_NAMES:
            pickle.dumps(detector_factory(name))
