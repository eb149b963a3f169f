"""Unit tests for the Table I real-world surrogate streams."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.streams.real_world import (
    REAL_WORLD_SPECS,
    real_world_names,
    real_world_stream,
)


class TestSpecs:
    def test_twelve_datasets(self):
        assert len(REAL_WORLD_SPECS) == 12
        assert len(real_world_names()) == 12

    def test_table_i_values_present(self):
        by_name = {spec.name: spec for spec in REAL_WORLD_SPECS}
        assert by_name["Covertype"].classes == 7
        assert by_name["Covertype"].features == 54
        assert by_name["IntelSensors"].classes == 57
        assert by_name["IntelSensors"].imbalance_ratio == pytest.approx(348.26)
        assert by_name["Electricity"].drift == "yes"
        assert by_name["Connect4"].drift == "unknown"

    def test_imbalance_ratios_positive(self):
        assert all(spec.imbalance_ratio > 1.0 for spec in REAL_WORLD_SPECS)


class TestSurrogateStreams:
    @pytest.mark.parametrize("name", ["EEG", "Electricity", "Connect4", "Gas"])
    def test_schema_matches_spec(self, name):
        scenario = real_world_stream(name, n_instances=500, seed=0)
        spec = next(s for s in REAL_WORLD_SPECS if s.name == name)
        assert scenario.n_classes == spec.classes
        assert scenario.n_features == spec.features

    def test_case_insensitive_lookup(self):
        scenario = real_world_stream("covertype", n_instances=300, seed=0)
        assert scenario.name == "Covertype"

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            real_world_stream("not-a-dataset")

    def test_default_length_capped(self):
        scenario = real_world_stream("Poker", max_instances=5_000, seed=0)
        assert scenario.n_instances == 5_000

    def test_short_dataset_keeps_own_length(self):
        scenario = real_world_stream("Gas", max_instances=50_000, seed=0)
        assert scenario.n_instances == 13_910

    def test_drifting_dataset_has_drift_points(self):
        scenario = real_world_stream("Electricity", n_instances=4_000, seed=0)
        assert len(scenario.drift_points) == 3
        assert all(0 < p < 4_000 for p in scenario.drift_points)

    def test_stationary_dataset_has_no_drift_points(self):
        scenario = real_world_stream("Connect4", n_instances=4_000, seed=0)
        assert scenario.drift_points == []

    def test_instances_respect_schema(self):
        scenario = real_world_stream("Olympic", n_instances=1_000, seed=1)
        for instance in scenario.stream.take(200):
            assert instance.x.shape == (scenario.n_features,)
            assert 0 <= instance.y < scenario.n_classes

    def test_deterministic_given_seed(self):
        a = real_world_stream("DJ30", n_instances=500, seed=9)
        b = real_world_stream("DJ30", n_instances=500, seed=9)
        labels_a = [inst.y for inst in a.stream.take(200)]
        labels_b = [inst.y for inst in b.stream.take(200)]
        assert labels_a == labels_b

    def test_deterministic_across_processes(self):
        # Python salts str hashes per interpreter: two hash seeds stand in for
        # two runs of the benchmark.
        probe = (
            "import hashlib\n"
            "from repro.streams.real_world import real_world_stream\n"
            "scenario = real_world_stream('Electricity', n_instances=200, seed=0)\n"
            "X, y = scenario.stream.generate_batch(200)\n"
            "print(hashlib.sha256(X.tobytes() + y.tobytes()).hexdigest())\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        digests = []
        for hash_seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(src)}
            result = subprocess.run(
                [sys.executable, "-c", probe],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            digests.append(result.stdout.strip())
        assert digests[0] == digests[1]

    def test_surrogate_flag_in_metadata(self):
        scenario = real_world_stream("Crimes", n_instances=500, seed=0)
        assert scenario.metadata["surrogate"] is True
