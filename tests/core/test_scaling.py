"""Unit tests for the online min-max scaler."""

import numpy as np
import pytest

from repro.core.scaling import OnlineMinMaxScaler


class TestOnlineMinMaxScaler:
    def test_transform_maps_to_unit_interval(self, rng):
        scaler = OnlineMinMaxScaler(4)
        X = rng.normal(5.0, 3.0, size=(200, 4))
        scaled = scaler.partial_fit_transform(X)
        assert scaled.min() >= 0.0
        assert scaled.max() <= 1.0

    def test_seen_extremes_map_to_bounds(self):
        scaler = OnlineMinMaxScaler(1)
        X = np.array([[0.0], [10.0], [5.0]])
        scaled = scaler.partial_fit_transform(X)
        assert scaled[0, 0] == pytest.approx(0.0)
        assert scaled[1, 0] == pytest.approx(1.0)
        assert scaled[2, 0] == pytest.approx(0.5)

    def test_constant_feature_handled(self):
        scaler = OnlineMinMaxScaler(2)
        X = np.array([[3.0, 1.0], [3.0, 2.0]])
        scaled = scaler.partial_fit_transform(X)
        assert np.all(np.isfinite(scaled))

    def test_partial_fit_expands_range(self):
        """A batch outside the tracked range widens it before it is scaled,
        and the widened range scales the next batch."""
        scaler = OnlineMinMaxScaler(1)
        scaler.partial_fit_transform(np.array([[0.0], [1.0]]))
        scaled = scaler.partial_fit_transform(np.array([[10.0], [-10.0]]))
        np.testing.assert_array_equal(scaled, [[1.0], [0.0]])
        scaled = scaler.partial_fit_transform(np.array([[5.0]]))
        assert scaled[0, 0] == pytest.approx(0.75)

    def test_forgetting_shrinks_range_towards_recent_data(self):
        scaler = OnlineMinMaxScaler(1, forget=0.2)
        first = scaler.partial_fit_transform(np.array([[0.0], [100.0], [45.0], [55.0]]))
        for _ in range(50):
            scaled = scaler.partial_fit_transform(np.array([[45.0], [55.0]]))
        # 45 and 55 spread further apart once the range has shrunk to them.
        assert first[3, 0] - first[2, 0] == pytest.approx(0.1)
        assert scaled[1, 0] - scaled[0, 0] > 0.5

    def test_dimension_mismatch_rejected(self):
        scaler = OnlineMinMaxScaler(3)
        scaler.partial_fit_transform(np.zeros((5, 3)))
        before = scaler.snapshot()
        with pytest.raises(ValueError):
            scaler.partial_fit_transform(np.zeros((5, 2)))
        assert scaler.snapshot() == before

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            OnlineMinMaxScaler(0)
        with pytest.raises(ValueError):
            OnlineMinMaxScaler(2, forget=1.0)
