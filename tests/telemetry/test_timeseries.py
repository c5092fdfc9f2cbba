"""Unit tests for the bounded stride-downsampled series buffers."""

import pytest

from repro.telemetry import SeriesBank, StrideSeries


class TestStrideSeries:
    def test_keeps_everything_under_capacity(self):
        s = StrideSeries(capacity=16)
        for i in range(10):
            s.append(i, i * i)
        assert len(s) == 10
        assert s.stride == 1
        assert s.samples() == [(i, i * i) for i in range(10)]

    def test_capacity_is_never_exceeded(self):
        s = StrideSeries(capacity=32)
        for i in range(100_000):
            s.append(i, i)
        assert len(s) <= 32
        assert s.seen == 100_000

    def test_stride_doubles_and_points_stay_evenly_spaced(self):
        s = StrideSeries(capacity=8)
        for i in range(64):
            s.append(i, i)
        assert s.stride > 1
        xs = [x for x, _ in s.samples()]
        gaps = {b - a for a, b in zip(xs, xs[1:])}
        assert len(gaps) == 1  # uniform spacing after coarsening
        assert gaps == {s.stride}
        assert xs == sorted(xs)

    def test_coarsening_keeps_first_sample(self):
        s = StrideSeries(capacity=8)
        for i in range(1000):
            s.append(i, i)
        assert s.samples()[0] == (0, 0)

    def test_to_dict(self):
        s = StrideSeries(capacity=8)
        for i in range(5):
            s.append(i * 32, float(i))
        d = s.to_dict()
        assert d["x"] == [0, 32, 64, 96, 128]
        assert d["v"] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert d["stride"] == 1
        assert d["seen"] == 5

    def test_minimum_capacity(self):
        with pytest.raises(ValueError):
            StrideSeries(capacity=3)


class TestSeriesBank:
    def test_lazily_creates_named_series(self):
        bank = SeriesBank(capacity=16)
        bank.append("ipc", 0, 1.0)
        bank.append("ipc", 32, 2.0)
        bank.append("occupancy", 0, 0.5)
        assert set(bank.names()) == {"ipc", "occupancy"}
        assert "ipc" in bank.names() and "nope" not in bank.names()
        assert len(bank.names()) == 2
        assert bank.series("ipc").samples() == [(0, 1.0), (32, 2.0)]

    def test_to_dict_round_trips_through_json(self):
        import json

        bank = SeriesBank(capacity=16)
        bank.append("a", 1, 2)
        doc = json.loads(json.dumps(bank.to_dict()))
        assert doc["a"]["x"] == [1]
        assert doc["a"]["seen"] == 1
