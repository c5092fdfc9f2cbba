"""Tests for the stdlib load generator in benchmarks/bench_serving_load.py."""

import importlib.util
import pathlib
import sys
import threading

from repro.serving.app import make_server
from repro.serving.supervisor import _bound_socket

_MODULE_PATH = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "bench_serving_load.py"
)


def _load():
    spec = importlib.util.spec_from_file_location(
        "bench_serving_load", _MODULE_PATH
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestPercentile:
    def test_empty_is_zero(self):
        assert _load().percentile([], 99) == 0.0

    def test_single_value(self):
        mod = _load()
        assert mod.percentile([7.5], 0) == 7.5
        assert mod.percentile([7.5], 100) == 7.5

    def test_nearest_rank_endpoints_and_median(self):
        mod = _load()
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert mod.percentile(values, 0) == 1.0
        assert mod.percentile(values, 50) == 3.0
        assert mod.percentile(values, 100) == 5.0

    def test_out_of_range_quantiles_clamp(self):
        mod = _load()
        values = [1.0, 2.0, 3.0]
        assert mod.percentile(values, -10) == 1.0
        assert mod.percentile(values, 400) == 3.0


def test_run_load_against_live_server(make_app):
    """A short real run: reads succeed, the record is shaped for the gate."""
    mod = _load()
    # an API worker with no sim worker and a one-job queue: the first
    # distinct submit is accepted, the rest are 503-rejected
    app = make_app(capacity=1)
    server = make_server(app, "127.0.0.1", _bound_socket("127.0.0.1", 0))
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        record = mod.run_load(
            f"http://127.0.0.1:{port}", clients=2, duration=0.5,
            submit_ratio=0.25,
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
    assert record["requests"] > 0
    assert record["errors"] == 0
    assert record["ok"] + record["rejected"] == record["requests"]
    # submissions against a full queue count as rejections, not errors
    assert record["rejected"] == max(0, record["submits"] - 1)
    assert record["requests_per_second"] > 0
    assert record["p50_ms"] <= record["p90_ms"] <= record["p99_ms"]
    assert record["p99_ms"] <= record["max_ms"]
