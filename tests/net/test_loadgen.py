"""The load driver's arguments, and ``loadgen`` driving it over the wire
against a ``repro serve`` process."""

import asyncio
import os
import subprocess
import sys

import pytest

import repro
from repro import obs
from repro.cli import main
from repro.errors import ConfigError
from repro.service import drive
from repro.service.workload import probe_requests, table09_probe_stream

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.parametrize("kwargs", [
    {"count": 0},
    {"keys_per_request": 0},
    {"concurrency": 0},
    {"rate": 0.0},
    {"rate": -5.0},
    {"after": (-1, print)},
    {"requests": [("lookup", [1]), ("scan", [1])]},
])
def test_spec_validation(kwargs):
    count = kwargs.pop("count", 4)
    keys_per_request = kwargs.pop("keys_per_request", 1)
    kwargs.setdefault("concurrency", 2)
    with pytest.raises(ConfigError):  # before anything is sent
        requests = kwargs.pop("requests", None) or probe_requests(
            range(8), count, keys_per_request)
        asyncio.run(drive(None, requests, **kwargs))


def test_table09_probe_stream_is_deterministic():
    stored_a, probes_a = table09_probe_stream(128, seed=3)
    stored_b, probes_b = table09_probe_stream(128, seed=3)
    assert stored_a == stored_b and probes_a == probes_b
    assert 0 < len(stored_a) <= int(128 * 0.6)
    assert probes_a
    stored_c, _ = table09_probe_stream(128, seed=4)
    assert stored_c != stored_a


@pytest.fixture
def server_port():
    """A ``repro serve`` process on an ephemeral loopback port."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--shards", "2", "--max-seconds", "60"],
        stdout=subprocess.PIPE, text=True, env=env,
    )
    try:
        banner = server.stdout.readline()
        assert "serving" in banner, banner
        yield int(banner.rsplit(":", 1)[1])
    finally:
        server.terminate()
        out, _ = server.communicate(timeout=30)
    assert "draining" in out and server.returncode == 0


def loadgen(port, path, *argv):
    assert main(["loadgen", "--port", str(port), "--manifest-out",
                 str(path), *argv]) == 0
    return obs.load_manifest(str(path))


def test_manifest_is_schema_valid(server_port, tmp_path):
    manifest = loadgen(server_port, tmp_path / "net.json", "--requests",
                       "300", "--concurrency", "8", "--kill-after", "100")
    assert manifest["name"] == "net_loadgen"
    assert manifest["config"]["kill_after"] == 100
    extra = manifest["extra"]
    # the keys and meanings the CI net-smoke job asserts on
    assert extra["kills"] == 1
    assert extra["errors"] == 0
    assert extra["retries"] >= 0
    assert extra["achieved_rps"] > 0
    assert extra["requests"] == extra["ok"] == 300
    assert "latency_p99_ms" in extra


def test_closed_loop_run(server_port, tmp_path):
    extra = loadgen(server_port, tmp_path / "closed.json", "--requests",
                    "40", "--concurrency", "4")["extra"]
    assert extra["requests"] == extra["ok"] == extra["latency_samples"] == 40
    assert extra["rejected"] == extra["errors"] == 0
    assert 0 < extra["hits"] <= extra["keys"] == 40
    assert extra["achieved_rps"] > 0 and extra["offered_rps"] is None


def test_open_loop_run_records_offered_rate(server_port, tmp_path):
    extra = loadgen(server_port, tmp_path / "open.json", "--mode", "open",
                    "--rate", "5000", "--requests", "30", "--batch", "2",
                    "--naive", "--pool", "2")["extra"]
    assert extra["requests"] == extra["ok"] == 30
    assert extra["keys"] == 60
    assert extra["offered_rps"] == 5000.0


def test_kill_after_recovers_with_zero_errors(server_port, tmp_path):
    extra = loadgen(server_port, tmp_path / "kill.json", "--mode", "open",
                    "--rate", "2000", "--requests", "60", "--kill-after",
                    "20")["extra"]
    assert extra["kills"] == 1
    assert extra["errors"] == 0, "retries must absorb the kill"
    assert extra["requests"] == extra["ok"] == 60


def test_seed_phase_skipped_when_server_populated(server_port, tmp_path):
    first = loadgen(server_port, tmp_path / "a.json", "--requests", "50")
    second = loadgen(server_port, tmp_path / "b.json", "--requests", "50")
    assert first["extra"]["stored_words"] > 0
    assert second["extra"]["stored_words"] == 0  # occupied: no re-seed
    assert first["extra"]["hits"] == second["extra"]["hits"] > 0
