"""Live-daemon tests: a private ``repro serve`` subprocess per module,
driven through :class:`~repro.serve.client.ServeClient` and raw
sockets/HTTP to cover the paths stubs cannot."""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading

import pytest

from repro.errors import ProtocolError
from repro.serve.client import ServeClient

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src"))


def _env():
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


class _Daemon:
    """One ``repro serve`` subprocess on a short-path unix socket."""

    def __init__(self, state_dir, **flags):
        # AF_UNIX paths are limited to ~108 bytes; pytest tmp dirs can
        # be deeper than that, so sockets get their own short tempdir.
        self._sockdir = tempfile.mkdtemp(prefix="repro-st-")
        self.socket_path = os.path.join(self._sockdir, "s.sock")
        self.state_dir = str(state_dir)
        command = [sys.executable, "-m", "repro", "serve",
                   "--socket", self.socket_path,
                   "--state-dir", self.state_dir,
                   "--scale", "tiny"]
        for flag, value in flags.items():
            command += [f"--{flag.replace('_', '-')}", str(value)]
        self.proc = subprocess.Popen(
            command, env=_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)

    def stop(self, timeout: float = 30.0) -> tuple[int, str]:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            code = self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait(10)
        stderr = self.proc.stderr.read() if self.proc.stderr else ""
        import shutil
        shutil.rmtree(self._sockdir, ignore_errors=True)
        return code, stderr

    def info(self) -> dict:
        with open(os.path.join(self.state_dir, "server.json")) as handle:
            return json.load(handle)


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    daemon = _Daemon(tmp_path_factory.mktemp("serve-state"),
                     http_port=0, workers=2, queue_limit=16)
    probe = ServeClient(daemon.socket_path)
    assert probe.wait_until_ready(timeout=60.0), \
        daemon.proc.stderr and "server never became ready"
    probe.close()
    yield daemon
    code, stderr = daemon.stop()
    assert code == 0, f"daemon exited {code}:\n{stderr[-2000:]}"
    assert "draining" in stderr and "drained" in stderr


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.socket_path) as client:
        yield client


class TestDataPlane:
    def test_ping_carries_the_pid(self, daemon, client):
        pong = client.ping()
        assert pong["pong"] and pong["pid"] == daemon.proc.pid

    def test_trace_and_result_cache(self, client):
        first = client.trace("grep", scale="tiny")
        assert first["instructions"] > 0
        assert first["loads"] > 0 and 0 < first["load_fraction"] < 1
        assert not client.last_meta["cached"]
        second = client.trace("grep", scale="tiny")
        assert second == first
        assert client.last_meta["cached"]

    def test_default_scale_spelling_coalesces_with_explicit(self, client):
        explicit = client.trace("compress", scale="tiny", target="ppc")
        sparse = client.trace("compress")  # server default scale: tiny
        assert sparse == explicit and client.last_meta["cached"]

    def test_bad_request_is_a_protocol_error(self, client):
        with pytest.raises(ProtocolError, match="unknown benchmark"):
            client.trace("no-such-benchmark")

    def test_concurrent_identical_requests_coalesce(self, daemon, client):
        before = client.status()
        results, errors = [], []

        def fire():
            try:
                with ServeClient(daemon.socket_path) as own:
                    results.append(
                        own.annotate("grep", scale="tiny",
                                     config="Constant"))
            except Exception as exc:  # noqa: BLE001 - fail the test below
                errors.append(exc)

        threads = [threading.Thread(target=fire) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
        assert not errors
        assert len(results) == 6
        assert all(r == results[0] for r in results)
        after = client.status()
        shared = (after["coalesced"] - before["coalesced"]) \
            + (after["cache_hits"] - before["cache_hits"])
        assert shared >= 3  # most of the burst rode one execution

    def test_status_document_shape(self, client):
        status = client.status()
        assert status["workers"] == 2 and status["queue_limit"] == 16
        assert status["scale"] == "tiny"
        assert not status["draining"]
        assert status["received"] >= status["completed"]
        assert set(status["latency"]) >= {"p50_ms", "p95_ms", "p99_ms"}


class TestWireRobustness:
    def test_garbage_line_gets_a_bad_request_response(self, daemon):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30.0)
            sock.connect(daemon.socket_path)
            sock.sendall(b"this is not a frame\n")
            response = json.loads(sock.makefile("rb").readline())
        assert not response["ok"]
        assert response["error"]["kind"] == "bad_request"

    def test_wrong_proto_version_named_in_error(self, daemon):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(30.0)
            sock.connect(daemon.socket_path)
            sock.sendall(json.dumps(
                {"proto": "repro.serve/v9", "op": "ping",
                 "params": {}}).encode() + b"\n")
            response = json.loads(sock.makefile("rb").readline())
        assert response["error"]["kind"] == "bad_request"
        assert "repro.serve/v1" in response["error"]["message"]


class TestHttpListener:
    def test_status_over_http(self, daemon):
        port = daemon.info()["http_port"]
        assert port
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            conn.request("GET", "/v1/status")
            response = conn.getresponse()
            assert response.status == 200
            document = json.loads(response.read())
            assert document["ok"] and document["result"]["workers"] == 2
        finally:
            conn.close()

    def test_data_plane_over_http(self, daemon):
        port = daemon.info()["http_port"]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            body = json.dumps({"params": {"bench": "grep",
                                          "scale": "tiny"}})
            conn.request("POST", "/v1/trace", body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 200
            document = json.loads(response.read())
            assert document["result"]["instructions"] > 0
        finally:
            conn.close()

    def test_bad_request_maps_to_400(self, daemon):
        port = daemon.info()["http_port"]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            body = json.dumps({"params": {"bench": "nope"}})
            conn.request("POST", "/v1/trace", body=body)
            assert conn.getresponse().status == 400
        finally:
            conn.close()


class TestDrainOp:
    def test_drain_request_shuts_the_server_down(self, tmp_path):
        daemon = _Daemon(tmp_path / "state")
        try:
            with ServeClient(daemon.socket_path) as client:
                assert client.wait_until_ready(timeout=60.0)
                acknowledged = client.drain()
                assert acknowledged["draining"]
            # The drain op alone must end the process; a SIGTERM from
            # stop() racing its interpreter teardown would kill it.
            daemon.proc.wait(timeout=60.0)
            code, stderr = daemon.stop(timeout=60.0)
            assert code == 0, stderr[-2000:]
            assert "drained" in stderr
        finally:
            daemon.stop()


class TestParkedRecovery:
    def test_unreadable_pending_entry_is_dropped(self, tmp_path):
        """A torn ``pending/<key>.json`` cannot be resumed: startup
        recovery must drop it with one stderr line, not leave it to be
        counted in ``pending_resumes`` forever."""
        pending = tmp_path / "state" / "pending"
        pending.mkdir(parents=True)
        torn = pending / ("0" * 64 + ".json")
        torn.write_text('{"op": "experiment", "params": {"exh')
        daemon = _Daemon(tmp_path / "state")
        try:
            with ServeClient(daemon.socket_path) as client:
                assert client.wait_until_ready(timeout=60.0)
                assert client.status()["pending_resumes"] == 0
            assert not torn.exists()
        finally:
            code, stderr = daemon.stop()
        assert code == 0, stderr[-2000:]
        dropped = [line for line in stderr.splitlines()
                   if "dropping unreadable parked request" in line]
        assert len(dropped) == 1 and torn.name in dropped[0]
