"""The ``repro serve`` daemon.

One long-lived asyncio process owns a unix-socket listener (plus an
optional local HTTP listener), a process pool for simulation ops, and
a scheduler (:mod:`repro.serve.scheduler`) that applies admission
control, coalescing, circuit breaking, and deadlines to every
data-plane request.

Crash safety piggybacks on the run journal (PR 3): experiment requests
execute as journaled ``repro experiment`` subprocesses with a run id
*derived from the request key*, and a write-ahead ``pending/<key>.json``
entry is persisted before the subprocess starts.  A server killed
mid-run therefore leaves exactly the state a restart needs: on boot it
scans ``pending/``, resubmits each unfinished request through its own
scheduler (so a client re-request coalesces with the recovery), and
the subprocess resumes from the journal -- producing output
byte-identical to an uninterrupted run, which the kill/restart
differential suite asserts.

Graceful drain on SIGTERM: stop admitting (new requests shed with
:class:`~repro.errors.ServiceOverloadError`), give in-flight work
``drain_timeout`` seconds to finish, then SIGTERM the experiment
subprocesses -- whose own interrupt handlers journal a clean
``interrupted`` record -- park them for resume, write the service
``metrics.json``, and exit 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pathlib
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Any, Optional

from repro.durable import write_atomic
from repro.errors import (
    DeadlineExceededError,
    ProtocolError,
    ReproError,
    ServeError,
    ServiceOverloadError,
    WorkerCrashError,
)
from repro.obs import MetricsRegistry, write_metrics
from repro.serve import protocol
from repro.serve.scheduler import (
    DEFAULT_BREAKER_COOLDOWN,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_WORKERS,
    Scheduler,
    execute_sim_op,
    normalize_params,
)

#: Ops executed on the process pool (everything else is an experiment
#: subprocess or control-plane).
SIM_OPS = ("trace", "annotate", "model", "sweep")

#: Journals the serve runs dir keeps before pruning.  Far above the
#: default 8: a pruned journal would orphan a parked resume.
SERVE_RUNS_KEEP = "64"

_HTTP_PHRASES = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable", 504: "Gateway Timeout",
}


@dataclass
class ServeConfig:
    """Everything ``repro serve`` needs to run one daemon."""

    socket_path: str = ".repro/serve.sock"
    state_dir: str = ".repro/serve"
    host: str = "127.0.0.1"
    #: None = no HTTP listener; 0 = bind an ephemeral port.
    http_port: Optional[int] = None
    workers: int = DEFAULT_WORKERS
    queue_limit: int = DEFAULT_QUEUE_LIMIT
    scale: str = "small"
    drain_timeout: float = 10.0
    #: Deadline applied to requests that do not carry one (0 = none).
    default_deadline: float = 0.0
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD
    breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN


class ReproServer:
    """One daemon instance (build, then ``asyncio.run(server.run())``)."""

    def __init__(self, config: ServeConfig) -> None:
        if len(str(config.socket_path)) > 100:
            # AF_UNIX sun_path is 108 bytes on Linux; fail with a clear
            # message instead of a cryptic bind error.
            raise ServeError(
                f"socket path {config.socket_path!r} is too long for a "
                f"unix socket; pick a shorter --socket")
        self.config = config
        self.state_dir = pathlib.Path(config.state_dir)
        self.runs_dir = self.state_dir / "runs"
        self.results_dir = self.state_dir / "results"
        self.pending_dir = self.state_dir / "pending"
        self.scheduler = Scheduler(
            self._dispatch_op, workers=config.workers,
            queue_limit=config.queue_limit,
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown=config.breaker_cooldown)
        self.metrics = MetricsRegistry()
        self.http_port: Optional[int] = None
        self._pool: Optional[ProcessPoolExecutor] = None
        self._servers: list[asyncio.AbstractServer] = []
        self._connections: set[asyncio.StreamWriter] = set()
        self._procs: dict[str, Any] = {}
        self._shutdown: Optional[asyncio.Event] = None
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    async def run(self) -> int:
        """Serve until SIGTERM/SIGINT (or a ``drain`` op), then drain."""
        await self.start()
        try:
            await self._shutdown.wait()
        finally:
            await self.drain()
        return 0

    async def start(self) -> None:
        for directory in (self.state_dir, self.runs_dir,
                          self.results_dir, self.pending_dir):
            directory.mkdir(parents=True, exist_ok=True)
        # Keep the trace cache warm *across* requests and workers: this
        # is the serve-mode analog of the paper's value locality.
        os.environ.setdefault("REPRO_TRACE_CACHE",
                              str(self.state_dir / "cache"))
        self._migrate_cache(os.environ["REPRO_TRACE_CACHE"])
        os.environ.setdefault("REPRO_RUNS_KEEP", SERVE_RUNS_KEEP)
        self._pool = ProcessPoolExecutor(self.config.workers)
        self._shutdown = asyncio.Event()
        self._started_at = time.monotonic()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(
                    signum, self.request_shutdown, signum)
        socket_path = pathlib.Path(self.config.socket_path)
        socket_path.parent.mkdir(parents=True, exist_ok=True)
        with contextlib.suppress(OSError):
            socket_path.unlink()
        self._servers.append(await asyncio.start_unix_server(
            self._handle_unix, path=str(socket_path),
            limit=protocol.MAX_FRAME_BYTES + 1024))
        if self.config.http_port is not None:
            http = await asyncio.start_server(
                self._handle_http, host=self.config.host,
                port=self.config.http_port,
                limit=protocol.MAX_FRAME_BYTES + 1024)
            self.http_port = http.sockets[0].getsockname()[1]
            self._servers.append(http)
        self._write_server_info()
        print(f"repro serve: listening on {socket_path} "
              f"(pid {os.getpid()})", file=sys.stderr, flush=True)
        if self.http_port:
            print(f"repro serve: http on {self.config.host}:"
                  f"{self.http_port}", file=sys.stderr, flush=True)
        self._recover()

    @staticmethod
    def _migrate_cache(cache_dir: str) -> None:
        """Upgrade legacy v1 ``.npz`` bundles to mmap-friendly v2 once,
        at startup, so every worker request zero-copy-maps its traces
        instead of paying the per-request decompress.  Best effort: a
        migration failure only means those bundles stay v1 (still
        readable) or regenerate on first miss."""
        directory = pathlib.Path(cache_dir)
        if not directory.is_dir() or not any(directory.glob("*.npz")):
            return
        from repro.harness.cache import TraceCache
        try:
            outcome = TraceCache(directory).migrate()
        except Exception as exc:  # pragma: no cover - defensive
            print(f"repro serve: cache migration skipped ({exc})",
                  file=sys.stderr, flush=True)
            return
        print("repro serve: migrated trace cache to v2 "
              f"({outcome['migrated']} migrated, "
              f"{outcome['skipped']} skipped, "
              f"{outcome['failed']} quarantined)",
              file=sys.stderr, flush=True)

    def request_shutdown(self, signum: int = signal.SIGTERM) -> None:
        """Begin a graceful drain (signal handler / ``drain`` op)."""
        if self._shutdown is not None and not self._shutdown.is_set():
            name = signal.Signals(signum).name \
                if signum in signal.Signals._value2member_map_ \
                else str(signum)
            print(f"repro serve: {name} received; draining",
                  file=sys.stderr, flush=True)
            self.scheduler.draining = True
            self._shutdown.set()

    async def drain(self) -> None:
        """Stop admission, settle in-flight work, persist, shut down."""
        self.scheduler.draining = True
        for server in self._servers:
            server.close()
        drained = await self.scheduler.wait_idle(
            self.config.drain_timeout)
        if not drained:
            # Experiment subprocesses get a SIGTERM: their interrupt
            # handlers journal a clean 'interrupted' record, and the
            # pending/ entry parks the request for resume-on-restart.
            for proc in list(self._procs.values()):
                with contextlib.suppress(ProcessLookupError, OSError):
                    proc.terminate()
            drained = await self.scheduler.wait_idle(5.0)
            if not drained:
                self.scheduler.cancel_inflight()
                await asyncio.sleep(0)
        if self._pool is not None:
            self._pool.shutdown(wait=drained, cancel_futures=True)
        self._write_service_metrics()
        for writer in list(self._connections):
            with contextlib.suppress(Exception):
                writer.close()
        with contextlib.suppress(OSError):
            pathlib.Path(self.config.socket_path).unlink()
        print("repro serve: drained"
              + ("" if drained else " (in-flight runs parked for "
                                    "resume)"),
              file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    # Crash recovery.
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Resubmit every parked request left by a killed predecessor."""
        for path in sorted(self.pending_dir.glob("*.json")):
            try:
                entry = json.loads(path.read_text())
            except (OSError, ValueError) as exc:
                # Torn or damaged: nothing to resume from, and left in
                # place it would count in pending_resumes forever.
                print(f"repro serve: dropping unreadable parked request "
                      f"{path.name} ({exc})", file=sys.stderr, flush=True)
                with contextlib.suppress(OSError):
                    path.unlink()
                continue
            key = path.stem
            if (self.results_dir / f"{key}.json").exists():
                path.unlink(missing_ok=True)
                continue
            self.scheduler.stats.resumed += 1
            print(f"repro serve: resuming parked run "
                  f"{entry.get('run_id', key[:16])}",
                  file=sys.stderr, flush=True)
            asyncio.get_running_loop().create_task(
                self._resume_parked(entry))

    async def _resume_parked(self, entry: dict[str, Any]) -> None:
        try:
            await self.scheduler.submit(entry["op"], entry["params"])
        except Exception as exc:
            print(f"repro serve: parked run "
                  f"{entry.get('run_id', '?')} failed to resume: "
                  f"{type(exc).__name__}: {exc}",
                  file=sys.stderr, flush=True)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    async def _dispatch_op(self, op: str, params: dict[str, Any],
                           deadline_s: float) -> Any:
        if op in SIM_OPS:
            loop = asyncio.get_running_loop()
            try:
                payload = await loop.run_in_executor(
                    self._pool,
                    partial(execute_sim_op, op, params, deadline_s))
            except BrokenProcessPool:
                # One lost worker poisons the whole pool: rebuild it so
                # the *next* request runs, and fail this one retryably.
                self._pool.shutdown(wait=False, cancel_futures=True)
                self._pool = ProcessPoolExecutor(self.config.workers)
                raise WorkerCrashError(
                    f"worker process died while serving {op} "
                    f"{params.get('bench', '?')}") from None
            result = payload["result"]
            bench = params.get("bench", "?")
            self.metrics.inc(bench, f"serve/{op}/requests")
            if payload["tier_notes"]:
                result = dict(result)
                result["tier_notes"] = payload["tier_notes"]
                self.metrics.inc(bench, "serve/demotions",
                                 len(payload["tier_notes"]))
            return result
        if op == "experiment":
            return await self._run_experiment(params, deadline_s)
        raise ProtocolError(f"op {op!r} has no executor")

    async def _run_experiment(self, params: dict[str, Any],
                              deadline_s: float) -> dict[str, Any]:
        key = protocol.request_key("experiment", params)
        cached = self._load_result(key)
        if cached is not None:
            return cached
        run_id = "serve-" + key[:16]
        self._write_pending(key, params, run_id)
        if (self.runs_dir / run_id / "manifest.json").exists():
            argv = ["experiment", "--resume", run_id,
                    "--runs-dir", str(self.runs_dir)]
        else:
            argv = ["experiment", params["exhibit"],
                    "--scale", params["scale"],
                    "--benchmarks", ",".join(params["benchmarks"]),
                    "--run-id", run_id,
                    "--runs-dir", str(self.runs_dir)]
        proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", *argv,
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE)
        self._procs[key] = proc
        try:
            if deadline_s:
                try:
                    out, err = await asyncio.wait_for(
                        proc.communicate(), deadline_s)
                except asyncio.TimeoutError:
                    with contextlib.suppress(ProcessLookupError,
                                             OSError):
                        proc.terminate()
                    await proc.communicate()
                    raise DeadlineExceededError(
                        f"experiment {run_id} exceeded its "
                        f"{deadline_s:g}s deadline (journaled for "
                        f"resume)") from None
            else:
                out, err = await proc.communicate()
        finally:
            self._procs.pop(key, None)
        code = proc.returncode
        if code in (0, 1):
            # 1 = degraded (footnoted failures); still a result.
            result = {"exhibit": params["exhibit"], "run_id": run_id,
                      "exit": code, "text": out.decode()}
            self._store_result(key, params, result)
            (self.pending_dir / f"{key}.json").unlink(missing_ok=True)
            for bench in params["benchmarks"]:
                self.metrics.inc(bench, "serve/experiment/requests")
            return result
        if code is None or code < 0 or code >= 128:
            # Killed -- normally our own drain SIGTERM.  The journal
            # holds an 'interrupted' record and pending/ still has the
            # entry, so a restarted server resumes it.
            raise ServiceOverloadError(
                f"experiment {run_id} interrupted (exit {code}); "
                f"parked for resume after restart")
        tail = err.decode(errors="replace").strip().splitlines()[-3:]
        raise ReproError(
            f"experiment {run_id} failed with exit {code}: "
            + " | ".join(tail))

    # ------------------------------------------------------------------
    # Persistence.
    # ------------------------------------------------------------------
    def _write_pending(self, key: str, params: dict[str, Any],
                       run_id: str) -> None:
        path = self.pending_dir / f"{key}.json"
        if path.exists():
            return
        write_atomic(path, json.dumps({"op": "experiment", "params": params,
                                       "run_id": run_id}, sort_keys=True))

    def _store_result(self, key: str, params: dict[str, Any],
                      result: dict[str, Any]) -> None:
        write_atomic(self.results_dir / f"{key}.json",
                     json.dumps({"op": "experiment", "params": params,
                                 "result": result}, sort_keys=True))

    def _load_result(self, key: str) -> Optional[dict[str, Any]]:
        path = self.results_dir / f"{key}.json"
        try:
            return json.loads(path.read_text())["result"]
        except OSError:
            return None
        except (ValueError, KeyError, TypeError):
            # Damaged result (torn write): drop it and recompute.
            path.unlink(missing_ok=True)
            return None

    def _write_server_info(self) -> None:
        document = {"pid": os.getpid(),
                    "socket_path": str(self.config.socket_path),
                    "http_port": self.http_port,
                    "scale": self.config.scale,
                    "proto": protocol.PROTOCOL_ID}
        write_atomic(self.state_dir / "server.json",
                     json.dumps(document, sort_keys=True))

    def _write_service_metrics(self) -> None:
        with contextlib.suppress(Exception):
            stats = self.scheduler.stats
            self.metrics.add_run_many("serve/", stats.counters())
            self.metrics.add_run_many(
                "serve/latency/",
                {k: v for k, v in stats.latency_summary().items()})
            write_metrics(self.state_dir,
                          self.metrics.to_document(run_id="serve"))

    # ------------------------------------------------------------------
    # Request handling.
    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        document = self.scheduler.snapshot()
        document["proto"] = protocol.PROTOCOL_ID
        document["pid"] = os.getpid()
        document["uptime_s"] = round(
            time.monotonic() - self._started_at, 1)
        document["scale"] = self.config.scale
        document["socket"] = str(self.config.socket_path)
        document["http_port"] = self.http_port
        document["pending_resumes"] = len(
            list(self.pending_dir.glob("*.json")))
        return document

    async def _handle_frame(self, line: bytes) -> dict[str, Any]:
        request_id = ""
        try:
            payload = protocol.decode_frame(line)
            raw_id = payload.get("id", "")
            request_id = raw_id if isinstance(raw_id, str) else ""
            protocol.validate_request(payload)
            op = payload["op"]
            if op == "ping":
                return protocol.ok_response(
                    request_id, {"pong": True, "pid": os.getpid()})
            if op == "status":
                return protocol.ok_response(request_id, self.status())
            if op == "drain":
                self.request_shutdown(signal.SIGTERM)
                return protocol.ok_response(
                    request_id, {"draining": True})
            params = normalize_params(op, payload.get("params", {}),
                                      self.config.scale)
            deadline = payload.get("deadline_s",
                                   self.config.default_deadline or None)
            result, meta = await self.scheduler.submit(
                op, params, deadline)
            return protocol.ok_response(request_id, result, meta)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            return protocol.error_response(request_id, exc)

    async def _handle_unix(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Line exceeded the stream limit: oversized frame.
                    writer.write(protocol.encode_frame(
                        protocol.error_response("", ProtocolError(
                            "frame exceeds the protocol size limit"))))
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._handle_frame(line)
                writer.write(protocol.encode_frame(response))
                await writer.drain()
        except asyncio.CancelledError:
            # Shutdown teardown cancels parked handlers; end quietly.
            pass
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            response = await self._http_exchange(reader)
            body = protocol.encode_frame(response)
            status = protocol.http_status(response)
            phrase = _HTTP_PHRASES.get(status, "Error")
            head = (f"HTTP/1.1 {status} {phrase}\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    f"Connection: close\r\n\r\n")
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except asyncio.CancelledError:
            pass
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError, ValueError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _http_exchange(self, reader: asyncio.StreamReader,
                             ) -> dict[str, Any]:
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return protocol.error_response(
                "", ProtocolError("malformed HTTP request line"))
        method, path = parts[0].upper(), parts[1]
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = 0
        if length:
            body = await reader.readexactly(
                min(length, protocol.MAX_FRAME_BYTES))
        if method == "GET" and path in ("/v1/status", "/status"):
            return protocol.ok_response("", self.status())
        if method == "GET" and path in ("/v1/ping", "/ping"):
            return protocol.ok_response(
                "", {"pong": True, "pid": os.getpid()})
        if method != "POST":
            return protocol.error_response(
                "", ProtocolError(f"unsupported method {method}"))
        if path in ("/v1/request", "/request"):
            return await self._handle_frame(body)
        op = path.rsplit("/", 1)[-1]
        if op not in protocol.OPS:
            return protocol.error_response(
                "", ProtocolError(f"unknown endpoint {path!r}"))
        try:
            envelope = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as exc:
            return protocol.error_response(
                "", ProtocolError(f"body is not valid JSON: {exc}"))
        if not isinstance(envelope, dict):
            return protocol.error_response(
                "", ProtocolError("body must be a JSON object"))
        if "params" in envelope:
            params = envelope.get("params") or {}
            deadline = envelope.get("deadline_s")
        else:
            params, deadline = envelope, None
        request = {"proto": protocol.PROTOCOL_ID, "id": "", "op": op,
                   "params": params}
        if deadline is not None:
            request["deadline_s"] = deadline
        return await self._handle_frame(protocol.encode_frame(request))


# ---------------------------------------------------------------------------
# Status rendering (used by ``repro serve --status``).
# ---------------------------------------------------------------------------
def render_status(document: dict[str, Any]) -> str:
    """Human-readable rendering of a ``status`` response."""
    latency = document.get("latency", {})
    lines = [
        f"repro serve (pid {document.get('pid', '?')}) -- "
        f"{document.get('proto', protocol.PROTOCOL_ID)}",
        f"  socket        : {document.get('socket', '?')}"
        + (f" (http :{document['http_port']})"
           if document.get("http_port") else ""),
        f"  uptime        : {document.get('uptime_s', 0):.0f}s"
        + ("  [draining]" if document.get("draining") else ""),
        f"  workers       : {document.get('workers', '?')} "
        f"(queue limit {document.get('queue_limit', '?')})",
        f"  queue depth   : {document.get('queue_depth', 0)} waiting, "
        f"{document.get('in_flight', 0)} in flight",
        f"  requests      : {document.get('received', 0)} received / "
        f"{document.get('completed', 0)} completed / "
        f"{document.get('failed', 0)} failed",
        f"  shed          : {document.get('shed', 0)} "
        f"(rate {document.get('shed_rate', 0.0):.1%})",
        f"  coalesced     : {document.get('coalesced', 0)} "
        f"+ {document.get('cache_hits', 0)} cache hits "
        f"(hit rate {document.get('coalescing_hit_rate', 0.0):.1%})",
        f"  deadlines     : {document.get('deadline_expired', 0)} "
        f"expired; circuit rejections "
        f"{document.get('circuit_rejections', 0)}",
        f"  resumed       : {document.get('resumed', 0)} parked run(s) "
        f"picked up; {document.get('pending_resumes', 0)} pending",
        f"  latency       : p50 {latency.get('p50_ms', 0):.0f}ms / "
        f"p95 {latency.get('p95_ms', 0):.0f}ms / "
        f"p99 {latency.get('p99_ms', 0):.0f}ms "
        f"({latency.get('count', 0)} samples)",
    ]
    breakers = document.get("breakers") or {}
    if breakers:
        lines.append("  breakers      :")
        for subject, state in breakers.items():
            lines.append(f"    {subject}: {state['state']} "
                         f"({state['failures']} consecutive failures)")
    return "\n".join(lines)


async def serve_main(config: ServeConfig) -> int:
    """Build and run one server (the CLI entry point's coroutine)."""
    server = ReproServer(config)
    return await server.run()
