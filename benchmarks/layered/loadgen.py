"""The ``repro serve`` subprocess and a stdlib HTTP load generator.

Connections are keep-alive HTTP/1.1, as a real client's would be.
:func:`open_loop` keeps two: one thread submits each request when it is
due, another polls the outstanding jobs' results round-robin.
:func:`serial_loop` keeps one and fetches each result right after its
submit (cache hits are done on arrival).  A request's latency runs from
the time it was *due* (not sent), so a stalled submit delays every later
request, and the lateness of the generator itself is recorded.
"""

from __future__ import annotations

import http.client
import json
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from common import ROOT, child_env

#: A request with no answer this long after it was due is given up on and
#: counted as failed (a late answer only misses the latency limit).
GIVE_UP_S = 30.0
#: Pause after a polling round in which no job finished.
POLL_PAUSE_S = 0.005


class Server:
    """One ``repro serve`` process with its own cache and state dirs."""

    def __init__(self, workdir: Path, workers: int, queue_cap: int = 64):
        self.workdir = workdir
        self.workers = workers
        self.queue_cap = queue_cap
        self.proc: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, timeout_s: float = 60.0) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        ready = self.workdir / "ready"
        self._log = open(self.workdir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--bind", "127.0.0.1:0", "--workers", str(self.workers),
             "--queue-cap", str(self.queue_cap),
             "--cache-dir", str(self.workdir / "cache"),
             "--state-dir", str(self.workdir / "state"),
             "--ready-file", str(ready)],
            cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        deadline = time.monotonic() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early: {self.log_tail()}")
            if time.monotonic() > deadline:
                raise RuntimeError("server not ready in time")
            label = ready.read_text().strip() if ready.exists() else ""
            if label:
                host, _, port = label.rpartition(":")
                self.host, self.port = host, int(port)
                status, body = fresh_call(self.host, self.port, "GET",
                                          "/healthz")
                if status == 200 and json.loads(body)["status"] == "ok":
                    return
            time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        """VmHWM of the server process (read before shutdown)."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def log_tail(self) -> str:
        try:
            return (self.workdir / "server.log").read_text()[-2000:]
        except OSError:
            return ""

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc is not None:
            self._log.close()
        self.proc = None
        shutil.rmtree(self.workdir, ignore_errors=True)


def fresh_call(host: str, port: int, method: str, path: str,
               body: Any = None) -> tuple[int, bytes]:
    """One exchange on a new connection (closed afterwards)."""
    client = Client(host, port)
    try:
        status, payload, _, _ = client.call(method, path, body)
        return status, payload
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        client.close()


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int, timeout_s: float = GIVE_UP_S):
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout_s)

    def call(self, method: str, path: str, body: Any = None
             ) -> tuple[int, bytes, float, float]:
        """``(status, body, start, end)``; reconnects after a failure."""
        data = None if body is None else (
            body if isinstance(body, bytes) else json.dumps(body).encode()
        )
        headers = {"Content-Type": "application/json"} if data else {}
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            resp = self.conn.getresponse()
            payload = resp.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            raise
        return resp.status, payload, start, time.perf_counter()

    def close(self) -> None:
        self.conn.close()


def paced_arrivals(rng: np.random.Generator, rate: float, count: int,
                   jitter: float) -> list[float]:
    """One arrival per ``1/rate`` slot, placed uniformly within ``jitter``
    slots of the slot's middle: gaps never fall below ``1 - 2 * jitter``
    slots."""
    return [(i + 0.5 + rng.uniform(-jitter, jitter)) / rate
            for i in range(count)]


@dataclass
class Request:
    index: int
    due: float
    body: bytes
    job_id: str | None = None
    submit_status: int = 0
    submit_body: bytes = b""
    result_status: int = 0
    result_body: bytes = b""
    sent: float | None = None
    done: float | None = None
    error: str | None = None
    #: (name, start, end) of every HTTP exchange made for this request.
    exchanges: list[tuple[str, float, float]] = field(default_factory=list)


@dataclass
class PhaseResult:
    start: float
    end: float
    requests: list[Request]

    def latency(self, req: Request) -> float:
        assert req.done is not None
        return req.done - (self.start + req.due)


def open_loop(host: str, port: int, requests: list[Request]) -> PhaseResult:
    """Send every request at its due time; poll results until all settle."""
    lock = threading.Condition()
    outstanding: deque[Request] = deque()
    submitting = [True]
    start = time.perf_counter() + 0.05

    def submit() -> None:
        client = Client(host, port)
        try:
            for req in requests:
                delay = start + req.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                req.sent = time.perf_counter()
                try:
                    status, body, t0, t1 = client.call(
                        "POST", "/v1/submit", req.body)
                except (OSError, http.client.HTTPException) as exc:
                    req.error = f"submit failed: {exc!r}"
                    continue
                req.exchanges.append(("service.http.submit", t0, t1))
                req.submit_status, req.submit_body = status, body
                if status not in (200, 202):
                    req.error = f"submit refused with {status}"
                    continue
                req.job_id = json.loads(body)["job_id"]
                with lock:
                    outstanding.append(req)
                    lock.notify()
        finally:
            client.close()
            with lock:
                submitting[0] = False
                lock.notify()

    def poll() -> None:
        client = Client(host, port)
        try:
            while True:
                with lock:
                    while not outstanding and submitting[0]:
                        lock.wait(0.1)
                    if not outstanding:
                        return
                    batch = list(outstanding)
                    outstanding.clear()
                keep = []
                for req in batch:
                    if not _poll_once(client, req, start):
                        keep.append(req)
                with lock:
                    outstanding.extendleft(reversed(keep))
                if len(keep) == len(batch):
                    time.sleep(POLL_PAUSE_S)
        finally:
            client.close()

    threads = [threading.Thread(target=submit, name="loadgen-submit"),
               threading.Thread(target=poll, name="loadgen-poll")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    finished = [r.done for r in requests if r.done is not None]
    return PhaseResult(start, max(finished, default=time.perf_counter()),
                       requests)


def serial_loop(host: str, port: int, requests: list[Request]) -> PhaseResult:
    """One connection: each request, when due, submits and then fetches
    its result right away (the read path, where the job is already done)."""
    client = Client(host, port)
    start = time.perf_counter() + 0.05
    try:
        for req in requests:
            delay = start + req.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            req.sent = time.perf_counter()
            try:
                status, body, t0, t1 = client.call(
                    "POST", "/v1/submit", req.body)
            except (OSError, http.client.HTTPException) as exc:
                req.error = f"submit failed: {exc!r}"
                continue
            req.exchanges.append(("service.http.submit", t0, t1))
            req.submit_status, req.submit_body = status, body
            if status not in (200, 202):
                req.error = f"submit refused with {status}"
                continue
            req.job_id = json.loads(body)["job_id"]
            while not _poll_once(client, req, start):
                time.sleep(POLL_PAUSE_S)
    finally:
        client.close()
    finished = [r.done for r in requests if r.done is not None]
    return PhaseResult(start, max(finished, default=time.perf_counter()),
                       requests)


def _poll_once(client: Client, req: Request, start: float) -> bool:
    """One result poll; ``True`` once the request is settled."""
    path = f"/v1/jobs/{req.job_id}/result"
    try:
        status, body, t0, t1 = client.call("GET", path)
    except (OSError, http.client.HTTPException) as exc:
        req.error = f"poll failed: {exc!r}"
        return True
    req.exchanges.append(("service.http.result", t0, t1))
    if status == 409:
        if t1 - (start + req.due) > GIVE_UP_S:
            req.error = "timed out"
            return True
        return False
    req.result_status, req.result_body = status, body
    if status == 200:
        req.done = t1
    else:
        req.error = f"result status {status}"
    return True


def metrics_doc(client: Client) -> dict[str, Any]:
    status, body, _, _ = client.call("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics: HTTP {status}")
    return json.loads(body)
