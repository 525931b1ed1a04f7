"""The host agent: a remote front for the process-per-task pool.

``repro agent --bind HOST:PORT --workers N`` runs a :class:`HostAgent`:
a TCP server that accepts one client session at a time, receives TASK
frames (:mod:`repro.pool.net`), runs each task in a fresh child process
and streams results back as they finish.  The division of labor with
the client-side :class:`~repro.pool.hosts.HostPool`:

* **The agent supervises processes** through the same
  :class:`~repro.pool.executor.ChildSupervisor` the local
  :class:`~repro.pool.executor.ProcessPool` uses: at most ``workers``
  children run at once (excess tasks queue agent-side), an optional
  ``task_timeout`` watchdog reaps a stuck child, and a child death, torn
  pipe or undecodable message becomes a TASK_FAILED frame, not an agent
  crash.  The session loop only adds the client socket to the
  supervisor's wait.
* **The client supervises the network and retries.**  The agent never
  retries: every abnormal outcome is reported and the client decides
  whether to resend (it owns the ``task_retries`` budget and the
  failover policy).  Result payloads are forwarded under the digest the
  worker child computed, so integrity is checked end-to-end by the
  client, not hop-by-hop.
* **Sessions are disposable.**  A client EOF, BYE, torn frame, or idle
  timeout ends the session: in-flight children are reaped, queued tasks
  dropped, and the agent returns to ``accept`` — a reconnecting client
  re-sends whatever it still needs.  That statelessness is what makes
  killing an agent mid-run recoverable bit-identically.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import socket
import time
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Any, Callable

from repro.core.engine.config import check_timeout, check_workers
from repro.pool.errors import FrameError, PayloadIntegrityError
from repro.pool.executor import ChildSupervisor
from repro.pool.net import (
    CONTROL_TASK_ID,
    FRAME_BYE,
    FRAME_HELLO,
    FRAME_PING,
    FRAME_PONG,
    FRAME_REJECT,
    FRAME_RESULT_ERROR,
    FRAME_RESULT_INTERRUPT,
    FRAME_RESULT_OK,
    FRAME_TASK,
    FRAME_TASK_FAILED,
    FRAME_WELCOME,
    PROTOCOL_VERSION,
    listener_socket,
    read_frame,
    send_frame,
    send_json_frame,
)

__all__ = ["HostAgent", "spawn_local_agent"]


class HostAgent:
    """Serve pool tasks to one remote :class:`HostPool` client at a time.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` binds an ephemeral port; the bound
        endpoint is readable from :attr:`address` (and ``--ready-file``
        publishes it for scripted drills).
    workers:
        Maximum concurrent child processes; also advertised to the
        client in the WELCOME frame as this host's task credit.
    task_timeout:
        Optional per-task wall-clock deadline, enforced agent-side
        (task supervision is the agent's job; the client only bounds
        network stalls via heartbeats).
    accept_timeout_s / io_timeout_s / client_idle_timeout_s:
        The bounded-blocking budget: how long ``accept`` may block
        between stop-flag checks, the armed timeout on every client
        socket operation, and how long a session may go without any
        client frame (heartbeats included) before it is dropped.
    term_grace_s:
        SIGTERM→SIGKILL grace when reaping a child.
    context:
        multiprocessing start-method name (``None`` = platform default).
    """

    def __init__(
        self,
        host: str,
        port: int,
        workers: int,
        *,
        task_timeout: float | None = None,
        accept_timeout_s: float = 1.0,
        io_timeout_s: float = 30.0,
        client_idle_timeout_s: float = 60.0,
        term_grace_s: float = 0.5,
        context: str | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        check_workers(workers)
        check_timeout(task_timeout, "task_timeout")
        check_timeout(accept_timeout_s, "accept_timeout_s")
        check_timeout(io_timeout_s, "io_timeout_s")
        check_timeout(client_idle_timeout_s, "client_idle_timeout_s")
        self.workers = workers
        self.task_timeout = task_timeout
        self.io_timeout_s = io_timeout_s
        self.client_idle_timeout_s = client_idle_timeout_s
        self.term_grace_s = term_grace_s
        self._clock = clock
        self._ctx = mp.get_context(context)
        self._stopped = False
        self._listener = listener_socket(host, port, accept_timeout_s)
        #: The bound ``(host, port)`` — resolves ``port=0`` requests.
        self.address: tuple[str, int] = self._listener.getsockname()[:2]

    @property
    def label(self) -> str:
        """This agent's endpoint identity (``host:port``)."""
        return f"{self.address[0]}:{self.address[1]}"

    def stop(self) -> None:
        """Ask the serve loop to exit after its current accept/session tick."""
        self._stopped = True

    def close(self) -> None:
        self._stopped = True
        self._listener.close()

    # -- serving --------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept and serve client sessions until :meth:`stop` or SIGINT."""
        try:
            while not self._stopped:
                try:
                    sock, _peer = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed under us = stop
                try:
                    self._serve_client(sock)
                finally:
                    sock.close()
        except KeyboardInterrupt:
            pass
        finally:
            self._listener.close()

    # -- one client session ---------------------------------------------

    def _serve_client(self, sock: socket.socket) -> None:
        sock.settimeout(self.io_timeout_s)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:  # pragma: no cover - transport without TCP_NODELAY
            pass
        if not self._handshake(sock):
            return
        queue: deque[tuple[int, str, Callable[..., Any], tuple]] = deque()
        supervisor = ChildSupervisor(
            self._ctx, self.task_timeout, term_grace_s=self.term_grace_s,
            clock=self._clock,
        )
        last_seen = self._clock()
        try:
            while not self._stopped:
                while queue and len(supervisor) < self.workers:
                    supervisor.start(*queue.popleft())
                now = self._clock()
                if now - last_seen > self.client_idle_timeout_s:
                    return  # silent client: reclaim the agent
                tick = min(1.0, self.client_idle_timeout_s / 4)
                wakeup = supervisor.next_wakeup()
                if wakeup is not None:
                    tick = min(tick, max(0.0, wakeup - now))
                ready = wait([sock, *supervisor.pipes], timeout=tick)
                if sock in ready:
                    alive, saw_frame = self._client_frame(sock, queue)
                    if saw_frame:
                        last_seen = self._clock()
                    if not alive:
                        return
                for fut, status, value in supervisor.collect(ready):
                    self._forward(sock, fut.index, status, value)
        except (FrameError, ConnectionError, socket.timeout, OSError):
            # The session transport is gone or unusable; drop the client
            # and return to accept.  The client's reconnect ladder owns
            # recovery — any lost results are simply re-requested.
            return
        finally:
            supervisor.close()

    def _handshake(self, sock: socket.socket) -> bool:
        try:
            frame = read_frame(sock)
        except (FrameError, PayloadIntegrityError, socket.timeout, OSError):
            return False
        if frame is None:
            return False
        if frame.kind != FRAME_HELLO:
            self._reject(sock, f"expected HELLO, got frame kind {frame.kind}")
            return False
        try:
            hello = frame.json()
        except FrameError:
            self._reject(sock, "HELLO payload is not a JSON object")
            return False
        protocol = hello.get("protocol")
        if protocol != PROTOCOL_VERSION:
            self._reject(
                sock,
                f"protocol version mismatch: agent speaks "
                f"{PROTOCOL_VERSION}, client sent {protocol!r}",
            )
            return False
        send_json_frame(
            sock, FRAME_WELCOME,
            {
                "protocol": PROTOCOL_VERSION,
                "workers": self.workers,
                "host": self.label,
                "pid": os.getpid(),
            },
        )
        return True

    def _reject(self, sock: socket.socket, reason: str) -> None:
        try:
            send_json_frame(sock, FRAME_REJECT, {"reason": reason})
        except OSError:  # pragma: no cover - peer already gone
            pass

    def _client_frame(
        self,
        sock: socket.socket,
        queue: deque[tuple[int, str, Callable[..., Any], tuple]],
    ) -> tuple[bool, bool]:
        """Read and dispatch one client frame.

        Returns ``(session alive, frame seen)``.  A payload-integrity
        failure on a TASK frame is confined to that task (the frame
        boundary survived): the client is told via TASK_FAILED and the
        session continues.
        """
        try:
            frame = read_frame(sock)
        except PayloadIntegrityError as exc:
            task_id = getattr(exc, "task_id", CONTROL_TASK_ID)
            if task_id == CONTROL_TASK_ID:
                raise FrameError(f"corrupt control frame: {exc}") from exc
            self._forward(sock, task_id, "integrity", exc)
            return True, True
        if frame is None:
            return False, False  # clean EOF: client is gone
        if frame.kind == FRAME_PING:
            send_frame(sock, FRAME_PONG)
            return True, True
        if frame.kind == FRAME_BYE:
            return False, True
        if frame.kind == FRAME_TASK:
            try:
                fn, args, label = pickle.loads(frame.payload)
            except Exception as exc:  # noqa: BLE001 - confine to this task
                self._forward(
                    sock, frame.task_id, "crash",
                    f"task payload could not be deserialized on "
                    f"{self.label}: {exc!r}",
                )
                return True, True
            # Name the child after the client's label and this host, so
            # crash and timeout texts say where the attempt ran.
            queue.append((frame.task_id, f"{label}@{self.label}", fn, args))
            return True, True
        raise FrameError(
            f"client sent unexpected frame kind {frame.kind} mid-session"
        )

    # -- results --------------------------------------------------------

    def _forward(
        self, sock: socket.socket, task_id: int, status: str, value: Any
    ) -> None:
        """Forward one task outcome to the client; abnormal outcomes
        (``crash``/``timeout``/``integrity``) become TASK_FAILED frames.

        Result blobs travel under the digest the child computed — the
        agent never re-hashes or unpickles them, so a byte corrupted on
        the child pipe is caught by the *client's* frame check, end to
        end.
        """
        if status == "ok":
            blob, hexdigest = value
            send_frame(
                sock, FRAME_RESULT_OK, blob, task_id=task_id,
                digest=bytes.fromhex(hexdigest),
            )
        elif status == "interrupt":
            send_frame(sock, FRAME_RESULT_INTERRUPT, task_id=task_id)
        elif status == "error":
            try:
                payload = pickle.dumps(value)
            except Exception:  # noqa: BLE001 - keep the error representable
                payload = pickle.dumps(RuntimeError(f"unpicklable {value!r}"))
            send_frame(sock, FRAME_RESULT_ERROR, payload, task_id=task_id)
        else:
            send_json_frame(
                sock, FRAME_TASK_FAILED,
                {"outcome": status, "error": str(value)},
                task_id=task_id,
            )


# -- scripted-drill helper ---------------------------------------------


def _agent_entry(
    ready: Connection,
    host: str,
    port: int,
    workers: int,
    options: dict[str, Any],
) -> None:
    """Child entry point for :func:`spawn_local_agent` (spawn-safe)."""
    agent = HostAgent(host, port, workers, **options)
    ready.send(agent.address)
    ready.close()
    agent.serve_forever()


def spawn_local_agent(
    workers: int = 1,
    host: str = "127.0.0.1",
    port: int = 0,
    ready_timeout_s: float = 10.0,
    **options: Any,
) -> tuple[mp.process.BaseProcess, tuple[str, int]]:
    """Start a :class:`HostAgent` in a child process; return it + address.

    The default ``port=0`` binds an ephemeral port, so tests and CI
    drills can run several agents side by side without port planning.
    The returned process is a plain ``multiprocessing.Process`` — kill it
    with ``process.kill()`` to stage a host death.
    """
    ctx = mp.get_context()
    recv, send = ctx.Pipe(duplex=False)
    # Not a daemon: daemonic processes may not fork children, and the
    # agent's whole job is forking per-task workers.  Callers own the
    # shutdown (terminate()/kill() + join()).
    proc = ctx.Process(
        target=_agent_entry,
        args=(send, host, port, workers, options),
    )
    proc.start()
    send.close()
    try:
        if not recv.poll(ready_timeout_s):
            raise RuntimeError(
                f"local agent did not bind within {ready_timeout_s:g}s"
            )
        address = recv.recv()  # repro-lint: disable=RPL008 -- poll(timeout) above bounds this read
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"local agent died before binding (exit code {proc.exitcode})"
        ) from None
    finally:
        recv.close()
    return proc, address
