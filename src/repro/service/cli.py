"""``repro serve`` — run the scheduling service from the command line.

Kept out of :mod:`repro.cli` so the top-level parser builds without
importing the service stack; the subcommand wires flags to
:class:`~repro.service.api.SchedulingService` and serves until a
signal arrives.  The two signals mean different shutdowns:

* ``SIGINT`` (Ctrl-C) stops *fast*: in-flight solve children are
  cancelled and reaped, queued jobs are failed for current pollers
  (and, with ``--state-dir``, journaled for next-boot re-enqueue).
* ``SIGTERM`` (supervisors, CI) *drains*: submissions get 503 with
  Retry-After while in-flight jobs finish within ``--drain-grace``
  seconds; polls keep being served throughout, then the backlog is
  journaled ``interrupted`` and the process exits 0.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading

from repro.pool.faults import pool_fault_arg

__all__ = ["DEFAULT_SERVICE_PORT", "add_serve_arguments", "run_serve"]

#: Default service port — one above the distributed layer's agent range
#: so a localhost drill can run both side by side with no flags.
DEFAULT_SERVICE_PORT = 7480


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``repro serve`` flag set."""
    parser.add_argument(
        "--bind", default="127.0.0.1", metavar="HOST[:PORT]",
        help="listen address (default: %(default)s on port "
             f"{DEFAULT_SERVICE_PORT}; ':0' picks an ephemeral port — "
             "pair with --ready-file)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="concurrent solve jobs; each runs in its own supervised "
             "worker process (default: %(default)s)",
    )
    parser.add_argument(
        "--queue-cap", type=int, default=16, metavar="N",
        help="maximum jobs waiting to run; past it submissions get 429 "
             "with a Retry-After header (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-dir", default="results/cache", metavar="DIR",
        help="content-addressed result cache directory (default: "
             "%(default)s; 'none' disables caching)",
    )
    parser.add_argument(
        "--backend", default="vectorized",
        help="engine backend for requests that name none (default: "
             "%(default)s)",
    )
    parser.add_argument(
        "--hosts", default=None, metavar="HOST[:PORT]:WORKERS,...",
        help="host-agent topology that enables backend='distributed' "
             "requests (same syntax as repro solve --hosts)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="default per-job wall-clock deadline when a request carries "
             "no deadline_s; an over-budget job is killed and fails with "
             "a structured error (default: unlimited)",
    )
    parser.add_argument(
        "--task-retries", type=int, default=0, metavar="K",
        help="retries of abnormally-dying jobs (worker crash/timeout/"
             "corrupt payload) before the job fails (default: %(default)s)",
    )
    parser.add_argument(
        "--retry-after", type=float, default=1.0, metavar="SECONDS",
        help="back-off advertised with 429 responses (default: "
             "%(default)s)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=32, metavar="N",
        help="maximum jobs in one POST /v1/batch (default: %(default)s)",
    )
    parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="durable state directory: every job transition is journaled "
             "there and replayed at the next start with the same "
             "--state-dir, so jobs survive crashes and restarts "
             "(default: no durability)",
    )
    parser.add_argument(
        "--max-terminal-jobs", type=int, default=None, metavar="N",
        help="finished/failed jobs kept in memory; older ones are "
             "evicted and served from the journal when --state-dir is "
             "set (default: unlimited)",
    )
    parser.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="on SIGTERM, how long in-flight jobs may keep running "
             "before being cancelled (default: %(default)s)",
    )
    parser.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write the bound HOST:PORT to PATH once listening (lets "
             "scripts and CI drills use --bind ':0')",
    )
    parser.add_argument(
        "--inject-pool-fault", type=pool_fault_arg, default=None,
        metavar="KIND:JOB[:repeat]",
        help="deterministic worker fault injection for drills, keyed by "
             "job admission sequence, e.g. 'kill:0' (job 0's worker dies; "
             "with --task-retries the retry runs clean) or 'kill:0:repeat' "
             "(job 0 is quarantined); kinds: kill, hang, corrupt-payload",
    )


def run_serve(args: argparse.Namespace) -> int:
    """Build the service from flags and serve until signalled."""
    if os.environ.get("REPRO_TSAN") == "1":
        # Instrument before the service constructs any lock, so the CI
        # recovery/chaos drills (which spawn `repro serve` subprocesses)
        # double as lock-order drills.  An inversion crashes the server
        # loudly instead of wedging the drill until its timeout.
        from repro.lint import sanitizer

        sanitizer.install()
    from repro.service.admission import AdmissionPolicy
    from repro.service.api import SchedulingService, make_server
    from repro.service.cache import ResultCache

    host, _, port_text = args.bind.partition(":")
    try:
        port = int(port_text) if port_text else DEFAULT_SERVICE_PORT
    except ValueError:
        print(f"bad --bind {args.bind!r}; expected HOST[:PORT]",
              file=sys.stderr)
        return 2
    fault_plan = args.inject_pool_fault
    if fault_plan and fault_plan.wants_hang() and args.task_timeout is None:
        print("a 'hang' fault can only be reaped by the watchdog; "
              "set --task-timeout", file=sys.stderr)
        return 2
    try:
        policy = AdmissionPolicy(
            queue_cap=args.queue_cap,
            max_batch=args.max_batch,
            default_backend=args.backend,
            retry_after_s=args.retry_after,
            hosts=args.hosts,
        )
        cache = (
            None if args.cache_dir == "none" else ResultCache(args.cache_dir)
        )
        service = SchedulingService(
            policy=policy,
            workers=args.workers,
            cache=cache,
            task_timeout=args.task_timeout,
            task_retries=args.task_retries,
            fault_plan=fault_plan,
            state_dir=args.state_dir,
            max_terminal_jobs=args.max_terminal_jobs,
            drain_grace_s=args.drain_grace,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    server = make_server(service, host or "127.0.0.1", port)
    # HTTP runs on a background thread so the main thread can wait for a
    # signal and keep serving polls (and 503s) *during* a drain.  SIGINT
    # stops fast; SIGTERM drains — supervisors and CI send TERM and
    # expect in-flight work to finish.
    shutdown = {"mode": None}
    wake = threading.Event()

    def _on_signal(signum: int, frame: object) -> None:
        if shutdown["mode"] is None:
            shutdown["mode"] = (
                "drain" if signum == signal.SIGTERM else "stop"
            )
        wake.set()

    signal.signal(signal.SIGINT, _on_signal)
    signal.signal(signal.SIGTERM, _on_signal)
    service.start()
    if args.ready_file:
        # Startup handshake for scripts, not durable state — rewritten
        # from scratch every boot.
        with open(args.ready_file, "w", encoding="utf-8") as handle:  # repro-lint: disable=RPL010 -- ephemeral ready-file handshake, not persisted service state
            handle.write(f"{server.label}\n")
    print(
        f"service listening on {server.label} with {args.workers} "
        f"worker(s), queue cap {args.queue_cap}, cache "
        f"{'off' if cache is None else cache.root}, state "
        f"{args.state_dir or 'off'}",
        file=sys.stderr,
    )
    http_thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    http_thread.start()
    try:
        wake.wait()
    finally:
        if shutdown["mode"] == "drain":
            print(
                f"draining: refusing new jobs, finishing in-flight work "
                f"(grace {args.drain_grace:g}s)",
                file=sys.stderr,
            )
            leaked = service.drain()
        else:
            print("shutting down", file=sys.stderr)
            leaked = service.stop()
        server.shutdown()
        http_thread.join(timeout=5.0)
        server.server_close()
        if leaked:
            print(
                f"warning: {leaked} worker thread(s) outlived the "
                "shutdown join and were abandoned",
                file=sys.stderr,
            )
    return 0
