"""Command-line interface: ``repro <command>`` (or ``python -m repro.cli``).

Commands
--------
``solve``       solve one benchmark instance with a chosen method
``serve``       run the HTTP scheduling service (docs/service.md)
``agent``       serve pool tasks to remote solves (``--backend distributed``)
``experiment``  regenerate a paper table/figure (``repro experiment table2``)
``list``        list experiments, benchmark sets and device presets
``profile``     run one parallel SA and print the nvprof-style summary
``bestknown``   precompute reference values for a benchmark set
``trace``       convergence/diversity trace of the parallel SA
``report``      assemble EXPERIMENTS.md from results/
``lint``        run the determinism/concurrency static analyzer (docs/lint.md)

``experiment`` and ``bestknown`` run through the resilience layer
(:mod:`repro.resilience`): ``--resume`` replays checkpointed work units,
``--max-retries``/``--unit-timeout`` bound transient-failure retries, and
``--inject-fault`` arms deterministic fault injection for testing.  Exit
codes: 0 clean, 1 with permanently failed cells, 2 for a refused flag
combination, 130 when interrupted.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.engine.backends import BACKENDS, DEFAULT_BACKEND
from repro.core.solver import CDDSolver, UCDDCPSolver, solver_methods
from repro.experiments.config import SCALES, get_scale
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.gpusim.profiles import DEFAULT_PROFILE, profile_names
from repro.instances.biskup import biskup_instance
from repro.instances.registry import registry_names
from repro.instances.ucddcp_gen import ucddcp_instance

__all__ = ["main", "build_parser"]


def _add_device_profile_arg(parser: argparse.ArgumentParser) -> None:
    """The shared ``--device-profile`` flag (see docs/device_profiles.md)."""
    parser.add_argument(
        "--device-profile", choices=profile_names(), default=DEFAULT_PROFILE,
        help="modeled GPU generation for gpusim timings (default: "
             "%(default)s, the paper's GT 560M); results are "
             "profile-independent, only modeled runtimes change",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'GPGPU-based Parallel Algorithms for Scheduling "
            "Against Due Date' (IPDPSW 2016)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one benchmark instance")
    p_solve.add_argument("problem", choices=("cdd", "ucddcp"))
    p_solve.add_argument("-n", "--jobs", type=int, default=50)
    p_solve.add_argument("-k", "--replicate", type=int, default=1)
    p_solve.add_argument("--h-factor", type=float, default=0.4,
                         help="restriction factor (CDD only)")
    p_solve.add_argument(
        "-m", "--method", default="parallel_sa", choices=solver_methods(),
    )
    p_solve.add_argument("-i", "--iterations", type=int, default=1000)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--grid", type=int, default=None,
                         help="grid size (parallel methods)")
    p_solve.add_argument("--block", type=int, default=None,
                         help="block size (parallel methods)")
    p_solve.add_argument(
        "--backend", choices=tuple(BACKENDS), default=DEFAULT_BACKEND,
        help="execution backend (parallel methods): cycle-modeled gpusim, "
             "fast vectorized host execution, or multiprocess sharding "
             "across worker processes",
    )
    p_solve.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for --backend multiprocess "
             "(default: one per CPU, capped at the grid size)",
    )
    p_solve.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard wall-clock deadline for --backend multiprocess; "
             "a hung shard is killed and (with --task-retries) re-run "
             "bit-identically",
    )
    p_solve.add_argument(
        "--task-retries", type=int, default=0, metavar="K",
        help="in-pool retries of crashed/hung shards before the solve "
             "fails (--backend multiprocess)",
    )
    p_solve.add_argument(
        "--inject-pool-fault", default=None, metavar="KIND:TASK[:repeat]",
        help="deterministic pool-transport fault injection for testing, "
             "e.g. 'kill:1' or 'hang:0' or 'corrupt-payload:0:repeat' "
             "(--backend multiprocess)",
    )
    p_solve.add_argument(
        "--hosts", default=None, metavar="HOST[:PORT]:WORKERS,...",
        help="host topology for --backend distributed, e.g. "
             "'host1:4,host2:8' or 'localhost:7471:2,localhost:7472:2'; "
             "worker counts fix the shard plan, so results are "
             "bit-identical to --backend multiprocess with the same total",
    )
    p_solve.add_argument(
        "--heartbeat-interval", type=float, default=None, metavar="SECONDS",
        help="ping cadence to each host agent (--backend distributed; "
             "default 2s)",
    )
    p_solve.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
        help="silence deadline before a host is declared dead and its "
             "shards fail over (--backend distributed; default 10s)",
    )
    p_solve.add_argument(
        "--inject-net-fault", default=None, metavar="KIND:TASK[:repeat]",
        help="deterministic network fault injection for testing, e.g. "
             "'disconnect:1' or 'blackhole:0' or 'corrupt-frame:0:repeat' "
             "(kinds: disconnect, delay, partial-frame, corrupt-frame, "
             "blackhole; --backend distributed)",
    )
    _add_device_profile_arg(p_solve)

    p_serve = sub.add_parser(
        "serve",
        help="run the HTTP scheduling service: async job queue, admission "
             "control and a content-addressed result cache "
             "(see docs/service.md)",
    )
    from repro.service.cli import add_serve_arguments

    add_serve_arguments(p_serve)

    p_agent = sub.add_parser(
        "agent",
        help="serve pool tasks to remote solves (the host side of "
             "--backend distributed; see docs/distributed.md)",
    )
    p_agent.add_argument(
        "--bind", default="127.0.0.1", metavar="HOST[:PORT]",
        help="listen address (default: %(default)s on the default agent "
             "port; ':0' picks an ephemeral port — pair with --ready-file)",
    )
    p_agent.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="maximum concurrent worker processes; also this host's task "
             "credit advertised to clients (default: %(default)s)",
    )
    p_agent.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock deadline enforced agent-side; a hung "
             "task is killed and reported, never retried here (the "
             "client owns retries)",
    )
    p_agent.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write the bound HOST:PORT to PATH once listening (lets "
             "scripts and CI drills use --bind ':0')",
    )

    p_exp = sub.add_parser("experiment", help="regenerate a table/figure")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--scale", choices=sorted(SCALES), default=None)
    p_exp.add_argument(
        "--checkpoint-dir", default="results/checkpoints",
        help="directory for per-study work-unit checkpoints "
             "(default: %(default)s; 'none' disables checkpointing)",
    )
    p_exp.add_argument(
        "--resume", action="store_true",
        help="replay completed work units from the checkpoint instead of "
             "recomputing them (bit-identical continuation of an "
             "interrupted run)",
    )
    p_exp.add_argument(
        "--max-retries", type=int, default=2,
        help="retries per work unit on transient device errors",
    )
    p_exp.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="per-work-unit wall-clock deadline (checked between retry "
             "attempts)",
    )
    p_exp.add_argument(
        # Studies take no --hosts, so the distributed placement is not
        # offered here.
        "--backend", choices=tuple(b for b in BACKENDS if b != "distributed"),
        default=None,
        help="execution backend for the study's solver runs (default: "
             "each study's preference — vectorized for quality tables, "
             "gpusim where modeled timings are the measurement)",
    )
    p_exp.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run the study's work units on N worker processes "
             "(default: serial)",
    )
    p_exp.add_argument(
        "--inject-fault", default=None, metavar="OP:AT:KIND[:repeat]",
        help="deterministic fault injection for testing, e.g. "
             "'launch:100:transient' or 'malloc:1:oom:repeat' "
             "(kinds: transient, timeout, oom, fatal, interrupt); "
             "in-process backends only (gpusim, vectorized)",
    )
    p_exp.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="with --workers: per-unit wall-clock watchdog; a hung "
             "worker is killed and the unit retried without stalling "
             "siblings",
    )
    p_exp.add_argument(
        "--inject-pool-fault", default=None, metavar="KIND:TASK[:repeat]",
        help="with --workers: deterministic pool-transport fault "
             "injection, e.g. 'kill:1' (retried) or 'kill:1:repeat' "
             "(quarantined); kinds: kill, hang, corrupt-payload",
    )
    _add_device_profile_arg(p_exp)

    sub.add_parser("list", help="list experiments and benchmark sets")

    p_prof = sub.add_parser("profile",
                            help="profile one parallel SA run (nvprof style)")
    p_prof.add_argument("-n", "--jobs", type=int, default=100)
    p_prof.add_argument("-i", "--iterations", type=int, default=200)
    p_prof.add_argument("--seed", type=int, default=0,
                        help="RNG seed for the profiled run")
    _add_device_profile_arg(p_prof)

    p_best = sub.add_parser(
        "bestknown",
        help="precompute best-known reference values for a benchmark set",
    )
    p_best.add_argument("set_name", help="registry name, e.g. cdd_quick")
    p_best.add_argument("--restarts", type=int, default=4)
    p_best.add_argument("--iterations", type=int, default=8000)
    p_best.add_argument(
        "--checkpoint-dir", default="results/checkpoints",
        help="directory for the precompute checkpoint "
             "(default: %(default)s; 'none' disables checkpointing)",
    )
    p_best.add_argument(
        "--resume", action="store_true",
        help="skip reference values already checkpointed by an "
             "interrupted precompute",
    )
    p_best.add_argument(
        "--max-retries", type=int, default=2,
        help="retries per instance on transient device errors",
    )
    p_best.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="recompute reference values on N worker processes "
             "(default: serial)",
    )
    p_best.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="with --workers: per-instance wall-clock watchdog "
             "(hung worker killed and retried)",
    )
    p_best.add_argument(
        "--inject-pool-fault", default=None, metavar="KIND:TASK[:repeat]",
        help="with --workers: deterministic pool-transport fault "
             "injection (kinds: kill, hang, corrupt-payload)",
    )
    _add_device_profile_arg(p_best)

    p_trace = sub.add_parser(
        "trace",
        help="instrumented convergence/diversity trace of the parallel SA",
    )
    p_trace.add_argument("-n", "--jobs", type=int, default=50)
    p_trace.add_argument("-i", "--iterations", type=int, default=300)
    p_trace.add_argument("--variant", choices=("async", "sync", "domain"),
                         default="async")

    p_report = sub.add_parser(
        "report",
        help="assemble EXPERIMENTS.md from the results/ directory",
    )
    p_report.add_argument("--results", default="results")
    p_report.add_argument("--output", default="EXPERIMENTS.md")

    p_lint = sub.add_parser(
        "lint",
        help="run the determinism/concurrency static analyzer over the "
             "source tree (rule catalog: docs/lint.md)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p_lint)
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.problem == "cdd":
        inst = biskup_instance(args.jobs, args.h_factor, args.replicate)
        solver: CDDSolver | UCDDCPSolver = CDDSolver(inst)
    else:
        inst = ucddcp_instance(args.jobs, args.replicate)
        solver = UCDDCPSolver(inst)
    kwargs: dict = {}
    if args.method != "exact":
        kwargs["seed"] = args.seed
        if args.method == "serial_es":
            kwargs["generations"] = args.iterations
        else:
            kwargs["iterations"] = args.iterations
        if args.method.startswith("parallel"):
            if args.grid is not None:
                kwargs["grid_size"] = args.grid
            if args.block is not None:
                kwargs["block_size"] = args.block
            kwargs["backend"] = args.backend
            kwargs["device_profile"] = args.device_profile
            if args.backend == "distributed":
                rc = _apply_distributed_flags(args, kwargs)
                if rc is not None:
                    return rc
            else:
                for flag, value in (
                    ("--hosts", args.hosts),
                    ("--heartbeat-interval", args.heartbeat_interval),
                    ("--heartbeat-timeout", args.heartbeat_timeout),
                    ("--inject-net-fault", args.inject_net_fault),
                ):
                    if value is not None:
                        print(f"{flag} requires --backend distributed",
                              file=sys.stderr)
                        return 2
                supervision_flags = (
                    ("--workers", "workers", args.workers),
                    ("--task-timeout", "task_timeout", args.task_timeout),
                    ("--inject-pool-fault", "pool_faults",
                     args.inject_pool_fault),
                )
                if args.task_retries:
                    supervision_flags += (
                        ("--task-retries", "task_retries", args.task_retries),
                    )
                for flag, key, value in supervision_flags:
                    if value is None:
                        continue
                    if args.backend != "multiprocess":
                        print(f"{flag} requires --backend multiprocess",
                              file=sys.stderr)
                        return 2
                    if key == "pool_faults":
                        from repro.pool.faults import (
                            PoolFaultPlan,
                            parse_pool_fault,
                        )

                        value = PoolFaultPlan([parse_pool_fault(value)])
                    kwargs[key] = value
    result = solver.solve(args.method, **kwargs)
    print(f"instance: {inst.name}")
    print(result.summary())
    print(result.schedule.describe())
    return 0


def _apply_distributed_flags(
    args: argparse.Namespace, kwargs: dict
) -> int | None:
    """Translate the distributed solve flags into solver kwargs.

    Returns an exit code on a usage error, ``None`` on success (kwargs
    updated in place).
    """
    for flag, value in (
        ("--workers", args.workers),
        ("--task-timeout", args.task_timeout),
        ("--inject-pool-fault", args.inject_pool_fault),
    ):
        if value is not None:
            print(
                f"{flag} does not apply to --backend distributed "
                "(worker counts come from --hosts; task deadlines are "
                "agent-side: repro agent --task-timeout)",
                file=sys.stderr,
            )
            return 2
    if args.hosts is None:
        print("--backend distributed requires --hosts", file=sys.stderr)
        return 2
    kwargs["hosts"] = args.hosts
    if args.task_retries:
        kwargs["task_retries"] = args.task_retries
    if args.heartbeat_interval is not None:
        kwargs["heartbeat_interval_s"] = args.heartbeat_interval
    if args.heartbeat_timeout is not None:
        kwargs["heartbeat_timeout_s"] = args.heartbeat_timeout
    if args.inject_net_fault is not None:
        from repro.pool.faults import NetFaultPlan, parse_net_fault

        kwargs["net_faults"] = NetFaultPlan(
            [parse_net_fault(args.inject_net_fault)]
        )
    return None


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.cli import run_serve

    return run_serve(args)


def _cmd_agent(args: argparse.Namespace) -> int:
    from repro.pool.agent import HostAgent
    from repro.pool.net import DEFAULT_AGENT_PORT

    host, _, port_text = args.bind.partition(":")
    try:
        port = int(port_text) if port_text else DEFAULT_AGENT_PORT
    except ValueError:
        print(f"bad --bind {args.bind!r}; expected HOST[:PORT]",
              file=sys.stderr)
        return 2
    agent = HostAgent(
        host or "127.0.0.1", port, args.workers,
        task_timeout=args.task_timeout,
    )
    if args.ready_file:
        with open(args.ready_file, "w", encoding="utf-8") as handle:
            handle.write(f"{agent.label}\n")
    print(
        f"agent listening on {agent.label} with {args.workers} worker(s)",
        file=sys.stderr,
    )
    agent.serve_forever()
    return 0


_RESUME_HINT = "interrupted — checkpoint flushed; rerun with --resume to continue"


def _build_runner(args: argparse.Namespace):
    """A ResilientRunner from the shared resilience CLI flags."""
    from repro.pool.faults import PoolFaultPlan, parse_pool_fault
    from repro.resilience import (
        FaultPlan,
        ResilientRunner,
        RetryPolicy,
        parse_fault,
    )

    plan = None
    if getattr(args, "inject_fault", None):
        plan = FaultPlan([parse_fault(args.inject_fault)])
    pool_plan = None
    if getattr(args, "inject_pool_fault", None):
        pool_plan = PoolFaultPlan([parse_pool_fault(args.inject_pool_fault)])
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if checkpoint_dir in (None, "none"):
        checkpoint_dir = None
    return ResilientRunner(
        policy=RetryPolicy(
            max_retries=args.max_retries,
            unit_timeout_s=getattr(args, "unit_timeout", None),
        ),
        checkpoint_dir=checkpoint_dir,
        resume=args.resume,
        fault_plan=plan,
        backend=getattr(args, "backend", None),
        workers=getattr(args, "workers", None),
        task_timeout_s=getattr(args, "task_timeout", None),
        pool_faults=pool_plan,
        progress=lambda msg: print(f"  [{msg}]", file=sys.stderr),
    )


def _finish_resilient(runner) -> int:
    """Shared exit-code policy: 130 interrupted, 1 failed cells, 0 clean."""
    if runner.interrupted:
        print(f"\n{_RESUME_HINT}", file=sys.stderr)
        return 130
    failed = runner.failed_units
    if failed:
        print(
            f"\n{len(failed)} work unit(s) failed permanently "
            "(marked — in the tables above)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    scale = get_scale(args.scale)
    if args.inject_fault and args.backend == "multiprocess":
        # Shard processes would each count launches on a copy of the plan,
        # so a transient fault would never clear (ResilientRunner refuses
        # the pair too; this is the flag-level message).
        print("--inject-fault applies to the in-process backends (gpusim, "
              "vectorized); inject faults into --backend multiprocess "
              "with --inject-pool-fault", file=sys.stderr)
        return 2
    runner = _build_runner(args)
    print(f"# experiment {args.name} at scale '{scale.name}'\n")
    try:
        print(run_experiment(args.name, scale, runner,
                             device_profile=args.device_profile))
    except KeyboardInterrupt:
        # A Ctrl-C between work units (inside one, the runner degrades
        # gracefully and never re-raises).  Completed units are already
        # checkpointed -- just point at the resume path.
        print(f"\n{_RESUME_HINT}", file=sys.stderr)
        return 130
    return _finish_resilient(runner)


def _cmd_list(_args: argparse.Namespace) -> int:
    print("experiments: ", ", ".join(sorted(EXPERIMENTS)))
    print("benchmark sets:", ", ".join(registry_names()))
    print("scales:       ", ", ".join(sorted(SCALES)))
    print("device profiles:", ", ".join(profile_names()))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.core.parallel_sa import ParallelSAConfig, parallel_sa
    from repro.gpusim.profiles import get_profile

    profile = get_profile(args.device_profile)
    inst = biskup_instance(args.jobs, 0.4, 1)
    result = parallel_sa(
        inst, ParallelSAConfig(iterations=args.iterations, seed=args.seed,
                               device_profile=args.device_profile)
    )
    print(f"instance: {inst.name}")
    print(f"device:   {profile.spec.name} [{args.device_profile}, "
          f"{profile.generation}]")
    print(result.summary())
    # The profiler lives on the device created inside parallel_sa; repeat a
    # short run with an explicit device to show the kernel breakdown.
    from repro.gpusim.device import Device
    from repro.gpusim.launch import linear_config
    from repro.kernels.data import DeviceProblemData
    from repro.kernels.fitness import make_cdd_fitness_kernel
    import numpy as np

    device = Device(spec=profile.spec, seed=args.seed,
                    timing=profile.create_timing_model())
    data = DeviceProblemData(device, inst)
    seqs = device.malloc((768, inst.n), np.int32, "sequences")
    out = device.malloc(768, np.float64, "fitness")
    rng = np.random.default_rng(args.seed)
    device.memcpy_htod(
        seqs, np.argsort(rng.random((768, inst.n)), axis=1).astype(np.int32)
    )
    for _ in range(10):
        device.launch(
            make_cdd_fitness_kernel(), linear_config(768, 192),
            seqs, data.p, data.a, data.b, out,
        )
    device.synchronize()
    print("\nKernel profile (10 fitness launches, 768 threads):")
    print(device.profiler.summary())
    print("\nTiming-model component attribution:")
    print(device.profiler.component_summary())
    return 0


def _cmd_bestknown(args: argparse.Namespace) -> int:
    from repro.bestknown.compute import recompute_best_known
    from repro.bestknown.store import BestKnownStore
    from repro.instances.registry import benchmark_set

    store = BestKnownStore()
    instances = benchmark_set(args.set_name)
    if args.device_profile != DEFAULT_PROFILE:
        # Reference values come from the CPU-side serial SA: they are
        # quality numbers, not timings, so every profile yields the same
        # store contents.  Accept the flag (scripts pass it uniformly)
        # but say why it changes nothing.
        print(
            f"note: best-known values are device-independent; "
            f"--device-profile {args.device_profile} has no effect here",
            file=sys.stderr,
        )
    runner = _build_runner(args)
    try:
        report = recompute_best_known(
            instances, store, restarts=args.restarts,
            iterations=args.iterations, runner=runner,
        )
    except KeyboardInterrupt:
        store.save()
        print(f"\n{_RESUME_HINT}", file=sys.stderr)
        return 130
    for outcome in report.completed:
        print(f"{outcome.payload['name']}: {outcome.payload['objective']:g}")
    print(f"\n{len(report.completed)} reference values in {store.path}")
    return _finish_resilient(runner)


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.convergence import trace_parallel_sa
    from repro.core.parallel_sa import ParallelSAConfig

    inst = biskup_instance(args.jobs, 0.4, 1)
    trace = trace_parallel_sa(
        inst,
        ParallelSAConfig(iterations=args.iterations, grid_size=2,
                         block_size=64, seed=0, variant=args.variant),
    )
    print(f"instance: {inst.name}")
    print(trace.summary())
    step = max(1, trace.generations // 20)
    print(f"{'gen':>5} {'best':>12} {'mean':>12} {'accept':>8} {'T':>10}")
    for g in range(0, trace.generations, step):
        print(f"{g:>5} {trace.best[g]:>12.1f} {trace.mean_energy[g]:>12.1f} "
              f"{trace.acceptance_rate[g]:>7.1%} {trace.temperature[g]:>10.3g}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report

    path = write_report(args.results, args.output)
    print(f"wrote {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "serve": _cmd_serve,
        "agent": _cmd_agent,
        "experiment": _cmd_experiment,
        "list": _cmd_list,
        "profile": _cmd_profile,
        "bestknown": _cmd_bestknown,
        "trace": _cmd_trace,
        "report": _cmd_report,
        "lint": _cmd_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
