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
codes: 0 clean, 1 with permanently failed cells, 130 when interrupted.

``--inject-fault SITE:AT:KIND[:repeat]`` (repeatable) is the one fault
flag of ``solve``, ``experiment``, ``bestknown`` and ``serve``
(:mod:`repro.resilience.faults`); each command exits 2 on a site it
cannot fire.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.engine.backends import DEFAULT_BACKEND
from repro.core.engine.placement import (
    ENGINE_BACKENDS,
    STANDALONE_BACKENDS,
    resolve_placement,
)
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


def _add_fault_arg(parser: argparse.ArgumentParser, fires: str) -> None:
    """The shared, repeatable ``--inject-fault`` flag; ``fires`` says
    which sites this command can fire."""
    parser.add_argument(
        "--inject-fault", action="append", default=None,
        metavar="SITE:AT:KIND[:repeat]",
        help=f"deterministic fault injection for testing (repeatable); "
             f"{fires} (sites and kinds: docs/resilience.md)",
    )


def _fault_plan(args: argparse.Namespace):
    """The ``--inject-fault`` specs as one plan (``None`` without any)."""
    from repro.resilience.faults import FaultPlan, parse_fault

    if not args.inject_fault:
        return None
    return FaultPlan([parse_fault(text) for text in args.inject_fault])


def _add_runner_args(parser: argparse.ArgumentParser, unit: str) -> None:
    """The resilience flags :func:`_build_runner` reads, for commands
    whose work splits into ``unit``-sized checkpointed cells."""
    parser.add_argument(
        "--checkpoint-dir", default="results/checkpoints",
        help="checkpoint directory (default: %(default)s; 'none' "
             "disables checkpointing)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help=f"replay each {unit} already checkpointed by an interrupted "
             "run instead of recomputing it (bit-identical continuation)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help=f"retries per {unit} on transient device errors",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help=f"run each {unit} on one of N worker processes "
             "(default: serial)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help=f"with --workers: wall-clock watchdog per {unit}; a hung "
             f"worker is killed and its {unit} retried without stalling "
             "siblings",
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
        "--backend", choices=ENGINE_BACKENDS, default=DEFAULT_BACKEND,
        help="execution backend (parallel methods): cycle-modeled gpusim, "
             "fast vectorized host execution, or vectorized shards on "
             "worker processes (multiprocess) or host agents (distributed)",
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
        "--task-retries", type=int, default=None, metavar="K",
        help="in-pool retries of crashed/hung shards before the solve "
             "fails (--backend multiprocess or distributed; default 0)",
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
             "default: the host pool's, see docs/distributed.md)",
    )
    p_solve.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="SECONDS",
        help="silence deadline before a host is declared dead and its "
             "shards fail over (--backend distributed; default: the host "
             "pool's)",
    )
    _add_fault_arg(
        p_solve,
        "'task' sites with --backend multiprocess, e.g. task:1:kill; "
        "'send' sites with --backend distributed, e.g. send:0:corrupt-frame",
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
    _add_runner_args(p_exp, "work unit")
    p_exp.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="per-work-unit wall-clock deadline (checked between retry "
             "attempts)",
    )
    p_exp.add_argument(
        "--backend", choices=STANDALONE_BACKENDS, default=None,
        help="execution backend for the study's solver runs (default: "
             "each study's preference — vectorized for quality tables, "
             "gpusim where modeled timings are the measurement)",
    )
    _add_fault_arg(
        p_exp,
        "device sites, e.g. launch:100:transient or malloc:1:oom:repeat; "
        "'task' sites with --workers, e.g. task:1:kill",
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
    _add_runner_args(p_best, "instance")
    _add_fault_arg(p_best, "'task' sites with --workers, e.g. task:1:kill")
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
    knobs = _placement_knobs(args)
    if knobs["fault_plan"] is not None and not args.method.startswith(
        "parallel"
    ):
        print(f"--inject-fault: {args.method} runs no worker pool",
              file=sys.stderr)
        return 2
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
            try:
                resolve_placement(args.backend, knobs, spell=_solve_flag)
            except ValueError as exc:
                print(exc, file=sys.stderr)
                return 2
            kwargs.update(knobs)
    result = solver.solve(args.method, **kwargs)
    print(f"instance: {inst.name}")
    print(result.summary())
    print(result.schedule.describe())
    return 0


#: The ``repro solve`` flag of each placement knob it exposes.
_PLACEMENT_FLAGS = dict(
    workers="--workers", task_timeout="--task-timeout",
    task_retries="--task-retries", fault_plan="--inject-fault",
    hosts="--hosts", heartbeat_interval_s="--heartbeat-interval",
    heartbeat_timeout_s="--heartbeat-timeout",
)


def _solve_flag(name: str, value: object = None) -> str:
    """Spell placement errors with ``repro solve``'s own flags."""
    flag = _PLACEMENT_FLAGS.get(name, f"--{name}")
    return flag if value is None else f"{flag} {value}"


def _placement_knobs(args: argparse.Namespace) -> dict:
    """The placement flags of ``repro solve``, keyed by solver knob."""
    knobs = {
        knob: getattr(args, flag[2:].replace("-", "_"))
        for knob, flag in _PLACEMENT_FLAGS.items()
    }
    knobs.update(fault_plan=_fault_plan(args))
    return knobs


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


def _build_runner(args: argparse.Namespace, refused: tuple[str, ...]):
    """A ResilientRunner from the shared resilience CLI flags, or
    ``None`` (reported on stderr) when it cannot fire a fault site: the
    ``refused`` ones, or ``task`` without ``--workers``."""
    from repro.resilience import ResilientRunner, RetryPolicy

    plan = _fault_plan(args)
    policy = RetryPolicy(
        max_retries=args.max_retries,
        unit_timeout_s=getattr(args, "unit_timeout", None),
    )
    checkpoint_dir = args.checkpoint_dir
    if checkpoint_dir == "none":
        checkpoint_dir = None
    try:
        if plan is not None:
            plan.refuse_sites(refused, f"repro {args.command}")
        return ResilientRunner(
            policy=policy,
            checkpoint_dir=checkpoint_dir,
            resume=args.resume,
            fault_plan=plan,
            backend=getattr(args, "backend", None),
            workers=args.workers,
            task_timeout_s=args.task_timeout,
            progress=lambda msg: print(f"  [{msg}]", file=sys.stderr),
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return None


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
    runner = _build_runner(args, refused=("send",))
    if runner is None:
        return 2
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
    from repro.seqopt import native

    profile = get_profile(args.device_profile)
    inst = biskup_instance(args.jobs, 0.4, 1)
    result = parallel_sa(
        inst, ParallelSAConfig(iterations=args.iterations, seed=args.seed,
                               device_profile=args.device_profile)
    )
    print(f"instance: {inst.name}")
    print(f"device:   {profile.spec.name} [{args.device_profile}, "
          f"{profile.generation}]")
    fitness = native.describe()
    print(f"fitness:  {fitness['fitness_impl']}"
          f" ({fitness['fitness_library'] or 'NumPy closed form'})")
    print("kernels:  " + ", ".join(
        f"{name} {impl}" for name, impl in native.describe_kernels().items()))
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
    runner = _build_runner(args, refused=("launch", "malloc", "send"))
    if runner is None:
        return 2
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
