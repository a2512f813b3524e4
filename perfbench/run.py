"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 20 \
        --trace 0 [--record out.json]

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` measures the same workload untraced and then traced, for
half of ``--seconds`` each (the difference is ``trace.overhead_pct``),
and reports the per-layer metrics.
Human-readable lines go to stdout first; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A failed
correctness check exits 1 with ``"correct": false`` and no metrics; a
checkout without the program exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv: list[str] | None) -> argparse.Namespace:
    from perfbench.config import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path,
                        help="also write the run record (JSON) here")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def make_workload(name: str, seed: int, root: Path):
    from perfbench.service_load import ServiceOpen
    from perfbench.solves import SolveLarge, SolveSharded, SolveSmallGpusim

    classes = {cls.name: cls for cls in (
        SolveLarge, SolveSmallGpusim, SolveSharded, ServiceOpen)}
    return classes[name](seed, root)


def cold_setup_seconds(name: str, seed: int,
                       root: Path) -> tuple[float, float]:
    """One complete set-up of workload ``name`` in a fresh interpreter:
    ``(seconds, host slowdown)``.

    The child times itself from before its first import (numpy, this
    package's small modules, then the program as set-up uses it) to the
    end of the warm-up call, so interpreter start-up is excluded and
    every sample pays the same cold imports; it then times host units
    (see ``calibrate``) and tears the set-up down.
    """
    code = f"""\
import time
t = time.perf_counter()
from pathlib import Path
from perfbench.run import make_workload
w = make_workload({name!r}, {seed!r}, Path({str(root)!r}))
w.setup()
elapsed = time.perf_counter() - t
from perfbench.calibrate import HostClock
from perfbench.config import SETUP_HOST_UNITS
clock = HostClock()
clock.sample(SETUP_HOST_UNITS)
w.teardown()
print(repr(elapsed), repr(clock.slowdown()))
"""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join((str(root), str(root / "src")))}
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, timeout=150)
    if out.returncode != 0:
        raise RuntimeError(f"cold set-up of {name} failed:\n{out.stderr}")
    seconds, slowdown = out.stdout.splitlines()[-1].split()
    return float(seconds), float(slowdown)


def end_to_end(outcome, setups: list[tuple[float, float]], rss_mb: float):
    """The gated metrics, then record-only figures.

    ``setup_s`` is in reference seconds (see ``calibrate``), and so are
    the solve times of workloads that divide the host's slowdown out;
    the record keeps the times as measured and the slowdowns too.
    """
    from perfbench.record import Metric

    setup_s = [s / slow for s, slow in setups]
    lat_ms = [1e3 * v for v in outcome.latency_s]
    return [
        Metric("setup_s", "s", statistics.median(setup_s), setup_s,
               percentile=50),
        Metric("latency_p50_ms", "ms", 1e3 * outcome.latency_p50_s, lat_ms,
               percentile=outcome.latency_percentile),
        Metric("evals_per_s", "1/s", outcome.evals_per_s),
        Metric("deviation_pct", "%", outcome.deviation_pct),
        Metric("rss_peak_mb", "MB", rss_mb),
        Metric("completed_ratio", "ratio",
               1.0 - outcome.failed / outcome.attempted),
        # Record-only (not gated): the complement of completed_ratio.
        Metric("failed_ratio", "ratio", outcome.failed / outcome.attempted),
        Metric("host.setup_slowdown", "ratio",
               statistics.median(s for _, s in setups)),
        Metric("measured.setup_s", "s",
               statistics.median(s for s, _ in setups)),
        Metric("measured.latency_p50_ms", "ms",
               1e3 * outcome.measured_latency_p50_s),
        Metric("measured.evals_per_s", "1/s", outcome.measured_evals_per_s),
    ] + ([] if outcome.slowdown is None else [
        Metric("host.slowdown", "ratio", outcome.slowdown)
    ]) + outcome.record_extra


def _print_table(title: str, metrics) -> None:
    print(title)
    for m in metrics:
        line = f"  {m.name:<44} {m.value:>14.6g} {m.unit:<9}"
        d = m.as_dict()
        if d["samples"] > 1:
            pct = "" if m.percentile is None else f" p{m.percentile:g} of"
            line += (f"{pct} n={d['samples']} "
                     f"[q1 {d['q1']:.6g}, q3 {d['q3']:.6g}]")
        print(line)


def run(args: argparse.Namespace) -> int:
    from perfbench import config
    from perfbench.checks import CheckFailed
    from perfbench.layers import layer_metrics
    from perfbench.record import Metric, build_record, rss_peak_mb
    from perfbench.tracer import Tracer

    workload = make_workload(args.workload, args.seed, ROOT)
    try:
        # A traced run reports no setup_s.
        setups = [] if args.trace else [
            cold_setup_seconds(args.workload, args.seed, ROOT)
            for _ in range(config.SETUP_REPS)]
        workload.setup()
        window = args.seconds / 2 if args.trace else args.seconds
        plain = workload.measure(window, None)
        if args.trace:
            tracer = Tracer()
            traced = workload.measure(window, tracer)
            workload.same_results(plain.results, traced.results,
                                  "traced vs untraced")
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    finally:
        workload.teardown()

    if args.trace:
        overhead = 100.0 * (traced.latency_p50_s / plain.latency_p50_s
                            - 1.0)
        figures = layer_metrics(
            tracer, {**traced.layer_extra, "trace.overhead_pct": overhead})
        unknown = set(figures) - set(config.PER_LAYER)
        if unknown:
            raise RuntimeError(f"per-layer figures not in the catalogue: "
                               f"{sorted(unknown)}")
        metrics = [Metric(name, unit, figures.get(name, 0.0))
                   for name, unit in config.PER_LAYER.items()]
        outcome = traced
    else:
        metrics = end_to_end(plain, setups, rss_peak_mb())
        outcome = plain
    _print_table(f"{args.workload} seed={args.seed} "
                 f"{'traced' if args.trace else 'untraced'}", metrics)
    if args.record is not None:
        args.record.write_text(json.dumps(build_record(
            args.workload, args.seed, args.seconds, bool(args.trace),
            metrics, ROOT), indent=1, sort_keys=True) + "\n")
    wanted = config.PER_LAYER if args.trace else config.END_TO_END
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m.name: {"value": m.value, "unit": m.unit}
                    for m in metrics if m.name in wanted},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src' / 'repro'}; run "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    # The package's own directory must not shadow top-level modules.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(ROOT), str(ROOT / "src")] + [
        p for p in sys.path if p and str(Path(p).resolve()) != here]
    return run(_parse(argv))


if __name__ == "__main__":
    sys.exit(main())
