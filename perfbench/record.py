"""Sample statistics, machine facts and the run record.

A run record is one JSON document per run: the workload, its seed, the
machine it ran on, and every metric with its unit, reported value,
median and quartiles, sample count and the percentile actually reported.
:func:`compare_records` refuses records taken on different CPU counts.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

__all__ = [
    "Metric",
    "quartiles",
    "percentile",
    "tail_percentile",
    "rss_peak_mb",
    "machine_facts",
    "compare_records",
    "RecordMismatch",
]

RECORD_SCHEMA = 1


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (inclusive method; ``p=50`` is the median)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(p) - 1
    ]


def tail_percentile(samples: int) -> float | None:
    """Highest of p90, p75 and p50 that leaves at least ten samples beyond
    it (``None`` when even the median would not)."""
    for p in (90.0, 75.0, 50.0):
        if samples * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


@dataclass
class Metric:
    """One metric of a run: reported value plus its sample summary.

    ``percentile`` names what ``value`` is when it is a percentile of the
    samples (50 for a median); ``None`` for a ratio of totals such as a
    rate, where the samples are the per-operation figures behind it.
    """

    name: str
    unit: str
    value: float
    samples: Sequence[float] = ()
    percentile: float | None = None

    def as_dict(self) -> dict[str, Any]:
        samples = list(self.samples) or [self.value]
        q1, median, q3 = quartiles(samples)
        return {
            "unit": self.unit,
            "value": self.value,
            "median": median,
            "q1": q1,
            "q3": q3,
            "samples": len(samples),
            "percentile": self.percentile,
        }


def rss_peak_mb() -> float:
    """Peak resident set of this process or any reaped child, in MiB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def machine_facts(root: Path) -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": _commit(root),
    }


def build_record(
    workload: str, seed: int, seconds: int, traced: bool,
    metrics: Sequence[Metric], root: Path,
) -> dict[str, Any]:
    return {
        "schema": RECORD_SCHEMA,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "machine": machine_facts(root),
        "metrics": {m.name: m.as_dict() for m in metrics},
    }


class RecordMismatch(ValueError):
    """Two records that must not be compared."""


def compare_records(
    old: dict[str, Any], new: dict[str, Any]
) -> dict[str, dict[str, float]]:
    """Per-metric ``{old, new, change}`` for two records of one workload.

    ``change`` is ``new / old - 1`` on the reported values.  Records from
    machines with different CPU counts are refused: the pool, service
    and sharded figures depend on how many processes can run at once.
    """
    if old["machine"]["nproc"] != new["machine"]["nproc"]:
        raise RecordMismatch(
            f"records taken on different CPU counts "
            f"({old['machine']['nproc']} vs {new['machine']['nproc']}); "
            "refusing to compare"
        )
    if old["workload"] != new["workload"]:
        raise RecordMismatch(
            f"records of different workloads ({old['workload']} vs "
            f"{new['workload']})"
        )
    out = {}
    for name, was in old["metrics"].items():
        now = new["metrics"].get(name)
        if now is None:
            continue
        change = now["value"] / was["value"] - 1.0 if was["value"] else 0.0
        out[name] = {"old": was["value"], "new": now["value"],
                     "change": change}
    return out


def main(argv: list[str]) -> int:
    """``python3 perfbench/record.py OLD.json NEW.json``: print the change
    of every metric; exit 2 when the records must not be compared."""
    import json
    import sys

    if len(argv) != 2:
        print("usage: record.py OLD.json NEW.json", file=sys.stderr)
        return 2
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    try:
        changes = compare_records(old, new)
    except RecordMismatch as exc:
        print(f"record.py: {exc}", file=sys.stderr)
        return 2
    for name, c in changes.items():
        print(f"{name:<44} {c['old']:>14.6g} {c['new']:>14.6g} "
              f"{100 * c['change']:+8.2f}%")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
