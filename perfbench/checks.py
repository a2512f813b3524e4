"""Correctness checks every measured output must pass.

A failed check raises :class:`CheckFailed`; the run then exits non-zero
and reports no metrics, so a wrong answer is never read as a slow run.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

__all__ = ["CheckFailed", "check_schedule", "check_same_solve", "require"]

#: Relative tolerance between the solver's objective and the independent
#: O(n) evaluation of the returned sequence (both sum float64 penalties of
#: integer data, in different orders).
OBJECTIVE_RTOL = 1e-9


class CheckFailed(AssertionError):
    """A benchmark output failed a correctness check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_schedule(
    instance: Any, sequence: Any, completion: Any, reduction: Any,
    objective: float, what: str,
) -> None:
    """The schedule is feasible and its objective is the independent
    evaluation of its sequence."""
    from repro.problems.cdd import CDDInstance
    from repro.problems.schedule import Schedule
    from repro.problems.validation import ScheduleError, validate_schedule
    from repro.seqopt.cdd_linear import cdd_objective_for_sequence
    from repro.seqopt.ucddcp_linear import ucddcp_objective_for_sequence

    seq = np.asarray(sequence, dtype=np.intp)
    try:
        validate_schedule(instance, Schedule(
            sequence=seq,
            completion=np.asarray(completion, dtype=np.float64),
            reduction=np.asarray(reduction, dtype=np.float64),
            objective=float(objective),
        ))
    except (ScheduleError, ValueError) as exc:
        raise CheckFailed(f"{what}: invalid schedule: {exc}") from exc
    evaluate = (cdd_objective_for_sequence
                if isinstance(instance, CDDInstance)
                else ucddcp_objective_for_sequence)
    expected = evaluate(instance, seq)
    require(
        math.isclose(objective, expected, rel_tol=OBJECTIVE_RTOL),
        f"{what}: objective {objective!r} != {expected!r}, the evaluation "
        "of the returned sequence",
    )


def check_same_solve(a: Any, b: Any, what: str) -> None:
    """Two ``SolveResult`` objects are bit-identical where it matters."""
    require(a.objective == b.objective,
            f"{what}: objective {a.objective!r} != {b.objective!r}")
    require(np.array_equal(a.best_sequence, b.best_sequence),
            f"{what}: best sequences differ")
    require(a.evaluations == b.evaluations,
            f"{what}: evaluation counts differ")
    require(a.modeled_device_time_s == b.modeled_device_time_s,
            f"{what}: modeled device time {a.modeled_device_time_s!r} != "
            f"{b.modeled_device_time_s!r}")
