"""The perturbation kernel: per-thread partial Fisher--Yates shuffle.

Section VI-B: "A sub-sequence of size Pert = 4 is selected from the parent
job sequence and then the Fisher Yates algorithm is implemented on this
sub-sequence while retaining the position of other jobs in the sequence."
The random numbers come from the device RNG (the cuRAND stand-in), one
independent stream per thread.

Position selection happens *inside the kernel*: when ``refresh`` is true
the kernel re-samples each thread's ``Pert`` distinct positions into the
``positions`` buffer before shuffling; otherwise it re-uses the stored
positions.  The SA driver controls the refresh cadence
(``position_refresh``; Section VI's "after every 10 SA iterations" reading
versus the per-iteration default -- see ``ParallelSAConfig``).

The body runs the compiled rows of :mod:`repro.seqopt.native` when they
are loaded (the draws computed inline, bit-identical); the batched NumPy
operators of :mod:`repro.permutation` are the reference and the fallback.
"""

from __future__ import annotations

from repro.gpusim.kernel import Kernel, KernelCost, ThreadContext, kernel
from repro.permutation import (
    batched_partial_fisher_yates,
    batched_sample_distinct,
)
from repro.seqopt import native

__all__ = ["make_perturbation_kernel"]


def _cost(ctx: ThreadContext, seqs, cand, positions, refresh,
          min_position=0) -> KernelCost:
    n = seqs.array.shape[1]
    k = positions.array.shape[1]
    sampling = 40.0 * k if refresh else 0.0
    # Copy the parent sequence (read+write 4 B per job) plus the shuffle.
    return KernelCost(
        cycles_per_thread=40.0 + 12.0 * n + 30.0 * k + sampling,
        global_bytes_per_thread=2 * 4.0 * n + 8.0 * k,
    )


def make_perturbation_kernel() -> Kernel:
    """Build the perturbation kernel.

    Launch signature: ``(seqs, cand, positions, refresh[, min_position])``
    where ``seqs`` is the ``(S, n)`` parent population, ``cand`` receives
    the perturbed candidates, ``positions`` is the ``(S, Pert)`` integer
    buffer of the currently selected positions, and ``refresh`` re-samples
    them first.  ``min_position`` excludes a sequence prefix from the
    shuffle -- the domain-decomposition strategy pins the first position to
    partition the search space.
    """

    @kernel("perturbation", registers=24, cost=_cost)
    def perturbation(ctx: ThreadContext, seqs, cand, positions, refresh,
                     min_position=0) -> None:
        """``cand[t] = fisher_yates_at(seqs[t], positions[t])``."""
        s = ctx.total_threads
        if native.perturb_rows(
            ctx.rng, seqs.array[:s], cand.array[:s], positions.array[:s],
            refresh, min_position,
        ):
            return
        n = seqs.array.shape[1]
        k = positions.array.shape[1]
        if refresh:
            positions.array[:s] = min_position + batched_sample_distinct(
                ctx.rng, ctx.thread_ids, n - min_position, k
            )
        batched_partial_fisher_yates(
            ctx.rng,
            ctx.thread_ids,
            seqs.array[:s],
            positions.array[:s],
            out=cand.array[:s],
        )

    return perturbation
