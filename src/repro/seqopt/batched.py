"""Vectorized ensemble versions of the O(n) sequence optimizers.

These routines evaluate *S* job sequences at once -- one row per simulated
CUDA thread -- using pure NumPy over the ensemble axis.  They are the
numerical content of the paper's fitness kernel: every GPU thread runs the
same O(n) program on its own sequence, which is exactly what a batched
row-wise computation expresses (SIMT semantics).

Two API levels are provided:

* ``*_objective(instance, sequences)`` -- gather the instance arrays through
  the ``(S, n)`` integer sequence matrix and evaluate.
* ``*_from_gathered(...)`` -- operate directly on already-gathered
  sequence-ordered arrays; this is what the simulated fitness kernel calls
  after staging data into (simulated) shared memory.

The closed forms mirror ``cdd_linear``/``ucddcp_linear``: with prefix sums
``A_k = sum(alpha[:k])`` and suffix sums ``B_k = sum(beta[k-1:])`` the
optimal due-date position is ``r = min(tau, max{k : B_k >= A_{k-1}})``
(or 0 -- keep the start-at-zero schedule -- when ``B_{tau+1} >= A_tau``),
and the optimal schedule is the initial one shifted right by
``d - C_init[r]``.  Everything is O(S*n) with no Python-level loops.

The ``*_objective`` entry points (and the fitness kernels) run the compiled
twin of these routines, :mod:`repro.seqopt.native`, when it is available;
the NumPy code here is its fallback and its reference.  Every reduction
is therefore written in a pinned order (prefix sums and left-to-right row
sums, never ``einsum``) that the C code mirrors bit for bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.seqopt import native

if TYPE_CHECKING:  # pragma: no cover
    from repro.problems.cdd import CDDInstance
    from repro.problems.ucddcp import UCDDCPInstance

__all__ = [
    "batched_cdd_objective",
    "batched_ucddcp_objective",
    "batched_cdd_from_gathered",
    "batched_ucddcp_from_gathered",
    "gather_sequences",
]


def gather_sequences(values: np.ndarray, sequences: np.ndarray) -> np.ndarray:
    """Gather per-job ``values`` into sequence order for every row.

    ``sequences`` has shape ``(S, n)``; returns ``values[sequences]`` with
    shape ``(S, n)`` (a fancy-indexing broadcast, no copy of ``values``).
    """
    return values[sequences]


def _row_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum(x * y)`` per row, added left to right from the first term.

    The order is pinned (``einsum`` picks its own) so that the compiled
    rows of :mod:`repro.seqopt.native` can mirror it bit for bit.
    """
    return np.cumsum(x * y, axis=1)[:, -1]


# ----------------------------------------------------------------------
# CDD
# ----------------------------------------------------------------------
def batched_cdd_from_gathered(
    p_seq: np.ndarray,
    a_seq: np.ndarray,
    b_seq: np.ndarray,
    due_date: float,
    *,
    return_completions: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal CDD objectives for ``S`` sequences given gathered arrays.

    Parameters
    ----------
    p_seq, a_seq, b_seq:
        ``(S, n)`` float arrays: processing times and penalties of each row's
        sequence, in sequence order.
    due_date:
        The common due date ``d``.
    return_completions:
        If true, also return the ``(S, n)`` optimal completion times and the
        ``(S,)`` due-date positions ``r`` (0 = schedule starts at time zero).

    Returns
    -------
    objectives, or ``(objectives, completions, r)``.
    """
    d = float(due_date)
    s, n = p_seq.shape
    rows = np.arange(s)

    c_init = np.cumsum(p_seq, axis=1)
    # tau: per-row count of jobs finishing at or before d at start zero.
    tau = (c_init <= d).sum(axis=1)

    a_pref = np.cumsum(a_seq, axis=1)  # A_k at column k-1
    a_excl = np.concatenate(
        (np.zeros((s, 1), dtype=a_pref.dtype), a_pref[:, :-1]), axis=1
    )  # A_{k-1} at column k-1
    b_cum = np.cumsum(b_seq, axis=1)
    b_suf = b_cum[:, -1:] - b_cum + b_seq  # B_k = sum(b[k-1:]) at column k-1

    # cond_k = B_k >= A_{k-1} is prefix-true in k (B_k falls, A_{k-1} rises),
    # so the largest k with cond_k is simply the count of true entries.
    k_max = (b_suf >= a_excl).sum(axis=1)
    r = np.minimum(tau, k_max)

    # Keep the initial schedule when shifting right is not strictly
    # beneficial: tardiness rate B_{tau+1} >= earliness rate A_tau.
    pe0 = np.where(tau > 0, a_pref[rows, np.maximum(tau - 1, 0)], 0.0)
    pl0 = np.where(tau < n, b_suf[rows, np.minimum(tau, n - 1)], 0.0)
    keep = (tau == 0) | (pl0 >= pe0)
    r = np.where(keep, 0, r)

    shift = np.where(r > 0, d - c_init[rows, np.maximum(r - 1, 0)], 0.0)
    completion = c_init + shift[:, None]

    early = np.maximum(0.0, d - completion)
    tardy = np.maximum(0.0, completion - d)
    obj = _row_sum(a_seq, early) + _row_sum(b_seq, tardy)
    if return_completions:
        return obj, completion, r
    return obj


def _sequence_matrix(
    instance: "CDDInstance | UCDDCPInstance", sequences: np.ndarray
) -> np.ndarray:
    seqs = np.asarray(sequences, dtype=np.intp)
    if seqs.ndim != 2 or seqs.shape[1] != instance.n:
        raise ValueError(
            f"sequences must have shape (S, {instance.n}), got {seqs.shape}"
        )
    return np.ascontiguousarray(seqs)


def batched_cdd_objective(
    instance: "CDDInstance", sequences: np.ndarray
) -> np.ndarray:
    """Optimal CDD objective for each row of the ``(S, n)`` sequence matrix."""
    seqs = _sequence_matrix(instance, sequences)
    obj = native.cdd_rows(
        seqs, instance.processing, instance.alpha, instance.beta,
        instance.due_date,
    )
    if obj is not None:
        return obj
    return batched_cdd_from_gathered(
        instance.processing[seqs],
        instance.alpha[seqs],
        instance.beta[seqs],
        instance.due_date,
    )


# ----------------------------------------------------------------------
# UCDDCP
# ----------------------------------------------------------------------
def batched_ucddcp_from_gathered(
    p_seq: np.ndarray,
    m_seq: np.ndarray,
    a_seq: np.ndarray,
    b_seq: np.ndarray,
    g_seq: np.ndarray,
    due_date: float,
    *,
    return_details: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Optimal UCDDCP objectives for ``S`` sequences given gathered arrays.

    Same contract as :func:`batched_cdd_from_gathered` with the compression
    pass added; with ``return_details`` also returns completions,
    reductions and due-date positions.
    """
    d = float(due_date)
    s, n = p_seq.shape
    rows = np.arange(s)

    _, c_cdd, r = batched_cdd_from_gathered(
        p_seq, a_seq, b_seq, d, return_completions=True
    )

    a_pref = np.cumsum(a_seq, axis=1)
    a_excl = np.concatenate(
        (np.zeros((s, 1), dtype=a_pref.dtype), a_pref[:, :-1]), axis=1
    )
    b_cum = np.cumsum(b_seq, axis=1)
    b_suf = b_cum[:, -1:] - b_cum + b_seq

    positions = np.arange(1, n + 1)
    # Rows with an anchored job (r >= 1): tardy <=> position > r (exact,
    # index-based).  Rows that kept the start-at-zero schedule fall back to a
    # float comparison on the initial completions.
    is_tardy = np.where(
        (r >= 1)[:, None], positions[None, :] > r[:, None], c_cdd > d
    )
    rate = np.where(is_tardy, b_suf, a_excl) - g_seq
    reduction = np.where(rate > 0.0, p_seq - m_seq, 0.0)

    p_eff = p_seq - reduction
    cum = np.cumsum(p_eff, axis=1)
    anchor = cum[rows, np.maximum(r - 1, 0)]
    completion = np.where(
        (r > 0)[:, None], d + cum - anchor[:, None], cum
    )

    early = np.maximum(0.0, d - completion)
    tardy = np.maximum(0.0, completion - d)
    obj = (
        _row_sum(a_seq, early) + _row_sum(b_seq, tardy)
        + _row_sum(g_seq, reduction)
    )
    if return_details:
        return obj, completion, reduction, r
    return obj


def batched_ucddcp_objective(
    instance: "UCDDCPInstance", sequences: np.ndarray
) -> np.ndarray:
    """Optimal UCDDCP objective for each row of the sequence matrix."""
    seqs = _sequence_matrix(instance, sequences)
    obj = native.ucddcp_rows(
        seqs, instance.processing, instance.min_processing, instance.alpha,
        instance.beta, instance.gamma, instance.due_date,
    )
    if obj is not None:
        return obj
    return batched_ucddcp_from_gathered(
        instance.processing[seqs],
        instance.min_processing[seqs],
        instance.alpha[seqs],
        instance.beta[seqs],
        instance.gamma[seqs],
        instance.due_date,
    )
