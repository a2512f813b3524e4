"""Where an ensemble runs: ``local``, ``processes`` or ``hosts``.

The backend (:mod:`repro.core.engine.backends`) runs the kernels; the
placement says where the chains run.  The sharded placements, selected
by ``backend="multiprocess"`` (a ``ProcessPool``) or ``"distributed"``
(remote agents via a ``HostPool``), run the vectorized kernels and merge
bit-identically to the local run.  :func:`resolve_placement` is the one
place that decides which placement knob applies where; the solver, CLI,
service admission and resilience runner all call it.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.core.engine.backends import BACKENDS, ExecutionBackend
from repro.core.engine.config import check_choice, check_workers

if TYPE_CHECKING:  # pragma: no cover
    from repro.pool.net import HostSpec
    from repro.resilience.faults import FaultPlan

__all__ = [
    "LOCAL",
    "PROCESSES",
    "HOSTS",
    "ENGINE_BACKENDS",
    "PLACEMENT_KNOBS",
    "Placement",
    "STANDALONE_BACKENDS",
    "resolve_placement",
    "knobs_for",
]

LOCAL, PROCESSES, HOSTS = "local", "processes", "hosts"
_PLACED = {"multiprocess": PROCESSES, "distributed": HOSTS}
_BACKEND_NAME = {kind: name for name, kind in _PLACED.items()}

#: Every name ``backend=`` accepts: kernel backends, then placed ones.
ENGINE_BACKENDS: tuple[str, ...] = (*BACKENDS, *_PLACED)
#: The names that run with no placement knobs (``hosts`` needs its
#: topology) -- what a front end without topology flags can offer.
STANDALONE_BACKENDS: tuple[str, ...] = tuple(
    name for name in ENGINE_BACKENDS if _PLACED.get(name) != HOSTS
)

#: Knobs only local worker pools use, with why each means nothing on
#: remote hosts.
_PROCESSES_ONLY = {
    "workers": "worker counts are fixed by the host topology; set "
               "per-host counts in {hosts}",
    "task_timeout": "task deadlines are enforced agent-side; start "
                    "agents with `repro agent --task-timeout`",
}
#: Knobs only remote hosts use (HostPool supervision and the fallback).
_HOSTS_ONLY = (
    "hosts", "local_fallback", "heartbeat_interval_s",
    "heartbeat_timeout_s", "connect_timeout_s", "io_timeout_s",
    "reconnect_attempts", "backoff_base_s", "backoff_factor",
    "backoff_max_s",
)
#: The one list of placement knob names: the solver pops exactly these
#: kwargs and the service refuses them in request configs.
PLACEMENT_KNOBS: tuple[str, ...] = (
    *_PROCESSES_ONLY, "task_retries", "fault_plan", *_HOSTS_ONLY,
)
#: The keyed fault site each sharded placement's pool fires
#: (:mod:`repro.resilience.faults`); device sites ride on the backend.
_FAULT_SITE = {PROCESSES: "task", HOSTS: "send"}
#: Knobs kept as :class:`Placement` fields; the rest go to the pool.
_FIELDS = ("workers", "hosts", "local_fallback")


def _applies(knob: str, kind: str) -> bool:
    if kind == LOCAL:
        return False
    return knob not in (_HOSTS_ONLY if kind == PROCESSES else _PROCESSES_ONLY)


def _kwarg(name: str, value: Any = None) -> str:
    """The solver's spelling: ``hosts=`` or ``backend='distributed'``."""
    return f"{name}=" if value is None else f"{name}={value!r}"


def _parse_hosts(hosts: Any) -> "tuple[HostSpec, ...]":
    from repro.pool.net import HostSpec, parse_host_specs

    specs = parse_host_specs(hosts) if isinstance(hosts, str) else tuple(hosts)
    if not specs:
        raise ValueError("a hosts placement needs a host topology")
    for spec in specs:
        if not isinstance(spec, HostSpec):
            raise ValueError(f"hosts entries must be HostSpec, got {spec!r}")
    return specs


@dataclasses.dataclass(frozen=True)
class Placement:
    """Where one ensemble solve runs, and the knobs that supervise it.

    ``workers`` fixes the shard plan: the process count for ``processes``
    (``None`` = one per CPU, capped at the grid size), the topology's
    total task credit for ``hosts`` (derived from ``hosts``, a
    ``HOST[:PORT]:WORKERS,...`` string or :class:`HostSpec` sequence).
    ``supervision`` holds the pool knobs the caller set; unset ones take
    the pool's own defaults.  ``context`` is the multiprocessing start
    method of local worker pools (``None`` = platform default).
    """

    kind: str = LOCAL
    workers: int | None = None
    hosts: "tuple[HostSpec, ...]" = ()
    local_fallback: bool = True
    supervision: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    context: str | None = None

    def __post_init__(self) -> None:
        check_choice("placement", self.kind, (LOCAL, PROCESSES, HOSTS))
        if self.kind == HOSTS:
            hosts = _parse_hosts(self.hosts)
            object.__setattr__(self, "hosts", hosts)
            object.__setattr__(self, "workers", sum(h.workers for h in hosts))
        else:
            check_workers(self.workers)

    def pool_kwargs(self) -> dict[str, Any]:
        """Supervision kwargs for this placement's pool constructor."""
        return dict(self.supervision)

    def result_params(self, shards: int) -> dict[str, Any]:
        """The ``SolveResult.params`` entries of a sharded solve."""
        params: dict[str, Any] = {
            "backend": _BACKEND_NAME[self.kind], "workers": shards,
        }
        if self.kind == HOSTS:
            from repro.pool.net import format_host_specs

            params["hosts"] = format_host_specs(self.hosts)
        return params


def _kind_of(backend: str | ExecutionBackend) -> str:
    return _PLACED.get(backend, LOCAL) if isinstance(backend, str) else LOCAL


def _check_fault_sites(
    plan: "FaultPlan", kind: str, name: str, spell: Callable[..., str]
) -> None:
    """Refuse a ``fault_plan`` spec this placement's pool cannot fire."""
    for spec in plan.specs:
        flag = spell("fault_plan", str(spec))
        if spec.site not in _FAULT_SITE.values():
            raise ValueError(
                f"{flag} does not apply to {spell('backend', name)}: "
                "device faults are armed on the kernel backend, not the "
                "placement"
            )
        if _FAULT_SITE.get(kind) != spec.site:
            wanted = "multiprocess" if spec.site == "task" else "distributed"
            raise ValueError(
                f"{flag} requires {spell('backend', wanted)} "
                f"(got {spell('backend', name)})"
            )


def resolve_placement(
    backend: str | ExecutionBackend,
    knobs: Mapping[str, Any] | None = None,
    spell: Callable[..., str] = _kwarg,
) -> tuple[str | ExecutionBackend, Placement]:
    """Split a ``backend=`` choice into ``(kernel backend, placement)``.

    ``knobs`` maps knob names to values (``None`` = unset).  A knob the
    placement cannot use, a ``fault_plan`` site its pool cannot fire, or
    ``hosts`` without a topology, raises ``ValueError`` naming them via
    ``spell(name[, value])``: the solver's ``hosts=`` by default, or a
    front end's own flags.
    """
    set_knobs = {k: v for k, v in (knobs or {}).items() if v is not None}
    kind = _kind_of(backend)
    name = getattr(backend, "name", backend)
    if "fault_plan" in set_knobs:
        _check_fault_sites(set_knobs["fault_plan"], kind, name, spell)
    for knob in set_knobs:
        if _applies(knob, kind):
            continue
        if kind == HOSTS:
            reason = _PROCESSES_ONLY[knob].format(hosts=spell("hosts"))
            raise ValueError(
                f"{spell(knob)} does not apply to "
                f"{spell('backend', name)}: {reason}"
            )
        wanted = "distributed" if knob in _HOSTS_ONLY else "multiprocess"
        raise ValueError(
            f"{spell(knob)} requires {spell('backend', wanted)} "
            f"(got {spell('backend', name)})"
        )
    if kind == LOCAL:
        if isinstance(backend, str) and backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {ENGINE_BACKENDS}"
            )
        return backend, Placement()
    if kind == HOSTS and "hosts" not in set_knobs:
        raise ValueError(
            f"{spell('backend', name)} requires a host topology: "
            f"{spell('hosts', 'HOST[:PORT]:WORKERS,...')}"
        )
    fields = {k: set_knobs.pop(k) for k in _FIELDS if k in set_knobs}
    return "vectorized", Placement(kind, supervision=set_knobs, **fields)


def knobs_for(backend: str, knobs: Mapping[str, Any]) -> dict[str, Any]:
    """The subset of ``knobs`` that ``backend``'s placement uses (how a
    server applies its own settings only where they mean something)."""
    return {k: v for k, v in knobs.items() if _applies(k, _kind_of(backend))}
