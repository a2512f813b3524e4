"""Deterministic fault injection: one grammar for every fault site.

Real fault-tolerance code is impossible to test against real faults -- a
GT 560M that times out on exactly the 40th kernel launch of a study, or a
worker that dies on exactly the second shard, cannot be arranged.  A
:class:`FaultPlan` arranges it.  Every fault is one
``SITE:AT:KIND[:repeat]`` spec; the site says where it fires and how
``AT`` counts:

* **Counted sites** -- ``launch`` and ``malloc``, hooked in
  :class:`repro.gpusim.device.Device` and both
  :class:`~repro.core.engine.backends.ExecutionBackend` s via
  :meth:`FaultPlan.record`.  ``AT`` is the 1-based call index, counted
  cumulatively over the plan's lifetime; because the count survives
  device re-creation, a retry of the failed work unit starts past the
  trigger and succeeds.  ``repeat`` fires on every call at or after
  ``AT`` (a hard failure no retry clears).
* **Keyed sites** -- ``task`` (a child process of
  :class:`~repro.pool.executor.ProcessPool` or
  :class:`~repro.pool.dispatch.SupervisedDispatch`) and ``send`` (the
  client send path of :class:`~repro.pool.hosts.HostPool`), asked via
  :meth:`FaultPlan.directive`.  ``AT`` is the 0-based task index (for
  ``repro serve``, the job admission sequence).  The fault fires on
  attempt 1 only, so the retry runs clean; ``repeat`` fires on every
  attempt, which drives the task into poison quarantine.

Plans are deterministic by construction: counters and task indices,
never wall clocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from repro.core.engine.config import check_choice
from repro.gpusim.errors import (
    DeviceAllocationError,
    DeviceUnavailableError,
    InvalidLaunchError,
    LaunchTimeoutError,
)

__all__ = [
    "DEVICE_FAULTS",
    "SITE_KINDS",
    "COUNTED_SITES",
    "FAULT_SITES",
    "SEND_DELAY_S",
    "Firing",
    "FaultSpec",
    "FaultPlan",
    "parse_fault",
]

#: The errors the device sites raise.  ``interrupt`` simulates the
#: operator's Ctrl-C at a deterministic point mid-study (KeyboardInterrupt
#: is *not* a failure: the runner converts it into a graceful, resumable
#: stop).
DEVICE_FAULTS: dict[str, type[BaseException]] = {
    "transient": DeviceUnavailableError,
    "timeout": LaunchTimeoutError,
    "oom": DeviceAllocationError,
    "fatal": InvalidLaunchError,
    "interrupt": KeyboardInterrupt,
}

#: Pause before the task frame goes out, for the ``send`` kind ``delay``.
SEND_DELAY_S = 0.05

#: The kinds each site can fire.
#:
#: ``task`` kinds act in the child process: ``kill`` exits abruptly
#: before reporting (segfault, ``kill -9``, the OOM killer); ``hang``
#: stalls until the watchdog reaps it; ``corrupt-payload`` flips a byte
#: of the pickled result after its digest was computed.
#:
#: ``send`` kinds act on the client's send path, so one plan drills any
#: topology against stock agents: ``disconnect`` closes the connection
#: after the task frame; ``delay`` pauses :data:`SEND_DELAY_S` first;
#: ``partial-frame`` ships half the frame, then closes; ``corrupt-frame``
#: flips a payload byte after the digest was computed; ``blackhole``
#: stops reading from and pinging the host until its heartbeat deadline
#: trips.
SITE_KINDS: dict[str, tuple[str, ...]] = {
    "launch": tuple(DEVICE_FAULTS),
    "malloc": tuple(DEVICE_FAULTS),
    "task": ("kill", "hang", "corrupt-payload"),
    "send": (
        "disconnect", "delay", "partial-frame", "corrupt-frame", "blackhole"
    ),
}
FAULT_SITES: tuple[str, ...] = tuple(SITE_KINDS)
#: Sites whose ``AT`` is a cumulative call count (the rest are keyed by
#: task index and attempt).
COUNTED_SITES = ("launch", "malloc")


class Firing(NamedTuple):
    """One fired fault, as logged in :attr:`FaultPlan.fired`.

    ``index`` is the call count (counted sites) or the task index (keyed
    sites); ``attempt`` is the keyed sites' 1-based attempt and ``host``
    the ``send`` site's host label.
    """

    site: str
    index: int
    kind: str
    attempt: int | None = None
    host: str | None = None


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault: fire ``kind`` at ``site`` number ``at``."""

    site: str
    at: int
    kind: str
    repeat: bool = False

    def __post_init__(self) -> None:
        check_choice("fault site", self.site, FAULT_SITES)
        check_choice(f"{self.site} fault kind", self.kind,
                     SITE_KINDS[self.site])
        low = 1 if self.site in COUNTED_SITES else 0
        if self.at < low:
            raise ValueError(
                f"{self.site} fault index must be >= {low}, got {self.at}"
            )

    def __str__(self) -> str:
        text = f"{self.site}:{self.at}:{self.kind}"
        return f"{text}:repeat" if self.repeat else text


class FaultPlan:
    """A reproducible schedule of injected faults over any sites.

    Counted sites call :meth:`record` before doing the real work, so an
    injected error prevents the operation exactly as a driver error
    would; keyed sites ask :meth:`directive` at every spawn or send.
    Every firing is logged in :attr:`fired` as a :class:`Firing`.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs = tuple(specs)
        self._counts: dict[str, int] = {site: 0 for site in COUNTED_SITES}
        self.fired: list[Firing] = []

    def refuse_sites(self, refused: Iterable[str], where: str) -> None:
        """Raise ``ValueError`` if any spec targets a ``refused`` site
        (``where`` names what cannot fire it, e.g. a CLI command)."""
        for spec in self.specs:
            if spec.site in refused:
                raise ValueError(
                    f"{where} cannot fire {spec.site!r} faults (got {spec})"
                )

    def check_watchdog(self, task_timeout: float | None) -> None:
        """Raise ``ValueError`` if a ``task:*:hang`` spec has no
        ``task_timeout`` watchdog to reap the hung child."""
        if task_timeout is None and any(
            spec.site == "task" and spec.kind == "hang" for spec in self.specs
        ):
            raise ValueError(
                "a 'hang' fault can only be reaped by the watchdog; "
                "set task_timeout"
            )

    def counts(self) -> dict[str, int]:
        """Cumulative calls recorded per counted site (a copy)."""
        return dict(self._counts)

    def record(self, site: str) -> None:
        """Count one ``site`` call; raise if a spec triggers at this index."""
        check_choice("counted fault site", site, COUNTED_SITES)
        self._counts[site] += 1
        index = self._counts[site]
        for spec in self.specs:
            if spec.site == site and (
                index == spec.at or (spec.repeat and index >= spec.at)
            ):
                self.fired.append(Firing(site, index, spec.kind))
                raise DEVICE_FAULTS[spec.kind](
                    f"injected {spec.kind} fault on {site} #{spec.at}"
                )

    def directive(
        self, site: str, task_index: int, attempt: int,
        host: str | None = None,
    ) -> str | None:
        """The fault kind to arm for this spawn or send (``None`` = run
        clean).

        ``attempt`` is 1-based (resends after a reconnect or a rejected
        frame count up).  At most one spec fires per call; with several
        matching specs the first wins.
        """
        for spec in self.specs:
            if spec.site == site and spec.at == task_index and (
                attempt == 1 or spec.repeat
            ):
                self.fired.append(
                    Firing(site, task_index, spec.kind, attempt, host)
                )
                return spec.kind
        return None


def parse_fault(text: str) -> FaultSpec:
    """Parse a CLI fault spec: ``SITE:AT:KIND`` with an optional ``:repeat``.

    Examples: ``launch:40:transient``, ``malloc:3:oom:repeat``,
    ``launch:1200:interrupt`` (simulated Ctrl-C mid-study), ``task:1:kill``
    (task 1's first worker dies, the retry succeeds),
    ``send:0:corrupt-frame:repeat`` (task 0's frame is corrupted on every
    send).
    """
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "repeat"):
        raise ValueError(
            f"bad fault spec {text!r}; expected SITE:AT:KIND[:repeat], e.g. "
            f"launch:40:transient or task:1:kill (sites: {FAULT_SITES})"
        )
    site, at_text, kind = parts[:3]
    try:
        at = int(at_text)
    except ValueError:
        raise ValueError(
            f"bad fault spec {text!r}: index {at_text!r} is not an integer"
        ) from None
    return FaultSpec(site=site, at=at, kind=kind, repeat=len(parts) == 4)
