"""Wall-clock scheduling with the :class:`repro.sim.simulator.Simulation` surface.

The protocol parties never import the simulator *class* — they only call a
handful of attributes on the ``sim`` object they are constructed with:
``now``, ``schedule``, ``schedule_at``, ``fork_rng``, ``tracer``,
``meter``, ``rng``.  :class:`WallClock` implements exactly that surface on
top of an asyncio event loop, so the identical party objects run in real
time.  The differences that matter (and that ``docs/TRANSPORT.md``
documents):

* ``now`` is **monotonic wall time in seconds since the clock was
  created** (``loop.time() - epoch``), not virtual time.  It advances on
  its own; nothing "runs" the clock.
* ``schedule``/``schedule_at`` map to ``loop.call_later`` — callbacks fire
  *at or after* the requested time, never exactly at it, and never
  reentrantly (asyncio only runs callbacks between await points).
* There is no ``run()`` / ``step()`` — the asyncio loop owns execution.
  Code that drives a run to a condition awaits on events instead
  (see :meth:`repro.net.party.LiveParty.wait_for_height`).

Determinism note: seeded RNG streams still exist (protocol code may draw
from ``rng``), but wall-clock runs are **not** bit-reproducible — arrival
order depends on the kernel scheduler and the network.  The protocol's
safety does not depend on timing; that independence is precisely what the
live transport demonstrates.
"""

from __future__ import annotations

import asyncio
from itertools import count
from random import Random
from typing import Callable

from ..obs import NULL_METER, NULL_TRACER


class WallClock:
    """Simulation-compatible scheduling facade over an asyncio loop.

    Build it *inside* a running event loop (or pass ``loop`` explicitly).
    ``now`` starts at 0.0 at construction so trace timestamps and metric
    windows read like the simulator's (a run starts at t=0).
    """

    def __init__(self, loop: asyncio.AbstractEventLoop | None = None, seed: int = 0) -> None:
        self.loop = loop if loop is not None else asyncio.get_event_loop()
        self._epoch = self.loop.time()
        self.rng = Random(seed)
        #: Same install-before-build rule as the simulator: parties cache
        #: these references at construction.
        self.tracer = NULL_TRACER
        self.meter = NULL_METER
        # Scheduled callbacks that have not run yet, for cancel_all.
        self._pending: dict[int, asyncio.TimerHandle] = {}
        self._tokens = count()

    # -- the Simulation surface the parties use -----------------------------

    @property
    def now(self) -> float:
        """Seconds of monotonic wall time since this clock was created."""
        return self.loop.time() - self._epoch

    def schedule(self, delay: float, action: Callable[[], None]) -> asyncio.TimerHandle:
        """Run ``action`` after ``delay`` wall-clock seconds (>= 0)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        return self._call_later(delay, action)

    def schedule_at(self, time: float, action: Callable[[], None]) -> asyncio.TimerHandle:
        """Run ``action`` once ``now`` reaches ``time``.

        Unlike the simulator this never raises for a time slightly in the
        past: wall time advances between the caller computing ``time`` and
        this call executing, so a "late" schedule is normal — the action
        simply runs as soon as possible.
        """
        return self._call_later(max(0.0, time - self.now), action)

    def cancel_all(self) -> None:
        """Cancel every scheduled action that has not run yet.

        A pending timer references its action's owner, so a stopped party
        stays in memory until its last timer fires unless this is called.
        Handles the caller cancelled itself are only forgotten here.
        """
        for handle in self._pending.values():
            handle.cancel()
        self._pending.clear()

    def _call_later(self, delay: float, action: Callable[[], None]) -> asyncio.TimerHandle:
        token = next(self._tokens)
        handle = self.loop.call_later(delay, self._run, token, action)
        self._pending[token] = handle
        return handle

    def _run(self, token: int, action: Callable[[], None]) -> None:
        del self._pending[token]
        action()

    def fork_rng(self, label: str = "") -> Random:
        """Derive an independent RNG stream (same contract as Simulation)."""
        return Random(f"{self.rng.getrandbits(64)}/{label}")
