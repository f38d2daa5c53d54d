"""In-memory span recorder and the per-layer ledger built from it.

Spans are recorded by wrapping callables from the outside: the recorder
replaces an attribute (a bound method on one object, or a function on a
module or class) with a wrapper that notes the span's name, start, end and
parent (the span open when it began).  Nothing inside the program is
changed; ``Patches.off()`` puts every original attribute back, so a run can
alternate traced and untraced stretches and measure the tracing overhead.

Everything here is single-threaded by design: the simulator is, and the
live cluster runs every party on one asyncio loop whose callbacks never
interleave inside a synchronous call, so one stack of open spans is exact.
"""

from __future__ import annotations

import csv
import time
from array import array
from collections import defaultdict
from typing import Callable

#: Span-name prefix -> the ledger layer (named after the program's modules).
LAYER_OF_PREFIX = {
    "crypto": "crypto",
    "pool": "core.pool",
    "protocol": "core.icc0",
    "sim": "sim",
    "net": "net",
    "ingress": "workloads",
}

_MISSING = object()


class SpanRecorder:
    """Spans as parallel arrays: name id, start ns, end ns, parent index."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("l")
        self._stack: list[int] = []
        #: Extra counts taken at span boundaries (items verified, bytes...).
        self.tallies: defaultdict[str, int] = defaultdict(int)

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(
        self,
        name: str,
        fn: Callable,
        tally: tuple[str, Callable[[tuple, object], int]] | None = None,
    ) -> Callable:
        """``fn`` wrapped so that every call records one span ``name``.

        ``tally`` = (counter, count_fn) adds ``count_fn(args, result)`` to
        ``tallies[counter]`` after each call that returns.
        """
        nid = self._intern(name)
        clock = self.clock
        stack = self._stack
        name_ids, starts, ends, parents = (
            self.name_ids, self.starts, self.ends, self.parents,
        )
        tallies = self.tallies

        def wrapped(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if tally is not None:
                tallies[tally[0]] += tally[1](args, result)
            return result

        return wrapped

    def record(self, name: str, start: int, end: int, parent: int = -1) -> int:
        """Append one finished span directly (tests and tools)."""
        self.name_ids.append(self._intern(name))
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.starts) - 1

    def __len__(self) -> int:
        return len(self.starts)

    def self_times(self) -> list[int]:
        """Each span's duration minus the durations of its direct children.

        Spans nest (a child starts and ends inside its parent), so this is
        the part of the span no child covers.
        """
        starts, ends = self.starts, self.ends
        own = [e - s for s, e in zip(starts, ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= ends[i] - starts[i]
        return own

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, summed self time in ns)."""
        calls: defaultdict[str, int] = defaultdict(int)
        self_ns: defaultdict[str, int] = defaultdict(int)
        names = self.names
        for nid, own in zip(self.name_ids, self.self_times()):
            name = names[nid]
            calls[name] += 1
            self_ns[name] += own
        return {name: (calls[name], self_ns[name]) for name in calls}

    def write_csv(self, path: str) -> None:
        """Write every span as ``name,start_ns,end_ns,parent`` rows."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start_ns", "end_ns", "parent"))
            names = self.names
            for nid, start, end, parent in zip(
                self.name_ids, self.starts, self.ends, self.parents
            ):
                out.writerow((names[nid], start, end, parent))


def ledger(totals: dict[str, tuple[int, int]], wall_ns: int) -> tuple[dict[str, int], int]:
    """Split ``wall_ns`` into per-layer self time plus a residual.

    Returns ({layer: self ns}, residual ns); the layer times and the
    residual sum to ``wall_ns`` exactly.  The residual is wall time no
    wrapped call covers: the benchmark's own loop, the event loop, timers
    and idle waiting.
    """
    layers = {layer: 0 for layer in LAYER_OF_PREFIX.values()}
    for name, (_calls, own) in totals.items():
        layers[LAYER_OF_PREFIX[name.split(".", 1)[0]]] += own
    return layers, wall_ns - sum(layers.values())


class Patches:
    """A set of attribute replacements that can be switched on and off."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._entries: list[tuple[object, str, object, Callable]] = []

    def add(self, owner: object, attr: str, name: str, tally=None) -> None:
        """Wrap ``owner.attr`` as span ``name`` (applied on ``on()``)."""
        original = vars(owner).get(attr, _MISSING)
        wrapped = self.recorder.wrap(name, getattr(owner, attr), tally)
        self._entries.append((owner, attr, original, wrapped))

    def on(self) -> None:
        for owner, attr, _original, wrapped in self._entries:
            setattr(owner, attr, wrapped)

    def off(self) -> None:
        for owner, attr, original, _wrapped in self._entries:
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
