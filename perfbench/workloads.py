"""The three workloads: how each builds its cluster, offers load and is timed.

Every workload follows the same plan.  Set the cluster up ``SETUP_REPS``
times from nothing (fresh setup cache each time); run warm-up heights
untimed; then time a fixed number of heights, one at a time, of the
slowest honest party, while an open-loop client population offers
requests; drain the requests still in flight untimed; check the outputs.
The simulated workloads run all their heights on the last cluster set up;
the live one runs them as short episodes of fresh clusters.

The timed window is a fixed amount of work, ``heights_per_second *
seconds`` heights, sized so that the program this benchmark was written
against takes about ``seconds`` for it on a 2-core machine.  Per-height
cost grows with the pool, so a window of fixed wall time would make a
faster program run more, costlier heights; fixed work compares like with
like.

``height_cost_growth`` compares late heights of the run with the first
loaded heights of a fresh cluster of the same seed, timed next to each
other (alternating, in the simulator) so that both see the same machine
speed: on a shared host the speed drifts over seconds, which a ratio of
the window's first and last quarters would pick up.

With tracing on, every other timed height runs with the layer spans
installed, so the traced and untraced heights sample the same stretch of
the run and their ratio is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from random import Random
from types import SimpleNamespace

from repro.core import ClusterConfig, build_cluster
from repro.crypto import setup_cache
from repro.net import LiveCluster
from repro.net.config import local_live_config
from repro.sim.delays import WanDelay
from repro.workloads import (
    BatchSpec,
    ClientPopulation,
    PopulationSpec,
    RequestBatcher,
    is_load_command,
)

from . import layers
from .checks import (
    balance_requests,
    chain_digest,
    check_recorded_chain,
    percentile,
    prefix_consistent,
)
from .spans import Patches, SpanRecorder

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 21
#: Virtual clients behind the open-loop load (a small set, so the real
#: backend's per-client key tables are all built during warm-up).
CLIENTS = 64
#: Broker tick of the client population (seconds).
TICK = PopulationSpec().tick
#: A load request id is the first 12 bytes of its command.
REQUEST_ID_LEN = 12
#: Wall seconds after which a timed window gives up; the heights it did
#: not reach count as failed.
WINDOW_WALL_LIMIT = 120.0
#: Seed of each workload's deployment: keys, random beacon, WAN topology
#: and crashed parties.  The deployment is part of the workload; the
#: ``--seed`` argument draws the client traffic (Poisson arrival times,
#: clients, state keys, client signing keys), so runs with different seeds
#: measure the same cluster under different traffic.
DEPLOYMENT_SEED = 0


@dataclass
class Outcome:
    """What one run measured and whether the program's outputs held up."""

    attempted: int
    failed: int
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    notes: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    recorder: SpanRecorder | None = None


class OpenLoopIngress:
    """Where the client population hands each broker tick to the program.

    While ``open``, notes when every request was due (its arrival time)
    and how late the tick's admission ran, then admits the batch through
    the public ``RequestBatcher.admit_batch`` of every party's batcher;
    ``shifts`` move arrival times into each batcher's own clock frame.
    Once closed, the clients have stopped: ticks are dropped.
    """

    def __init__(self, batchers, clock, shifts=None) -> None:
        self.batchers = batchers
        self.auth = batchers[0].auth
        self.clock = clock
        self.shifts = shifts if shifts is not None else [0.0] * len(batchers)
        self.open = False
        self.due: dict[bytes, float] = {}
        #: Seconds each tick's admission ran after its scheduled time,
        #: taken while no spans were installed.
        self.lateness: list[float] = []
        self.tracing = False

    def admit_batch(self, batch) -> int:
        if not self.open:
            return 0
        close = (int(batch[-1][1] / TICK) + 1) * TICK
        if not self.tracing:
            self.lateness.append(self.clock.now - close)
        for request, arrival in batch:
            self.due[request.request_id] = arrival
        accepted = 0
        for batcher, shift in zip(self.batchers, self.shifts):
            accepted = batcher.admit_batch(
                [(request, arrival + shift) for request, arrival in batch]
            )
        return accepted


def _fresh_setup_cache(workdir: str, rep: int) -> None:
    """Point the program's setup cache at an empty directory."""
    directory = os.path.join(workdir, "setup-cache", f"{os.getpid()}-{rep}")
    os.environ["REPRO_SETUP_CACHE_DIR"] = directory
    setup_cache.reset()


def _window_heights(heights_per_second: float, seconds: float) -> int:
    return max(8, round(heights_per_second * seconds))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _trace_overhead(traced: list[int], untraced: list[int]) -> float:
    return statistics.fmean(traced) / statistics.fmean(untraced)


def _request_ids(party) -> list[bytes]:
    return [c[:REQUEST_ID_LEN] for c in party.output_commands() if is_load_command(c)]


def _requests_per_block(party, after_round: int) -> float:
    blocks = [b for b in party.output_log if b.round > after_round]
    commands = sum(1 for b in blocks for c in b.payload.commands if is_load_command(c))
    return commands / len(blocks) if blocks else 0.0


def _blocks_per_height(party) -> float:
    return (len(party.pool.blocks) - 1) / party.k_max if party.k_max else 0.0


# ---------------------------------------------------------------- simulated


@dataclass(frozen=True)
class SimSpec:
    """One simulated ICC0 workload."""

    name: str
    n: int
    t: int
    crypto_backend: str
    group_profile: str
    crashed: int
    rate: float
    auth: str
    payload_bytes: int
    heights_per_second: float
    #: Late/young height pairs timed for ``height_cost_growth``.
    growth_heights: int


SIM_N13_REAL = SimSpec(
    name="sim-n13-real", n=13, t=4, crypto_backend="real", group_profile="default",
    crashed=0, rate=500.0, auth="real", payload_bytes=256, heights_per_second=2.0,
    growth_heights=6,
)
SIM_N31_FAST_CRASH = SimSpec(
    name="sim-n31-fast-crash", n=31, t=10, crypto_backend="fast", group_profile="test",
    crashed=3, rate=200.0, auth="fast", payload_bytes=64, heights_per_second=3.0,
    growth_heights=12,
)

#: ICC's ε (the governor in Δntry), seconds.
SIM_EPSILON = 0.010
#: Heights run before timing starts (lazy crypto tables, first rounds).
SIM_WARMUP_HEIGHTS = 3
#: Load is installed in chunks of simulated seconds, kept this far ahead
#: of the simulated clock while the ingress is open.
LOAD_CHUNK = 0.5
LOAD_LOOKAHEAD = 1.0
#: Heights allowed for in-flight requests to commit after the window.
DRAIN_MAX_HEIGHTS = 40
#: Guard against a livelocked height.
MAX_EVENTS_PER_HEIGHT = 2_000_000


class SimRun:
    """One simulated cluster with its client load, stepped height by height."""

    def __init__(self, spec: SimSpec, seed: int) -> None:
        self.spec = spec
        crashed = Random(f"perfbench/{spec.name}/{DEPLOYMENT_SEED}").sample(
            range(1, spec.n + 1), spec.crashed
        )
        self.batcher = RequestBatcher(
            BatchSpec(auth=spec.auth, group_profile=spec.group_profile), seed=seed
        )
        delay = WanDelay()
        self.cluster = build_cluster(
            ClusterConfig(
                n=spec.n,
                t=spec.t,
                delta_bound=delay.max_delay_bound(),
                epsilon=SIM_EPSILON,
                seed=DEPLOYMENT_SEED,
                crypto_backend=spec.crypto_backend,
                group_profile=spec.group_profile,
                delay_model=delay,
                payload_source=self.batcher.payload_source,
                payload_verifier=self.batcher.verify_block,
                corrupt={index: None for index in crashed},
            )
        )
        self.batcher.bind(self.cluster)
        self.sim = self.cluster.sim
        self.honest = self.cluster.honest_parties
        #: The party whose commits the batcher observes.
        self.observer = self.honest[0]
        self.ingress = OpenLoopIngress([self.batcher], self.sim)
        self.population = ClientPopulation(
            PopulationSpec(
                clients=CLIENTS,
                rate_per_second=spec.rate,
                poisson=True,
                payload_bytes=spec.payload_bytes,
            ),
            self.ingress,
            seed=seed,
        )
        self._installed_until = 0.0
        #: Simulated seconds from due to commit, per request, in commit order.
        self.latencies: dict[bytes, float] = {}
        self.batcher.on_complete(self.latencies.__setitem__)
        self._target = 0
        self._reached = 0
        for party in self.honest:
            party.commit_listeners.append(self._on_commit)
        self.cluster.start()
        self.height = 0

    def _on_commit(self, block) -> None:
        if block.round == self._target:
            self._reached += 1

    def step(self) -> bool:
        """Run until every honest party has committed one more height."""
        target = self.height + 1
        self._target = target
        self._reached = sum(1 for p in self.honest if p.k_max >= target)
        quorum = len(self.honest)
        try:
            self.sim.run(
                stop_when=lambda: self._reached >= quorum,
                max_events=MAX_EVENTS_PER_HEIGHT,
            )
        except RuntimeError:
            return False
        if self._reached < quorum:
            return False
        self.height = target
        self._feed_load()
        return True

    def timed_step(self) -> int | None:
        """``step`` timed in wall ns; None if the height made no progress."""
        t0 = time.perf_counter_ns()
        ok = self.step()
        elapsed = time.perf_counter_ns() - t0
        return elapsed if ok else None

    def warm_up(self) -> bool:
        ok = all(self.step() for _ in range(SIM_WARMUP_HEIGHTS))
        if self.spec.auth == "real":
            self.batcher.auth.warm(CLIENTS)
        return ok

    def open_load(self) -> None:
        self.ingress.open = True
        self._installed_until = self.sim.now
        self._feed_load()

    def _feed_load(self) -> None:
        while self.ingress.open and self._installed_until < self.sim.now + LOAD_LOOKAHEAD:
            start = max(self._installed_until, self.sim.now)
            self.population.install(self.cluster, LOAD_CHUNK, start=start)
            self._installed_until = start + LOAD_CHUNK

    def drain(self) -> None:
        self.ingress.open = False
        for _ in range(DRAIN_MAX_HEIGHTS):
            if len(self.latencies) == len(self.ingress.due) or not self.step():
                return


def _instrument_sim(run: SimRun) -> Patches:
    patches = Patches(SpanRecorder())
    for party in run.cluster.parties:
        layers.instrument_party(patches, party)
    layers.instrument_sim(patches, run.cluster)
    layers.instrument_ingress(patches, run.batcher, run.cluster.parties)
    return patches


def _sim_counters(run: SimRun) -> tuple[int, int, int]:
    metrics = run.cluster.network.metrics
    return (
        run.sim.events_processed,
        sum(metrics.msgs_sent.values()),
        sum(metrics.bytes_sent.values()),
    )


def run_sim(spec: SimSpec, seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    setup_times = []
    for rep in range(SETUP_REPS):
        _fresh_setup_cache(workdir, rep)
        t0 = time.perf_counter()
        run = SimRun(spec, seed)
        setup_times.append(time.perf_counter() - t0)
    errors: list[str] = []
    if not run.warm_up():
        errors.append("no progress during warm-up")
    patches = _instrument_sim(run) if trace else None

    heights = _window_heights(spec.heights_per_second, seconds)
    run.open_load()
    counters0 = _sim_counters(run)
    walls: list[int] = []
    traced_walls: list[int] = []
    give_up = time.perf_counter() + WINDOW_WALL_LIMIT
    for i in range(heights if not errors else 0):
        if time.perf_counter() > give_up:
            errors.append(f"window gave up after {WINDOW_WALL_LIMIT:.0f}s")
            break
        traced = patches is not None and i % 2 == 1
        if traced:
            patches.on()
        wall = run.timed_step()
        if traced:
            patches.off()
        if wall is None:
            errors.append(f"height {run.height + 1} made no progress")
            break
        (traced_walls if traced else walls).append(wall)
    timed_heights = len(walls) + len(traced_walls)
    counters1 = _sim_counters(run)

    # Growth: late heights of this run alternating with the first loaded
    # heights of a fresh run of the same seed, which must commit the same
    # chain (the simulator is deterministic).
    young = SimRun(spec, seed)
    young.warm_up()
    young.open_load()
    late_walls: list[int] = []
    young_walls: list[int] = []
    for _ in range(spec.growth_heights if not errors else 0):
        young_wall, late_wall = young.timed_step(), run.timed_step()
        if young_wall is None or late_wall is None:
            errors.append("no progress while timing growth")
            break
        young_walls.append(young_wall)
        late_walls.append(late_wall)
    young_chain = young.observer.committed_hashes
    del young
    run.drain()
    peak_rss = _peak_rss_mb()

    if not prefix_consistent([p.committed_hashes for p in run.honest]):
        errors.append("safety violated: honest committed chains diverge")
    chain = run.observer.committed_hashes
    notes = [f"chain sha256={chain_digest(chain)} heights={len(chain)}"]
    if not young_chain or young_chain != chain[: len(young_chain)]:
        errors.append("a second run of the same seed committed a different chain")
    problem = check_recorded_chain(
        os.path.join(workdir, "chains.json"), f"{spec.name}/{seed}/{heights}", chain
    )
    if problem is not None:
        errors.append(problem)

    tally = balance_requests(
        set(run.ingress.due), list(run.latencies), _request_ids(run.observer)
    )
    errors += tally.errors
    attempted = heights + tally.attempted
    failed = heights - timed_heights + tally.failed

    end_to_end: dict[str, float] = {}
    per_layer: dict[str, float] = {}
    if walls and late_walls and not trace:
        latencies_ms = [latency * 1e3 for latency in run.latencies.values()]
        end_to_end = {
            "setup_s": statistics.median(setup_times),
            "heights_per_s": len(walls) / (sum(walls) / 1e9),
            "height_ms_p50": statistics.median(walls) / 1e6,
            "height_cost_growth": statistics.fmean(late_walls) / statistics.fmean(young_walls),
            "peak_rss_mb": peak_rss,
            "request_ms_p50": percentile(latencies_ms, 0.50),
            "request_ms_p99": percentile(latencies_ms, 0.99),
            "completed_share": (attempted - failed) / attempted,
        }
    if trace and traced_walls and walls:
        events, msgs, sent = (b - a for a, b in zip(counters0, counters1))
        per_layer = layers.layer_metrics(
            patches.recorder,
            len(traced_walls),
            sum(traced_walls),
            {
                "pool.artifacts.end": run.observer.pool.artifact_count(),
                "protocol.blocks_per_height": _blocks_per_height(run.observer),
                "sim.events_per_height": events / timed_heights,
                "sim.msgs_per_height": msgs / timed_heights,
                "sim.bytes_per_height": sent / timed_heights,
                "net.transport.backlog_max": 0,
                "net.transport.reconnects": 0,
                "net.transport.frames_rejected": 0,
                "net.loop_lag_ms_p99": 0.0,
                "ingress.requests_per_block": _requests_per_block(
                    run.observer, SIM_WARMUP_HEIGHTS
                ),
                "ingress.rejected": run.batcher.rejected + run.batcher.auth_invalid,
                "ledger.trace_overhead": _trace_overhead(traced_walls, walls),
            },
        )
    if not walls:
        errors.append("no height was timed")
    return Outcome(
        attempted=attempted,
        failed=failed,
        end_to_end=end_to_end,
        per_layer=per_layer,
        notes=notes,
        errors=errors,
        recorder=patches.recorder if patches is not None else None,
    )


# --------------------------------------------------------------------- live

LIVE_NAME = "live-tcp-n4"
LIVE_N = 4
LIVE_T = 1
LIVE_EPSILON = 0.005
LIVE_RATE = 320.0
LIVE_PAYLOAD_BYTES = 256
LIVE_WARMUP_HEIGHT = 5
#: The live window is a series of episodes, each a fresh cluster timed for
#: ``LIVE_EPISODE_HEIGHTS`` heights; metrics are medians over episodes or
#: pooled over them.  Past a few hundred heights the unpruned pool makes
#: a live height several times dearer and the run-to-run spread grows with
#: it, so short episodes keep the workload in one regime.
LIVE_EPISODE_HEIGHTS = 150
LIVE_EPISODES_PER_SECOND = 0.5
#: Load scheduled per episode, about twice the episode's length; ticks
#: still pending when the episode ends are cancelled.
LIVE_LOAD_SECONDS = 4.0
#: The load starts this long after it is generated, so the time spent
#: generating it does not make the first ticks late.
LIVE_LOAD_LEAD = 0.2
#: Wall seconds allowed for one height, and for in-flight requests to
#: commit after an episode.
LIVE_HEIGHT_TIMEOUT = 30.0
LIVE_DRAIN_TIMEOUT = 10.0


class LiveRun:
    """One in-process TCP cluster with its client load."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cluster = LiveCluster(
            local_live_config(
                LIVE_N, t=LIVE_T, seed=DEPLOYMENT_SEED, epsilon=LIVE_EPSILON
            )
        )
        self.height = 0

    async def start(self) -> None:
        await self.cluster.start()

    async def stop(self) -> None:
        await self.cluster.stop()

    def wire(self) -> None:
        """Give every party a RequestBatcher fed only by the benchmark's load.

        The same wiring ``LiveParty`` does for its built-in request pump;
        the pump itself stays off (``load_requests=0``) because it
        schedules each chunk relative to the previous one and so cannot be
        timed from its due ticks.
        """
        loop = asyncio.get_running_loop()
        parties = self.cluster.parties
        self.batchers = []
        for live in parties:
            batcher = RequestBatcher(BatchSpec(), seed=self.seed)
            batcher.bind(SimpleNamespace(sim=live.clock, honest_parties=[live.party]))
            live.party.payload_source = batcher.payload_source
            live.party.pool.payload_verifier = batcher.verify_block
            self.batchers.append(batcher)
        self.clock = parties[0].clock
        epochs = [loop.time() - live.clock.now for live in parties]
        self.ingress = OpenLoopIngress(
            self.batchers, self.clock, [epochs[0] - epoch for epoch in epochs]
        )
        #: Per party: request id -> seconds from due to commit there.
        self.latencies: list[dict[bytes, float]] = [{} for _ in parties]
        for batcher, seen in zip(self.batchers, self.latencies):
            batcher.on_complete(seen.__setitem__)
        self.population = ClientPopulation(
            PopulationSpec(
                clients=CLIENTS,
                rate_per_second=LIVE_RATE,
                poisson=True,
                payload_bytes=LIVE_PAYLOAD_BYTES,
            ),
            self.ingress,
            seed=self.seed,
        )

    async def warm_up(self) -> bool:
        ok = await self.cluster.wait_for_height(LIVE_WARMUP_HEIGHT, LIVE_HEIGHT_TIMEOUT)
        self.height = self.cluster.min_height()
        return ok

    async def open_load(self) -> None:
        """Offer load for up to ``LIVE_LOAD_SECONDS``; ``drain`` closes it.

        Returns once the first requests are due."""
        self._ticks: list[asyncio.TimerHandle] = []

        def schedule_at(when, action):
            handle = self.clock.schedule_at(when, action)
            self._ticks.append(handle)
            return handle

        start = self.clock.now + LIVE_LOAD_LEAD
        self.population.install(
            SimpleNamespace(sim=SimpleNamespace(schedule_at=schedule_at)),
            duration=LIVE_LOAD_SECONDS,
            start=start,
        )
        self.ingress.open = True
        await asyncio.sleep(max(0.0, start - self.clock.now))
        self.height = self.cluster.min_height()

    async def timed_step(self) -> int | None:
        """Wall ns until every party commits one more height (None: timeout)."""
        t0 = time.perf_counter_ns()
        ok = await self.cluster.wait_for_height(self.height + 1, LIVE_HEIGHT_TIMEOUT)
        elapsed = time.perf_counter_ns() - t0
        if not ok:
            return None
        self.height += 1
        return elapsed

    async def drain(self) -> None:
        self.ingress.open = False
        for handle in self._ticks:
            handle.cancel()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + LIVE_DRAIN_TIMEOUT
        while loop.time() < deadline and not all(
            len(seen) == len(self.ingress.due) for seen in self.latencies
        ):
            await asyncio.sleep(0.01)

    def slowest_latencies_ms(self) -> list[float]:
        """Per request committed everywhere: due to commit at the last party."""
        return [
            max(seen[rid] for seen in self.latencies) * 1e3
            for rid in self.ingress.due
            if all(rid in seen for seen in self.latencies)
        ]


def _instrument_live(patches: Patches, run: LiveRun) -> None:
    layers.instrument_codec(patches)
    for live, batcher in zip(run.cluster.parties, run.batchers):
        layers.instrument_party(patches, live.party)
        layers.instrument_transport(patches, live.network)
        layers.instrument_ingress(patches, batcher, [live.party])


@dataclass
class _LiveTally:
    """What the live episodes add up to."""

    walls: list[int] = field(default_factory=list)
    traced_walls: list[int] = field(default_factory=list)
    episode_rates: list[float] = field(default_factory=list)
    episode_growth: list[float] = field(default_factory=list)
    episode_p99_ms: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    backlog_max: int = 0
    reconnects: int = 0
    frames_rejected: int = 0
    rejected: int = 0
    errors: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    state: dict[str, float] = field(default_factory=dict)


async def _live_episode(seed: int, tally: _LiveTally, recorder: SpanRecorder | None) -> None:
    """One fresh cluster: warm up, time the episode's heights, drain, check."""
    run = LiveRun(seed)
    await run.start()
    try:
        run.wire()
        if not await run.warm_up():
            tally.errors.append("no progress during warm-up")
            tally.attempted += LIVE_EPISODE_HEIGHTS
            tally.failed += LIVE_EPISODE_HEIGHTS
            return
        patches = None
        if recorder is not None:
            patches = Patches(recorder)
            _instrument_live(patches, run)
        await run.open_load()
        walls: list[int] = []
        for i in range(LIVE_EPISODE_HEIGHTS):
            traced = patches is not None and i % 2 == 1
            if traced:
                patches.on()
                run.ingress.tracing = True
            wall = await run.timed_step()
            if traced:
                patches.off()
                run.ingress.tracing = False
                tally.backlog_max = max(
                    [tally.backlog_max]
                    + [live.stat_snapshot()["link_backlog"] for live in run.cluster.parties]
                )
            if wall is None:
                tally.errors.append(
                    f"height {run.height + 1} not reached in {LIVE_HEIGHT_TIMEOUT}s"
                )
                break
            walls.append(wall)
            (tally.traced_walls if traced else tally.walls).append(wall)
        await run.drain()

        parties = [live.party for live in run.cluster.parties]
        if not prefix_consistent([p.committed_hashes for p in parties]):
            tally.errors.append("safety violated: committed chains diverge")
        request_failed = 0
        for party, seen in zip(parties, run.latencies):
            check = balance_requests(set(run.ingress.due), list(seen), _request_ids(party))
            tally.errors += [f"party {party.index}: {e}" for e in check.errors]
            request_failed = max(request_failed, check.failed)
        tally.attempted += LIVE_EPISODE_HEIGHTS + len(run.ingress.due)
        tally.failed += LIVE_EPISODE_HEIGHTS - len(walls) + request_failed
        if len(walls) >= 8:
            quarter = len(walls) // 4
            tally.episode_rates.append(len(walls) / (sum(walls) / 1e9))
            tally.episode_growth.append(
                statistics.median(walls[-quarter:]) / statistics.median(walls[:quarter])
            )
        latencies_ms = run.slowest_latencies_ms()
        if latencies_ms:
            tally.episode_p99_ms.append(percentile(latencies_ms, 0.99))
        tally.latencies_ms += latencies_ms
        tally.lateness += run.ingress.lateness
        snapshots = [live.stat_snapshot() for live in run.cluster.parties]
        tally.reconnects += sum(s["reconnects"] for s in snapshots)
        tally.frames_rejected += sum(s["frames_rejected"] for s in snapshots)
        tally.rejected += sum(b.rejected + b.auth_invalid for b in run.batchers)
        observer = min(parties, key=lambda p: p.k_max)
        tally.notes = [
            f"chain sha256={chain_digest(observer.committed_hashes)} "
            f"heights={observer.k_max} (last episode; live runs are not deterministic)"
        ]
        tally.state = {
            "pool.artifacts.end": observer.pool.artifact_count(),
            "protocol.blocks_per_height": _blocks_per_height(observer),
            "ingress.requests_per_block": _requests_per_block(observer, LIVE_WARMUP_HEIGHT),
        }
    finally:
        await run.stop()


async def _run_live(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    setup_times = []
    for rep in range(SETUP_REPS):
        _fresh_setup_cache(workdir, rep)
        t0 = time.perf_counter()
        run = LiveRun(seed)
        await run.start()
        setup_times.append(time.perf_counter() - t0)
        await run.stop()

    tally = _LiveTally()
    recorder = SpanRecorder() if trace else None
    episodes = max(2, round(LIVE_EPISODES_PER_SECOND * seconds))
    give_up = time.perf_counter() + WINDOW_WALL_LIMIT
    ran = 0
    for _ in range(episodes):
        if time.perf_counter() > give_up:
            tally.errors.append(f"window gave up after {WINDOW_WALL_LIMIT:.0f}s")
            break
        # The cyclic garbage collector runs between episodes, not inside
        # them (as timeit does): a finished episode leaves reference cycles
        # whose collection would stall a random few episodes for ~200 ms
        # and make request_ms_p99 swing between runs.
        gc.collect()
        gc.disable()
        try:
            await _live_episode(seed, tally, recorder)
        finally:
            gc.enable()
        ran += 1
        if tally.errors:
            break
    missing = (episodes - ran) * LIVE_EPISODE_HEIGHTS
    attempted = tally.attempted + missing
    failed = tally.failed + missing
    peak_rss = _peak_rss_mb()

    end_to_end: dict[str, float] = {}
    per_layer: dict[str, float] = {}
    errors = tally.errors
    if tally.walls and tally.episode_rates and not trace and not errors:
        end_to_end = {
            "setup_s": statistics.median(setup_times),
            "heights_per_s": statistics.median(tally.episode_rates),
            "height_ms_p50": statistics.median(tally.walls) / 1e6,
            "height_cost_growth": statistics.median(tally.episode_growth),
            "peak_rss_mb": peak_rss,
            "request_ms_p50": percentile(tally.latencies_ms, 0.50),
            # Median over episodes: one stalled episode in ten (a host
            # hiccup) would otherwise set the pooled p99 of a whole run.
            "request_ms_p99": statistics.median(tally.episode_p99_ms),
            "completed_share": (attempted - failed) / attempted,
        }
    if trace and tally.traced_walls and tally.walls and not errors:
        per_layer = layers.layer_metrics(
            recorder,
            len(tally.traced_walls),
            sum(tally.traced_walls),
            {
                **tally.state,
                "sim.events_per_height": 0,
                "sim.msgs_per_height": 0,
                "sim.bytes_per_height": 0,
                "net.transport.backlog_max": tally.backlog_max,
                "net.transport.reconnects": tally.reconnects,
                "net.transport.frames_rejected": tally.frames_rejected,
                "net.loop_lag_ms_p99": percentile(tally.lateness, 0.99) * 1e3,
                "ingress.rejected": tally.rejected,
                "ledger.trace_overhead": _trace_overhead(tally.traced_walls, tally.walls),
            },
        )
    if not tally.walls:
        errors.append("no height was timed")
    return Outcome(
        attempted=attempted,
        failed=failed,
        end_to_end=end_to_end,
        per_layer=per_layer,
        notes=tally.notes,
        errors=errors,
        recorder=recorder,
    )


def run_live(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    return asyncio.run(_run_live(seed, seconds, trace, workdir))


WORKLOADS = {
    SIM_N13_REAL.name: lambda *args: run_sim(SIM_N13_REAL, *args),
    SIM_N31_FAST_CRASH.name: lambda *args: run_sim(SIM_N31_FAST_CRASH, *args),
    LIVE_NAME: run_live,
}
