"""TcpNetwork edge cases: real sockets, but millisecond-scale backoffs.

Every test runs a scenario coroutine under ``asyncio.run``; transports
are built with ``backoff_base=0.01`` so reconnect paths resolve in tens
of milliseconds, not the production 50 ms-to-2 s ladder.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro.net.clock import WallClock
from repro.net.config import free_local_ports
from repro.net.framing import (
    FrameDecoder,
    ack_frame,
    decode_payload,
    hello_frame,
    message_frame,
)
from repro.net.transport import SimulatorOnlyFeature, TcpNetwork
from repro.obs import Meter


class StubReceiver:
    def __init__(self, index: int) -> None:
        self.index = index
        self.received: list = []

    def on_receive(self, message) -> None:
        self.received.append(message)


async def until(predicate, timeout: float = 5.0) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            raise AssertionError("condition not reached within timeout")
        await asyncio.sleep(0.005)


async def make_net(
    index: int, peers: dict, *, cluster_id: str = "t", meter=None
) -> tuple[TcpNetwork, StubReceiver]:
    clock = WallClock(loop=asyncio.get_running_loop(), seed=index)
    if meter is not None:
        clock.meter = meter
    net = TcpNetwork(
        clock, index, peers, cluster_id=cluster_id,
        backoff_base=0.01, backoff_cap=0.05,
    )
    receiver = StubReceiver(index)
    await net.start()
    net.attach(receiver)
    return net, receiver


def peer_map(n: int) -> dict:
    ports = free_local_ports(n)
    return {i + 1: ("127.0.0.1", ports[i]) for i in range(n)}


def run(coro):
    return asyncio.run(coro)


class TestDelivery:
    def test_broadcast_reaches_all_including_self(self):
        async def scenario():
            peers = peer_map(3)
            nets = [await make_net(i, peers) for i in (1, 2, 3)]
            try:
                nets[0][0].broadcast(1, b"round-1-payload")
                await until(
                    lambda: all(len(r.received) == 1 for _, r in nets)
                )
                return [r.received[0] for _, r in nets]
            finally:
                for net, _ in nets:
                    await net.stop()

        assert run(scenario()) == [b"round-1-payload"] * 3

    def test_send_is_point_to_point(self):
        async def scenario():
            peers = peer_map(3)
            nets = [await make_net(i, peers) for i in (1, 2, 3)]
            try:
                nets[0][0].send(1, 3, b"direct")
                await until(lambda: nets[2][1].received == [b"direct"])
                await asyncio.sleep(0.02)  # grace: nothing leaks to party 2
                return [r.received for _, r in nets]
            finally:
                for net, _ in nets:
                    await net.stop()

        assert run(scenario()) == [[], [], [b"direct"]]

    def test_metrics_follow_simulator_conventions(self):
        """Broadcast counts n messages but n-1 wire copies, exactly like
        repro.sim.network.Network (docs/TRANSPORT.md comparison table)."""

        async def scenario():
            peers = peer_map(3)
            meter = Meter()
            net, _ = await make_net(1, peers, meter=meter)
            try:
                message = b"y" * 10
                net.broadcast(1, message)
                from repro.sim.network import wire_size

                size = wire_size(message)
                return (
                    sum(net.metrics.msgs_sent.values()),
                    sum(net.metrics.bytes_sent.values()),
                    meter.counter_value("net.messages"),
                    size,
                )
            finally:
                await net.stop()

        msgs, wire_bytes, metered, size = run(scenario())
        assert msgs == 3  # paper convention: a broadcast counts n messages
        assert wire_bytes == size * 2  # but only n-1 copies cross the wire
        assert metered == 3

    def test_sender_must_be_local_party(self):
        async def scenario():
            peers = peer_map(2)
            net, _ = await make_net(1, peers)
            try:
                with pytest.raises(ValueError, match="cannot send as"):
                    net.broadcast(2, "spoof")
            finally:
                await net.stop()

        run(scenario())


class TestReconnect:
    def test_disconnect_mid_broadcast_queues_and_redelivers(self):
        """Messages broadcast while a peer is down sit in its outbound
        queue and arrive, in order, once the peer comes back."""

        async def scenario():
            peers = peer_map(2)
            a, _ = await make_net(1, peers)
            b, rb = await make_net(2, peers)
            a.broadcast(1, b"first")
            await until(lambda: b"first" in rb.received)

            await b.stop()  # peer crashes mid-run
            a.broadcast(1, b"second")
            a.broadcast(1, b"third")
            await asyncio.sleep(0.03)  # a few failed redial cycles

            b2, rb2 = await make_net(2, peers)  # peer restarts, same port
            try:
                await until(lambda: rb2.received == [b"second", b"third"])
                return a.metrics.msgs_sent, rb2.received
            finally:
                await a.stop()
                await b2.stop()

        _, redelivered = run(scenario())
        assert redelivered == [b"second", b"third"]

    def test_reconnect_counted(self):
        async def scenario():
            peers = peer_map(2)
            meter = Meter()
            a, _ = await make_net(1, peers, meter=meter)
            b, rb = await make_net(2, peers)
            a.broadcast(1, b"one")
            await until(lambda: rb.received == [b"one"])
            await b.stop()
            await asyncio.sleep(0.03)
            b2, rb2 = await make_net(2, peers)
            a.broadcast(1, b"two")
            try:
                await until(lambda: rb2.received == [b"two"])
                return meter.counter_value("live.reconnects")
            finally:
                await a.stop()
                await b2.stop()

        assert run(scenario()) >= 1


class TestInbound:
    async def _raw_connect(self, net: TcpNetwork, index: int = 1,
                           cluster_id: str = "t"):
        host, port = net.peers[net.index]
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(hello_frame(index, cluster_id))
        await writer.drain()
        return reader, writer

    def test_duplicate_connection_newest_wins(self):
        async def scenario():
            peers = peer_map(2)
            meter = Meter()
            b, rb = await make_net(2, peers, meter=meter)
            try:
                r1, w1 = await self._raw_connect(b)
                w1.write(message_frame(1, "via-first"))
                await w1.drain()
                await until(lambda: rb.received == ["via-first"])

                _r2, w2 = await self._raw_connect(b)  # duplicate from party 1
                w2.write(message_frame(2, "via-second"))
                await w2.drain()
                await until(lambda: rb.received == ["via-first", "via-second"])
                # The superseded connection is closed server-side: it got
                # its ACK for seq 1, then EOF.
                tail = await asyncio.wait_for(r1.read(), 2.0)
                w2.close()
                return meter.counter_value("live.dup_connections"), tail
            finally:
                await b.stop()

        dups, tail = run(scenario())
        assert dups == 1
        # EOF, possibly after ACKs (timestamp fields vary): every frame
        # still on the superseded connection must be an ACK for seq 1.
        for body in FrameDecoder().feed(tail):
            kind, payload = decode_payload(body)
            assert kind == "ack" and payload[0] == 1

    def test_retransmitted_duplicates_deduped(self):
        """The receiver delivers each link sequence number once — a
        retransmitted tail after a lost-ACK reconnect is absorbed."""

        async def scenario():
            peers = peer_map(2)
            b, rb = await make_net(2, peers)
            try:
                _r, w = await self._raw_connect(b)
                w.write(message_frame(1, "m1"))
                w.write(message_frame(2, "m2"))
                # Sender never saw the ACK: it retransmits 1..3.
                w.write(message_frame(1, "m1"))
                w.write(message_frame(2, "m2"))
                w.write(message_frame(3, "m3"))
                await w.drain()
                await until(lambda: len(rb.received) == 3)
                await asyncio.sleep(0.02)  # grace: no late duplicates
                w.close()
                return rb.received
            finally:
                await b.stop()

        assert run(scenario()) == ["m1", "m2", "m3"]

    def test_oversized_frame_closes_connection(self):
        async def scenario():
            peers = peer_map(2)
            meter = Meter()
            b, rb = await make_net(2, peers, meter=meter)
            try:
                reader, writer = await self._raw_connect(b)
                writer.write((b.max_frame + 1).to_bytes(4, "big"))
                await writer.drain()
                eof = await asyncio.wait_for(reader.read(1), 2.0)
                await until(lambda: b.frames_rejected == 1)
                return eof, meter.counter_value("live.frames.rejected")
            finally:
                await b.stop()

        eof, rejected = run(scenario())
        assert eof == b""
        assert rejected == 1

    def test_wrong_cluster_id_rejected(self):
        async def scenario():
            peers = peer_map(2)
            b, rb = await make_net(2, peers)
            try:
                reader, writer = await self._raw_connect(
                    b, cluster_id="other-cluster"
                )
                writer.write(message_frame(1, "smuggled"))
                await writer.drain()
                eof = await asyncio.wait_for(reader.read(1), 2.0)
                return eof, b.frames_rejected, rb.received
            finally:
                await b.stop()

        eof, rejected, received = run(scenario())
        assert eof == b""
        assert rejected == 1
        assert received == []

    def test_message_before_hello_rejected(self):
        async def scenario():
            peers = peer_map(2)
            b, rb = await make_net(2, peers)
            try:
                host, port = peers[2]
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(message_frame(1, "anonymous"))
                await writer.drain()
                eof = await asyncio.wait_for(reader.read(1), 2.0)
                return eof, rb.received
            finally:
                await b.stop()

        eof, received = run(scenario())
        assert eof == b""
        assert received == []


class TestStop:
    def test_stop_awaits_accept_tasks_and_releases_network(self):
        """``stop`` returns only once every inbound accept task has
        finished, so nothing the event loop still holds keeps the stopped
        network (and through it the party and its pool) alive."""

        async def scenario():
            # One party and no peer links: stop() has nothing else to
            # await, so only its own wait on the accept tasks can let
            # them finish before it returns.
            net, _ = await make_net(1, peer_map(1))
            host, port = net.peers[1]
            clients = [await asyncio.open_connection(host, port) for _ in range(2)]
            await until(lambda: len(net._accept_tasks) == 2)
            accept_tasks = list(net._accept_tasks)
            await net.stop()
            pending = [task for task in accept_tasks if not task.done()]
            left = len(net._accept_tasks)
            for _, writer in clients:
                writer.close()
            stopped = weakref.ref(net)
            del net, accept_tasks
            gc.collect()
            return pending, left, stopped() is None

        pending, left, released = run(scenario())
        assert pending == []
        assert left == 0
        assert released


class TestSimulatorOnly:
    def test_fault_controls_raise_clearly(self):
        async def scenario():
            peers = peer_map(2)
            net, _ = await make_net(1, peers)
            try:
                with pytest.raises(SimulatorOnlyFeature, match="simulator-only"):
                    net.install_faults(object())
                with pytest.raises(SimulatorOnlyFeature):
                    net.crash(2)
                with pytest.raises(SimulatorOnlyFeature):
                    net.revive(2)
                with pytest.raises(SimulatorOnlyFeature):
                    net.add_partition({1}, 5.0)
                with pytest.raises(SimulatorOnlyFeature):
                    net.clear_faults()
            finally:
                await net.stop()

        run(scenario())

    def test_fault_injector_attach_fails(self):
        """The docs/FAULTS.md contract: attaching a simulator fault
        scenario to the live transport errors instead of silently doing
        nothing."""
        from repro.faults.inject import FaultInjector
        from repro.faults.scenario import LinkFault, Scenario

        async def scenario():
            peers = peer_map(2)
            net, _ = await make_net(1, peers)
            try:
                drill = Scenario(
                    name="live-drill", seed=1,
                    events=(LinkFault(start=0.0, end=1.0, drop_prob=0.5),),
                )
                with pytest.raises(SimulatorOnlyFeature):
                    FaultInjector(drill, net).install()
            finally:
                await net.stop()

        run(scenario())
