"""Which program functions each layer's spans wrap, and the per-layer metrics.

Span names start with the layer prefix of ``spans.LAYER_OF_PREFIX``:
``crypto.*`` (each party's Keyring), ``pool.*`` (MessagePool public
methods), ``protocol.on_receive`` (ICC0Party), ``sim.*`` (EventQueue and
the simulated Network), ``net.*`` (framing codec and TcpNetwork) and
``ingress.*`` (RequestBatcher).
"""

from __future__ import annotations

from repro.core import MessagePool
from repro.net import framing, transport

from .metrics import PER_LAYER, POOL_METHODS_REPORTED
from .spans import Patches, SpanRecorder, ledger

KEYRING_SIGN = ("sign_auth", "sign_notary_share", "sign_final_share", "sign_beacon_share")
KEYRING_VERIFY = (
    "verify_auth", "verify_notary_share", "verify_notary", "verify_final_share",
    "verify_final", "verify_beacon_share", "verify_beacon",
)
KEYRING_VERIFY_BATCH = (
    "verify_auth_batch", "verify_notary_share_batch", "verify_final_share_batch",
    "verify_beacon_share_batch",
)
KEYRING_COMBINE = ("combine_notary", "combine_final", "combine_beacon")

#: Every public MessagePool method except ``add`` (its own span) and the
#: construction-time ``bind_tracing``.
POOL_QUERIES = tuple(
    sorted(
        name
        for name, value in vars(MessagePool).items()
        if callable(value) and not name.startswith("_") and name not in ("add", "bind_tracing")
    )
)


def _one(args, result) -> int:
    return 1


def _batch_items(args, result) -> int:
    return len(args[0])


def _accepted(args, result) -> int:
    return 1 if result else 0


def _frame_bytes(args, result) -> int:
    return len(result)


def instrument_party(patches: Patches, party) -> None:
    """Protocol, pool and crypto spans of one ICC0 party."""
    patches.add(party, "on_receive", "protocol.on_receive")
    keys = party.keys
    for method in KEYRING_SIGN:
        patches.add(keys, method, "crypto.sign")
    for method in KEYRING_VERIFY:
        patches.add(keys, method, "crypto.verify", ("crypto.verify.items", _one))
    for method in KEYRING_VERIFY_BATCH:
        patches.add(keys, method, "crypto.verify", ("crypto.verify.items", _batch_items))
    for method in KEYRING_COMBINE:
        patches.add(keys, method, "crypto.combine")
    pool = party.pool
    patches.add(pool, "add", "pool.add", ("pool.add.accepted", _accepted))
    for method in POOL_QUERIES:
        patches.add(pool, method, f"pool.{method}")


def instrument_sim(patches: Patches, cluster) -> None:
    """Event-queue and simulated-network spans."""
    events = cluster.sim.events
    patches.add(events, "schedule", "sim.queue.schedule")
    patches.add(events, "pop", "sim.queue.pop")
    patches.add(cluster.network, "broadcast", "sim.network.broadcast")
    patches.add(cluster.network, "send", "sim.network.send")


def instrument_codec(patches: Patches) -> None:
    """Codec spans: the framing functions as the transport calls them."""
    patches.add(transport, "message_frame", "net.codec.encode", ("net.codec.bytes", _frame_bytes))
    patches.add(transport, "decode_payload", "net.codec.decode")
    patches.add(framing.FrameDecoder, "feed", "net.codec.decode")


def instrument_transport(patches: Patches, network) -> None:
    """Send-path spans of one party's TcpNetwork."""
    patches.add(network, "broadcast", "net.transport.send")
    patches.add(network, "send", "net.transport.send")


def instrument_ingress(patches: Patches, batcher, parties) -> None:
    """RequestBatcher spans, at the attributes the parties call them through."""
    patches.add(batcher, "admit_batch", "ingress.admit")
    for party in parties:
        patches.add(party, "payload_source", "ingress.payload_source")
        patches.add(party.pool, "payload_verifier", "ingress.verify_block")


def layer_metrics(
    recorder: SpanRecorder, heights: int, wall_ns: int, extra: dict[str, float]
) -> dict[str, float]:
    """Every per-layer metric from the spans of ``heights`` traced heights
    that took ``wall_ns`` in all; ``extra`` supplies the ones counted by
    the program itself or sampled by the workload.  Layers that did not
    run report 0."""
    totals = recorder.totals()
    tallies = recorder.tallies

    def calls(*names: str) -> float:
        return sum(totals.get(name, (0, 0))[0] for name in names) / heights

    def self_ms(*names: str) -> float:
        return sum(totals.get(name, (0, 0))[1] for name in names) / 1e6 / heights

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    pool_queries = [f"pool.{m}" for m in POOL_QUERIES]
    verify_calls = totals.get("crypto.verify", (0, 0))[0]
    add_calls = totals.get("pool.add", (0, 0))[0]
    _layers, residual_ns = ledger(totals, wall_ns)
    metrics = {
        "crypto.verify.calls": calls("crypto.verify"),
        "crypto.verify.items": tallies["crypto.verify.items"] / heights,
        "crypto.verify.self_ms": self_ms("crypto.verify"),
        "crypto.items_per_verify_call": ratio(tallies["crypto.verify.items"], verify_calls),
        "crypto.sign.calls": calls("crypto.sign"),
        "crypto.sign.self_ms": self_ms("crypto.sign"),
        "crypto.combine.calls": calls("crypto.combine"),
        "crypto.combine.self_ms": self_ms("crypto.combine"),
        "pool.add.calls": calls("pool.add"),
        "pool.add.accepted_ratio": ratio(tallies["pool.add.accepted"], add_calls),
        "pool.add.self_ms": self_ms("pool.add"),
        "pool.query.calls": calls(*pool_queries),
        "pool.query.self_ms": self_ms(*pool_queries),
        **{f"pool.{m}.self_ms": self_ms(f"pool.{m}") for m in POOL_METHODS_REPORTED},
        "protocol.on_receive.calls": calls("protocol.on_receive"),
        "protocol.self_ms": self_ms("protocol.on_receive"),
        "sim.queue.self_ms": self_ms("sim.queue.schedule", "sim.queue.pop"),
        "sim.network.self_ms": self_ms("sim.network.broadcast", "sim.network.send"),
        "net.codec.encode.self_ms": self_ms("net.codec.encode"),
        "net.codec.decode.self_ms": self_ms("net.codec.decode"),
        "net.codec.bytes_per_height": tallies["net.codec.bytes"] / heights,
        "net.transport.send.self_ms": self_ms("net.transport.send"),
        "net.transport.frames_per_height": calls("net.codec.encode"),
        "ingress.admit.self_ms": self_ms("ingress.admit"),
        "ingress.payload_source.self_ms": self_ms("ingress.payload_source"),
        "ingress.verify_block.self_ms": self_ms("ingress.verify_block"),
        "ledger.height_ms": wall_ns / 1e6 / heights,
        "ledger.residual_share": ratio(residual_ns, wall_ns),
    }
    metrics.update(extra)
    missing = set(PER_LAYER) - set(metrics)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: metrics[name] for name in PER_LAYER}
