"""The benchmark's metric names and units (``BENCHMARK.json`` mirrors them).

``METRICS.md`` in this directory says what each one measures, which layer
it belongs to and which end-to-end metric it should move on which workload.
"""

#: Reported by the untraced run (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "heights_per_s": "1/s",
    "height_ms_p50": "ms",
    "height_cost_growth": "ratio",
    "peak_rss_mb": "MB",
    "request_ms_p50": "ms",
    "request_ms_p99": "ms",
    "completed_share": "ratio",
}

#: Costliest public ``MessagePool`` queries, reported one by one.
POOL_METHODS_REPORTED = (
    "rounds_with_final_activity",
    "combinable_finalization",
    "combinable_notarization",
    "valid_blocks",
    "notarized_blocks",
    "finalized_blocks",
    "beacon_share_count",
)

_MS = "ms/height"
_N = "count/height"

#: Reported by the traced run (``--trace 1``).  Per-height values are taken
#: over the traced heights only.
PER_LAYER = {
    "crypto.verify.calls": _N,
    "crypto.verify.items": _N,
    "crypto.verify.self_ms": _MS,
    "crypto.items_per_verify_call": "ratio",
    "crypto.sign.calls": _N,
    "crypto.sign.self_ms": _MS,
    "crypto.combine.calls": _N,
    "crypto.combine.self_ms": _MS,
    "pool.add.calls": _N,
    "pool.add.accepted_ratio": "ratio",
    "pool.add.self_ms": _MS,
    "pool.query.calls": _N,
    "pool.query.self_ms": _MS,
    **{f"pool.{method}.self_ms": _MS for method in POOL_METHODS_REPORTED},
    "pool.artifacts.end": "count",
    "protocol.on_receive.calls": _N,
    "protocol.self_ms": _MS,
    "protocol.blocks_per_height": _N,
    "sim.events_per_height": _N,
    "sim.queue.self_ms": _MS,
    "sim.network.self_ms": _MS,
    "sim.msgs_per_height": _N,
    "sim.bytes_per_height": "B/height",
    "net.codec.encode.self_ms": _MS,
    "net.codec.decode.self_ms": _MS,
    "net.codec.bytes_per_height": "B/height",
    "net.transport.send.self_ms": _MS,
    "net.transport.frames_per_height": _N,
    "net.transport.backlog_max": "count",
    "net.transport.reconnects": "count",
    "net.transport.frames_rejected": "count",
    "net.loop_lag_ms_p99": "ms",
    "ingress.admit.self_ms": _MS,
    "ingress.payload_source.self_ms": _MS,
    "ingress.verify_block.self_ms": _MS,
    "ingress.requests_per_block": "ratio",
    "ingress.rejected": "count",
    "ledger.height_ms": _MS,
    "ledger.residual_share": "ratio",
    "ledger.trace_overhead": "ratio",
}
