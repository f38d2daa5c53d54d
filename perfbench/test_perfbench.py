"""Tests for the benchmark itself: span arithmetic, ledger, checks, contract.

Run from the root of the checkout: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import statistics

import pytest

from perfbench import checks
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.spans import Patches, SpanRecorder, ledger

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    """Advances by one tick per reading."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        self.now += 1
        return self.now


# ------------------------------------------------------------------ spans


def test_self_time_subtracts_direct_children_only():
    rec = SpanRecorder()
    root = rec.record("pool.add", 0, 100)
    child = rec.record("crypto.verify", 10, 40, parent=root)
    rec.record("crypto.combine", 20, 30, parent=child)
    rec.record("sim.queue.pop", 50, 60, parent=root)
    assert rec.self_times() == [60, 20, 10, 10]
    assert rec.totals() == {
        "pool.add": (1, 60),
        "crypto.verify": (1, 20),
        "crypto.combine": (1, 10),
        "sim.queue.pop": (1, 10),
    }


def test_wrapped_calls_record_nesting_and_tallies():
    rec = SpanRecorder(clock=FakeClock())
    inner = rec.wrap("crypto.verify", lambda items: True, ("crypto.verify.items", lambda a, r: len(a[0])))
    outer = rec.wrap("pool.add", lambda: inner([1, 2, 3]) and inner([4]))
    assert outer() is True
    names = [rec.names[i] for i in rec.name_ids]
    assert names == ["pool.add", "crypto.verify", "crypto.verify"]
    assert list(rec.parents) == [-1, 0, 0]
    # Clock readings: outer 1..6, inner 2..3 and 4..5.
    assert rec.self_times() == [3, 1, 1]
    assert rec.tallies["crypto.verify.items"] == 4


def test_span_closes_when_the_call_raises():
    rec = SpanRecorder(clock=FakeClock())

    def boom():
        raise ValueError("bad frame")

    with pytest.raises(ValueError):
        rec.wrap("net.codec.decode", boom)()
    assert list(rec.ends) == [2]
    outer = rec.wrap("pool.add", lambda: 1)
    outer()
    assert rec.parents[-1] == -1


def test_ledger_layers_and_residual_sum_to_wall_time():
    rec = SpanRecorder()
    root = rec.record("protocol.on_receive", 0, 50)
    rec.record("pool.add", 5, 25, parent=root)
    rec.record("sim.queue.pop", 60, 70)
    rec.record("net.codec.encode", 70, 75)
    layers, residual = ledger(rec.totals(), 100)
    assert layers["core.icc0"] == 30
    assert layers["core.pool"] == 20
    assert layers["sim"] == 10
    assert layers["net"] == 5
    assert layers["crypto"] == layers["workloads"] == 0
    assert sum(layers.values()) + residual == 100
    assert residual == 35


def test_patches_switch_off_to_the_original_attributes():
    class Pool:
        def add(self, message):
            return message

    pool = Pool()
    pool.verifier = len
    rec = SpanRecorder()
    patches = Patches(rec)
    patches.add(pool, "add", "pool.add")
    patches.add(pool, "verifier", "ingress.verify_block")
    patches.on()
    assert pool.add(3) == 3 and pool.verifier("ab") == 2
    patches.off()
    assert "add" not in vars(pool)
    assert pool.verifier is len
    pool.add(4)
    assert len(rec) == 2


# ----------------------------------------------------------------- checks


def test_percentile_interpolates_like_inclusive_quantiles():
    values = [7.0, 1.0, 3.0, 9.0, 5.0]
    assert checks.percentile(values, 0.0) == 1.0
    assert checks.percentile(values, 1.0) == 9.0
    assert checks.percentile(values, 0.5) == 5.0
    cuts = statistics.quantiles(values, n=4, method="inclusive")
    assert [checks.percentile(values, q) for q in (0.25, 0.5, 0.75)] == cuts
    assert checks.percentile([4.0], 0.99) == 4.0
    with pytest.raises(ValueError):
        checks.percentile([], 0.5)


def test_prefix_check_fails_on_a_diverged_chain():
    a, b, c = b"a" * 32, b"b" * 32, b"c" * 32
    assert checks.prefix_consistent([[a, b], [a], [a, b, c]])
    assert not checks.prefix_consistent([[a, b], [a, c]])


def test_requests_balance_when_every_one_is_committed_or_missing():
    tally = checks.balance_requests({b"r1", b"r2", b"r3"}, [b"r1", b"r2"], [b"r1", b"r2"])
    assert (tally.committed, tally.failed, tally.balanced) == (2, 1, True)


def test_duplicate_commit_unbalances_the_requests():
    tally = checks.balance_requests({b"r1", b"r2"}, [b"r1", b"r2"], [b"r1", b"r2", b"r1"])
    assert tally.failed == 1
    assert not tally.balanced
    assert any("duplicate" in e for e in tally.errors)


def test_completion_without_chain_backing_fails():
    tally = checks.balance_requests({b"r1"}, [b"r1"], [])
    assert not tally.balanced
    tally = checks.balance_requests({b"r1"}, [], [b"r1"])
    assert not tally.balanced
    tally = checks.balance_requests({b"r1"}, [b"r1"], [b"r1", b"zz"])
    assert any("never offered" in e for e in tally.errors)


def test_recorded_chain_must_agree_on_the_common_prefix(tmp_path):
    path = str(tmp_path / "chains.json")
    a, b, c = b"a" * 32, b"b" * 32, b"c" * 32
    assert checks.check_recorded_chain(path, "w/1", [a, b]) is None
    assert checks.check_recorded_chain(path, "w/1", [a]) is None
    assert checks.check_recorded_chain(path, "w/1", [a, b, c]) is None
    assert checks.check_recorded_chain(path, "w/2", [c]) is None
    assert checks.check_recorded_chain(path, "w/1", [a, c]) is not None
    with open(path, encoding="utf-8") as fh:
        assert len(json.load(fh)["w/1"]) == 3


# ---------------------------------------------------------------- contract


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    from perfbench.workloads import WORKLOADS

    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["sim-n31-fast-crash", "live-tcp-n4"])
def test_short_run_reports_every_metric(tmp_path, workload, trace):
    from perfbench.workloads import WORKLOADS

    outcome = WORKLOADS[workload](3, 1.0, trace, str(tmp_path))
    assert outcome.errors == []
    assert outcome.failed == 0 and outcome.attempted > 0
    if trace:
        assert set(outcome.per_layer) == set(PER_LAYER)
        assert outcome.per_layer["ledger.residual_share"] > 0
    else:
        assert set(outcome.end_to_end) == set(END_TO_END)
        assert all(value > 0 for value in outcome.end_to_end.values())
