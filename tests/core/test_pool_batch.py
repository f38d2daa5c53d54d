"""Tests for the pool's lazy share verification.

The contract (see ``repro.core.pool``'s docstring): a share's crypto is
deferred until a query reads its block hash (beacon shares: its round),
the query verifies exactly those queued shares with one batch call, the
shares it keeps are exactly those the per-item oracle
(``Keyring.verify_*_share``) accepts, and each batch call emits a
``crypto.batch_verify`` trace event.
"""

from __future__ import annotations

from repro.core import messages as msg
from repro.core.messages import BeaconShare, FinalizationShare, NotarizationShare
from repro.core.pool import MessagePool
from repro.crypto.keyring import generate_keyrings
from repro.obs import Tracer
from repro.sim.simulator import Simulation

from .test_pool import Forge


def _forged_notar_share(forge, block, signer):
    # Signed over a different message than the share's fields claim.
    other = forge.block(round=block.round + 7, proposer=3)
    signed = msg.notarization_message(other.round, other.proposer, other.hash)
    return NotarizationShare(
        round=block.round,
        proposer=block.proposer,
        block_hash=block.hash,
        signer=signer,
        share=forge.rings[signer - 1].sign_notary_share(signed),
    )


def _forged_final_share(forge, block, signer):
    return FinalizationShare(
        round=block.round,
        proposer=block.proposer,
        block_hash=block.hash,
        signer=signer,
        share=forge.rings[signer - 1].sign_final_share(b"not-the-finalization"),
    )


def _forged_beacon_share(forge, round, signer):
    return BeaconShare(
        round=round,
        signer=signer,
        share=forge.rings[signer - 1].sign_beacon_share(b"not-the-beacon-message"),
    )


def _oracle(forge):
    """Per-item verification through a keyring the pool never uses, so
    its verdicts cannot come from the pool's own verdict cache."""
    return forge.rings[3]


class TestLazyEagerParity:
    """The lazy pool keeps exactly the shares eager per-item verification
    accepts."""

    def test_notar_shares_identical(self):
        forge = Forge()
        pool = MessagePool(forge.rings[0])
        block = forge.block()
        assert pool.add(block)
        shares = [
            forge.notar_share(block, 1),
            _forged_notar_share(forge, block, 2),
            forge.notar_share(block, 3),
        ]
        for share in shares:
            assert pool.add(share)  # structural checks only
        oracle = _oracle(forge)
        accepted = {
            s.signer
            for s in shares
            if oracle.verify_notary_share(
                msg.notarization_message(s.round, s.proposer, s.block_hash), s.share
            )
        }
        assert accepted == {1, 3}
        assert pool.notar_share_count(block.hash) == len(accepted)
        assert {s.signer for s in pool.notar_shares(block.hash)} == accepted
        assert pool.stats.invalid_dropped == len(shares) - len(accepted)
        # One block, one authenticator-free pool: artifacts = root + block
        # + the verified shares.
        assert pool.artifact_count() == 2 + len(accepted)

    def test_final_and_beacon_parity(self):
        forge = Forge()
        pool = MessagePool(forge.rings[0])
        oracle = _oracle(forge)
        block = forge.block()
        pool.add(block)
        finals = [
            forge.final_share(block, 1),
            forge.final_share(block, 2),
            _forged_final_share(forge, block, 3),
        ]
        beacons = [
            forge.beacon_share(1, 1),
            _forged_beacon_share(forge, 1, 2),
            forge.beacon_share(1, 4),
        ]
        # Round-2 beacon shares arrive before R_1 is known: buffered, then
        # verified as one batch at the reveal.
        value1 = b"\x22" * 32
        buffered = [
            forge.beacon_share(2, 2, previous=value1),
            _forged_beacon_share(forge, 2, 3),
            forge.beacon_share(2, 4, previous=b"\x23" * 32),  # wrong R_1
        ]
        for share in finals + beacons + buffered:
            assert pool.add(share)
        assert pool.stats.buffered_beacon_shares == len(buffered)
        pool.set_beacon_value(1, value1)

        final_ok = {
            s.signer
            for s in finals
            if oracle.verify_final_share(
                msg.finalization_message(s.round, s.proposer, s.block_hash), s.share
            )
        }
        beacon_ok = {
            r: {
                s.signer
                for s in group
                if oracle.verify_beacon_share(msg.beacon_message(r, prev), s.share)
            }
            for r, prev, group in (
                (1, pool.beacon_value(0), beacons), (2, value1, buffered),
            )
        }
        assert final_ok == {1, 2}
        assert beacon_ok == {1: {1, 4}, 2: {2}}
        assert pool.final_share_count(block.hash) == len(final_ok)
        assert {s.signer for s in pool.final_shares(block.hash)} == final_ok
        for round, signers in beacon_ok.items():
            assert pool.beacon_share_count(round) == len(signers)
            assert {s.signer for s in pool.beacon_shares_for(round)} == signers
        assert pool.stats.invalid_dropped == 4

    def test_duplicate_of_pending_share_rejected(self):
        forge = Forge()
        pool = MessagePool(forge.rings[0])
        share = forge.notar_share(forge.block(), 2)
        assert pool.add(share)          # queued, not yet verified
        assert not pool.add(share)      # duplicate detected against the queue
        assert pool.stats.duplicates == 1


class TestForgedSharesAtFlush:
    def test_forged_share_dropped_at_flush(self):
        forge = Forge()
        pool = MessagePool(forge.rings[0])
        block = forge.block()
        pool.add(block)
        assert pool.add(forge.notar_share(block, 1))
        assert pool.add(_forged_notar_share(forge, block, 2))  # queued!
        assert pool.add(forge.notar_share(block, 3))
        dropped_before = pool.stats.invalid_dropped
        assert pool.notar_share_count(block.hash) == 2  # verified here
        assert pool.stats.invalid_dropped == dropped_before + 1
        assert {s.signer for s in pool.notar_shares(block.hash)} == {1, 3}

    def test_flush_emits_trace_events(self):
        forge = Forge()
        pool = MessagePool(forge.rings[0])
        tracer = Tracer()
        pool.bind_tracing(tracer, Simulation(), party=1, protocol="test")
        block = forge.block()
        pool.add(block)
        pool.add(forge.notar_share(block, 1))
        pool.add(_forged_notar_share(forge, block, 2))
        assert not any(e.kind == "crypto.batch_verify" for e in tracer.events())
        assert pool.combinable_notarization(block.round, quorum=1) is None  # not valid
        kinds = [e.kind for e in tracer.events()]
        assert kinds.count("crypto.batch_verify") == 1
        assert "pool.invalid" in kinds
        batch_event = next(e for e in tracer.events() if e.kind == "crypto.batch_verify")
        assert batch_event.payload["scheme"] == "notary"
        assert batch_event.payload["count"] == 2
        assert batch_event.payload["invalid"] == 1
        # Nothing is left to verify: a second query makes no batch call.
        assert pool.notar_share_count(block.hash) == 1
        assert [e.kind for e in tracer.events()].count("crypto.batch_verify") == 1

    def test_real_backend_forged_share(self):
        rings = generate_keyrings(4, 1, seed=7, backend="real", group_profile="test")
        pool = MessagePool(rings[0])
        signed = msg.notarization_message(1, 1, b"\x11" * 32)
        good = NotarizationShare(
            round=1, proposer=1, block_hash=b"\x11" * 32, signer=2,
            share=rings[1].sign_notary_share(signed),
        )
        forged = NotarizationShare(
            round=1, proposer=1, block_hash=b"\x11" * 32, signer=3,
            share=rings[2].sign_notary_share(b"some-other-message"),
        )
        assert pool.add(good)
        assert pool.add(forged)  # passes structural checks, queued
        assert pool.notar_share_count(b"\x11" * 32) == 1
        assert {s.signer for s in pool.notar_shares(b"\x11" * 32)} == {2}


class TestTargetedFlush:
    def test_query_flushes_only_its_own_key(self):
        forge = Forge()
        pool = MessagePool(forge.rings[0])
        block_a = forge.block(round=1, proposer=1)
        block_b = forge.block(round=2, proposer=2)
        pool.add(block_a)
        pool.add(block_b)
        pool.add(forge.notar_share(block_a, 1))
        # A forged share for B stays queued — and undetected — until a
        # query observes B's key.
        pool.add(_forged_notar_share(forge, block_b, 2))
        dropped_before = pool.stats.invalid_dropped
        assert pool.notar_share_count(block_a.hash) == 1
        assert pool.stats.invalid_dropped == dropped_before  # B untouched
        assert pool.notar_share_count(block_b.hash) == 0
        assert pool.stats.invalid_dropped == dropped_before + 1

    def test_beacon_query_flushes_only_its_own_round(self):
        forge = Forge()
        pool = MessagePool(forge.rings[0])
        pool.set_beacon_value(1, b"\x44" * 32)
        pool.add(forge.beacon_share(1, 1))
        pool.add(_forged_beacon_share(forge, 2, 3))
        assert pool.beacon_share_count(1) == 1
        assert pool.stats.invalid_dropped == 0  # round 2 untouched
        assert pool.beacon_share_count(2) == 0
        assert pool.stats.invalid_dropped == 1


class TestBeaconReveal:
    def test_buffered_shares_verified_at_reveal(self):
        forge = Forge()
        pool = MessagePool(forge.rings[0])
        value1 = b"\x22" * 32
        signed2 = msg.beacon_message(2, value1)
        # Round-2 shares arrive before the round-1 beacon value is known.
        for signer in (1, 2):
            assert pool.add(
                BeaconShare(
                    round=2, signer=signer,
                    share=forge.rings[signer - 1].sign_beacon_share(signed2),
                )
            )
        assert pool.stats.buffered_beacon_shares == 2
        pool.set_beacon_value(1, value1)
        assert pool.beacon_share_count(2) == 2

    def test_garbage_buffered_share_dropped_at_reveal(self):
        forge = Forge()
        pool = MessagePool(forge.rings[0])
        value1 = b"\x33" * 32
        garbage = _forged_beacon_share(forge, 2, 1)
        assert pool.add(garbage)  # buffered: previous value unknown
        dropped_before = pool.stats.invalid_dropped
        pool.set_beacon_value(1, value1)
        assert pool.stats.invalid_dropped == dropped_before + 1
        assert pool.beacon_share_count(2) == 0
