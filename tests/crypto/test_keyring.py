"""Backend-parity tests: the fast and real keyrings must be interchangeable.

Every behaviour the protocol observes is tested against both backends via
parametrized fixtures — this is what justifies running large experiments on
the fast backend (DESIGN.md §2).
"""

from __future__ import annotations

import pytest

from repro.crypto import field, multisig, schnorr, threshold
from repro.crypto.field import is_probable_prime
from repro.crypto.keyring import generate_keyrings


@pytest.fixture(params=["fast", "real"], scope="module")
def rings(request):
    return generate_keyrings(4, 1, seed=5, backend=request.param)


class TestAuth:
    def test_sign_verify(self, rings):
        sig = rings[0].sign_auth(b"block")
        assert rings[1].verify_auth(1, b"block", sig)

    def test_wrong_signer_rejected(self, rings):
        sig = rings[0].sign_auth(b"block")
        assert not rings[1].verify_auth(2, b"block", sig)

    def test_wrong_message_rejected(self, rings):
        sig = rings[0].sign_auth(b"block")
        assert not rings[1].verify_auth(1, b"other", sig)

    def test_out_of_range_signer_rejected(self, rings):
        sig = rings[0].sign_auth(b"block")
        assert not rings[1].verify_auth(0, b"block", sig)
        assert not rings[1].verify_auth(5, b"block", sig)


class TestNotaryAndFinal:
    def test_notary_quorum_roundtrip(self, rings):
        m = b"notarize-me"
        shares = [r.sign_notary_share(m) for r in rings[:3]]  # n - t = 3
        assert all(rings[0].verify_notary_share(m, s) for s in shares)
        agg = rings[0].combine_notary(m, shares)
        assert rings[3].verify_notary(m, agg)

    def test_notary_under_quorum_raises(self, rings):
        m = b"notarize-me"
        shares = [r.sign_notary_share(m) for r in rings[:2]]
        with pytest.raises(ValueError):
            rings[0].combine_notary(m, shares)

    def test_notary_aggregate_wrong_message(self, rings):
        m = b"notarize-me"
        agg = rings[0].combine_notary(m, [r.sign_notary_share(m) for r in rings[:3]])
        assert not rings[1].verify_notary(b"else", agg)

    def test_final_is_independent_instance(self, rings):
        """A notary share must not verify as a finalization share."""
        m = b"message"
        notary_share = rings[0].sign_notary_share(m)
        assert not rings[1].verify_final_share(m, notary_share)

    def test_final_quorum_roundtrip(self, rings):
        m = b"finalize-me"
        shares = [r.sign_final_share(m) for r in rings[:3]]
        agg = rings[0].combine_final(m, shares)
        assert rings[2].verify_final(m, agg)


class TestBeacon:
    def test_quorum_is_t_plus_1(self, rings):
        m = b"beacon-round-1"
        shares = [r.sign_beacon_share(m) for r in rings[:2]]  # t + 1 = 2
        sig = rings[0].combine_beacon(m, shares)
        assert rings[3].verify_beacon(m, sig)

    def test_value_unique_across_subsets(self, rings):
        m = b"beacon-round-1"
        a = rings[0].combine_beacon(m, [r.sign_beacon_share(m) for r in rings[:2]])
        b = rings[0].combine_beacon(m, [r.sign_beacon_share(m) for r in rings[2:4]])
        assert rings[0].beacon_value(a) == rings[0].beacon_value(b)

    def test_values_differ_across_messages(self, rings):
        a = rings[0].combine_beacon(
            b"r1", [r.sign_beacon_share(b"r1") for r in rings[:2]]
        )
        b = rings[0].combine_beacon(
            b"r2", [r.sign_beacon_share(b"r2") for r in rings[:2]]
        )
        assert rings[0].beacon_value(a) != rings[0].beacon_value(b)

    def test_share_index(self, rings):
        share = rings[2].sign_beacon_share(b"m")
        assert rings[0].share_index(share) == 3

    def test_single_share_insufficient(self, rings):
        with pytest.raises(ValueError):
            rings[0].combine_beacon(b"m", [rings[0].sign_beacon_share(b"m")])


class TestFactory:
    def test_t_bound_enforced(self):
        with pytest.raises(ValueError):
            generate_keyrings(3, 1)  # 3t >= n

    def test_t_zero_allowed(self):
        rings = generate_keyrings(3, 0)
        assert len(rings) == 3

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            generate_keyrings(4, 1, backend="quantum")

    def test_deterministic_per_seed(self):
        a = generate_keyrings(4, 1, seed=1)
        b = generate_keyrings(4, 1, seed=1)
        assert a[0].sign_auth(b"x") == b[0].sign_auth(b"x")

    def test_seeds_differ(self):
        a = generate_keyrings(4, 1, seed=1)
        b = generate_keyrings(4, 1, seed=2)
        assert a[0].sign_auth(b"x") != b[0].sign_auth(b"x")


class TestBatchVerification:
    """Both backends expose the batch API; results match the single path."""

    def test_auth_batch(self, rings):
        items = [(i, b"m%d" % i, rings[i - 1].sign_auth(b"m%d" % i)) for i in (1, 2, 3)]
        items.append((2, b"m1", items[0][2]))  # signer-1 sig claimed by 2
        report = rings[0].verify_auth_batch(items)
        assert report.results == [True, True, True, False]
        assert report.stats.count == 4 and report.stats.invalid == 1

    def test_notary_share_batch_matches_single(self, rings):
        items = [(b"msg", rings[i].sign_notary_share(b"msg")) for i in range(4)]
        items.append((b"other", items[0][1]))  # valid share, wrong message
        report = rings[0].verify_notary_share_batch(items)
        assert report.results == [
            rings[0].verify_notary_share(m, s) for m, s in items
        ]
        assert report.results == [True] * 4 + [False]

    def test_final_share_batch(self, rings):
        items = [(b"msg", rings[i].sign_final_share(b"msg")) for i in range(3)]
        assert rings[0].verify_final_share_batch(items).all_valid()
        # final and notary are independent scheme instances
        cross = [(b"msg", rings[0].sign_notary_share(b"msg"))]
        assert rings[0].verify_final_share_batch(cross).results == [False]

    def test_beacon_share_batch(self, rings):
        items = [(b"beacon", rings[i].sign_beacon_share(b"beacon")) for i in range(4)]
        bad = (b"beacon", rings[0].sign_beacon_share(b"not-beacon"))
        report = rings[0].verify_beacon_share_batch(items + [bad])
        assert report.results == [True] * 4 + [False]

    def test_empty_batch(self, rings):
        report = rings[0].verify_notary_share_batch([])
        assert report.results == [] and report.all_valid()

    def test_singleton_batch(self, rings):
        share = rings[1].sign_notary_share(b"solo")
        assert rings[0].verify_notary_share_batch([(b"solo", share)]).results == [True]


class TestResultCache:
    def test_repeat_verification_hits_cache(self):
        rings = generate_keyrings(4, 1, seed=5, backend="real", group_profile="test")
        ring = rings[0]
        share = rings[1].sign_notary_share(b"cached")
        assert ring.verify_notary_share(b"cached", share)
        misses = ring.cache_misses
        hits = ring.cache_hits
        assert ring.verify_notary_share(b"cached", share)
        assert ring.cache_hits == hits + 1
        assert ring.cache_misses == misses

    def test_batch_uses_cache(self):
        rings = generate_keyrings(4, 1, seed=5, backend="real", group_profile="test")
        ring = rings[0]
        items = [(b"msg", rings[i].sign_notary_share(b"msg")) for i in range(4)]
        first = ring.verify_notary_share_batch(items)
        assert first.all_valid()
        second = ring.verify_notary_share_batch(items)
        assert second.all_valid()
        assert second.stats.cache_hits == 4
        assert second.stats.cache_misses == 0

    def test_negative_verdicts_cached_too(self):
        rings = generate_keyrings(4, 1, seed=5, backend="real", group_profile="test")
        ring = rings[0]
        share = rings[1].sign_notary_share(b"one-message")
        assert not ring.verify_notary_share(b"another-message", share)
        hits = ring.cache_hits
        assert not ring.verify_notary_share(b"another-message", share)
        assert ring.cache_hits == hits + 1


class TestAggregatesFromShareVerdicts:
    """Aggregates are checked against the party's own share verdicts: the
    carried shares go through the same result cache as share verification,
    and the verdicts equal the stateless verifiers'."""

    N, T = 4, 1

    @pytest.fixture
    def rings(self):
        return generate_keyrings(self.N, self.T, seed=7, backend="real")

    @staticmethod
    def _forged(share):
        """``share`` with its Schnorr response bumped: never valid."""
        sig = share.signature
        return multisig.MultisigShare(
            index=share.index,
            signature=schnorr.SchnorrSignature(sig.commitment, sig.response + 1),
        )

    def test_no_primality_tests_on_the_signing_path(self, rings, monkeypatch):
        ring = rings[0]
        beacon = [r.sign_beacon_share(b"warm") for r in rings[: self.T + 1]]
        ring.combine_beacon(b"warm", beacon)
        calls = []

        def counting(n):
            calls.append(n)
            return is_probable_prime(n)

        monkeypatch.setattr(field, "is_probable_prime", counting)
        for i in range(5):
            msg = b"m%d" % i
            ring.sign_auth(msg)
            ring.sign_notary_share(msg)
            ring.sign_final_share(msg)
            ring.sign_beacon_share(msg)
            ring.combine_beacon(msg, beacon)
        assert calls == []

    def test_combined_shares_hit_the_cache(self, rings):
        ring = rings[0]
        m = b"notarize"
        quorum = self.N - self.T
        shares = [r.sign_notary_share(m) for r in rings[:quorum]]
        assert ring.verify_notary_share_batch([(m, s) for s in shares]).all_valid()
        agg = ring.combine_notary(m, shares)
        hits, misses = ring.cache_hits, ring.cache_misses
        assert ring.verify_notary(m, agg)
        assert ring.cache_misses == misses + 1  # the aggregate's own entry
        assert ring.cache_hits == hits + quorum

    def test_unseen_forged_share_rejected(self, rings):
        ring = rings[0]
        m = b"notarize"
        shares = [r.sign_notary_share(m) for r in rings[: self.N - self.T]]
        ring.verify_notary_share_batch([(m, s) for s in shares[:-1]])
        forged = shares[:-1] + [self._forged(shares[-1])]
        assert not ring.verify_notary(m, multisig.Multisignature(tuple(forged)))

    def test_share_judged_invalid_rejected_from_cache(self, rings):
        ring = rings[0]
        m = b"finalize"
        shares = [r.sign_final_share(m) for r in rings[: self.N - self.T]]
        shares[-1] = self._forged(shares[-1])
        verdicts = ring.verify_final_share_batch([(m, s) for s in shares])
        assert verdicts.results == [True, True, False]
        hits, misses = ring.cache_hits, ring.cache_misses
        assert not ring.verify_final(m, multisig.Multisignature(tuple(shares)))
        assert ring.cache_misses == misses + 1
        assert ring.cache_hits == hits + len(shares)

    def _multisig_cases(self, rings, m, sign):
        quorum = self.N - self.T
        shares = [sign(r, m) for r in rings]
        other = [sign(r, b"other") for r in rings]
        return [
            multisig.Multisignature(tuple(shares[:quorum])),
            multisig.Multisignature(tuple(shares)),
            multisig.Multisignature(tuple(shares[: quorum - 1] + [self._forged(shares[2])])),
            multisig.Multisignature(tuple(shares[: quorum - 1] + other[2:3])),
            multisig.Multisignature(()),
            multisig.Multisignature(tuple(shares[:1] * quorum)),
            multisig.Multisignature(tuple(shares[: quorum - 1])),
        ]

    @pytest.mark.parametrize("scheme", ["notary", "final"])
    def test_multisig_verdicts_match_stateless_oracle(self, rings, scheme):
        ring, m = rings[0], b"agg"
        sign = getattr(type(ring), f"sign_{scheme}_share")
        verify = getattr(ring, f"verify_{scheme}")
        verify_share = getattr(ring, f"verify_{scheme}_share")
        pk = getattr(ring._shared, f"{scheme}_pk")
        cases = self._multisig_cases(rings, m, sign)
        verify_share(m, cases[0].shares[0])  # some shares already judged
        verdicts = [verify(m, agg) for agg in cases]
        oracle = [ring._suite.multisig.verify(pk, m, agg) for agg in cases]
        assert verdicts == oracle
        assert verdicts == [True, True, False, False, False, False, False]

    def test_beacon_verdicts_match_stateless_oracle(self, rings):
        ring, m = rings[0], b"beacon"
        pk = ring._shared.beacon_pk
        h = self.T + 1
        shares = [r.sign_beacon_share(m) for r in rings]
        good = ring.combine_beacon(m, shares[:h])
        bad_proof = threshold.SignatureShare(
            index=shares[1].index,
            value=shares[1].value,
            proof=rings[1].sign_beacon_share(b"other").proof,
        )
        cases = [
            good,
            ring.combine_beacon(m, shares[2:]),
            threshold.ThresholdSignature(good.value, (shares[0], bad_proof)),
            threshold.ThresholdSignature(
                good.value, (shares[0], rings[1].sign_beacon_share(b"other"))
            ),
            threshold.ThresholdSignature(good.value, ()),
            threshold.ThresholdSignature(good.value, (shares[0], shares[0])),
            threshold.ThresholdSignature(good.value * 2 % pk.group.p, good.shares),
        ]
        ring.verify_beacon_share(m, shares[0])  # some shares already judged
        verdicts = [ring.verify_beacon(m, sig) for sig in cases]
        oracle = [ring._suite.threshold.verify(pk, m, sig) for sig in cases]
        assert verdicts == oracle
        assert verdicts == [True, True, False, False, False, False, False]
