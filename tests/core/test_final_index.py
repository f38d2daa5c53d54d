"""The pool's finalization-round index and the watcher that reads it.

``MessagePool.rounds_with_final_activity(above)`` is served from an index
maintained on insert and trimmed by ``prune``; the Figure 2 watcher asks only
for rounds above its committed height.  These tests pin the index against a
from-scratch recomputation, pin that late shares for committed rounds are
never verified, and pin that the watcher's per-height work stays flat.
"""

from __future__ import annotations

import os
from random import Random

import pytest

from repro.adversary.behaviors import WithholdFinalizationMixin, corrupt_class
from repro.core import ClusterConfig, build_cluster
from repro.core import messages as msg
from repro.core.icc0 import ICC0Party
from repro.core.messages import FinalizationShare, NotarizationShare, ROOT_HASH
from repro.core.pool import MessagePool
from repro.sim.delays import FixedDelay, MessageAwareDelay

from .test_pool import Forge


def reference_rounds(pool: MessagePool, above: int) -> list[int]:
    """Rounds > ``above`` with a finalized block or a pending/verified
    finalization share, recomputed from the pool's stores."""
    rounds = {pool.blocks[h].round for h in pool._finalized if h != ROOT_HASH}
    for buckets in (pool._final_shares, pool._pending_final):
        rounds.update(s.round for bucket in buckets.values() for s in bucket.values())
    return sorted(r for r in rounds if r > above)


def count_verifies(keyring) -> list[int]:
    """Wrap every ``verify*`` method of ``keyring``; the returned one-item
    list holds the number of signatures checked so far.  Only outermost
    calls count, since a batch method may delegate to the per-item one."""
    checked = [0]
    depth = [0]

    def wrap(name):
        inner = getattr(keyring, name)
        batch = name.endswith("_batch")

        def counted(*args):
            if not depth[0]:
                checked[0] += len(args[0]) if batch else 1
            depth[0] += 1
            try:
                return inner(*args)
            finally:
                depth[0] -= 1

        setattr(keyring, name, counted)

    for name in dir(type(keyring)):
        if name.startswith("verify"):
            wrap(name)
    return checked


def watch(party, on_call) -> None:
    """Call ``on_call(party)`` before every finalization-watcher pass."""
    inner = party._run_finalization_watcher

    def watcher():
        on_call(party)
        return inner()

    party._run_finalization_watcher = watcher


class TestIndexMatchesReference:
    @pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
    @pytest.mark.parametrize("gc_depth", [None, 5])
    def test_every_watcher_call(self, n, t, gc_depth):
        jitter = Random(n)

        def delay(sender, receiver, now, message):
            # Party 1's inbound links are far slower and jitterier than the
            # rest, so its pool sees shares of later rounds before earlier
            # ones: the index takes out-of-order inserts, not only appends.
            return jitter.uniform(0.01, 1.5 if receiver == 1 else 0.2)

        config = ClusterConfig(
            n=n, t=t, delta_bound=0.3, epsilon=0.01,
            delay_model=MessageAwareDelay(delay),
            max_rounds=25, seed=n + (gc_depth or 0), gc_depth=gc_depth,
        )
        cluster = build_cluster(config)
        calls = []

        def check(party):
            pool = party.pool
            assert pool.rounds_with_final_activity(party.k_max) == reference_rounds(
                pool, party.k_max
            )
            calls.append(party.index)

        for party in cluster.parties:
            watch(party, check)
        cluster.start()
        cluster.run_until_all_committed_round(20, timeout=300)
        cluster.check_safety()
        assert len(calls) > 100
        if gc_depth is None:
            # Unpruned, the default ``above=0`` is the whole history.
            pool = cluster.party(1).pool
            assert pool.rounds_with_final_activity() == reference_rounds(pool, 0)


class TestLateSharesStayUnverified:
    def test_late_share_for_committed_round_is_never_verified(self):
        withholder = corrupt_class(ICC0Party, WithholdFinalizationMixin)
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=8, seed=1,
            corrupt={4: withholder},
        )
        cluster = build_cluster(config)
        cluster.start()
        cluster.run_until_all_committed_round(4, timeout=60)
        party = cluster.party(1)
        block = party.output_log[-1]
        assert block.round == party.k_max
        signed = msg.finalization_message(block.round, block.proposer, block.hash)
        late = FinalizationShare(
            round=block.round,
            proposer=block.proposer,
            block_hash=block.hash,
            signer=4,
            share=cluster.party(4).keys.sign_final_share(signed),
        )
        checked = count_verifies(party.keys)
        assert party.pool.add(late)
        party._progress()
        assert checked == [0]


class TestFlatWatcherCost:
    def test_rounds_above_k_max_stay_bounded(self):
        config = ClusterConfig(
            n=4, t=1, delta_bound=0.5, epsilon=0.01,
            delay_model=FixedDelay(0.05), max_rounds=302, seed=3,
        )
        cluster = build_cluster(config)
        widths = []
        for party in cluster.parties:
            watch(
                party,
                lambda p: widths.append(len(p.pool.rounds_with_final_activity(p.k_max))),
            )
        cluster.start()
        cluster.run_until_all_committed_round(300, timeout=1000)
        # The pool keeps all 300 heights (no GC), but the watcher only ever
        # sees the frontier.
        assert len(cluster.party(1).pool.rounds_with_final_activity()) >= 300
        assert max(widths) <= 3


class TestNoBucketsFromJunk:
    @pytest.mark.parametrize("kind", [NotarizationShare, FinalizationShare])
    def test_wrong_signer_index_leaves_nothing_behind(self, kind):
        forge = Forge()
        pool = forge.pool()
        block = forge.block()
        honest = (
            forge.notar_share(block, 2)
            if kind is NotarizationShare
            else forge.final_share(block, 2)
        )
        junk = kind(
            round=block.round,
            proposer=block.proposer,
            block_hash=os.urandom(32),
            signer=3,  # the share itself is party 2's
            share=honest.share,
        )
        before = pool.artifact_count()
        assert not pool.add(junk)
        assert pool.stats.invalid_dropped == 1
        for store in (
            pool._notar_shares, pool._final_shares,
            pool._pending_notar, pool._pending_final,
        ):
            assert junk.block_hash not in store
        assert pool.artifact_count() == before
        assert pool.rounds_with_final_activity() == []


class TestPruneLeavesLiveRoundsPending:
    def test_prune_verifies_nothing(self):
        forge = Forge()
        pool = forge.pool()
        old, live = forge.block(round=2), forge.block(round=6)
        for block in (old, live):
            pool.add(block)
            for signer in (1, 2):
                pool.add(forge.notar_share(block, signer))
                pool.add(forge.final_share(block, signer))
        # Shares naming a block that never arrived, in a pruned round.
        orphan = forge.block(round=3, proposer=2)
        pool.add(forge.final_share(orphan, 3))
        checked = count_verifies(forge.rings[0])
        assert pool.rounds_with_final_activity() == [2, 3, 6]
        pool.prune(5)
        assert checked == [0]
        assert pool.rounds_with_final_activity() == [6]
        assert set(pool._pending_final) == {live.hash}
        assert set(pool._pending_notar) == {live.hash}
        assert orphan.hash not in pool._final_shares
        # The live round's shares are verified when queried, not before.
        assert pool.final_share_count(live.hash) == 2
        assert checked == [2]
