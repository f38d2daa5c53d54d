"""Correctness checks and small statistics shared by every workload."""

from __future__ import annotations

import hashlib
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between ranks.

    Matches ``statistics.quantiles(..., method="inclusive")`` at the cut
    points; a single value is its own every percentile.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be within [0, 1], got {q}")
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def prefix_consistent(chains: list[list[bytes]]) -> bool:
    """The paper's safety property: every honest output is a prefix of the
    longest one."""
    reference = max(chains, key=len, default=[])
    return all(chain == reference[: len(chain)] for chain in chains)


def chain_digest(chain: list[bytes]) -> str:
    """SHA-256 over the committed block hashes, in order."""
    h = hashlib.sha256()
    for block_hash in chain:
        h.update(block_hash)
    return h.hexdigest()


@dataclass
class RequestTally:
    """Requests accounted for at one observer (see :func:`balance_requests`)."""

    attempted: int
    committed: int
    failed: int
    errors: list[str] = field(default_factory=list)

    @property
    def balanced(self) -> bool:
        return self.committed + self.failed == self.attempted and not self.errors


def balance_requests(
    attempted: set[bytes], completed: list[bytes], chain_ids: list[bytes]
) -> RequestTally:
    """Cross-check two independent views of which requests committed.

    ``completed`` are the ids the program reported through its completion
    hook; ``chain_ids`` are the request ids found in the committed blocks.
    ``committed`` counts completions, ``failed`` counts attempted requests
    missing from the chain plus every extra copy of a request committed
    twice, so a duplicate commit (or a completion the chain does not
    back) leaves the two sides unbalanced.
    """
    errors: list[str] = []
    on_chain = Counter(chain_ids)
    duplicates = sum(count - 1 for count in on_chain.values() if count > 1)
    if duplicates:
        errors.append(f"{duplicates} duplicate request commit(s) on the chain")
    unknown = len(set(on_chain) - attempted)
    if unknown:
        errors.append(f"{unknown} committed request(s) were never offered")
    if len(set(completed)) != len(completed):
        errors.append("a request was reported complete twice")
    if not set(completed) <= set(on_chain):
        errors.append("a request was reported complete but is not on the chain")
    failed = len(attempted - set(on_chain)) + duplicates
    tally = RequestTally(
        attempted=len(attempted), committed=len(completed), failed=failed, errors=errors
    )
    if tally.committed + tally.failed != tally.attempted:
        errors.append(
            f"requests do not balance: {tally.committed} committed + "
            f"{tally.failed} failed != {tally.attempted} attempted"
        )
    return tally


def check_recorded_chain(path: str, key: str, chain: list[bytes]) -> str | None:
    """Compare ``chain`` with the chain an earlier run of ``key`` recorded.

    The simulator is deterministic, so two runs of one workload and seed
    must agree on their common prefix (runs stop at different heights).
    Records the longer of the two; returns an error message or None.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            recorded = json.load(fh)
    except FileNotFoundError:
        recorded = {}
    previous = [bytes.fromhex(h) for h in recorded.get(key, [])]
    common = min(len(previous), len(chain))
    if previous[:common] != chain[:common]:
        return (
            f"committed chain differs from an earlier run of {key} within "
            f"the first {common} heights: {chain_digest(previous[:common])} "
            f"!= {chain_digest(chain[:common])}"
        )
    if len(chain) > len(previous):
        recorded[key] = [h.hex() for h in chain]
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh, sort_keys=True)
        os.replace(tmp, path)
    return None
