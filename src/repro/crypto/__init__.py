"""Cryptographic substrate for the ICC reproduction.

Implements every primitive from Section 2 of the paper: collision-resistant
hashing, digital signatures (Schnorr), (t, h, n)-threshold signatures in both
the multi-signature flavour (approach ii) and the unique Shamir-shared
flavour (approach iii), and the random-beacon machinery built on the latter.
See DESIGN.md §2 for the BLS → DLEQ substitution rationale.
"""

from . import api, backend, fastpath
from .backend import use_backend
from .dkg import DkgResult, run_dkg
from .group import Group, default_group, generate_group, strong_group, test_group
from .hashing import DIGEST_SIZE, hash_bytes, tagged_hash
from .keyring import FastKeyring, Keyring, RealKeyring, generate_keyrings
from .resharing import ResharingError, reshare

__all__ = [
    "api",
    "backend",
    "fastpath",
    "use_backend",
    "DkgResult",
    "run_dkg",
    "ResharingError",
    "reshare",
    "Group",
    "default_group",
    "generate_group",
    "strong_group",
    "test_group",
    "DIGEST_SIZE",
    "hash_bytes",
    "tagged_hash",
    "Keyring",
    "FastKeyring",
    "RealKeyring",
    "generate_keyrings",
]
