"""Public-key identities, signatures, and contribution attestations.

Contributors are raw Ed25519 keypairs.  A contribution proof is a signed
statement binding (contributor, branch, kind, evidence); whether the cited
evidence actually lies in the branch history is checked by the branch layer.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .codec import ContentId, canonical_encode, protocol_struct

CONTRIBUTION_KINDS = ("content", "review", "token", "storage", "time")


SIGNATURE_CACHE_ENTRIES = 1 << 14  # bound of SIGNATURE_CACHE; an entry takes about 150 bytes


class SignatureCache:
    """Valid (public key, message, signature) triples, keyed by a SHA-256
    digest and held up to SIGNATURE_CACHE_ENTRIES, oldest evicted first.  Ed25519
    verification is deterministic, so a triple that verified once verifies
    again.  A triple enters after it verified, or when this process signed it
    (seeded); the hit counters say which of the two answered."""

    def __init__(self):
        self._entries: OrderedDict[bytes, bool] = OrderedDict()  # digest -> seeded at sign time
        self.seeded_hits = self.verified_hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(public_key: bytes, message: bytes, signature: bytes) -> bytes:
        """Digest of the triple; the two length prefixes keep field bounds apart."""
        return hashlib.sha256(
            b"%d:%d:" % (len(public_key), len(signature)) + public_key + signature + message
        ).digest()

    def hit(self, key: bytes) -> bool:
        seeded = self._entries.get(key)
        if seeded is None:
            self.misses += 1
        elif seeded:
            self.seeded_hits += 1
        else:
            self.verified_hits += 1
        return seeded is not None

    def add(self, key: bytes, seeded: bool):
        entries = self._entries
        if key not in entries:
            entries[key] = seeded
            if len(entries) > SIGNATURE_CACHE_ENTRIES:
                entries.popitem(last=False)
                self.evictions += 1

    def clear(self):
        """Drop every entry and zero the counters."""
        self._entries.clear()
        self.seeded_hits = self.verified_hits = self.misses = self.evictions = 0


SIGNATURE_CACHE = SignatureCache()


@dataclass(frozen=True)
class KeyIdentity:
    """Ed25519 keypair; the secret key never enters protocol objects."""

    public_key: bytes
    secret_key: bytes
    # signing needs the parsed key object; build it once, not per signature
    _private: Ed25519PrivateKey = field(init=False, repr=False, compare=False)
    # the public key derived from secret_key, the only one sign() vouches for
    _derived: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        private = Ed25519PrivateKey.from_private_bytes(self.secret_key)
        derived = _public_bytes(private)
        if derived != self.public_key:
            raise ValueError("public_key does not belong to secret_key")
        object.__setattr__(self, "_private", private)
        object.__setattr__(self, "_derived", derived)

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyIdentity":
        """Deterministic keypair from arbitrary seed material."""
        raw = hashlib.sha256(b"lakat-key:" + seed).digest()
        private = Ed25519PrivateKey.from_private_bytes(raw)
        return cls(_public_bytes(private), raw)

    def sign(self, message: bytes) -> bytes:
        """Sign, and remember the triple as valid: it verifies by construction."""
        signature = self._private.sign(message)
        SIGNATURE_CACHE.add(SignatureCache.key(self._derived, message, signature), seeded=True)
        return signature


def _public_bytes(private: Ed25519PrivateKey) -> bytes:
    return private.public_key().public_bytes_raw()


def verify_signature(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature is valid; malformed keys or signatures give False.
    A valid triple is checked once and then answered from SIGNATURE_CACHE."""
    try:
        key = SignatureCache.key(public_key, message, signature)
        if SIGNATURE_CACHE.hit(key):
            return True
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
    except (InvalidSignature, ValueError, TypeError):
        return False
    SIGNATURE_CACHE.add(key, seeded=False)
    return True


@protocol_struct(10)
@dataclass(frozen=True)
class ContributionProof:
    """Signed claim of a contribution of one kind to one branch."""

    contributor: bytes
    branch_id: ContentId
    kind: str
    evidence: ContentId
    signature: bytes

    def message(self) -> bytes:
        """The signed bytes, encoded on first use and kept on the proof:
        contributor sets verify the same proofs again and again."""
        message = self.__dict__.get("_message")
        if message is None:
            message = self.__dict__["_message"] = proof_message(
                self.contributor, self.branch_id, self.kind, self.evidence
            )
        return message

    def verify(self) -> bool:
        return self.kind in CONTRIBUTION_KINDS and verify_signature(
            self.contributor, self.message(), self.signature
        )


def proof_message(contributor: bytes, branch_id: ContentId, kind: str, evidence: ContentId) -> bytes:
    return canonical_encode([b"contribution", contributor, branch_id, kind, evidence])


def make_contribution_proof(
    identity: KeyIdentity, branch_id: ContentId, kind: str, evidence: ContentId
) -> ContributionProof:
    if kind not in CONTRIBUTION_KINDS:
        raise ValueError(f"unknown contribution kind {kind!r}")
    message = proof_message(identity.public_key, branch_id, kind, evidence)
    return ContributionProof(identity.public_key, branch_id, kind, evidence, identity.sign(message))
