"""Public-key identities, signatures, and contribution attestations.

Contributors are raw Ed25519 keypairs.  A contribution proof is a signed
statement binding (contributor, branch, kind, evidence); whether the cited
evidence actually lies in the branch history is checked by the branch layer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .codec import ContentId, canonical_encode, protocol_struct

CONTRIBUTION_KINDS = ("content", "review", "token", "storage", "time")


@dataclass(frozen=True)
class KeyIdentity:
    """Ed25519 keypair; the secret key never enters protocol objects."""

    public_key: bytes
    secret_key: bytes
    # signing needs the parsed key object; build it once, not per signature
    _private: Ed25519PrivateKey = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_private", Ed25519PrivateKey.from_private_bytes(self.secret_key))

    @classmethod
    def from_seed(cls, seed: bytes) -> "KeyIdentity":
        """Deterministic keypair from arbitrary seed material."""
        raw = hashlib.sha256(b"lakat-key:" + seed).digest()
        private = Ed25519PrivateKey.from_private_bytes(raw)
        return cls(_public_bytes(private), raw)

    @classmethod
    def generate(cls) -> "KeyIdentity":
        private = Ed25519PrivateKey.generate()
        raw = private.private_bytes_raw()
        return cls(_public_bytes(private), raw)

    def sign(self, message: bytes) -> bytes:
        return self._private.sign(message)


def _public_bytes(private: Ed25519PrivateKey) -> bytes:
    return private.public_key().public_bytes_raw()


def verify_signature(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff signature is valid; malformed keys or signatures give False."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


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
        return proof_message(self.contributor, self.branch_id, self.kind, self.evidence)

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
