from lakat.codec import content_id
from lakat.identity import (
    KeyIdentity,
    make_contribution_proof,
    verify_signature,
)


def test_sign_verify_roundtrip(alice):
    message = b"hello branch"
    sig = alice.sign(message)
    assert verify_signature(alice.public_key, message, sig)


def test_flipped_message_bit_fails(alice):
    sig = alice.sign(b"hello")
    assert not verify_signature(alice.public_key, b"hellp", sig)


def test_degenerate_inputs_return_false(alice):
    assert not verify_signature(alice.public_key, b"m", b"")
    assert not verify_signature(b"not-a-key", b"m", alice.sign(b"m"))
    assert not verify_signature(b"", b"m", b"")


def test_deterministic_keys_from_seed():
    a = KeyIdentity.from_seed(b"seed")
    b = KeyIdentity.from_seed(b"seed")
    assert a.public_key == b.public_key
    assert a.sign(b"m") == b.sign(b"m")


def test_contribution_proof_verifies(alice):
    branch = content_id(b"branch")
    evidence = content_id(b"evidence")
    proof = make_contribution_proof(alice, branch, "content", evidence)
    assert proof.verify()


def test_contribution_proof_binds_all_fields(alice, bob):
    branch = content_id(b"branch")
    evidence = content_id(b"evidence")
    proof = make_contribution_proof(alice, branch, "content", evidence)
    from dataclasses import replace

    assert not replace(proof, contributor=bob.public_key).verify()
    assert not replace(proof, branch_id=content_id(b"other")).verify()
    assert not replace(proof, kind="review").verify()
    assert not replace(proof, evidence=content_id(b"other")).verify()
    assert not replace(proof, signature=b"\x00" * 64).verify()


def test_key_identity_signs_with_its_parsed_key(alice):
    # the parsed key object is built once and is not part of equality
    assert alice == KeyIdentity(alice.public_key, alice.secret_key)
    assert hash(alice) == hash(KeyIdentity(alice.public_key, alice.secret_key))
    assert "_private" not in repr(alice)
