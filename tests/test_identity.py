from dataclasses import replace

import pytest

from lakat.branch import Submit, SubmitTrace, Veto, Vote
from lakat.codec import NULL_ID, canonical_encode, content_id
from lakat.identity import (
    SIGNATURE_CACHE,
    SIGNATURE_CACHE_ENTRIES,
    KeyIdentity,
    SignatureCache,
    make_contribution_proof,
    verify_signature,
)
from lakat.lignify import cast_vote, register_veto, wrap_merge_in_sprout
from lakat.ops import create_genesis_branch
from conftest import proper_config, tick


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


# -- signature cache ----------------------------------------------------------


@pytest.fixture
def cache():
    """The process-wide signature cache, emptied and with zeroed counters."""
    SIGNATURE_CACHE.clear()
    yield SIGNATURE_CACHE
    SIGNATURE_CACHE.clear()


def flipped(signature: bytes) -> bytes:
    return bytes([signature[0] ^ 1]) + signature[1:]


def test_mismatched_key_pair_cannot_sign(cache, alice, bob):
    with pytest.raises(ValueError):
        KeyIdentity(bob.public_key, alice.secret_key)
    # alice's own signature seeds only alice's triple, never bob's
    signature = alice.sign(b"m")
    assert not verify_signature(bob.public_key, b"m", signature)
    assert verify_signature(alice.public_key, b"m", signature)
    assert cache.seeded_hits == 1


def test_cached_key_and_message_with_other_signature_fails(cache, alice, bob):
    signature = alice.sign(b"m")
    assert verify_signature(alice.public_key, b"m", signature)
    assert not verify_signature(alice.public_key, b"m", flipped(signature))
    assert not verify_signature(alice.public_key, b"m", bob.sign(b"m"))
    assert not verify_signature(alice.public_key, b"m", signature[:-1])


def test_invalid_triple_is_never_cached(cache, alice):
    forged = flipped(alice.sign(b"m"))
    cache.clear()
    assert not verify_signature(alice.public_key, b"m", forged)
    assert not verify_signature(alice.public_key, b"m", forged)
    assert cache.verified_hits == 0 and cache.seeded_hits == 0
    assert cache.misses == 2 and len(cache) == 0


def test_verified_triple_is_answered_from_the_cache(cache, alice):
    signature = alice.sign(b"m")
    cache.clear()  # forget the seeded entry: the first check must verify
    assert verify_signature(alice.public_key, b"m", signature)
    assert verify_signature(alice.public_key, b"m", signature)
    assert (cache.misses, cache.verified_hits, cache.seeded_hits) == (1, 1, 0)


def test_forged_veto_and_vote_fail_after_their_valid_twins(cache, state, alice, bob):
    config = proper_config(lignification_time=50, engagement_time=60, broadcasting_buffer=1)
    core = create_genesis_branch(state, config, alice, tick(0))
    state.add_proof(make_contribution_proof(bob, core.branch_id, "content", core.initial_head))
    sprouts = []
    for label, at in (("mA", 1), ("mB", 2)):
        merge = Submit(core.stable_head, label, NULL_ID,
                       SubmitTrace(merged_branch=content_id(label.encode()), belt_tip=core.stable_head), tick(at))
        wrap = wrap_merge_in_sprout(state, state.store.put_object(merge), alice.public_key,
                                    content_id(b"requesting"), core.branch_id, tick(at))
        sprouts.append(wrap.sprout)
    veto_message = canonical_encode([b"veto", sprouts[1], bob.public_key, 10])
    veto = Veto(sprouts[1], bob.public_key, 10, bob.sign(veto_message))
    assert register_veto(state, core.branch_id, veto, tick(10)).ok
    for forged in (replace(veto, signature=flipped(veto.signature)),
                   replace(veto, signature=alice.sign(veto_message))):
        assert register_veto(state, core.branch_id, forged, tick(10)).code == "bad-signature"
    vote_message = canonical_encode([b"vote", sprouts[1], bob.public_key, 20])
    vote = Vote(sprouts[1], bob.public_key, 20, bob.sign(vote_message))
    assert cast_vote(state, core.branch_id, vote, tick(20)).ok
    for forged in (replace(vote, signature=flipped(vote.signature)),
                   replace(vote, signature=alice.sign(vote_message))):
        assert cast_vote(state, core.branch_id, forged, tick(20)).code == "bad-signature"


def test_cache_bound_evicts_oldest_first(cache, alice):
    signature = alice.sign(b"oldest")
    for n in range(SIGNATURE_CACHE_ENTRIES + 100):
        cache.add(SignatureCache.key(b"k", n.to_bytes(4, "big"), b"s"), seeded=False)
    assert len(cache) == SIGNATURE_CACHE_ENTRIES
    assert cache.evictions == 101
    assert not cache.hit(SignatureCache.key(alice.public_key, b"oldest", signature))
    assert cache.hit(SignatureCache.key(b"k", (SIGNATURE_CACHE_ENTRIES + 99).to_bytes(4, "big"), b"s"))
    # an evicted valid triple still verifies: a miss runs the real check
    misses = cache.misses
    assert verify_signature(alice.public_key, b"oldest", signature)
    assert cache.misses == misses + 1


def test_contest_case_verifies_only_signatures_it_made(cache):
    from contest_driver import enumerate_cases, run_case

    case = next(case for case in enumerate_cases() if case[1] and case[2])  # a veto and votes
    real, oracle = run_case(case)
    assert real == oracle
    assert cache.misses == 0
    assert cache.seeded_hits > 0
