"""Encoding and decoding: golden values, traces, and failure modes."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from aifv import codec
from aifv.bitstring import BitString
from aifv.codec import decode, encode, max_realized_lookahead
from aifv.codetree import CodeTree, CodeTreeSet, decoding_delay, validate
from aifv.errors import NoMatch, SymbolOutOfRange, Truncated, Unvalidated
from aifv import examples

from conftest import bits, decode_oracle, random_valid_tree_set

SEED = 20240814


def tree(mode, rows):
    return CodeTree([bits(w) for w, _ in rows], [p for _, p in rows],
                    [bits(q) for q in mode])


def test_golden_encode():
    ts = examples.binary_delay3_set()
    result = encode(ts, [0, 1, 1, 0, 0])
    assert result.bits == bits("10011")
    assert result.body == bits("1001")
    assert result.body_len == 4
    assert result.final_tree == 4
    assert result.termination == bits("1")


def test_encode_result_invariant():
    rng = random.Random(SEED)
    for _ in range(50):
        ts = random_valid_tree_set(rng)
        seq = [rng.randrange(ts.symbol_count)
               for _ in range(rng.randint(0, 8))]
        result = encode(ts, seq)
        assert result.bits == result.body + result.termination
        assert result.termination in ts.trees[result.final_tree].mode
        # termination is the shortest member, ties broken toward 0
        best = min(ts.trees[result.final_tree].mode,
                   key=lambda w: (w.length, w.value))
        assert result.termination == best
        # the body is the codewords along the tree path
        body, k = BitString(), 0
        for x in seq:
            body, k = body + ts.trees[k].cwords[x], ts.trees[k].points[x]
        assert (result.body, result.final_tree) == (body, k)


def test_empty_input_emits_only_termination():
    ts = examples.binary_delay3_set()
    result = encode(ts, [])
    assert result.body_len == 0
    assert result.final_tree == 0
    assert result.bits == bits("")  # tree 0's mode is {λ}
    shifted = CodeTreeSet([tree(["1", "01"], [("1", 0), ("01", 0)])])
    assert encode(shifted, []).bits == bits("1")


def test_golden_decode_trace():
    ts = examples.binary_delay3_set()
    trace = decode(ts, bits("10011"), 5)
    assert trace.symbols == (0, 1, 1, 0, 0)
    assert trace.per_symbol_lookahead == (1, 3, 0, 1, 1)
    assert max_realized_lookahead(trace) == 3
    assert trace.bits_consumed == 4


def test_decode_ignores_trailing_bits():
    ts = examples.binary_delay3_set()
    trace = decode(ts, bits("10011") + bits("10101"), 5)
    assert trace.symbols == (0, 1, 1, 0, 0)
    assert trace.bits_consumed == 4


def test_decode_zero_symbols():
    ts = examples.binary_delay3_set()
    trace = decode(ts, bits("10011"), 0)
    assert trace.symbols == ()
    assert trace.per_symbol_lookahead == ()
    assert trace.bits_consumed == 0
    with pytest.raises(ValueError):
        decode(ts, bits("1"), -1)


def test_truncated_mid_symbol():
    ts = examples.binary_delay3_set()
    # body of a single 'a' is empty; the stream ends inside the decision
    assert encode(ts, [0]).body == bits("")
    with pytest.raises(Truncated) as err:
        decode(ts, bits(""), 1)
    assert err.value.symbol_index == 0
    assert err.value.bit_position == 0
    # two symbols decodable, the third runs out of bits
    with pytest.raises(Truncated) as err:
        decode(ts, bits("10"), 3)
    assert err.value.symbol_index >= 1


def test_no_match_on_impossible_bits():
    ts = CodeTreeSet([tree(["0"], [("00", 0), ("01", 0)])])
    assert validate(ts).ok
    with pytest.raises(NoMatch) as err:
        decode(ts, bits("11"), 1)
    assert err.value.bit_position == 0
    with pytest.raises(Truncated):
        decode(ts, bits("0"), 1)


def test_decode_refuses_an_undecodable_set():
    # two symbols share a codeword, so either could match; the decoder
    # never sees such a set, because it validates first
    broken = CodeTreeSet([tree([""], [("", 0), ("", 0)])])
    assert not validate(broken).ok
    with pytest.raises(Unvalidated):
        decode(broken, bits("0"), 1)


def test_symbol_out_of_range():
    ts = examples.binary_delay3_set()
    with pytest.raises(SymbolOutOfRange):
        encode(ts, [0, 2])
    with pytest.raises(SymbolOutOfRange):
        encode(ts, [-1])


def test_round_trip_exhaustive_on_examples():
    for ts in [examples.binary_delay3_set(), examples.ternary_full_set(),
               examples.skewed_delay3_set()]:
        delay = decoding_delay(ts)
        for n in range(0, 5):
            seen = {}
            for seq in itertools.product(range(ts.symbol_count), repeat=n):
                result = encode(ts, seq)
                trace = decode(ts, result.bits, n)
                assert trace.symbols == seq
                assert max_realized_lookahead(trace) <= delay
                # distinct sequences of one length get distinct bits
                assert result.bits not in seen
                seen[result.bits] = seq


def test_long_message_crosses_chunk_boundary():
    ts = examples.binary_delay3_set()
    rng = random.Random(SEED + 1)
    seq = [rng.randrange(2) for _ in range(6000)]
    result = encode(ts, seq)
    assert result.body_len > 4096  # forces the accumulator to flush
    trace = decode(ts, result.bits, len(seq))
    assert trace.symbols == tuple(seq)


def test_lookahead_reflects_shortest_matching_query():
    ts = examples.binary_delay3_set()
    # symbol b at tree 0 consumes '0' and peeks at tree 2's mode
    # {'0','10'}; after '00...' the 1-bit member settles it
    trace = decode(ts, bits("00") + bits("0"), 1)
    assert trace.symbols == (1,)
    assert trace.per_symbol_lookahead == (1,)
    # after '010...' only the 2-bit member '10' matches
    trace = decode(ts, bits("010"), 1)
    assert trace.per_symbol_lookahead == (2,)


def test_decode_requires_whole_lookahead_present():
    ts = examples.binary_delay3_set()
    # 'b' then 'a' encodes to '0' + '0'; tree 0's mode ends it with λ
    result = encode(ts, [1, 0])
    assert result.bits == bits("00")
    trace = decode(ts, result.bits, 2)
    assert trace.symbols == (1, 0)
    assert trace.per_symbol_lookahead == (1, 0)


def decode_outcome(decoder, ts, stream, length):
    try:
        trace = decoder(ts, stream, length)
    except (NoMatch, Truncated) as err:
        return type(err), err.symbol_index, err.bit_position
    return trace.symbols, trace.per_symbol_lookahead, trace.bits_consumed


@settings(deadline=None)
@given(st.randoms(use_true_random=False))
def test_decode_matches_whole_stream_oracle(rng):
    # skewed_delay3_set has empty codewords and an empty mode member
    ts = (examples.skewed_delay3_set() if rng.random() < 0.25
          else random_valid_tree_set(rng))
    msg = [rng.randrange(ts.symbol_count) for _ in range(rng.randint(0, 60))]
    clean = encode(ts, msg).bits
    # the codeword texts along the tree path, then the termination
    words = []
    k = 0
    for x in msg:
        words.append(ts.trees[k].cwords[x].text())
        k = ts.trees[k].points[x]
    shortest = min(ts.trees[k].mode, key=lambda q: (q.length, q.value))
    expected_text = "".join(words) + shortest.text()
    assert clean.text() == expected_text
    flipped = clean
    for _ in range(rng.randint(1, 3) if clean.length else 0):
        flipped = BitString(flipped.value ^ (1 << rng.randrange(clean.length)),
                            clean.length)
    n = rng.randint(0, 200)
    cases = [
        (clean, len(msg)),
        (clean, len(msg) + rng.randint(1, 3)),
        (flipped, len(msg)),
        (clean.prefix(rng.randint(0, clean.length)), len(msg)),
        (BitString(rng.getrandbits(n) if n else 0, n), rng.randint(0, 120)),
    ]
    # small chunks put flushes and refills inside codewords and lookahead
    chunks = (0, 1, 7, 64)
    for chunk in chunks:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codec, "_CHUNK_BITS", chunk)
            assert encode(ts, msg).bits.text() == expected_text
    for stream, length in cases:
        expected = decode_outcome(decode_oracle, ts, stream, length)
        for chunk in chunks:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(codec, "_CHUNK_BITS", chunk)
                assert decode_outcome(decode, ts, stream, length) == expected


def test_decode_is_linear_in_stream_length():
    # a whole-stream scan needs several seconds here
    ts = examples.skewed_delay3_set()
    rng = random.Random(SEED + 2)
    msg = rng.choices(range(4), weights=examples.skewed_distribution(),
                      k=200_000)
    result = encode(ts, msg)
    start = time.perf_counter()
    trace = decode(ts, result.bits, len(msg))
    elapsed = time.perf_counter() - start
    assert trace.symbols == tuple(msg)
    assert elapsed < 1.5, f"decoding took {elapsed:.2f} s"


def test_encode_is_linear_in_stream_length():
    # 20 Mbit; joining fixed-size chunks into one integer needs seconds
    ts = CodeTreeSet([tree([""], [("0" * 1000, 0), ("1" * 1000, 0)])])
    rng = random.Random(SEED + 3)
    msg = [rng.randrange(2) for _ in range(20_000)]
    start = time.perf_counter()
    result = encode(ts, msg)
    trace = decode(ts, result.bits, len(msg))
    elapsed = time.perf_counter() - start
    assert result.bits.length == 1000 * len(msg)
    assert trace.symbols == tuple(msg)
    assert elapsed < 1.0, f"the round trip took {elapsed:.2f} s"
