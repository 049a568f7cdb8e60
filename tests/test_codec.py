"""Encoding and decoding: golden values, traces, and failure modes."""

import array
import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from aifv import codec
from aifv.bitstring import BitString
from aifv.codec import decode, encode, max_realized_lookahead
from aifv.codetree import CodeTree, CodeTreeSet, decoding_delay, validate
from aifv.errors import NoMatch, SymbolOutOfRange, Truncated, Unvalidated
from aifv.formats import parse_vv_table
from aifv.transform import vv_to_tree_set
from aifv import examples

from conftest import (bits, decode_oracle, encode_oracle,
                      imported_examples, random_valid_tree_set, steps_inside)

SEED = 20240814


def tree(mode, rows):
    return CodeTree([bits(w) for w, _ in rows], [p for _, p in rows],
                    [bits(q) for q in mode])


def run_slots(ts):
    """The decoder's run slots, one list per tree, cached on the set."""
    return ts._codec[1]


def run_symbols(ts):
    """The type a set's decoder runs hold their symbols in."""
    return bytes if ts.symbol_count <= 256 else tuple


def test_golden_encode():
    ts = examples.binary_delay3_set()
    result = encode(ts, [0, 1, 1, 0, 0])
    assert result.bits == bits("10011")
    assert result.body == bits("1001")
    assert result.body_len == 4
    assert result.final_tree == 4
    assert result.termination == bits("1")


def test_results_are_records_of_their_fields():
    ts = examples.binary_delay3_set()
    result = encode(ts, [0, 1, 1, 0, 0])
    stream, body_len, final_tree, termination = result
    assert (stream, body_len, final_tree, termination) == \
        (bits("10011"), 4, 4, bits("1"))
    assert result.body == stream.prefix(body_len) == bits("1001")
    assert result == encode(ts, [0, 1, 1, 0, 0])
    trace = decode(ts, stream, 5)
    symbols, longest, consumed = trace
    assert (symbols, longest, consumed) == ((0, 1, 1, 0, 0), 3, 4)
    # two decodes of one stream are equal records, not two objects
    assert trace == decode(ts, stream, 5)
    assert trace != decode(ts, stream, 4)


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
    # the symbols' own lookaheads are 1, 3, 0, 1, 1
    assert trace.max_lookahead == 3
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
    assert trace.max_lookahead == 0
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


def encode_error(ts, symbols):
    with pytest.raises((SymbolOutOfRange, TypeError)) as err:
        encode(ts, symbols)
    return type(err.value), str(err.value)


def test_symbol_ids_must_be_ints_inside_the_alphabet():
    # a bad id at every position of the first two blocks of four and the
    # first of the third, in a list, a tuple, a generator and, where it
    # fits in a byte, bytes
    for ts in (examples.binary_delay3_set(), examples.skewed_delay3_set(),
               random_valid_tree_set(random.Random(0), symbol_count=6)):
        m = ts.symbol_count
        msg = [a % m for a in range(12)]
        for x in (-1, m, 255, 256, 2 ** 70, 1.0):
            for i in range(9):
                bad = msg[:i] + [x] + msg[i + 1:]
                got = encode_error(ts, bad)
                if isinstance(x, float):
                    assert got[0] is TypeError
                else:
                    assert got == (SymbolOutOfRange,
                                   f"symbol id {x} out of range")
                assert encode_error(ts, tuple(bad)) == got
                assert encode_error(ts, (a for a in bad)) == got
                if x in (m, 255):
                    assert encode_error(ts, bytes(bad)) == got
        # the set's cached blocks are untouched by the failed calls
        assert encode(ts, msg).bits.text() == encode_oracle(ts, msg)


def test_one_shot_iterators_are_read_once():
    ts = examples.skewed_delay3_set()
    msg = [3, 1, 0, 2, 2, 0, 1]
    expected = encode_oracle(ts, msg)
    assert encode(ts, iter(msg)).bits.text() == expected
    assert encode(ts, (a for a in msg)).bits.text() == expected
    # an array is read by value, not as raw memory
    assert encode(ts, array.array("i", msg)).bits.text() == expected
    seen = []

    def symbols():
        for a in msg + [4, 0, 0, 0, 0]:
            seen.append(a)
            yield a
    with pytest.raises(SymbolOutOfRange, match="symbol id 4 out of range"):
        encode(ts, symbols())
    assert seen == msg + [4]


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2 ** 32 - 1))
def test_encode_matches_text_oracle(seed):
    # a seeded generator: the test draws too many values to shrink them
    rng = random.Random(seed)
    # fresh sets, so the first message meets an empty block table: 1-3
    # symbols, the four-symbol examples and imports, 4 and 6 symbols
    sets = [random_valid_tree_set(rng), examples.skewed_delay3_set(),
            *imported_examples(), random_valid_tree_set(rng, symbol_count=4),
            random_valid_tree_set(rng, symbol_count=6)]
    for ts in sets:
        m = ts.symbol_count
        # every length 0-40, so every length mod 4, in random order
        msgs = [[rng.randrange(m) for _ in range(n)] for n in range(41)]
        rng.shuffle(msgs)
        expected = [encode_oracle(ts, msg) for msg in msgs]
        assert [encode(ts, msg).bits.text() for msg in msgs] == expected
        bad = list(msgs[0])
        bad.insert(rng.randint(0, len(bad)), rng.choice([-1, m, 2 ** 70]))
        with pytest.raises(SymbolOutOfRange):
            encode(ts, bad)
        assert [encode(ts, tuple(msg)).bits.text() for msg in msgs] == \
            expected
        assert [encode(ts, bytes(msg)).bits.text() for msg in msgs] == \
            expected


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


def body_oracle(ts, symbols):
    """The body text and final tree of ``symbols``, by walking the trees."""
    words = []
    k = 0
    for x in symbols:
        words.append(ts.trees[k].cwords[x].text())
        k = ts.trees[k].points[x]
    return "".join(words), k


def test_long_message_crosses_chunk_boundary():
    rng = random.Random(SEED + 1)
    # two symbols: the blocks of four give one long text, and the walk
    # then shifts the last 3 symbols onto it; six symbols: the walk
    # alone, flushing its accumulator many times
    for ts, n in [(examples.binary_delay3_set(), 6003),
                  (random_valid_tree_set(rng, symbol_count=6), 6000)]:
        seq = [rng.randrange(ts.symbol_count) for _ in range(n)]
        result = encode(ts, seq)
        assert result.body_len > 8 * codec._CHUNK_BITS
        assert result.bits.text() == encode_oracle(ts, seq)
        trace = decode(ts, result.bits, len(seq))
        assert trace.symbols == tuple(seq)
        assert trace.bits_consumed == result.body_len


def test_empty_blocks_encode_to_no_bits():
    # the one-symbol set whose only codeword is empty, a cycle of five
    # trees whose blocks of four are empty or hold one '1', and the
    # running example, whose 'a' at tree 0 is empty
    rng = random.Random(SEED + 5)
    for make in [lambda: CodeTreeSet([tree([""], [("", 0)])]),
                 lambda: CodeTreeSet([
                     tree([""], [("1" if i == 4 else "", (i + 1) % 5)])
                     for i in range(5)]),
                 examples.binary_delay3_set]:
        warm = make()
        m = warm.symbol_count
        msgs = [[rng.randrange(m) for _ in range(n)] for n in range(13)]
        # each message cold on a fresh set, then all of them twice on
        # one set, the second time from stored blocks
        for ts, msg in [(make(), msg) for msg in msgs] + \
                [(warm, msg) for msg in msgs + msgs]:
            result = encode(ts, msg)
            body, k = body_oracle(ts, msg)
            assert result.body_len == len(body)
            assert result.bits.text() == encode_oracle(ts, msg)
            assert result.bits == result.body + result.termination
            assert result.final_tree == k


def test_lookahead_reflects_shortest_matching_query():
    ts = examples.binary_delay3_set()
    # symbol b at tree 0 consumes '0' and peeks at tree 2's mode
    # {'0','10'}; after '00...' the 1-bit member settles it.  One
    # symbol is decoded, so the longest lookahead is its own
    trace = decode(ts, bits("00") + bits("0"), 1)
    assert trace.symbols == (1,)
    assert trace.max_lookahead == 1
    # after '010...' only the 2-bit member '10' matches
    trace = decode(ts, bits("010"), 1)
    assert trace.max_lookahead == 2


def test_decode_requires_whole_lookahead_present():
    ts = examples.binary_delay3_set()
    # 'b' then 'a' encodes to '0' + '0'; tree 0's mode ends it with λ
    result = encode(ts, [1, 0])
    assert result.bits == bits("00")
    trace = decode(ts, result.bits, 2)
    assert trace.symbols == (1, 0)
    # 'b' reads the 1-bit member '0' of tree 2's mode, 'a' reads λ
    assert trace.max_lookahead == 1


def decode_outcome(decoder, ts, stream, length):
    try:
        trace = decoder(ts, stream, length)
    except (NoMatch, Truncated) as err:
        return type(err), err.symbol_index, err.bit_position
    return trace.symbols, trace.max_lookahead, trace.bits_consumed


@settings(deadline=None)
@given(st.randoms(use_true_random=False))
def test_decode_matches_whole_stream_oracle(rng):
    # skewed_delay3_set has empty codewords and an empty mode member;
    # one draw in ten walks long rows over a wide alphabet
    draw = rng.random()
    if draw < 0.25:
        ts = examples.skewed_delay3_set()
    elif draw < 0.35:
        ts = random_valid_tree_set(rng, symbol_count=rng.choice([64, 256]))
    else:
        ts = random_valid_tree_set(rng)
    msg = [rng.randrange(ts.symbol_count) for _ in range(rng.randint(0, 60))]
    clean = encode(ts, msg).bits
    expected_text = encode_oracle(ts, msg)
    assert clean.text() == expected_text
    flipped = clean
    for _ in range(rng.randint(1, 3) if clean.length else 0):
        flipped = BitString(flipped.value ^ (1 << rng.randrange(clean.length)),
                            clean.length)
    n = rng.randint(0, 200)
    # in this order on one set, so that the clean stream meets runs
    # stored from broken ones, and the last two lengths end inside a
    # stored run wherever the runs cover the message
    cases = [
        (flipped, len(msg)),
        (clean.prefix(rng.randint(0, clean.length)), len(msg)),
        (BitString(rng.getrandbits(n) if n else 0, n), rng.randint(0, 120)),
        (clean, len(msg) + rng.randint(1, 3)),
        (clean, len(msg)),
        (clean, rng.randint(0, len(msg))),
        (clean, max(len(msg) - 1, 0)),
    ]
    expected = [decode_outcome(decode_oracle, ts, stream, length)
                for stream, length in cases]
    # small chunks put flushes and refills inside codewords and lookahead
    chunks = (0, 1, 7, 64)
    for chunk in chunks:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codec, "_CHUNK_BITS", chunk)
            assert encode(ts, msg).bits.text() == expected_text
    # each peek width and chunk size gets a fresh set: the run table is
    # cached on it, and a run holds at most _CHUNK_BITS symbols
    for width in (1, 3, 8, 16):
        for chunk in chunks:
            fresh = CodeTreeSet(ts.trees, ts.symbols, ts.tree_names)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(codec, "_CHUNK_BITS", chunk)
                patch.setattr(codec, "_RUN_BITS", width)
                got = [decode_outcome(decode, fresh, stream, length)
                       for stream, length in cases]
            assert got == expected, (width, chunk)


def test_cycles_of_empty_codewords_end():
    # every symbol reads 0 bits and returns to a tree already seen there
    one = CodeTreeSet([tree([""], [("", 0)])])
    two = CodeTreeSet([tree([""], [("", 1)]), tree([""], [("", 0)])])
    for ts in (one, two):
        # 16 trailing bits let the decoder peek and record the cycle
        for stream in (bits(""), bits("0" * 16)):
            start = time.perf_counter()
            trace = decode(ts, stream, 1000)
            assert time.perf_counter() - start < 0.5
            assert trace.symbols == (0,) * 1000
            assert trace.max_lookahead == 0
            assert trace.bits_consumed == 0
        # a cycle never leaves the peek, so its runs stop at the bound
        runs = [run for slots in run_slots(ts) for run in slots if run]
        assert runs
        assert all(type(run[0]) is bytes for run in runs)
        assert all(len(run[0]) == codec._CHUNK_BITS for run in runs)


def test_a_long_chain_of_empty_codewords_decodes():
    # tree i reads no bits and hands over to tree i + 1, so the run of
    # every peek passes all 3000 trees before a state repeats
    count = 3000
    ts = CodeTreeSet([tree([""], [("", (i + 1) % count)])
                      for i in range(count)])
    start = time.perf_counter()
    trace = decode(ts, bits("0" * 16), 5000)
    assert time.perf_counter() - start < 1.0
    assert trace.symbols == (0,) * 5000
    assert trace.bits_consumed == 0


def test_long_paths_of_empty_codewords_decode_in_bounded_work():
    # the chain above, and a line: trees 0 to 2998 read no bits and hand
    # over to the next, tree 2999 reads '0' and returns to tree 0, and
    # every mode is {'0'}, so a peek of zeros decides 3000 symbols per
    # bit, K * (width + 1) in all, with no cycle inside the peek.  A run
    # stops at its bound of symbols, so a short decode does not walk
    # either loop first, and no run holds K * (width + 1) symbols
    count = 3000
    chain = [tree([""], [("", (i + 1) % count)]) for i in range(count)]
    line = [tree(["0"], [("" if i + 1 < count else "0", (i + 1) % count)])
            for i in range(count)]
    for trees, length, consumed, limit in ((chain, 10, 0, 2 << 20),
                                           (line, 10, 0, 2 << 20),
                                           (line, 5000, 1, 16 << 20)):
        ts = CodeTreeSet(trees)
        ts.ensure_valid()
        tracemalloc.start()
        try:
            start = time.perf_counter()
            trace = decode(ts, bits("0" * 16), length)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.symbols == (0,) * length
        assert trace.bits_consumed == consumed
        assert elapsed < 1.0, (length, elapsed)
        assert peak < limit, (length, peak)


def test_codec_slots_are_allocated_per_tree_on_first_store():
    # the 3000 trees of the long chain share one all-None tuple of run
    # slots and one of block slots, and have no step table; only the
    # trees met get their own
    count = 3000
    ts = CodeTreeSet([tree([""], [("", (i + 1) % count)])
                      for i in range(count)])
    tracemalloc.start()
    try:
        _, runs, blocks, steps = codec._tables(ts)
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size < 1 << 20
    no_runs, no_blocks = runs[0], blocks[0]
    assert all(slots is no_runs for slots in runs)
    assert all(slots is no_blocks for slots in blocks)
    assert steps == [None] * count
    assert decode(ts, bits("0" * 16), 10).symbols == (0,) * 10
    assert encode(ts, [0] * 8).bits == bits("")
    assert no_runs == (None,) * (1 << codec._RUN_BITS)
    assert no_blocks == (None,) * 256
    own_runs = [slots for slots in runs if slots is not no_runs]
    # a 10-symbol decode stores runs at no more than 10 trees, and two
    # blocks of four symbols are stored at trees 0 and 4
    assert 0 < len(own_runs) <= 10
    assert all(type(slots) is list and len(slots) == 1 << codec._RUN_BITS
               for slots in own_runs)
    assert [k for k, slots in enumerate(blocks)
            if slots is not no_blocks] == [0, 4]
    assert type(blocks[0]) is list and len(blocks[0]) == 256
    # each peek's walk stops at the run bound, so the trees given a step
    # table are the 10 decoded and those a run from one of them reaches
    met = [table for table in steps if table is not None]
    assert 0 < len(met) <= codec._CHUNK_BITS + 10
    assert all(type(table) is list and len(table) == 1 << codec._RUN_BITS
               for table in met)


def check_run_cache(ts):
    """Stored runs agree with a plain walk over their peeks.

    A stored run ``runs[k][peek]`` must hold the symbols, as bytes on an
    alphabet of at most 256 symbols and as a tuple on a wider one, their
    count, the longest lookahead (0 for no symbols), the bits used and
    the end tree of the walk from tree k over the peek's bits.  The run
    stops only where the walk's next step leaves the peek, or at the
    bound of ``_CHUNK_BITS`` symbols.  Every step table built is the one
    of the peek width.
    """
    width = codec._RUN_BITS
    bound = codec._CHUNK_BITS
    _, runs, _, tables = ts._codec
    for k, table in enumerate(tables):
        assert table is None or table == codec._step_table(
            ts.rows, [None] * ts.tree_count, k, width)
    for k, slots in enumerate(runs):
        for peek, run in enumerate(slots):
            if run is None:
                continue
            syms, count, longest, used, end = \
                run or (run_symbols(ts)(), 0, 0, 0, k)
            assert type(syms) is run_symbols(ts)
            assert count == len(syms) <= bound
            walk = steps_inside(ts, k, BitString(peek, width))
            steps = list(itertools.islice(walk, len(syms) + 1))
            # the step past the run, if any, is cut off by the bound
            assert len(steps) == len(syms) or len(syms) == bound, (k, peek)
            steps = steps[:len(syms)]
            assert tuple(a for a, _, _, _ in steps) == tuple(syms), (k, peek)
            assert max((q for _, q, _, _ in steps), default=0) == longest
            assert sum(clen for _, _, clen, _ in steps) == used
            assert (steps[-1][3] if steps else k) == end


@settings(deadline=None)
@given(st.randoms(use_true_random=False))
def test_run_cache_matches_a_plain_walk(rng):
    pick = rng.random()
    if pick < 0.2:
        ts = examples.skewed_delay3_set()
    elif pick < 0.4:
        # one symbol per tree under the mode {''}, and a path of trees
        # that ends in a loop: where the loop's codewords are all empty,
        # it is a cycle that never leaves the bits.  Half of these draws
        # take 29 to 60 trees, about one of them reading '0', with a loop
        # back to one of the first four: a peek of zeros there passes up
        # to K * (8 + 1) > _CHUNK_BITS states at width 8, so a run can
        # stop at the bound with no cycle inside the peek
        if rng.random() < 0.5:
            count = rng.randint(1, 5)
            words, loop = ["", "", "0", "10"], count
        else:
            count = rng.randint(29, 60)
            words, loop = [""] * count + ["0"], 4
        ts = CodeTreeSet([tree([""], [(rng.choice(words),
                                       i + 1 if i + 1 < count
                                       else rng.randrange(loop))])
                          for i in range(count)])
    else:
        ts = random_valid_tree_set(rng)
    msg = [rng.randrange(ts.symbol_count) for _ in range(rng.randint(0, 60))]
    clean = encode(ts, msg).bits
    flipped = clean
    for _ in range(rng.randint(1, 3) if clean.length else 0):
        flipped = BitString(flipped.value ^ (1 << rng.randrange(clean.length)),
                            clean.length)
    n = rng.randint(0, 200)
    streams = [clean, flipped, clean.prefix(rng.randint(0, clean.length)),
               BitString(rng.getrandbits(n) if n else 0, n), BitString(0, n)]
    expected = [decode_outcome(decode_oracle, ts, stream, len(msg) + 1)
                for stream in streams]
    # each peek width gets a fresh set: the run table is cached on it
    for width in (1, 3, 8, 16):
        fresh = CodeTreeSet(ts.trees, ts.symbols, ts.tree_names)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codec, "_RUN_BITS", width)
            got = [decode_outcome(decode, fresh, stream, len(msg) + 1)
                   for stream in streams]
            assert got == expected, width
            check_run_cache(fresh)


def test_run_table_is_bounded():
    ts = examples.skewed_delay3_set()
    rng = random.Random(SEED + 4)
    for _ in range(2):
        msg = rng.choices(range(4), weights=examples.skewed_distribution(),
                          k=200_000)
        assert decode(ts, encode(ts, msg).bits, len(msg)).symbols == \
            tuple(msg)
    runs = run_slots(ts)
    assert len(runs) == ts.tree_count
    assert all(len(slots) == 1 << codec._RUN_BITS for slots in runs)
    stored = [run for slots in runs for run in slots if run is not None]
    assert 0 < len(stored) <= ts.tree_count << codec._RUN_BITS
    assert all(type(run[0]) is bytes for run in stored if run)


def step_table_sets():
    """The sets the step tables are checked on.

    The example, imported and VV sets, random ones of 2-8, 64 and 256
    symbols, and one whose mode has comparable members.
    """
    rng = random.Random(SEED + 6)
    # '0' and '01' both follow a codeword in '01...': the lookahead is '0'
    comparable = CodeTreeSet([tree([""], [("0", 1), ("1", 1)]),
                              tree(["0", "01", "1"], [("0", 1), ("1", 0)])])
    assert validate(comparable).ok
    return [comparable,
            examples.binary_delay3_set(), examples.instantaneous_huffman_set(),
            examples.ternary_full_set(), examples.skewed_delay3_set(),
            *imported_examples(),
            *(vv_to_tree_set(parse_vv_table(doc))
              for doc in (examples.pair_huffman_vv_doc(),
                          examples.tunstall_vv_doc())),
            *(random_valid_tree_set(rng, symbol_count=m)
              for m in (*range(2, 9), 64, 256))]


@pytest.mark.parametrize("width", [1, 3, 8, 16])
def test_step_table_matches_confirm(width):
    # every n-bit value for n up to 12, and 512 drawn ones for each
    # longer n, which only the width of 16 has
    rng = random.Random(width)
    for ts in step_table_sets():
        for k, row in enumerate(ts.rows):
            steps = [None] * ts.tree_count
            table = codec._step_table(ts.rows, steps, k, width)
            assert steps[k] is table and len(table) == 1 << width
            for n in range(width + 1):
                values = range(1 << n) if n <= 12 \
                    else rng.sample(range(1 << n), 512)
                for value in values:
                    step = table[value << (width - n)]
                    got = step[:4] if step is not None and step[4] <= n \
                        else None
                    assert got == codec._confirm(row, n, value), (k, n, value)


def test_alphabets_past_256_decode_like_the_oracle():
    # ids past 255 fit in no byte, so runs hold tuples; in the first set,
    # symbol 0's 1-bit codewords give runs of several symbols at every
    # peek width, and the other codewords have 10 bits
    wide = [f"{v:09b}" for v in range(299)]
    skewed = CodeTreeSet([
        tree([""], [("0", 1)] + [("1" + w, v % 2) for v, w in enumerate(wide)]),
        tree([""], [("1", 0)] + [("0" + w, 0) for w in wide]),
    ])
    rng = random.Random(SEED + 7)
    for ts in (skewed, random_valid_tree_set(rng, symbol_count=300)):
        assert validate(ts).ok
        msg = [0 if rng.random() < 0.7 else rng.randrange(300)
               for _ in range(400)]
        clean = encode(ts, msg).bits
        flipped = BitString(clean.value ^ (1 << rng.randrange(clean.length)),
                            clean.length)
        cases = [(clean, len(msg)), (flipped, len(msg)),
                 (clean.prefix(clean.length // 2), len(msg)),
                 (BitString(rng.getrandbits(64), 64), 10),
                 (clean, len(msg) - 1)]
        expected = [decode_outcome(decode_oracle, ts, stream, length)
                    for stream, length in cases]
        assert expected[0][0] == tuple(msg)
        for width in (1, 3, 8, 16):
            fresh = CodeTreeSet(ts.trees, ts.symbols, ts.tree_names)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(codec, "_RUN_BITS", width)
                got = [decode_outcome(decode, fresh, stream, length)
                       for stream, length in cases]
                assert got == expected, width
                check_run_cache(fresh)
            if ts is skewed:
                assert any(run for slots in run_slots(fresh) for run in slots)


def test_trees_without_a_short_expanded_word_store_only_empty_runs():
    # tree 0 has the M=256 shape of perfbench's generated sets: 9-bit
    # codewords under a mode of two 2-bit words; tree 2's 8-bit codewords
    # all lead to tree 0, so its expanded words have 10 bits; tree 1's
    # '0' leads to tree 2, whose mode holds ''
    wide = [f"{p}{v:07b}" for p in ("00", "10") for v in range(128)]
    ts = CodeTreeSet([
        tree(["00", "10"], [(w, 1 if a == 0 else 0)
                            for a, w in enumerate(wide)]),
        tree([""], [("0", 2)] + [(f"1{v:08b}", v % 2)
                                 for v in range(255)]),
        tree([""], [(f"{v:08b}", 0) for v in range(256)]),
    ])
    assert validate(ts).ok
    rng = random.Random(SEED + 5)
    # trees 0, 1, 2 twice: the second visit to tree 1 applies its run,
    # so the decoder then peeks at tree 2
    msg = [0, 0, 5] * 2 + [rng.randrange(256) for _ in range(300)]
    stream = encode(ts, msg).bits
    expected = decode_outcome(decode_oracle, ts, stream, len(msg))
    assert decode_outcome(decode, ts, stream, len(msg)) == expected
    assert expected[0] == tuple(msg)
    # trees 0 and 2 start no run: each peek they meet stores ()
    slots = run_slots(ts)
    assert all(len(row) == 1 << codec._RUN_BITS for row in slots)
    for k in (0, 2):
        assert () in slots[k]
        assert all(run is None or run == () for run in slots[k])
    assert any(slots[1])


@pytest.mark.parametrize("warm", [False, True])
def test_runs_stop_at_the_symbols_wanted(warm):
    # every count of the last 300 of a 3000-symbol message: the runs
    # applied back to back must stop where the next one would hold more
    # symbols than are left, at every offset of the end in a run
    rng = random.Random(SEED + 6)
    msg = rng.choices(range(4), weights=examples.skewed_distribution(),
                      k=3000)
    ts = examples.skewed_delay3_set()
    stream = encode(ts, msg).bits
    first = len(msg) - 300
    # a prefix's longest lookahead grows with its length; this message
    # reaches its longest before the first count checked
    longest = decode_oracle(ts, stream, first).max_lookahead
    assert decode_oracle(ts, stream, len(msg)).max_lookahead == longest
    if warm:
        decode(ts, stream, len(msg))
    for n in range(first, len(msg) + 1):
        trace = decode(ts if warm else examples.skewed_delay3_set(),
                       stream, n)
        assert trace.symbols == tuple(msg[:n])
        assert trace.bits_consumed == encode(ts, msg[:n]).body_len
        assert trace.max_lookahead == longest


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


def test_long_encode_memory_is_linear_in_body_bytes():
    # the 20 Mbit encode above; its block texts, one byte per bit, are
    # turned into bits a slice at a time, so the peak stays a small
    # multiple of the body's own bytes
    ts = CodeTreeSet([tree([""], [("0" * 1000, 0), ("1" * 1000, 0)])])
    rng = random.Random(SEED + 3)
    msg = [rng.randrange(2) for _ in range(20_000)]
    encode(ts, msg[:4])
    tracemalloc.start()
    try:
        result = encode(ts, msg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    body_bytes = result.body_len // 8
    assert body_bytes == 2_500_000
    assert peak < 5 * body_bytes, \
        f"peak {peak / 1e6:.1f} MB for a {body_bytes / 1e6:.1f} MB body"


# a decode holds the packed stream and its window, about two bytes per
# input byte, and one byte of ids plus one pointer of the result tuple
# per symbol
DECODE_BYTES_PER_INPUT_BYTE = 2.5
DECODE_BYTES_PER_SYMBOL = 10
DECODE_SLACK_BYTES = 1 << 16


@pytest.mark.parametrize("name, counts", [
    # 1000-bit codewords: the input's bytes dominate (measured 2.05
    # bytes per input byte at both sizes)
    ("long", (5_000, 20_000)),
    # the skewed set, under a bit per symbol: the symbols dominate
    # (measured 8.5 bytes per symbol at both sizes)
    ("skewed", (250_000, 1_000_000)),
], ids=["long-codewords", "skewed"])
def test_decode_memory_is_linear_in_input_and_symbols(name, counts):
    if name == "long":
        ts = CodeTreeSet([tree([""], [("0" * 1000, 0), ("1" * 1000, 0)])])
        weights = None
    else:
        ts = examples.skewed_delay3_set()
        weights = examples.skewed_distribution()
    rng = random.Random(SEED + 13)
    for count in counts:
        msg = rng.choices(range(ts.symbol_count), weights, k=count)
        stream = encode(ts, msg).bits
        decode(ts, stream, 4)
        tracemalloc.start()
        try:
            trace = decode(ts, stream, count)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert list(trace.symbols) == msg
        input_bytes = (stream.length + 7) // 8
        limit = (DECODE_BYTES_PER_INPUT_BYTE * input_bytes
                 + DECODE_BYTES_PER_SYMBOL * count + DECODE_SLACK_BYTES)
        assert peak <= limit, (count, input_bytes, peak)


def test_encoder_slices_join_into_the_oracle_stream(monkeypatch):
    # small slice budgets, so a few hundred symbols cross many slices;
    # a budget below one block's text gives one block per slice
    rng = random.Random(SEED + 11)
    for budget in (0, 60, 300):
        monkeypatch.setattr(codec, "_SLICE_BITS", budget)
        for ts in (examples.skewed_delay3_set(), examples.binary_delay3_set(),
                   examples.ternary_full_set(),
                   # every block is empty, so every slice joins as no bits
                   CodeTreeSet([tree([""], [("", 0)])])):
            step = budget // (codec._tables(ts)[0] + 1) & -4 or 4
            for n in (step - 1, step, step + 1, 2 * step + 3, 7 * step + 2):
                msg = [rng.randrange(ts.symbol_count) for _ in range(n)]
                assert encode(ts, msg).bits.text() == encode_oracle(ts, msg)
