"""Encoding and decoding against a validated code-tree set.

The encoder walks the trees, concatenating codewords, and finishes by
appending a termination word: the shortest member of the final tree's
mode (ties broken lexicographically, 0 before 1).  Any member would do,
because the mode lists exactly the ways a stream from that tree may
continue; the shortest keeps the output minimal.  Its cost is linear in
the output length: blocks of four symbols are kept as '0'/'1' text and
read as one integer per slice of blocks, and single symbols are
collected in a small accumulator; both flush whole bytes to a buffer.

The decoder is driven by the same structure in reverse.  Sitting at
tree k with some bits in hand, symbol a is confirmed once Cword_k(a)
matches and some member of Mode_{Point_k(a)} follows it.  Only the
codeword is consumed; the matched mode member is lookahead and stays
in the stream.  On a valid set exactly one symbol can ever match, so
the decoder commits to the first one it confirms, and the lookahead
never exceeds the set's decoding delay.  ``_confirm`` makes that step
over a tree's rows for the decoder's window; the run builder reads it
from a per-tree step table indexed by peek bits instead.

No decision looks further than ``reach`` bits past the current
position: the longest expanded codeword of the set.
The decoder therefore reads the stream through a window of about
``_CHUNK_BITS + reach + _RUN_BITS`` bits, an integer refilled from a
byte buffer whenever fewer than ``reach + _RUN_BITS`` bits are left in
it, so every shift and mask acts on a small integer, every decision
sees at least ``reach`` bits or the whole rest of the stream, and there
is a full ``_RUN_BITS`` peek wherever the stream still has one.

Both sides cache runs: table-lookup coding (Moffat and Turpin, 1997),
extended to several symbols per lookup.

- Because a decision is final once its codeword and lookahead are in
  hand, the bits of a peek fix every symbol whose codeword and
  lookahead both end inside it.  The decoder caches, per tree and
  ``_RUN_BITS``-bit peek, the run of symbols the peek decides, and on
  a later visit emits the whole run at once.  On a skewed source,
  where most symbols cost 0 or 1 bits, one lookup emits about ten
  symbols, and an inner loop applies stored runs back to back, one
  lookup each, while the window holds them.  A new peek's run is built
  by one walk over the peek's bits, which stops where the next
  codeword and its lookahead would leave them, or after
  ``_CHUNK_BITS`` symbols: that bound caps the work of a missed peek,
  whatever the number of trees, and ends cycles of empty codewords,
  which never leave the peek.  Each step of the walk is one lookup in
  the tree's step table: per peek, the symbol whose codeword and
  shortest fitting lookahead begin it, filled by ranges from the
  tree's rows the first time a walk reaches the tree.
  A tree gets its own run slots when its first run is stored; on a
  tree none of whose expanded words fits in the peek, every peek
  stores the empty run, so its symbols keep the plain walk.  On
  alphabets of at most 256 symbols runs hold their symbols as bytes,
  which the decoder appends to a bytearray with one copy.
- From tree k, four symbols fix one composite codeword and the tree
  they end in: a block of the set's 4-symbol extension, a
  variable-to-variable code with a fixed parse.  On an alphabet of at
  most four symbols, four 2-bit ids fill one byte, so the encoder
  caches, per tree and byte, the block's bits as text and its end
  tree, and emits four symbols per lookup and one list append; one
  join and one ``int(text, 2)`` per slice of at most ``_SLICE_BITS``
  text characters turn the texts into body bytes.  Wider alphabets
  keep the per-symbol walk.

Both loops run on the set's integer rows (``CodeTreeSet.rows``), built
with the set: (symbol, codeword length and value, successor,
successor's mode members as (length, value) pairs).  The validator
reads the same rows.  ``reach``, the decoder's run slots and step
tables and the encoder's block slots are the codec's own cache, kept
in the set's ``_codec`` slot and built on first use by either side;
they are filled as the codec meets new peeks, trees and blocks.

Both sides return named tuples: ``encode`` an ``EncodeResult(bits,
body_len, final_tree, termination)``, whose ``body`` is the first
``body_len`` bits, and ``decode`` a ``DecodeTrace(symbols,
max_lookahead, bits_consumed)``.  The decoder keeps only the longest
lookahead it used, the figure the paper bounds by the decoding delay: a
run carries its own longest, so applying one costs one compare.
"""

from __future__ import annotations

from typing import NamedTuple

from .bitstring import BitString
from .errors import NoMatch, SymbolOutOfRange, Truncated

# the encoder's per-symbol walk flushes its accumulator's whole bytes
# once it holds this many bits, and the decoder refills its window in
# steps of the same size, so the integers both loops shift and mask
# stay small; a decoder run holds at most this many symbols
_CHUNK_BITS = 256
# the encoder turns its block texts into bits in slices of at most
# this many characters (or one block), so it holds little of a long
# body as text
_SLICE_BITS = 1 << 18
# the decoder peeks at this many stream bits and caches, per tree and
# peek, the run of symbols they decide: at most K * 2**_RUN_BITS runs
# for a set of K trees
_RUN_BITS = 8


def _tables(tree_set):
    """The set's codec cache: ``(reach, runs, blocks, steps)``.

    ``runs[k][peek]`` is the decoder's run ``(symbols, symbol count,
    longest lookahead, bits used, end tree)`` for a peek at tree k, or
    ``()`` where the peek decides no symbol, and ``blocks[k][key]`` the
    encoder's block ``(text, end tree)`` for four symbols packed into
    the byte ``key``; either is None while unseen.  Every tree's run
    slots, and likewise its block slots, start as one all-None tuple
    shared by the set's trees; a tree gets its own list at its first
    stored run or block, so a set of many trees pays only for the trees
    met.
    ``blocks`` is None on alphabets of more than four symbols.
    ``steps[k]`` is tree k's step table (see ``_step_table``), or None
    until the decoder first needs it; none is built here, because the
    encoder, which never reads them, builds this cache too.
    """
    if tree_set._codec is None:
        rows = tree_set.rows
        tree_set._codec = (
            # follow[-1] is the successor's longest mode member
            max(clen + follow[-1][0]
                for row in rows for _, clen, _, _, follow in row),
            [(None,) * (1 << _RUN_BITS)] * len(rows),
            [(None,) * 256] * len(rows) if len(rows[0]) <= 4 else None,
            [None] * len(rows))
    return tree_set._codec


def _confirm(row, n, bits):
    """The symbol that the last ``n`` bits of ``bits`` confirm at a tree.

    ``row`` is that tree's rows, ``rows[k]``.  Returns ``(symbol,
    codeword length, successor, lookahead)`` for the first row whose
    codeword and then a member of its successor's mode lie in those
    bits, the shortest such member being the lookahead, or None if no
    row is confirmed.  Bits above the last ``n`` are ignored, so the
    decoder's window needs no mask.  On a valid set no later row can be
    confirmed too.
    """
    for a, clen, cval, point, queries in row:
        rest = n - clen
        if rest < 0 or (bits >> rest) & ((1 << clen) - 1) != cval:
            continue
        for qlen, qval in queries:
            if qlen <= rest and \
                    (bits >> (rest - qlen)) & ((1 << qlen) - 1) == qval:
                return a, clen, point, qlen
    return None


def _step_table(rows, steps, k, width):
    """Build, store in ``steps[k]`` and return tree k's step table.

    Entry p is the step that a ``width``-bit peek p confirms at tree k:
    ``(symbol, codeword length, successor, lookahead, codeword length +
    lookahead)``, the expanded word of the row and shortest mode member
    that begin p, or None if no expanded word of at most ``width`` bits
    does.  Each such word fills the peeks that start with it, and a
    row's members are written longest first, so the shortest that fits
    is the one left; on a valid set no two rows share a peek.

    So the step that n <= ``width`` bits ``bits`` confirm, the one
    ``_confirm(rows[k], n, bits)`` finds, is entry ``bits << (width -
    n)`` when its last field is at most n, and none otherwise: an
    expanded word of at most n bits that begins ``bits`` begins that
    peek too.
    """
    table = [None] * (1 << width)
    for a, clen, cval, point, queries in rows[k]:
        for qlen, qval in reversed(queries):
            wlen = clen + qlen
            if wlen <= width:
                free = width - wlen
                start = ((cval << qlen) | qval) << free
                table[start:start + (1 << free)] = \
                    [(a, clen, point, qlen, wlen)] * (1 << free)
    steps[k] = table
    return table


def _spill(out, acc, acc_len):
    """Move the accumulator's whole bytes to ``out``; returns the rest."""
    spare = acc_len & 7
    out += (acc >> spare).to_bytes(acc_len >> 3, "big")
    return acc & ((1 << spare) - 1), spare


class EncodeResult(NamedTuple):
    """An encoded stream split into its body and termination parts."""

    bits: BitString
    body_len: int
    final_tree: int
    termination: BitString

    @property
    def body(self):
        return self.bits.prefix(self.body_len)


def _encode_body(tree_set, symbols):
    """The body bits of ``symbols`` and the tree the walk ends in.

    On an alphabet of at most four symbols, a list, tuple or bytes
    ``symbols`` whose ids all lie in the alphabet is encoded four at a
    time: block j's ids, ``data[4j:4j+4]``, are packed two bits each
    into the byte ``key``, first id lowest, and ``blocks[k][key]`` holds
    the block's ``(text, end tree)`` from tree k, ``text`` being its
    bits as '0'/'1' characters, walked and stored on the first visit.
    The loop appends each block's text to a list, one slice of blocks
    at a time, sized from the set's longest expanded word so that its
    texts hold at most ``_SLICE_BITS`` characters (or it is one block);
    one ``"".join`` and one ``int(text, 2)`` per slice, both linear in
    its length, shift the slice's bits into the accumulator ``acc``,
    whose whole bytes go to ``out`` before the next slice starts.  So at
    most one slice of the body is held as text, one byte per bit, and a
    body of one slice is never spilled.

    The per-symbol walk then encodes the last ``len(data) % 4`` ids, or
    any other input alone, raising at the first id that is not an int
    inside the alphabet.  Codewords are shifted into ``acc``; once it
    holds ``_CHUNK_BITS`` bits, its whole bytes go to ``out`` too (MSB
    first, the ``formats.write_bitstream`` layout) and at most 7 bits
    stay behind.  One ``int.from_bytes`` at the end joins the buffer, so
    the cost is linear in the body length.
    """
    rows = tree_set.rows
    m = len(rows[0])
    out = bytearray()
    acc = 0
    acc_len = 0
    k = 0
    # bytes() would copy the raw memory of a buffer such as an array
    if m <= 4 and type(symbols) in (list, tuple, bytes):
        try:
            data = bytes(symbols)
        except (TypeError, ValueError):
            data = None
        # deleting the alphabet's ids leaves nothing
        if data is not None and not data.translate(None, bytes(range(m))):
            reach, _, blocks, _ = _tables(tree_set)
            full = len(data) & -4
            # byte 4j of x holds block j's first id, bytes 4j+1..4j+3 the
            # others: shifted by 6, 12 and 18 bits, each lands on its
            # 2-bit field of byte 4j, where every other field is zero
            x = int.from_bytes(data[:full], "little")
            keys = (x | x >> 6 | x >> 12 | x >> 18).to_bytes(full, "little")
            # a block's text has at most 4 * reach bits, so a slice of
            # ``step`` keys has at most _SLICE_BITS, or is one block
            step = _SLICE_BITS // (reach + 1) & -4 or 4
            for start in range(0, full, step):
                if start:
                    acc, acc_len = _spill(out, acc, acc_len)
                texts = []
                put = texts.append
                for key in keys[start:start + step:4]:
                    block = blocks[k][key]
                    if block is None:
                        _, l0, v0, point, _ = rows[k][key & 3]
                        _, l1, v1, point, _ = rows[point][key >> 2 & 3]
                        _, l2, v2, point, _ = rows[point][key >> 4 & 3]
                        _, l3, v3, point, _ = rows[point][key >> 6]
                        if type(blocks[k]) is tuple:
                            blocks[k] = [None] * 256
                        # the top bit keeps leading zeros; '' for no bits
                        value = ((v0 << l1 | v1) << l2 | v2) << l3 | v3
                        block = blocks[k][key] = (
                            bin(value | 1 << (l0 + l1 + l2 + l3))[3:], point)
                    text, k = block
                    put(text)
                text = "".join(texts)
                acc = acc << len(text) | int(text or "0", 2)
                acc_len += len(text)
            symbols = data[full:]
    for x in symbols:
        if not 0 <= x < m:
            raise SymbolOutOfRange(f"symbol id {x} out of range")
        _, length, value, point, _ = rows[k][x]
        acc = (acc << length) | value
        acc_len += length
        k = point
        if acc_len >= _CHUNK_BITS:
            acc, acc_len = _spill(out, acc, acc_len)
    value = (int.from_bytes(out, "big") << acc_len) | acc
    return BitString(value, len(out) * 8 + acc_len), k


def encode(tree_set, symbols):
    """Encode a symbol sequence, termination included."""
    tree_set.ensure_valid()
    body, k = _encode_body(tree_set, symbols)
    qlen, qval = tree_set.queries[k][0]
    termination = BitString(qval, qlen)
    return EncodeResult(body + termination, body.length, k, termination)


class DecodeTrace(NamedTuple):
    """Decoded symbols, the longest lookahead used, and bits consumed.

    ``max_lookahead`` is the largest number of bits the decoder read
    past a codeword to confirm its symbol, 0 when no symbol was decoded;
    on a valid set it never exceeds ``decoding_delay``.
    """

    symbols: tuple
    max_lookahead: int
    bits_consumed: int


def max_realized_lookahead(trace):
    """The largest lookahead used anywhere in a decode trace."""
    return trace.max_lookahead


def decode(tree_set, bits, length):
    """Decode exactly ``length`` symbols from a bit stream.

    Bits beyond what the last symbol needs are ignored; the trace
    records how many were consumed, and the longest lookahead any
    symbol used.  Raises Truncated when the stream stops in the middle
    of a decision and NoMatch when no symbol fits the bits at all.
    """
    symbols, longest, consumed = _decode(tree_set, bits, length)
    return DecodeTrace(tuple(symbols), longest, consumed)


def _decode(tree_set, bits, length):
    """``decode``'s loop: ``(symbols, longest lookahead, bits consumed)``.

    On an alphabet of at most 256 symbols the symbols come as a
    bytearray of ids, and runs hold theirs as bytes, so a run is
    appended with one copy and the CLI maps ids to names with one
    ``translate``; wider alphabets use a list and tuples.

    The stream is packed once into left-aligned bytes, as in the binary
    container.  The window ``win`` holds the stream bits up to position
    ``wend``; before each step, when fewer than ``reach + _RUN_BITS``
    bits past the current position are left in it and the stream has
    more, it is refilled from the bytes with the next ``_CHUNK_BITS +
    reach + _RUN_BITS`` bits, or up to the end of the stream.  A
    decision never reads past ``reach`` bits, so it sees the same bits
    as in the whole stream, and the stream tail is always fully in the
    window.

    ``reach`` and the run slots, one per tree and peek, are built on
    first use by the encoder or the decoder and kept in the set's
    ``_codec`` slot, so the peek width is fixed for the life of the
    set.  A step that has ``_RUN_BITS`` bits in the window peeks at
    them and looks the peek up in the current tree's run slots.  A
    stored run ``(symbols, count, longest lookahead, bits used, end
    tree)`` whose count fits in the symbols still wanted is applied at
    once: its symbols, bits and end tree, and its longest lookahead,
    one compare against ``longest``, the decode's own.  Otherwise the
    step confirms one symbol with ``_confirm`` over the bits left in
    the window, ``avail`` of them past the current position; the bits
    of ``win`` before the position are already consumed, and
    ``_confirm`` ignores them.

    Once a run applies, an inner loop applies the stored runs after it,
    one lookup each, with no refill test: ``shift`` is the next peek's
    offset in ``win``, and the loop runs while the window holds a whole
    peek past the position (``shift >= 0``) and each run fits in the
    ``left`` symbols still wanted.  A stored run depends on its peek's
    bits alone, so it needs no more of the window.  A missed or empty
    peek, a run too long or a short window ends the loop, and the next
    step refills the window if it must and takes that peek as above, so
    every plain step and every missed peek still sees a full window.

    A peek met for the first time builds its run with one walk from
    the tree over the peek's bits.  With ``used`` of them consumed,
    the next step is entry ``(peek << used) & mask`` of the current
    tree's step table (``_step_table``), taken when its expanded word
    fits in the ``_RUN_BITS - used`` bits left.  The walk stops at the
    first step that does not fit, or after ``_CHUNK_BITS`` symbols:
    that bound caps the work of a missed peek at ``_CHUNK_BITS`` table
    lookups, whatever the number of trees, and ends a cycle of empty
    codewords, which would never leave the peek, so the walk needs no
    cycle check and no memo.  A peek that fits no symbol stores ``()``,
    so later visits go straight to the plain walk.  The run is stored,
    and applied at once if it fits.  Any stream that starts with the
    peek decodes to the same run: mode members are tried shortest
    first, a valid set lets at most one row be confirmed, and bits
    inside the peek confirm it, so a decision made from the bits left
    in the peek is the one the whole window gives.  Truncated and
    NoMatch come from the plain walk alone, so they report the same
    symbol and bit as without runs.

    Refills cost O(bits) in all.  A plain step costs O(candidates)
    operations on a window of about ``_CHUNK_BITS + reach + _RUN_BITS``
    bits, a new run at most ``_CHUNK_BITS`` lookups, and a stored run
    one lookup, whatever the message length.
    """
    tree_set.ensure_valid()
    if length < 0:
        raise ValueError("symbol count must be non-negative")
    peek_bits = _RUN_BITS
    rows = tree_set.rows
    reach, runs, _, steps = _tables(tree_set)
    if len(rows[0]) <= 256:
        seq, out = bytes, bytearray()
    else:
        seq, out = tuple, []
    mask = (1 << peek_bits) - 1
    margin = reach + peek_bits
    total = bits.length
    data = (bits.value << (-total % 8)).to_bytes((total + 7) // 8, "big")
    win = 0
    wend = 0
    pos = 0
    longest = 0
    k = 0
    i = 0
    while i < length:
        avail = wend - pos
        if avail < margin and wend < total:
            wend = min(total, pos + _CHUNK_BITS + margin)
            first = pos >> 3
            last = (wend + 7) >> 3
            win = int.from_bytes(data[first:last], "big") >> (last * 8 - wend)
            avail = wend - pos
        run = ()
        if avail >= peek_bits:
            peek = (win >> (avail - peek_bits)) & mask
            run = runs[k][peek]
            if run is None:
                syms = []
                look = used = 0
                end = k
                while len(syms) < _CHUNK_BITS:
                    step = (steps[end] or _step_table(
                        rows, steps, end, peek_bits))[(peek << used) & mask]
                    if step is None or used + step[4] > peek_bits:
                        break
                    a, clen, end, qlen, _ = step
                    syms.append(a)
                    used += clen
                    if qlen > look:
                        look = qlen
                run = (seq(syms), len(syms), look, used, end) if syms \
                    else ()
                if type(runs[k]) is tuple:
                    runs[k] = [None] * (1 << peek_bits)
                runs[k][peek] = run
        if not run or run[1] > length - i:
            step = _confirm(rows[k], avail, win)
            if step is None:
                suffix = win & ((1 << avail) - 1)
                for _, clen, cval, _, queries in rows[k]:
                    for qlen, qval in queries:
                        wlen = clen + qlen
                        if wlen <= avail:
                            continue
                        word = (cval << qlen) | qval
                        if (word >> (wlen - avail)) == suffix:
                            raise Truncated(
                                f"stream ends inside symbol {i} at bit {pos}",
                                symbol_index=i, bit_position=pos)
                raise NoMatch(
                    f"no symbol matches at bit {pos}",
                    symbol_index=i, bit_position=pos)
            a, clen, point, qlen = step
            out.append(a)
            if qlen > longest:
                longest = qlen
            pos += clen
            k = point
            i += 1
            continue
        # the run fits; it and the stored runs after it apply here, one
        # lookup each, until a peek misses, stores no symbols or holds
        # more than are wanted, or the window holds no whole peek
        shift = avail - peek_bits
        left = length - i
        while shift >= 0:
            run = runs[k][(win >> shift) & mask]
            if not run:
                break
            syms, n, look, used, end = run
            if n > left:
                break
            out += syms
            if look > longest:
                longest = look
            left -= n
            shift -= used
            k = end
        pos = wend - peek_bits - shift
        i = length - left
    return out, longest, pos
