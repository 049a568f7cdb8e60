"""Encoding and decoding against a validated code-tree set.

The encoder walks the trees, concatenating codewords, and finishes by
appending a termination word: the shortest member of the final tree's
mode (ties broken lexicographically, 0 before 1).  Any member would do,
because the mode lists exactly the ways a stream from that tree may
continue; the shortest keeps the output minimal.  It collects bits in a
small accumulator and flushes whole bytes to a buffer, so its cost is
linear in the output length.

The decoder is driven by the same structure in reverse.  Sitting at
tree k with some bits in hand, symbol a is confirmed once Cword_k(a)
matches and some member of Mode_{Point_k(a)} follows it.  Only the
codeword is consumed; the matched mode member is lookahead and stays
in the stream.  On a valid set exactly one symbol can ever match, so
the decoder commits to the first one it confirms, and the lookahead
never exceeds the set's decoding delay.

No decision looks further than ``reach`` bits past the current
position: the longest codeword plus the longest mode member of the set.
The decoder therefore reads the stream through a window of about
``_CHUNK_BITS + reach`` bits, an integer refilled from a byte buffer
whenever fewer than ``reach`` bits are left in it, so every shift and
mask acts on a small integer and its cost is linear in the stream
length.

Both loops run on the set's integer table (``codetree.table``):
codewords as (length, value, successor) rows, mode members as
(length, value) pairs.  The table is shared with the validator and
``decoding_delay``, so each set is converted once, by whichever of them
runs first; only the decoder's candidate rows are built on the first
decode.
"""

from __future__ import annotations

from .bitstring import BitString
from .codetree import table
from .errors import NoMatch, SymbolOutOfRange, Truncated

# the encoder flushes its accumulator's whole bytes once it holds this
# many bits, and the decoder refills its window in steps of the same
# size, so the integers both loops shift and mask stay small
_CHUNK_BITS = 256


class EncodeResult:
    """An encoded stream split into its body and termination parts."""

    __slots__ = ("bits", "body_len", "final_tree", "termination")

    def __init__(self, bits, body_len, final_tree, termination):
        self.bits = bits
        self.body_len = body_len
        self.final_tree = final_tree
        self.termination = termination

    @property
    def body(self):
        return self.bits.prefix(self.body_len)

    def __repr__(self):
        return (f"EncodeResult(bits={self.bits.text()!r}, "
                f"body_len={self.body_len}, final_tree={self.final_tree})")


def _encode_body(tree_set, symbols):
    """The body bits of ``symbols`` and the tree the walk ends in.

    Codewords are shifted into ``acc``; once it holds ``_CHUNK_BITS``
    bits, its whole bytes go to ``out`` (MSB first, the
    ``formats.write_bitstream`` layout) and at most 7 bits stay behind.
    One ``int.from_bytes`` at the end joins the buffer, so the cost is
    linear in the body length.
    """
    cwords = table(tree_set).cwords
    out = bytearray()
    acc = 0
    acc_len = 0
    k = 0
    for x in symbols:
        if not 0 <= x < len(cwords[0]):
            raise SymbolOutOfRange(f"symbol id {x} out of range")
        length, value, point = cwords[k][x]
        acc = (acc << length) | value
        acc_len += length
        k = point
        if acc_len >= _CHUNK_BITS:
            spare = acc_len & 7
            out += (acc >> spare).to_bytes(acc_len >> 3, "big")
            acc &= (1 << spare) - 1
            acc_len = spare
    value = (int.from_bytes(out, "big") << acc_len) | acc
    return BitString(value, len(out) * 8 + acc_len), k


def encode(tree_set, symbols):
    """Encode a symbol sequence, termination included."""
    tree_set.ensure_valid()
    body, k = _encode_body(tree_set, symbols)
    termination = table(tree_set).terminations[k]
    return EncodeResult(body + termination, body.length, k, termination)


class DecodeTrace:
    """Decoded symbols plus the lookahead the decoder used for each."""

    __slots__ = ("symbols", "per_symbol_lookahead", "bits_consumed")

    def __init__(self, symbols, per_symbol_lookahead, bits_consumed):
        self.symbols = tuple(symbols)
        self.per_symbol_lookahead = tuple(per_symbol_lookahead)
        self.bits_consumed = bits_consumed

    def __repr__(self):
        return (f"DecodeTrace(symbols={self.symbols}, "
                f"per_symbol_lookahead={self.per_symbol_lookahead})")


def max_realized_lookahead(trace):
    """The largest lookahead used anywhere in a decode trace."""
    return max(trace.per_symbol_lookahead, default=0)


def decode(tree_set, bits, length):
    """Decode exactly ``length`` symbols from a bit stream.

    Bits beyond what the last symbol needs are ignored; the trace
    records how many were consumed.  Raises Truncated when the stream
    stops in the middle of a decision and NoMatch when no symbol fits
    the bits at all.

    The stream is packed once into left-aligned bytes, as in the binary
    container.  The window ``win`` holds the stream bits up to position
    ``wend``; when fewer than ``reach`` bits past the current position
    are left in it and the stream has more, it is refilled from the
    bytes with the next ``_CHUNK_BITS + reach`` bits, or up to the end
    of the stream.  A decision never reads past ``reach`` bits, so it
    sees the same bits as in the whole stream, and the stream tail is
    always fully in the window.  Each symbol walks its tree's candidate
    rows and stops at the first confirmed match: the set is valid, so no
    later row can match too.  Refills cost O(bits) in all; each symbol
    costs O(candidates) operations on a window of about
    ``_CHUNK_BITS + reach`` bits, whatever the message length.
    """
    tree_set.ensure_valid()
    if length < 0:
        raise ValueError("symbol count must be non-negative")
    rows, reach = table(tree_set).decoder()
    total = bits.length
    data = (bits.value << (-total % 8)).to_bytes((total + 7) // 8, "big")
    win = 0
    wend = 0
    pos = 0
    out = []
    lookaheads = []
    k = 0
    for i in range(length):
        avail = wend - pos
        if avail < reach and wend < total:
            wend = min(total, pos + _CHUNK_BITS + reach)
            first = pos >> 3
            last = (wend + 7) >> 3
            win = int.from_bytes(data[first:last], "big") >> (last * 8 - wend)
            avail = wend - pos
        for a, clen, cval, point, queries in rows[k]:
            rest = avail - clen
            if rest < 0 or (win >> rest) & ((1 << clen) - 1) != cval:
                continue
            for qlen, qval in queries:
                if qlen <= rest and \
                        (win >> (rest - qlen)) & ((1 << qlen) - 1) == qval:
                    break
            else:
                continue  # no mode member follows this codeword
            break  # confirmed; on a valid set no other row matches
        else:
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
        out.append(a)
        lookaheads.append(qlen)
        pos += clen
        k = point
    return DecodeTrace(out, lookaheads, pos)
