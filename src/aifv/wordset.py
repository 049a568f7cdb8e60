"""Operations on finite sets of binary strings.

A word set here is any non-empty finite collection of BitString values
(duplicates are ignored).  The central notion is the full-prefix
closure: a string v belongs to the closure of a set s when every
infinite bit sequence starting with v passes through a member of s.
Equivalently, either some member of s is a prefix of v, or both
one-bit extensions of v belong to the closure.

``reduce`` returns the minimal elements of that closure.  The result is
always prefix-free, covers exactly the same infinite sequences as the
input, and is the canonical representative used when comparing modes.

``reduce`` and ``is_prefix_free`` sweep the members once, sorted as
'0'/'1' text: that is interval order, each word before its extensions.
"""

from __future__ import annotations

import itertools

from .bitstring import (BitString, is_prefix, longest_common_prefix,
                        strip_prefix)
from .errors import CapExceeded, InvalidSet

# enumerate_basic_modes is super-exponential in n; 3 covers practical use
BASIC_MODE_CAP = 3


def _as_set(words):
    ws = frozenset(words)
    if not ws:
        raise InvalidSet("word set must be non-empty")
    return ws


def common_prefix(words):
    """The longest string that is a prefix of every member."""
    ws = _as_set(words)
    it = iter(ws)
    acc = next(it)
    for w in it:
        if acc.length == 0:
            break
        acc = longest_common_prefix(acc, w)
    return acc


def is_prefix_free(words):
    """True when no member is a proper prefix of another member."""
    # when a is a proper prefix of b, every text from a up to b in sorted
    # order starts with a, so the member right after a does too
    ws = sorted(w.text() for w in _as_set(words))
    return not any(b.startswith(a) for a, b in zip(ws, ws[1:]))


def in_full_closure(words, prefix):
    """Membership test for the full-prefix closure of a word set."""
    # the closure is exactly the set of extensions of its minimal elements
    return any(is_prefix(r, prefix) for r in reduce(words))


def reduce(words):
    """The minimal elements of the full-prefix closure.

    The result is prefix-free and its closure equals the closure of the
    input.  If the input covers every infinite sequence the result is
    the singleton containing the empty string.

    One pass in text order keeps the result so far on a stack of
    (length, value) pairs.  A member under the top is skipped; a right
    child whose left sibling is the top merges with it into the parent.
    """
    out = []
    for w in sorted(_as_set(words), key=BitString.text):
        length, value = w.length, w.value
        if out:
            top_length, top_value = out[-1]
            if top_length <= length and \
                    value >> (length - top_length) == top_value:
                continue
        while value & 1 and out and out[-1] == (length, value - 1):
            out.pop()
            length, value = length - 1, value >> 1
        out.append((length, value))
    return frozenset(BitString(value, length) for length, value in out)


def to_basic_mode(words):
    """Reduce a word set and strip the common prefix off every member.

    The result always contains the word-set analogue of a code tree's
    shape near the root: it is prefix-free, has empty common prefix, and
    is invariant under further reduction.
    """
    reduced = reduce(words)
    head = common_prefix(reduced)
    return frozenset(strip_prefix(head, w) for w in reduced)


def enumerate_basic_modes(n):
    """All distinct basic modes whose members are at most n bits long.

    A basic mode is what ``to_basic_mode`` can produce from a word set
    of the form {0u : u in L} | {1v : v in U} with non-empty L and U of
    (n-1)-bit strings.  For n == 2 there are exactly nine of them.
    """
    if n < 2:
        raise ValueError("basic modes need at least 2-bit members")
    if n > BASIC_MODE_CAP:
        raise CapExceeded(f"basic-mode enumeration for n={n} exceeds "
                          f"the cap of {BASIC_MODE_CAP}")
    stems = [BitString(v, n - 1) for v in range(1 << (n - 1))]
    zero = BitString(0, 1)
    one = BitString(1, 1)
    seen = set()
    for r in range(1, len(stems) + 1):
        for lo in itertools.combinations(stems, r):
            left = [zero + u for u in lo]
            for r2 in range(1, len(stems) + 1):
                for hi in itertools.combinations(stems, r2):
                    words = left + [one + u for u in hi]
                    seen.add(to_basic_mode(words))
    return seen
