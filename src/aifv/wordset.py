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
``reduce_pairs`` and ``basic_pairs`` are ``reduce`` and
``to_basic_mode`` on bare (length, value) pairs, the form code-tree
sets keep their words in; the ``BitString`` functions wrap them.
"""

from __future__ import annotations

import itertools

from .bitstring import BitString, is_prefix, pair_text
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
    # reducing a set keeps its common prefix (see ``basic_pairs``)
    (length, value), _ = basic_pairs((w.length, w.value)
                                     for w in _as_set(words))
    return BitString(value, length)


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


def reduce_pairs(pairs):
    """``reduce`` on (length, value) pairs, as a list in text order.

    One pass in '0'/'1' text order keeps the result so far on a stack
    of pairs: a member under the top, or a repeat, is skipped, and a
    right child whose left sibling is the top merges with it into the
    parent.
    """
    out = []
    for length, value in sorted(pairs, key=lambda p: pair_text(*p)):
        if out:
            top_length, top_value = out[-1]
            if top_length <= length and \
                    value >> (length - top_length) == top_value:
                continue
        while value & 1 and out and out[-1] == (length, value - 1):
            out.pop()
            length, value = length - 1, value >> 1
        out.append((length, value))
    return out


def reduce(words):
    """The minimal elements of the full-prefix closure.

    The result is prefix-free and its closure equals the closure of the
    input.  If the input covers every infinite sequence the result is
    the singleton containing the empty string.
    """
    return frozenset(BitString(value, length) for length, value in
                     reduce_pairs((w.length, w.value) for w in _as_set(words)))


def basic_pairs(pairs):
    """``to_basic_mode`` on (length, value) pairs: (head, members).

    ``head`` is the common prefix of the reduced pairs, the prefix of
    their first and last in text order, and ``members`` lists them, in
    that order, with it stripped.  Reducing keeps the common prefix:
    dropping an extension of a member or merging two siblings into
    their parent leaves it as it was.
    """
    reduced = reduce_pairs(pairs)
    (first_length, first), (last_length, last) = reduced[0], reduced[-1]
    n = min(first_length, last_length)
    first >>= first_length - n
    # the highest differing bit and every bit below it are cut off
    d = (first ^ last >> (last_length - n)).bit_length()
    n -= d
    return (n, first >> d), [(length - n, value & ((1 << (length - n)) - 1))
                             for length, value in reduced]


def to_basic_mode(words):
    """Reduce a word set and strip the common prefix off every member.

    The result always contains the word-set analogue of a code tree's
    shape near the root: it is prefix-free, has empty common prefix, and
    is invariant under further reduction.
    """
    _, members = basic_pairs((w.length, w.value) for w in _as_set(words))
    return frozenset(BitString(value, length) for length, value in members)


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
