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
"""

from __future__ import annotations

import itertools

from .bitstring import (BitString, is_prefix, longest_common_prefix,
                        sort_key, strip_prefix)
from .errors import CapExceeded, InvalidSet

# all_strings refuses to materialize more than 2**ALL_STRINGS_CAP words
ALL_STRINGS_CAP = 20

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
    ws = sorted(_as_set(words), key=sort_key)
    for i, w1 in enumerate(ws):
        for w2 in ws[i + 1:]:
            if w1.length < w2.length and is_prefix(w1, w2):
                return False
    return True


def in_full_closure(words, prefix):
    """Membership test for the full-prefix closure of a word set."""
    # the closure is exactly the set of extensions of its minimal elements
    return any(is_prefix(r, prefix) for r in reduce(words))


def reduce(words):
    """The minimal elements of the full-prefix closure.

    The result is prefix-free and its closure equals the closure of the
    input.  If the input covers every infinite sequence the result is
    the singleton containing the empty string.
    """
    ws = _as_set(words)
    members = {(w.length, w.value) for w in ws}
    # nodes are (length, value) pairs; only prefixes of members can be
    # full without a member above them, so the trie of those prefixes
    # bounds the work by the total member bits
    trie = set()
    for length, value in members:
        while length >= 0 and (length, value) not in trie:
            trie.add((length, value))
            length, value = length - 1, value >> 1
    # a node is full when it is a member or both children are full;
    # deepest nodes first, so children are decided before their parent
    full = set()
    for length, value in sorted(trie, reverse=True):
        if (length, value) in members or (
                (length + 1, value << 1) in full
                and (length + 1, value << 1 | 1) in full):
            full.add((length, value))
    # the topmost full nodes are the minimal elements of the closure
    out = []
    stack = [(0, 0)]
    while stack:
        length, value = node = stack.pop()
        if node in full:
            out.append(BitString(value, length))
            continue
        for child in ((length + 1, value << 1), (length + 1, value << 1 | 1)):
            if child in trie:
                stack.append(child)
    return frozenset(out)


def to_basic_mode(words):
    """Reduce a word set and strip the common prefix off every member.

    The result always contains the word-set analogue of a code tree's
    shape near the root: it is prefix-free, has empty common prefix, and
    is invariant under further reduction.
    """
    reduced = reduce(words)
    head = common_prefix(reduced)
    return frozenset(strip_prefix(head, w) for w in reduced)


def all_strings(n, cap=ALL_STRINGS_CAP):
    """Every bit string of exactly n bits."""
    if n < 0:
        raise ValueError("length must be non-negative")
    if n > cap:
        raise CapExceeded(f"2**{n} strings exceed the cap of 2**{cap}")
    return frozenset(BitString(v, n) for v in range(1 << n))


def enumerate_basic_modes(n, cap=BASIC_MODE_CAP):
    """All distinct basic modes whose members are at most n bits long.

    A basic mode is what ``to_basic_mode`` can produce from a word set
    of the form {0u : u in L} | {1v : v in U} with non-empty L and U of
    (n-1)-bit strings.  For n == 2 there are exactly nine of them.
    """
    if n < 2:
        raise ValueError("basic modes need at least 2-bit members")
    if n > cap:
        raise CapExceeded(
            f"basic-mode enumeration for n={n} exceeds the cap of {cap}")
    stems = sorted(all_strings(n - 1), key=sort_key)
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
