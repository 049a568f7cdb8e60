"""Binary strings and the prefix relations between them.

A BitString is an immutable MSB-first bit sequence stored as a
(value, length) pair.  The empty string (written '' in text form) is a
valid value and acts as the neutral element for concatenation.

Every bit string w also names the half-open interval of real numbers in
[0, 1) whose binary expansion starts with w: [value, value + 1) on the
scale 2**length.  Two strings are prefix-comparable exactly when their
intervals intersect, and w1 is a prefix of w2 exactly when the interval
of w1 contains the interval of w2.  ``is_prefix`` and ``comparable``
test the (length, value) pairs directly; ``codetree.validate`` can
compare the integer intervals themselves.  The set's integer rows keep
words as bare (length, value) tuples, and ``pair_text`` writes one as
'0'/'1' text, the same text ``BitString.text`` gives.
"""

from __future__ import annotations

from .errors import NotAPrefix


class BitString:
    """Immutable bit sequence; bit 0 is the most significant bit."""

    __slots__ = ("value", "length")

    def __init__(self, value=0, length=0):
        if length < 0:
            raise ValueError("length must be non-negative")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        self.value = value
        self.length = length

    @classmethod
    def from_text(cls, text):
        """Parse a string of '0'/'1' characters; '' gives the empty string."""
        # int() alone would also take '0b1', '1_0' and surrounding blanks
        rest = text.lstrip("01")
        if rest:
            raise ValueError(f"invalid bit character {rest[0]!r}")
        return cls(int(text, 2) if text else 0, len(text))

    def text(self):
        return pair_text(self.length, self.value)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"BitString({self.text()!r})"

    def __len__(self):
        return self.length

    def __eq__(self, other):
        if not isinstance(other, BitString):
            return NotImplemented
        return self.value == other.value and self.length == other.length

    def __hash__(self):
        return hash((self.value, self.length))

    def __add__(self, other):
        if not isinstance(other, BitString):
            return NotImplemented
        return BitString((self.value << other.length) | other.value,
                         self.length + other.length)

    def prefix(self, n):
        """The first n bits."""
        if not 0 <= n <= self.length:
            raise ValueError(f"prefix length {n} out of range")
        return BitString(self.value >> (self.length - n), n)


EMPTY = BitString(0, 0)


def pair_text(length, value):
    """The '0'/'1' text of the word with this (length, value) pair."""
    return format(value, f"0{length}b") if length else ""


def is_prefix(w1, w2):
    """True when w1 is a (not necessarily proper) prefix of w2."""
    return w1.length <= w2.length and \
        (w2.value >> (w2.length - w1.length)) == w1.value


def comparable(w1, w2):
    """True when one argument is a prefix of the other."""
    if w1.length <= w2.length:
        return (w2.value >> (w2.length - w1.length)) == w1.value
    return (w1.value >> (w1.length - w2.length)) == w2.value


def strip_prefix(prefix, w):
    """Remove a leading prefix from w; raises NotAPrefix otherwise."""
    if not is_prefix(prefix, w):
        raise NotAPrefix(f"{prefix.text()!r} is not a prefix of {w.text()!r}")
    return BitString(w.value & ((1 << (w.length - prefix.length)) - 1),
                     w.length - prefix.length)


def longest_common_prefix(w1, w2):
    """The longest string that is a prefix of both arguments."""
    n = min(w1.length, w2.length)
    a = w1.value >> (w1.length - n)
    # the highest differing bit and every bit below it are cut off
    d = (a ^ (w2.value >> (w2.length - n))).bit_length()
    return BitString(a >> d, n - d)

