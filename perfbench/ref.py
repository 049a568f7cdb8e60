"""Reference implementations the benchmark checks the package against.

None of this imports the package.  Code-tree sets are read as plain
document dicts, bit strings are text, and word-set facts come from
exact Fraction interval arithmetic rather than the package's integer
tricks, so a fault in the code under test cannot hide behind itself.
"""

from __future__ import annotations

import json
from fractions import Fraction

from gen import word_key


def encode(doc, symbols):
    """(body, termination) bits of a symbol sequence, as text.

    The termination is the shortest member of the final tree's mode,
    ties broken lexicographically.
    """
    trees = doc["trees"]
    parts = []
    k = 0
    for x in symbols:
        parts.append(trees[k]["codewords"][x])
        k = trees[k]["next"][x]
    return "".join(parts), min(trees[k]["mode"], key=word_key)


def body_consumed_ok(doc, symbols, bits, consumed):
    """True when re-encoding ``symbols`` yields exactly ``bits[:consumed]``."""
    body, _ = encode(doc, symbols)
    return consumed <= len(bits) and body == bits[:consumed]


def interval(w):
    return (Fraction(int(w, 2) if w else 0, 1 << len(w)),
            Fraction((int(w, 2) if w else 0) + 1, 1 << len(w)))


def union(words):
    """The union of the words' intervals as sorted disjoint spans."""
    spans = []
    for lo, hi in sorted(interval(w) for w in words):
        if spans and lo <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], hi)
        else:
            spans.append([lo, hi])
    return [tuple(s) for s in spans]


def covered(spans, w):
    lo, hi = interval(w)
    return any(a <= lo and hi <= b for a, b in spans)


def reduce_ok(words, result):
    """The checks a word-set reduction must pass, as a failure reason or None.

    The result must cover exactly the union of the input's intervals,
    be prefix-free, and hold only maximal intervals: no member's parent
    interval may lie inside that union.
    """
    spans = union(words)
    if union(result) != spans:
        return "reduced set covers a different union of intervals"
    ordered = sorted(result)
    for u, v in zip(ordered, ordered[1:]):
        if v.startswith(u):
            return f"reduced set is not prefix-free: {u!r} < {v!r}"
    for r in result:
        if r and covered(spans, r[:-1]):
            return f"member {r!r} is not maximal"
    return None


def reduce(words):
    """Maximal dyadic intervals inside the union, as words."""
    out = []
    for lo, hi in union(words):
        while lo < hi:
            # largest aligned block starting at lo that fits below hi
            n = 0
            while (lo * (1 << n)).denominator != 1 or \
                    lo + Fraction(1, 1 << n) > hi:
                n += 1
            value = int(lo * (1 << n))
            out.append(format(value, f"0{n}b") if n else "")
            lo += Fraction(1, 1 << n)
    return out


def common_prefix(words):
    words = list(words)
    head = words[0]
    for w in words[1:]:
        i = 0
        while i < min(len(head), len(w)) and head[i] == w[i]:
            i += 1
        head = head[:i]
    return head


def dumps(doc):
    """The canonical document text: sorted keys, two-space indent, newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def to_basic_text(doc):
    """Canonical text of the set with every mode's common prefix moved out."""
    trees = doc["trees"]
    heads = [common_prefix(t["mode"]) for t in trees]
    out = []
    for k, t in enumerate(trees):
        reduced = reduce(t["mode"])
        head = common_prefix(reduced)
        mode = sorted((r[len(head):] for r in reduced), key=word_key)
        cwords = []
        for w, point in zip(t["codewords"], t["next"]):
            # coverage makes heads[k] a prefix of every emitted stream
            cwords.append((w + heads[point])[len(heads[k]):])
        out.append({"mode": mode, "codewords": cwords,
                    "next": list(t["next"])})
    return dumps({"alphabet": list(doc["alphabet"]), "trees": out})


def expands(doc, k):
    """Expanded codewords of tree k, one list per symbol."""
    trees = doc["trees"]
    tree = trees[k]
    return [[w + q for q in trees[point]["mode"]]
            for w, point in zip(tree["codewords"], tree["next"])]


def decoding_delay(doc):
    """The longest mode member that prefixes an expanded word of its tree."""
    worst = 0
    for k, tree in enumerate(doc["trees"]):
        flat = [w for ws in expands(doc, k) for w in ws]
        for q in tree["mode"]:
            if len(q) > worst and any(w.startswith(q) for w in flat):
                worst = len(q)
    return worst


def is_valid(doc):
    """Reachability, overlap and coverage, checked on text directly."""
    trees = doc["trees"]
    seen = {0}
    stack = [0]
    while stack:
        for point in trees[stack.pop()]["next"]:
            if point not in seen:
                seen.add(point)
                stack.append(point)
    if len(seen) != len(trees):
        return False
    for k, tree in enumerate(trees):
        exp = expands(doc, k)
        for a in range(len(exp)):
            for b in range(a + 1, len(exp)):
                for w1 in exp[a]:
                    for w2 in exp[b]:
                        if w1.startswith(w2) or w2.startswith(w1):
                            return False
        for ws in exp:
            for w in ws:
                if not any(w.startswith(q) for q in tree["mode"]):
                    return False
    return True


def stationary(doc, dist):
    """Stationary tree distribution of an irreducible switching chain.

    Solves pi P = pi with sum(pi) = 1 by Gaussian elimination, which
    shares nothing with the package's power iteration.
    """
    trees = doc["trees"]
    n = len(trees)
    p = [[0.0] * n for _ in range(n)]
    for k, tree in enumerate(trees):
        for a, point in enumerate(tree["next"]):
            p[k][point] += dist[a]
    # rows: (P^T - I) pi = 0, last row replaced by sum(pi) = 1
    rows = [[p[j][i] - (1.0 if i == j else 0.0) for j in range(n)] + [0.0]
            for i in range(n)]
    rows[-1] = [1.0] * n + [1.0]
    for c in range(n):
        pivot = max(range(c, n), key=lambda r: abs(rows[r][c]))
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def rate_moments(doc, dist):
    """Expected body bits per symbol and the per-symbol length variance."""
    pi = stationary(doc, dist)
    lengths = [[len(w) for w in t["codewords"]] for t in doc["trees"]]
    mean = sum(pk * sum(p * l for p, l in zip(dist, row))
               for pk, row in zip(pi, lengths))
    var = sum(pk * sum(p * (l - mean) ** 2 for p, l in zip(dist, row))
              for pk, row in zip(pi, lengths))
    return mean, var


def container(data):
    """(bits text, symbol count) from the binary container, or None.

    Layout: b"AIFV", version 1, symbol and bit counts as little-endian
    64-bit integers, then the bits MSB-first, zero-padded to a byte.
    """
    if len(data) < 21 or data[:5] != b"AIFV\x01":
        return None
    symbols = int.from_bytes(data[5:13], "little")
    nbits = int.from_bytes(data[13:21], "little")
    payload = data[21:]
    if len(payload) != (nbits + 7) // 8:
        return None
    text = "".join(format(byte, "08b") for byte in payload)
    if "1" in text[nbits:]:
        return None
    return text[:nbits], symbols
