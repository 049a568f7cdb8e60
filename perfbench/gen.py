"""Seeded input generators.

Everything here is plain Python on bit strings written as text, so the
inputs never depend on the package under test.  Sizes are laid out on
fixed grids and only the contents are drawn from the seed: two seeds
give the same amount of work, which keeps run-to-run spread down.
"""

from __future__ import annotations

import math
import random

# two-member modes of 2-bit words.  Every tree then has exactly 2*M
# expanded codewords and codewords of nearly fixed length, so a set's
# validation work and rate follow from its size, not from the seed.
MODE_POOL = [["00", "10"], ["00", "11"], ["01", "10"], ["01", "11"],
             ["10", "11"]]


def word_key(w):
    """The package's member order: by length, then lexicographically."""
    return (len(w), w)


def valid_set_doc(rng, trees, symbols):
    """A code-tree set document that is valid by construction.

    Each tree picks a mode from the pool and splits its shortest slots
    until there is one slot per symbol; every codeword extends its own
    slot by 0-2 random bits.  Distinct slots are incomparable and each
    extends a mode member, so overlap and coverage hold wherever the
    trees point.  Symbol 0 hops from tree k to tree k+1, which keeps
    every tree reachable and the tree chain irreducible.
    """
    out = []
    for k in range(trees):
        mode = rng.choice(MODE_POOL)
        slots = sorted(mode, key=word_key)
        while len(slots) < symbols:
            shortest = min(len(s) for s in slots)
            ties = [i for i, s in enumerate(slots) if len(s) == shortest]
            s = slots.pop(rng.choice(ties))
            slots.extend([s + "0", s + "1"])
        rng.shuffle(slots)
        cwords = [slot + random_bits(rng, rng.randint(0, 2))
                  for slot in slots[:symbols]]
        points = [(k + 1) % trees if a == 0 else rng.randrange(trees)
                  for a in range(symbols)]
        out.append({"mode": sorted(mode, key=word_key),
                    "codewords": cwords, "next": points})
    return {"alphabet": symbol_names(symbols), "trees": out}


def break_set_doc(rng, doc):
    """Copy one codeword onto another symbol that has the same successor.

    Returns the broken document and the violations it must produce:
    one overlap per member of the shared successor's mode, between the
    two symbols of the chosen tree and nothing else.
    """
    trees = [dict(t, codewords=list(t["codewords"]), next=list(t["next"]))
             for t in doc["trees"]]
    k = rng.randrange(len(trees))
    tree = trees[k]
    m = len(tree["codewords"])
    a = rng.randrange(m)
    b = rng.choice([s for s in range(1, m) if s != a])
    # symbol 0 keeps the reachability chain, so only b's successor moves
    tree["next"][b] = tree["next"][a]
    tree["codewords"][b] = tree["codewords"][a]
    lo, hi = min(a, b), max(a, b)
    names = doc["alphabet"]
    cword = tree["codewords"][a]
    succ_mode = trees[tree["next"][a]]["mode"]
    expected = sorted(("overlap", k, (names[lo], names[hi]),
                       (cword + q, cword + q)) for q in succ_mode)
    return {"alphabet": names, "trees": trees}, expected


def symbol_names(m):
    return [chr(ord("a") + i) if i < 26 else f"s{i}" for i in range(m)]


def random_bits(rng, n):
    return format(rng.getrandbits(n), f"0{n}b") if n else ""


def message(rng, dist, n):
    """n i.i.d. symbol ids drawn from ``dist``."""
    return rng.choices(range(len(dist)), weights=dist, k=n)


def log_uniform_lengths(rng, count, lo, hi):
    """``count`` lengths spread evenly in log scale over [lo, hi], shuffled."""
    ratio = math.log(hi / lo)
    out = [round(lo * math.exp(ratio * (i + 0.5) / count))
           for i in range(count)]
    rng.shuffle(out)
    return out


def flip_bit(rng, bits):
    """``bits`` with one bit flipped; ``bits`` must be non-empty."""
    i = rng.randrange(len(bits))
    return bits[:i] + ("1" if bits[i] == "0" else "0") + bits[i + 1:]


def truncate(rng, bits):
    """A strict prefix of a non-empty ``bits``."""
    return bits[:rng.randrange(len(bits))]


def dirichlet(rng, m):
    """A flat-Dirichlet probability vector with no zero entry."""
    draws = [max(rng.expovariate(1.0), 1e-6) for _ in range(m)]
    total = sum(draws)
    return [d / total for d in draws]


def sparse_word_set(rng, longest):
    """A few long words and one 1-bit word; reduce must walk 2**(L-1) nodes.

    The 1-bit word covers one half of the code space.  The other half
    holds four sparse words no longer than ``longest``, one of them
    exactly that long, so nearly every node there is left uncovered.
    """
    head = rng.choice("01")
    other = "1" if head == "0" else "0"
    words = {head, other + random_bits(rng, longest - 1)}
    while len(words) < 5:
        n = rng.randint(longest // 2, longest)
        words.add(other + random_bits(rng, n - 1))
    return sorted(words, key=word_key)


def new_rng(seed, label):
    """An independent stream per input family, so families do not interact."""
    return random.Random(f"{seed}:{label}")
