"""Serialization: JSON documents and the packed bit-stream container.

The JSON document for a code-tree set is the interchange format every
CLI subcommand reads and writes:

    {
      "alphabet": ["a", "b"],          // or an integer symbol count
      "trees": [
        {
          "name": "T0",                // optional
          "mode": ["", "01"],          // '' is the empty string
          "codewords": ["1", "0"],     // one per symbol
          "next": [1, 0]               // tree index or tree name
        },
        ...
      ]
    }

``dumps_document`` renders any document dict canonically (sorted keys,
two-space indent, trailing newline), so writing a parsed canonical file
reproduces it byte for byte.

Encoded payloads travel in a small binary container: the magic bytes
"AIFV", a format version byte, the symbol count and bit count as
little-endian 64-bit integers, then the bits packed MSB-first and
zero-padded to a byte boundary.
"""

from __future__ import annotations

import json
import struct

from .bitstring import BitString, sort_key
from .codetree import CodeTree, CodeTreeSet
from .errors import AifvError, FormatError
from .transform import ConventionalTree, VVCodeTable

MAGIC = b"AIFV"
VERSION = 1
_HEADER = struct.Struct("<QQ")


def _bits_from_text(text, where):
    if not isinstance(text, str) or any(c not in "01" for c in text):
        raise FormatError(f"{where}: expected a string of bits, got {text!r}")
    return BitString.from_text(text)


def _word_list(words):
    return [w.text() for w in sorted(words, key=sort_key)]


def dumps_document(doc):
    """Canonical JSON rendering of a document dict."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads_json(text):
    """Parse any JSON value; every failure is a FormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FormatError("JSON document is nested too deeply") from exc
    except ValueError as exc:
        # e.g. an integer literal over Python's int string-digit limit
        raise FormatError(f"unreadable JSON value: {exc}") from exc


def _object(doc):
    if not isinstance(doc, dict):
        raise FormatError("top-level document must be a JSON object")
    return doc


def loads_document(text):
    """Parse a JSON document whose top level must be an object."""
    return _object(loads_json(text))


def tree_set_to_doc(tree_set):
    """The document dict for a code-tree set, in canonical member order."""
    trees = []
    for k, tree in enumerate(tree_set.trees):
        entry = {
            "mode": _word_list(tree.mode),
            "codewords": [w.text() for w in tree.cwords],
            "next": list(tree.points),
        }
        if tree_set.tree_names is not None:
            entry["name"] = tree_set.tree_names[k]
        trees.append(entry)
    return {"alphabet": list(tree_set.symbols), "trees": trees}


def parse_tree_set(doc):
    """Build a CodeTreeSet from a document dict; FormatError on misuse."""
    if "trees" not in _object(doc) or not isinstance(doc["trees"], list) \
            or not doc["trees"]:
        raise FormatError("document needs a non-empty 'trees' list")
    alphabet = doc.get("alphabet")
    if isinstance(alphabet, int) and not isinstance(alphabet, bool):
        symbols = None
        count = alphabet
    elif isinstance(alphabet, list) and \
            all(isinstance(s, str) for s in alphabet):
        symbols = tuple(alphabet)
        count = len(alphabet)
    else:
        raise FormatError("'alphabet' must be a symbol count or a list "
                          "of symbol names")
    if count < 1:
        raise FormatError("alphabet must have at least one symbol")
    if symbols is not None and len(set(symbols)) != count:
        raise FormatError("symbol names must be unique")
    names = []
    for k, entry in enumerate(doc["trees"]):
        if not isinstance(entry, dict):
            raise FormatError(f"tree {k} must be an object")
        names.append(entry.get("name"))
    if any(n is not None for n in names):
        if any(not isinstance(n, str) for n in names):
            raise FormatError("either all trees or none carry a name")
        if len(set(names)) != len(names):
            raise FormatError("tree names must be unique")
    by_name = {n: k for k, n in enumerate(names) if n is not None}

    trees = []
    for k, entry in enumerate(doc["trees"]):
        where = f"tree {k}"
        mode = entry.get("mode")
        cwords = entry.get("codewords")
        nxt = entry.get("next")
        if not isinstance(mode, list) or not mode:
            raise FormatError(f"{where}: 'mode' must be a non-empty list")
        if not isinstance(cwords, list) or len(cwords) != count:
            raise FormatError(f"{where}: 'codewords' must list one word "
                              f"per symbol")
        if not isinstance(nxt, list) or len(nxt) != count:
            raise FormatError(f"{where}: 'next' must list one target "
                              f"per symbol")
        points = []
        for target in nxt:
            if isinstance(target, bool):
                raise FormatError(f"{where}: bad tree reference {target!r}")
            if isinstance(target, str):
                if target not in by_name:
                    raise FormatError(f"{where}: unknown tree name "
                                      f"{target!r}")
                target = by_name[target]
            if not isinstance(target, int) or \
                    not 0 <= target < len(doc["trees"]):
                raise FormatError(f"{where}: tree reference {target!r} "
                                  f"out of range")
            points.append(target)
        try:
            trees.append(CodeTree(
                [_bits_from_text(w, f"{where} codewords") for w in cwords],
                points,
                [_bits_from_text(w, f"{where} mode") for w in mode]))
        except AifvError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    tree_names = tuple(names) if names[0] is not None else None
    try:
        return CodeTreeSet(trees, symbols, tree_names)
    except AifvError as exc:
        raise FormatError(str(exc)) from exc


def parse_distribution(doc):
    """Read a source distribution: a bare list or {"probs": [...]}."""
    probs = doc.get("probs") if isinstance(doc, dict) else doc
    if not isinstance(probs, list) or not probs or \
            not all(isinstance(p, (int, float)) and not isinstance(p, bool)
                    for p in probs):
        raise FormatError("expected a list of probabilities")
    return [float(p) for p in probs]


def parse_conventional(doc):
    """Read conventional trees: kind, m, convention, symbols, trees."""
    kind = _object(doc).get("kind")
    if kind not in ("aifv2", "aifvm"):
        raise FormatError("'kind' must be \"aifv2\" or \"aifvm\"")
    trees_doc = doc.get("trees")
    if not isinstance(trees_doc, list) or not trees_doc:
        raise FormatError("document needs a non-empty 'trees' list")
    symbols = doc.get("symbols")
    if symbols is not None and (
            not isinstance(symbols, list)
            or not all(isinstance(s, str) for s in symbols)):
        raise FormatError("'symbols' must be a list of names")
    m = doc.get("m", 2 if kind == "aifv2" else len(trees_doc))
    if not isinstance(m, int) or isinstance(m, bool):
        raise FormatError("'m' must be an integer")
    convention = doc.get("convention", "degree")
    if convention not in ("degree", "complement"):
        raise FormatError("'convention' must be \"degree\" or "
                          "\"complement\"")
    trees = []
    for k, entry in enumerate(trees_doc):
        cwords = entry.get("codewords") if isinstance(entry, dict) else None
        if not isinstance(cwords, list) or not cwords:
            raise FormatError(f"tree {k}: 'codewords' must be a non-empty "
                              f"list")
        if symbols is not None and len(cwords) != len(symbols):
            raise FormatError(f"tree {k}: expected one codeword per symbol")
        trees.append(ConventionalTree(
            [_bits_from_text(w, f"tree {k}") for w in cwords]))
    if any(len(t.cwords) != len(trees[0].cwords) for t in trees):
        raise FormatError("all trees must cover the same alphabet")
    return kind, m, convention, symbols, trees


def _parse_state_key(key, symbols, where):
    if not isinstance(key, str):
        raise FormatError(f"{where}: keys must be strings")
    if key == "":
        return ()
    by_name = {s: i for i, s in enumerate(symbols)}
    tokens = key.split(" ") if " " in key else list(key)
    try:
        return tuple(by_name[tok] for tok in tokens)
    except KeyError as exc:
        raise FormatError(f"{where}: unknown symbol in key {key!r}") from exc


def parse_vv_table(doc):
    """Read a variable-to-variable code table document.

    States map symbol-sequence keys to {"lcword": bits, "follow":
    [bits...]}; blocks map complete sequences to their codeword, either
    directly or as {"codeword": bits, "recurrence": state-key}.
    """
    depth = _object(doc).get("depth")
    symbols = doc.get("symbols")
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise FormatError("'depth' must be an integer")
    if not isinstance(symbols, list) or not symbols or \
            not all(isinstance(s, str) for s in symbols):
        raise FormatError("'symbols' must be a non-empty list of names")
    states_doc = doc.get("states")
    blocks_doc = doc.get("blocks")
    if not isinstance(states_doc, dict) or not isinstance(blocks_doc, dict):
        raise FormatError("document needs 'states' and 'blocks' objects")
    lcwords = {}
    follows = {}
    for key, entry in states_doc.items():
        s = _parse_state_key(key, symbols, "states")
        if not isinstance(entry, dict):
            raise FormatError(f"state {key!r} must be an object")
        lcwords[s] = _bits_from_text(entry.get("lcword", ""),
                                     f"state {key!r}")
        follow = entry.get("follow")
        if not isinstance(follow, list) or not follow:
            raise FormatError(f"state {key!r} needs a non-empty 'follow' "
                              f"list")
        follows[s] = [_bits_from_text(w, f"state {key!r}") for w in follow]
    blocks = {}
    recurrences = {}
    for key, entry in blocks_doc.items():
        b = _parse_state_key(key, symbols, "blocks")
        if isinstance(entry, str):
            blocks[b] = _bits_from_text(entry, f"block {key!r}")
        elif isinstance(entry, dict):
            blocks[b] = _bits_from_text(entry.get("codeword", ""),
                                        f"block {key!r}")
            if "recurrence" in entry:
                recurrences[b] = _parse_state_key(entry["recurrence"],
                                                  symbols, f"block {key!r}")
        else:
            raise FormatError(f"block {key!r} must be a codeword or an "
                              f"object")
    try:
        return VVCodeTable(depth, symbols, lcwords, follows, blocks,
                           recurrences)
    except AifvError as exc:
        raise FormatError(str(exc)) from exc


def write_bitstream(bits, symbol_count):
    """Pack an encoded stream into the binary container format."""
    if symbol_count < 0:
        raise ValueError("symbol count must be non-negative")
    nbytes = (bits.length + 7) // 8
    pad = nbytes * 8 - bits.length
    payload = (bits.value << pad).to_bytes(nbytes, "big")
    return MAGIC + bytes([VERSION]) + _HEADER.pack(symbol_count,
                                                   bits.length) + payload


def read_bitstream(data):
    """Unpack the binary container; returns (bits, symbol_count)."""
    head = len(MAGIC) + 1 + _HEADER.size
    if len(data) < head:
        raise FormatError("bit stream shorter than its header")
    if data[:4] != MAGIC:
        raise FormatError("bad magic bytes")
    if data[4] != VERSION:
        raise FormatError(f"unsupported format version {data[4]}")
    symbol_count, bit_count = _HEADER.unpack(data[5:head])
    payload = data[head:]
    nbytes = (bit_count + 7) // 8
    if len(payload) != nbytes:
        raise FormatError(f"expected {nbytes} payload bytes, "
                          f"got {len(payload)}")
    pad = nbytes * 8 - bit_count
    value = int.from_bytes(payload, "big")
    if pad and value & ((1 << pad) - 1):
        raise FormatError("padding bits must be zero")
    return BitString(value >> pad, bit_count), symbol_count
