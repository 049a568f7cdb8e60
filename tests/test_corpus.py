"""A pinned corpus of command-line runs: every output byte, one digest.

Each ``cli.main`` invocation below runs in-process over fixed inputs:
the four example sets, the three imported conventional codes, the two
VV conversions, two broken sets and ``random_valid_tree_set`` sets of
2 to 300 symbols, among them 256 one-character names outside latin-1
and the 189 printable latin-1 ones, checked with ``validate --delay``
at budgets around their longest mode member; one skewed message of
5000 symbols through the binary and the ASCII stream; then ``import``
and ``convert-vv`` on the package's conventional codes and VV tables
and on documents they refuse.  Its argv, exit code, stdout, stderr and the bytes of any
output file are hashed into one SHA-256 per command group and compared
with ``cli_corpus.json``.  So a change that keeps the digests keeps
every output of the corpus byte-identical.

Regenerate the file after a deliberate output change with
``PYTHONPATH=src python tests/test_corpus.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import tempfile
from pathlib import Path

from aifv import examples
from aifv.cli import main
from aifv.formats import dumps_document, parse_vv_table, tree_set_to_doc
from aifv.transform import vv_to_tree_set

from conftest import imported_examples, random_valid_tree_set

PINNED = Path(__file__).with_name("cli_corpus.json")

GROUPS = ("validate", "delay", "reduce", "encode", "decode",
          "validate-delay", "import", "convert-vv")


def corpus_docs():
    """``(name, document)`` for every set of the corpus."""
    sets = [
        ("binary_delay3", examples.binary_delay3_set()),
        ("instantaneous_huffman", examples.instantaneous_huffman_set()),
        ("ternary_full", examples.ternary_full_set()),
        ("skewed_delay3", examples.skewed_delay3_set()),
    ]
    sets += [(f"imported_{i}", ts)
             for i, ts in enumerate(imported_examples())]
    sets += [(name, vv_to_tree_set(parse_vv_table(doc))) for name, doc in (
        ("pair_huffman_vv", examples.pair_huffman_vv_doc()),
        ("tunstall_vv", examples.tunstall_vv_doc()))]
    rng = random.Random(21)
    for m in (2, 3, 4, 5, 8, 27, 64, 256):
        sets.append((f"random_m{m}",
                     random_valid_tree_set(rng, symbol_count=m)))
    docs = [(name, tree_set_to_doc(ts)) for name, ts in sets]
    # two sets that fail validation: an overlap and a mode gap
    doc = tree_set_to_doc(examples.binary_delay3_set())
    doc["trees"][2]["mode"] = ["0", "11"]
    docs.append(("broken_mode", doc))
    doc = tree_set_to_doc(examples.skewed_delay3_set())
    doc["trees"][0]["codewords"][1] = doc["trees"][0]["codewords"][0]
    docs.append(("broken_overlap", doc))
    # 256 one-character names that are not latin-1
    doc = tree_set_to_doc(random_valid_tree_set(rng, symbol_count=256))
    doc["alphabet"] = [chr(0x4E00 + a) for a in range(256)]
    docs.append(("random_m256_cjk", doc))
    # ids past 255, which fit in no byte
    docs.append(("random_m300", tree_set_to_doc(
        random_valid_tree_set(rng, symbol_count=300))))
    # the 189 printable latin-1 one-character names, '!' to '~' and
    # '\xa1' to '\xff'
    doc = tree_set_to_doc(random_valid_tree_set(rng, symbol_count=189))
    doc["alphabet"] = [chr(c) for c in (*range(0x21, 0x7F),
                                        *range(0xA1, 0x100))]
    docs.append(("random_m189_latin1", doc))
    return docs


def invocations(name, doc, rng):
    """Yield ``(group, argv, output file)`` for one set, in run order.

    The decode runs read the bits that the encode runs wrote, so they
    are built as the files appear.
    """
    trees = f"{name}.json"
    Path(trees).write_text(dumps_document(doc), encoding="utf-8")
    names = doc["alphabet"]
    yield "validate", ["validate", trees, "--method", "both", "--json"], None
    yield "delay", ["delay", trees], None
    yield "reduce", ["reduce", trees], None
    yield "reduce", ["reduce", trees, "--output", f"{name}.basic.json"], \
        f"{name}.basic.json"
    n = rng.randint(0, 300)
    msg = [rng.randrange(len(names)) for _ in range(n)]
    text = " ".join(names[a] for a in msg)
    Path(f"{name}.txt").write_text("\n".join(
        " ".join(names[a] for a in msg[i:i + 20])
        for i in range(0, n, 20)), encoding="utf-8")
    yield "encode", ["encode", trees, "--text", text], None
    yield "encode", ["encode", trees, "--text", f"{names[0]} ~"], None
    yield "encode", ["encode", trees, "--input", f"{name}.txt",
                     "--format", "binary", "--output", f"{name}.bin"], \
        f"{name}.bin"
    yield "encode", ["encode", trees, "--input", f"{name}.txt",
                     "--format", "ascii", "--output", f"{name}.bits"], \
        f"{name}.bits"
    # a set that fails validation writes no stream
    if Path(f"{name}.bin").exists():
        yield "decode", ["decode", trees, "--input", f"{name}.bin",
                         "--output", f"{name}.out"], f"{name}.out"
        Path(f"{name}.cut.bin").write_bytes(
            Path(f"{name}.bin").read_bytes()[:-1])
        yield "decode", ["decode", trees, "--input", f"{name}.cut.bin"], None
        yield "decode", ["decode", trees, "--input", f"{name}.bits",
                         "--length", str(n)], None
        yield "decode", ["decode", trees, "--input", f"{name}.bits"], None
        clean = Path(f"{name}.bits").read_text().strip()
    else:
        clean = ""
    flipped = list(clean)
    for _ in range(rng.randint(1, 3) if clean else 0):
        i = rng.randrange(len(clean))
        flipped[i] = "10"[int(flipped[i])]
    streams = [
        (clean, n),
        (clean, n + rng.randint(1, 3)),
        (clean, rng.randint(0, n)),
        ("".join(flipped), n),
        (clean[:rng.randint(0, len(clean))], n),
        ("".join(rng.choice("01") for _ in range(rng.randint(0, 200))),
         rng.randint(0, 120)),
    ]
    for bits, length in streams:
        yield "decode", ["decode", trees, "--bits", bits,
                         "--length", str(length)], None


def long_invocations(rng):
    """Yield the encode and decode runs of one long skewed message.

    Its 5000 symbols follow the skewed set's own distribution, so most
    cost 0 or 1 bits and one decoder peek covers several of them.
    """
    name = "skewed_long"
    doc = tree_set_to_doc(examples.skewed_delay3_set())
    trees = f"{name}.json"
    Path(trees).write_text(dumps_document(doc), encoding="utf-8")
    names = doc["alphabet"]
    n = 5000
    msg = rng.choices(range(len(names)),
                      weights=examples.skewed_distribution(), k=n)
    Path(f"{name}.txt").write_text(" ".join(names[a] for a in msg),
                                   encoding="utf-8")
    for fmt, ext in (("binary", "bin"), ("ascii", "bits")):
        yield "encode", ["encode", trees, "--input", f"{name}.txt",
                         "--format", fmt, "--output", f"{name}.{ext}"], \
            f"{name}.{ext}"
    yield "decode", ["decode", trees, "--input", f"{name}.bin",
                     "--output", f"{name}.out"], f"{name}.out"
    yield "decode", ["decode", trees, "--input", f"{name}.bits",
                     "--length", str(n)], None


def budget_invocations(name, doc):
    """Yield ``validate --delay`` runs for one set, as text and as JSON.

    The budgets are one bit below, at and one bit above the set's
    longest mode member.
    """
    longest = max(len(q) for tree in doc["trees"] for q in tree["mode"])
    for bits in (longest - 1, longest, longest + 1):
        argv = ["validate", f"{name}.json", "--delay", str(bits)]
        yield "validate-delay", argv, None
        yield "validate-delay", argv + ["--json"], None


def conversion_inputs():
    """``(group, name, document, accepted)`` for every conversion input."""
    duplicate = examples.quaternary_aifv2_doc()
    duplicate["symbols"] = ["a", "a", "c", "d"]
    two_spellings = examples.tunstall_vv_doc()
    two_spellings["states"]["a a"] = {"lcword": "1", "follow": ["0"]}
    return [
        ("import", "quaternary_aifv2", examples.quaternary_aifv2_doc(), True),
        ("import", "quaternary_aifv3", examples.quaternary_aifv3_doc(), True),
        ("import", "skewed_aifv3", examples.skewed_aifv3_doc(), True),
        ("import", "duplicate_names", duplicate, False),
        ("import", "shared_node", {
            "kind": "aifv2", "symbols": ["a", "b", "c", "d"],
            "trees": [{"codewords": ["1", "1", "1100", "0110"]},
                      {"codewords": ["1001", "0", "0", "0100"]}]}, False),
        # five violations, of which the refusal names the first three
        ("import", "undecodable", {
            "kind": "aifvm", "m": 2, "convention": "degree",
            "symbols": ["a", "b", "c", "d"],
            "trees": [{"codewords": ["010", "1", "10", "00"]},
                      {"codewords": ["01", "011", "11", "0"]}]}, False),
        ("convert-vv", "pair_huffman_vv", examples.pair_huffman_vv_doc(),
         True),
        ("convert-vv", "tunstall_vv", examples.tunstall_vv_doc(), True),
        ("convert-vv", "two_spellings", two_spellings, False),
        # raise/lower rewriting that never settles
        ("convert-vv", "cycle", {
            "depth": 4, "symbols": ["a", "b"],
            "states": {"": {"lcword": "", "follow": [""]},
                       "a": {"lcword": "01", "follow": [""]},
                       "aa": {"lcword": "0", "follow": ["1"]},
                       "aaa": {"lcword": "0", "follow": ["0"]}},
            "blocks": {"aaaa": "000", "aaab": "001", "aab": "010",
                       "ab": "011", "b": "1"}}, False),
        # normalized tables that fail one and two coverage checks
        ("convert-vv", "lowered_parent", {
            "depth": 3, "symbols": ["a", "b"],
            "states": {"": {"lcword": "", "follow": [""]},
                       "a": {"lcword": "00", "follow": ["0", "1"]},
                       "ab": {"lcword": "0", "follow": ["1"]}},
            "blocks": {"aa": "000", "aba": "010", "abb": "011",
                       "b": "1"}}, False),
        ("convert-vv", "lowered_twice", {
            "depth": 3, "symbols": ["a", "b"],
            "states": {"": {"lcword": "", "follow": [""]},
                       "a": {"lcword": "000", "follow": [""]},
                       "aa": {"lcword": "0", "follow": ["1"]}},
            "blocks": {"aaa": "010", "aab": "011", "ab": "00",
                       "b": "1"}}, False),
    ]


def conversion_invocations():
    """Yield the ``import`` and ``convert-vv`` runs.

    An accepted input is converted once to stdout and once to a file.
    """
    for group, name, doc, accepted in conversion_inputs():
        src = f"{name}.in.json"
        Path(src).write_text(dumps_document(doc), encoding="utf-8")
        yield group, [group, src], None
        if accepted:
            yield group, [group, src, "--output", f"{name}.out.json"], \
                f"{name}.out.json"
    yield "import", ["import", "quaternary_aifv3.in.json",
                     "--kind", "aifv2"], None


def all_invocations():
    """Every run of the corpus, in order."""
    rng = random.Random(5)
    docs = corpus_docs()
    for name, doc in docs:
        yield from invocations(name, doc, rng)
    yield from long_invocations(rng)
    for name, doc in docs:
        yield from budget_invocations(name, doc)
    yield from conversion_invocations()


def run_corpus():
    """The digest of each command group over the whole corpus."""
    digests = {group: hashlib.sha256() for group in GROUPS}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for group, argv, path in all_invocations():
                out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8",
                                       newline="\n")
                err = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(argv)
                out.flush()
                written = Path(path).read_bytes() \
                    if path and Path(path).exists() else None
                record = (argv, code, out.buffer.getvalue(),
                          err.getvalue(), written)
                digests[group].update(repr(record).encode() + b"\n")
        finally:
            os.chdir(cwd)
    return {group: h.hexdigest() for group, h in digests.items()}


def test_cli_outputs_match_the_pinned_corpus():
    assert run_corpus() == json.loads(PINNED.read_text())


if __name__ == "__main__":
    PINNED.write_text(json.dumps(run_corpus(), indent=2) + "\n")
