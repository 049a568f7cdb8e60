"""Command-line interface.

Every subcommand exchanges code-tree sets as JSON documents (see
``formats``).  Exit status 0 means success (and "valid" where a check
ran), 1 means a domain failure (invalid set, undecodable stream,
budget exceeded), 2 means the input could not be read or parsed.

Set AIFV_MAX_DELAY to an integer to refuse any loaded code-tree set
whose mode members exceed that many bits.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .analysis import entropy, monte_carlo_rate, rate_and_stationary
from .codec import _decode, encode
from .codetree import check_delay_budget, decoding_delay, validate
from .errors import AifvError, FormatError, MemberTooLong
from .formats import (dumps_document, loads_document, loads_json,
                      parse_conventional, parse_distribution, parse_tree_set,
                      parse_vv_table, read_bitstream, tree_set_to_doc,
                      write_bitstream)
from .transform import import_aifv2, import_aifvm, to_basic, vv_to_tree_set
from . import bitstring


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_bytes(path):
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _write_text(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_bytes(path, data):
    if path is None or path == "-":
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def _load_tree_set(path):
    tree_set = parse_tree_set(loads_document(_read_text(path)))
    cap = os.environ.get("AIFV_MAX_DELAY")
    if cap is not None:
        try:
            bits = int(cap)
        except ValueError:
            raise FormatError(
                f"AIFV_MAX_DELAY must be an integer, not {cap!r}")
        if not check_delay_budget(tree_set, bits):
            raise MemberTooLong(
                f"a mode member exceeds the AIFV_MAX_DELAY cap of "
                f"{bits} bits")
    return tree_set


# every character str.split() splits on, the ones with str.isspace()
_WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680"
               "\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008"
               "\u2009\u200a\u2028\u2029\u202f\u205f\u3000")


def _latin1_names(tree_set):
    """The symbol names as one latin-1 byte each, or None if any is not."""
    names = tree_set.symbols
    if all(len(name) == 1 for name in names):
        try:
            return "".join(names).encode("latin-1")
        except UnicodeEncodeError:
            pass
    return None


class _OneCharIds(dict):
    """A ``str.translate`` table that refuses the characters it lacks.

    ``str.translate`` keeps a character whose lookup raises LookupError;
    FormatError is none, so the pass stops at the first unknown one.
    """

    def __missing__(self, code):
        raise FormatError(f"unknown symbol {chr(code)!r}")


def _parse_symbol_text(text, tree_set):
    names = tree_set.symbols
    if all(len(name) == 1 for name in names):
        # one pass: each name becomes chr(id), whitespace goes, and any
        # other character raises, first in text order ('abba' reads as
        # 'a b b a')
        table = _OneCharIds(zip(map(ord, names), map(chr, range(len(names)))))
        table.update(dict.fromkeys(map(ord, _WHITESPACE)))
        ids = text.translate(table)
        # ids past 255 fit in no byte
        return ids.encode("latin-1") if len(names) <= 256 \
            else list(map(ord, ids))
    index = {name: a for a, name in enumerate(names)}
    try:
        return [index[token] for token in text.split()]
    except KeyError as exc:
        raise FormatError(f"unknown symbol {exc.args[0]!r}") from None


def _cmd_validate(args):
    tree_set = _load_tree_set(args.trees)
    methods = ["direct", "interval"] if args.method == "both" \
        else [args.method]
    reports = [validate(tree_set, m) for m in methods]
    report = reports[0]
    if len(reports) == 2 and reports[0].violations != reports[1].violations:
        print("error: validation methods disagree", file=sys.stderr)
        return 1
    budget_ok = True
    if args.delay is not None:
        budget_ok = check_delay_budget(tree_set, args.delay)
    if args.json:
        out = {"method": args.method, "ok": report.ok,
               "violations": [v._asdict() for v in report.violations]}
        if args.delay is not None:
            out["delay_budget"] = {"bits": args.delay, "ok": budget_ok}
        print(dumps_document(out), end="")
    else:
        if report.ok:
            print("valid")
        else:
            print(f"invalid: {len(report.violations)} violation(s)")
            for v in report.violations:
                print(v.message)
        if args.delay is not None:
            state = "ok" if budget_ok else "exceeded"
            print(f"delay budget {args.delay}: {state}")
    return 0 if report.ok and budget_ok else 1


def _cmd_encode(args):
    tree_set = _load_tree_set(args.trees)
    if args.text is not None:
        text = args.text
    else:
        text = _read_text(args.input)
    symbols = _parse_symbol_text(text, tree_set)
    result = encode(tree_set, symbols)
    if args.format == "binary":
        _write_bytes(args.output, write_bitstream(result.bits, len(symbols)))
    else:
        _write_text(args.output, result.bits.text() + "\n")
    return 0


def _cmd_decode(args):
    tree_set = _load_tree_set(args.trees)
    if args.bits is not None:
        bits = bitstring.BitString.from_text(args.bits)
        length = args.length
    else:
        data = _read_bytes(args.input)
        fmt = args.format
        if fmt == "auto":
            fmt = "binary" if data[:4] == b"AIFV" else "ascii"
        if fmt == "binary":
            bits, length = read_bitstream(data)
            if args.length is not None:
                length = args.length
        else:
            bits = bitstring.BitString.from_text(data.decode("utf-8").strip())
            length = args.length
    if length is None:
        raise FormatError("a symbol count is required: pass --length")
    symbols, _, _ = _decode(tree_set, bits, length)
    codes = _latin1_names(tree_set)
    if codes is None:
        names = tree_set.symbols
        text = " ".join([names[a] for a in symbols]) + "\n"
    else:
        # at most 256 names, so the ids come as a bytearray; the names
        # go to the even bytes, between spaces, and "\n" replaces the
        # last space, or is the whole output when empty
        out = bytearray(b" ") * (2 * len(symbols))
        out[::2] = symbols.translate(codes.ljust(256, b"\0"))
        out[-1:] = b"\n"
        text = out.decode("latin-1")
    _write_text(args.output, text)
    return 0


def _cmd_reduce(args):
    tree_set = _load_tree_set(args.trees)
    converted = to_basic(tree_set)
    _write_text(args.output, dumps_document(tree_set_to_doc(converted)))
    return 0


def _cmd_analyze(args):
    tree_set = _load_tree_set(args.trees)
    dist = parse_distribution(loads_json(_read_text(args.dist)))
    delay = decoding_delay(tree_set)
    h = entropy(dist)
    rate, pi = rate_and_stationary(tree_set, dist)
    mc = None
    if args.mc:
        mc = monte_carlo_rate(tree_set, dist, args.mc, args.seed)
    if args.json:
        out = {"trees": tree_set.tree_count,
               "symbols": list(tree_set.symbols),
               "decoding_delay": delay,
               "entropy": h,
               "expected_code_length": rate,
               "stationary": [float(p) for p in pi]}
        if mc is not None:
            out["monte_carlo"] = {"n": args.mc, "seed": args.seed,
                                  "rate": mc}
        print(dumps_document(out), end="")
    else:
        print(f"trees: {tree_set.tree_count}")
        print(f"symbols: {' '.join(tree_set.symbols)}")
        print(f"decoding delay: {delay}")
        print(f"entropy: {h:.6f}")
        print(f"expected code length: {rate:.6f}")
        print("stationary: " + " ".join(f"{p:.6f}" for p in pi))
        if mc is not None:
            print(f"monte carlo rate: {mc:.6f} "
                  f"(n={args.mc}, seed={args.seed})")
    return 0


def _cmd_import(args):
    doc = loads_document(_read_text(args.input))
    kind, m, convention, symbols, trees = parse_conventional(doc)
    if args.kind is not None:
        kind = args.kind
    if kind == "aifv2":
        tree_set = import_aifv2(trees, symbols)
    else:
        tree_set = import_aifvm(trees, m, symbols, convention)
    _write_text(args.output, dumps_document(tree_set_to_doc(tree_set)))
    return 0


def _cmd_convert_vv(args):
    table = parse_vv_table(loads_document(_read_text(args.table)))
    tree_set = vv_to_tree_set(table)
    _write_text(args.output, dumps_document(tree_set_to_doc(tree_set)))
    return 0


def _cmd_delay(args):
    tree_set = _load_tree_set(args.trees)
    print(decoding_delay(tree_set))
    return 0


@functools.cache
def build_parser():
    """The ``aifv`` argument parser, built once and shared by every call.

    ``parse_args`` returns a fresh namespace each time and leaves the
    parser as it was, so ``main`` can reuse it, refused argv included.
    """
    parser = argparse.ArgumentParser(
        prog="aifv",
        description="Work with code-tree sets: validate, encode, decode, "
                    "convert, and analyze.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a code-tree set")
    p.add_argument("trees")
    p.add_argument("--method", choices=["direct", "interval", "both"],
                   default="direct")
    p.add_argument("--delay", type=int, default=None,
                   help="also require every mode member to fit this "
                        "many bits")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("encode", help="encode symbols to bits")
    p.add_argument("trees")
    p.add_argument("--input", default="-",
                   help="file of symbol names (default stdin)")
    p.add_argument("--text", default=None,
                   help="symbols given directly on the command line")
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=["ascii", "binary"],
                   default="ascii")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode bits to symbols")
    p.add_argument("trees")
    p.add_argument("--input", default="-",
                   help="encoded file (default stdin)")
    p.add_argument("--bits", default=None,
                   help="bits given directly on the command line")
    p.add_argument("--length", type=int, default=None,
                   help="number of symbols to decode")
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=["ascii", "binary", "auto"],
                   default="auto")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("reduce",
                       help="convert a set so every mode is basic")
    p.add_argument("trees")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("analyze",
                       help="rates and delay under a source distribution")
    p.add_argument("trees")
    p.add_argument("--dist", required=True,
                   help="JSON file with source probabilities")
    p.add_argument("--mc", type=int, default=0,
                   help="also run a Monte Carlo sample of this size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("import",
                       help="convert conventional code trees")
    p.add_argument("input")
    p.add_argument("--kind", choices=["aifv2", "aifvm"], default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_import)

    p = sub.add_parser("convert-vv",
                       help="convert a variable-to-variable code table")
    p.add_argument("table")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_convert_vv)

    p = sub.add_parser("delay", help="print the decoding delay")
    p.add_argument("trees")
    p.set_defaults(func=_cmd_delay)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (FormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AifvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
