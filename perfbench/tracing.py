"""Spans around the package's layer boundaries, recorded from outside.

``Tracer.install`` replaces each function named in ``LAYERS`` with a
wrapper, in every ``aifv`` module that holds a reference to it, and
``uninstall`` puts the originals back; the package itself is never
edited.  Only layer boundaries are wrapped: the per-pair predicates the
validators call millions of times are left alone, so tracing costs a
few microseconds per layer call and not per inner-loop step.

A span is (name, start, end, parent, op, attrs, error).  Spans stay in
memory while the run lasts and are written out once at the end.
"""

from __future__ import annotations

import json
import math
import sys
import time


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.main"


def _validate_name(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs.get("method", "direct")
    return f"codetree.validate_{method}"


def _expanded_words(tree_set):
    trees = tree_set.trees
    return sum(len(trees[point].mode)
               for tree in trees for point in tree.points)


# the count functions run after the call; ``result`` is None if it raised

def _validate_attrs(args, kwargs, result):
    return {"size": _expanded_words(args[0]),
            "violations": len(result.violations) if result is not None else 0}


def _encode_attrs(args, kwargs, result):
    return {"size": len(args[1]),
            "bits": result.bits.length if result is not None else 0,
            "alphabet": args[0].symbol_count}


def _decode_attrs(args, kwargs, result):
    return {"size": args[2], "alphabet": args[0].symbol_count}


def _reduce_attrs(args, kwargs, result):
    lengths = [w.length for w in args[0]]
    return {"size": max(lengths), "member_bits": sum(lengths)}


def _mc_attrs(args, kwargs, result):
    return {"symbols": args[2]}


# (module, attribute, span name or function naming the span from the
# call's arguments, function deriving counts from arguments and result)
LAYERS = [
    ("cli", "main", _cli_name, None),
    ("formats", "parse_tree_set", "formats.parse_tree_set", None),
    ("formats", "write_bitstream", "formats.write_bitstream", None),
    ("formats", "read_bitstream", "formats.read_bitstream", None),
    ("formats", "dumps_document", "formats.dumps_document", None),
    ("codetree", "validate", _validate_name, _validate_attrs),
    ("codetree", "decoding_delay", "codetree.decoding_delay", None),
    ("codec", "encode", "codec.encode", _encode_attrs),
    ("codec", "decode", "codec.decode", _decode_attrs),
    ("wordset", "reduce", "wordset.reduce", _reduce_attrs),
    ("transform", "to_basic", "transform.to_basic", None),
    ("transform", "import_aifv2", "transform.import", None),
    ("transform", "import_aifvm", "transform.import", None),
    ("transform", "vv_to_tree_set", "transform.import", None),
    ("analysis", "stationary", "analysis.stationary", None),
    ("analysis", "expected_code_length", "analysis.expected_code_length",
     None),
    ("analysis", "monte_carlo_rate", "analysis.monte_carlo_rate", _mc_attrs),
]


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._restore = []

    def _wrap(self, fn, name, attrs):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    None, False]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if attrs is not None:
                    span[5] = attrs(args, kwargs, result)

        return wrapper

    def install(self, package):
        """Wrap every layer function wherever the package refers to it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__
                   or n.startswith(package.__name__ + ".")]
        for mod_name, attr, name, attrs in LAYERS:
            module = sys.modules[f"{package.__name__}.{mod_name}"]
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        # BitString.from_text is a classmethod; wrap the bound call
        cls = package.bitstring.BitString
        original = cls.__dict__["from_text"]
        func = original.__func__
        bound = self._wrap(lambda text: func(cls, text),
                           "bitstring.from_text", None)
        cls.from_text = classmethod(lambda _cls, text: bound(text))
        self._restore.append((cls, "from_text", original))

    def uninstall(self):
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "attrs", "error"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def loglog_slope(points):
    """Least-squares slope of log(time) against log(size), with the fit.

    Returns (slope, n, distinct sizes); the slope is 0.0 when fewer
    than two distinct positive sizes were seen.
    """
    pts = [(math.log(x), math.log(t)) for x, t in points if x > 0 and t > 0]
    sizes = len({x for x, _ in pts})
    if sizes < 2:
        return 0.0, len(pts), sizes
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx, len(pts), sizes
