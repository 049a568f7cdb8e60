"""Set-up time, measured in a fresh interpreter.

Usage: python3 probe.py SRC_DIR SPEC_JSON

SPEC_JSON lists the sets a workload loads before its first operation:
``{"example": name}`` calls ``aifv.examples.<name>()`` and
``{"doc": path}`` parses a set document from a file.  The probe times
``import aifv``, loading each set, its first validation and its first
codec table build, and prints ``{"setup_s": seconds}``.  Interpreter
start-up is not counted: it is paid by any Python program.
"""

from __future__ import annotations

import json
import sys
import time


def load_sets(aifv, spec):
    """Load, validate and prepare every set in ``spec``; returns the sets."""
    sets = []
    for entry in spec:
        if "example" in entry:
            tree_set = getattr(aifv.examples, entry["example"])()
        else:
            with open(entry["doc"], encoding="utf-8") as fh:
                doc = aifv.formats.loads_document(fh.read())
            tree_set = aifv.formats.parse_tree_set(doc)
        tree_set.ensure_valid()
        # a one-symbol encode builds the per-set codec tables
        aifv.codec.encode(tree_set, [0])
        sets.append(tree_set)
    return sets


def main(src, spec_path):
    start = time.perf_counter()
    sys.path.insert(0, src)
    import aifv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    load_sets(aifv, spec)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
