"""The package's public namespace, and what importing it loads."""

import ast
import json
import os
import subprocess
import sys

import aifv
from aifv import examples, formats

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")

# the modules behind the names ``import aifv`` exports
CORE = ["aifv", "aifv.bitstring", "aifv.codec", "aifv.codetree",
        "aifv.errors"]
LAZY = ["analysis", "cli", "examples", "formats", "transform", "wordset"]

# prints, as JSON on its last line, the package modules loaded so far
LOADED = """
print(json.dumps(sorted(m for m in sys.modules
                        if m == "aifv" or m.startswith("aifv."))))
"""


def fresh(code, *args):
    """Runs ``code`` in a fresh interpreter; returns its last line's JSON."""
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code, *args],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from aifv import *", namespace)
    assert set(aifv.__all__) <= set(namespace)


def test_import_loads_only_the_set_core():
    assert fresh("import aifv" + LOADED) == CORE


def test_lazy_submodules_load_on_first_access():
    result = fresh(f"""
import aifv
names = {LAZY!r}
listed = all(n in dir(aifv) for n in names)
unloaded = not any(n in vars(aifv) for n in names)
plain = all(getattr(aifv, n) is sys.modules["aifv." + n]
            and vars(aifv)[n] is sys.modules["aifv." + n] for n in names)
print(json.dumps([listed, unloaded, plain]))
""")
    assert result == [True, True, True]


def test_star_and_from_imports_in_a_fresh_interpreter():
    result = fresh("""
from aifv import *
from aifv import examples, formats
names = dict(globals())
print(json.dumps([sorted(n for n in ("analysis", "examples", "formats")
                         if type(names[n]) is type(sys)),
                  formats.parse_tree_set(formats.tree_set_to_doc(
                      examples.binary_delay3_set())).tree_count]))
""")
    assert result == [["analysis", "examples", "formats"], 5]


def test_running_a_set_document_loads_no_other_module(tmp_path):
    path = tmp_path / "skewed.json"
    path.write_text(formats.dumps_document(
        formats.tree_set_to_doc(examples.skewed_delay3_set())))
    loaded = fresh("""
import aifv
from aifv import formats
with open(sys.argv[1], encoding="utf-8") as fh:
    ts = formats.parse_tree_set(formats.loads_document(fh.read()))
assert all(aifv.validate(ts, m).ok for m in ("direct", "interval"))
assert aifv.decoding_delay(ts) == 3
msg = [0, 1, 2, 3, 3, 2, 1, 0] * 4
stream = aifv.encode(ts, msg).bits
assert list(aifv.decode(ts, stream, len(msg)).symbols) == msg
""" + LOADED, str(path))
    assert loaded == sorted(CORE + ["aifv.formats"])


def traced_modules():
    """The module names in ``LAYERS`` of perfbench/tracing.py."""
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    layers, = [node.value for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["LAYERS"]]
    return sorted({entry.elts[0].value for entry in layers.elts})


def test_cli_loads_every_traced_layer():
    # the bench's tracer reads sys.modules["aifv.<m>"] for every layer
    # right after ``import aifv, aifv.cli``
    modules = traced_modules()
    assert {"cli", "transform", "wordset", "analysis"} <= set(modules)
    loaded = fresh("import aifv, aifv.cli" + LOADED)
    assert [m for m in modules if f"aifv.{m}" not in loaded] == []
