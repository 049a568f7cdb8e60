"""The package's public namespace."""

import aifv


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from aifv import *", namespace)
    assert set(aifv.__all__) <= set(namespace)
