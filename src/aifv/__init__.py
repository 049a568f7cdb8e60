"""Almost instantaneous fixed-to-variable binary codes with bounded delay.

The package builds, checks, and runs families of code trees that share
one alphabet and switch among each other after every symbol.  Compared
with a single prefix-free code, the switching buys shorter codewords at
the cost of a bounded decoding delay: the decoder may need to peek a
few bits ahead before committing to a symbol.

Start with ``examples`` for ready-made codes, ``validate`` to check
your own, ``encode``/``decode`` to run them, and ``analysis`` for
compression rates.  Everything else is imported from its own module:
``bitstring``, ``wordset``, ``codetree``, ``codec``, ``transform``,
``formats``, ``analysis`` and ``errors``.
"""

from .bitstring import BitString
from .codec import decode, encode
from .codetree import CodeTree, CodeTreeSet, decoding_delay, validate
from .errors import AifvError
from . import analysis, examples, formats

__version__ = "0.1.0"

__all__ = [
    "AifvError", "BitString", "CodeTree", "CodeTreeSet", "analysis",
    "decode", "decoding_delay", "encode", "examples", "formats",
    "validate",
]
