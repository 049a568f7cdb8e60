"""Almost instantaneous fixed-to-variable binary codes with bounded delay.

The package builds, checks, and runs families of code trees that share
one alphabet and switch among each other after every symbol.  Compared
with a single prefix-free code, the switching buys shorter codewords at
the cost of a bounded decoding delay: the decoder may need to peek a
few bits ahead before committing to a symbol.

Start with ``examples`` for ready-made codes, ``validate`` to check
your own, ``encode``/``decode`` to run them, and ``analysis`` for
compression rates.
"""

from .bitstring import (BitString, comparable, is_prefix, is_strict_prefix,
                        longest_common_prefix, strip_prefix)
from .codec import (DecodeTrace, EncodeResult, decode, encode,
                    encode_without_termination, max_realized_lookahead)
from .codetree import (CodeTree, CodeTreeSet, ValidationReport, Violation,
                       check_delay_budget, decoding_delay, expand, expands,
                       flatten_expands, is_full, reachable_trees, validate)
from .errors import (AifvError, CapExceeded, DepthExceeded,
                     DimensionMismatch, FormatError, IndexOutOfRange,
                     InvalidSet, MemberTooLong, NoMatch, NoConvergence, NormalizationFailed, NotAPrefix,
                     StructureViolation, SymbolOutOfRange, Truncated,
                     Unvalidated)
from .transform import (ConventionalTree, VVCodeTable,
                        equivalent_up_to_termination, import_aifv2,
                        import_aifvm, to_basic, vv_to_tree_set)
from .wordset import (all_strings, common_prefix, enumerate_basic_modes,
                      expand_to_fixed_length, in_full_closure,
                      is_prefix_free, reduce, to_basic_mode)
from . import analysis, examples, formats

__version__ = "0.1.0"

__all__ = [
    "AifvError", "BitString", "CapExceeded", "CodeTree",
    "CodeTreeSet", "ConventionalTree", "DecodeTrace", "DepthExceeded",
    "DimensionMismatch", "EncodeResult",
    "FormatError", "IndexOutOfRange", "InvalidSet", "MemberTooLong",
    "NoConvergence", "NoMatch", "NormalizationFailed", "NotAPrefix",
    "StructureViolation", "SymbolOutOfRange", "Truncated",
    "Unvalidated", "VVCodeTable", "ValidationReport", "Violation",
    "all_strings", "analysis", "check_delay_budget", "common_prefix",
    "comparable", "decode", "decoding_delay", "encode",
    "encode_without_termination", "enumerate_basic_modes",
    "equivalent_up_to_termination", "examples", "expand",
    "expand_to_fixed_length", "expands", "flatten_expands", "formats",
    "import_aifv2", "import_aifvm", "in_full_closure",
    "is_full", "is_prefix", "is_prefix_free",
    "is_strict_prefix", "longest_common_prefix", "max_realized_lookahead",
    "reachable_trees", "reduce", "strip_prefix", "to_basic",
    "to_basic_mode", "validate",
    "vv_to_tree_set",
]
