"""Exception types shared across the package."""


class AifvError(Exception):
    """Base class for all errors raised by this package."""


class NotAPrefix(AifvError):
    """A prefix subtraction was attempted with a non-prefix."""


class CapExceeded(AifvError):
    """An enumeration was requested beyond the configured size cap."""


class MemberTooLong(AifvError):
    """A word-set member is longer than the allowed bit budget."""


class IndexOutOfRange(AifvError):
    """A tree id or symbol id falls outside the valid dense range."""


class InvalidSet(AifvError):
    """A word set or code-tree set violates a structural invariant."""


class Unvalidated(InvalidSet):
    """An operation required a code-tree set that passes validation.

    Carries the failing report (if one was computed) as ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SymbolOutOfRange(AifvError):
    """A source symbol id is not in 0..M-1."""


class _StreamError(AifvError):
    """A decode that stopped: at which symbol and stream bit."""

    def __init__(self, message, symbol_index=None, bit_position=None):
        super().__init__(message)
        self.symbol_index = symbol_index
        self.bit_position = bit_position


class NoMatch(_StreamError):
    """The decoder found no symbol consistent with the bit stream."""


class Truncated(_StreamError):
    """The bit stream ended before a symbol could be confirmed."""


class NormalizationFailed(AifvError):
    """A VV code table could not be rewritten into a usable form."""


class DepthExceeded(AifvError):
    """A VV table entry is longer than the declared parse depth."""


class StructureViolation(AifvError):
    """A conventional code tree breaks its structural rules."""


class DimensionMismatch(AifvError):
    """Two objects that must share a dimension do not."""


class FormatError(AifvError):
    """A document or byte stream cannot be parsed."""
