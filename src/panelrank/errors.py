"""Exception hierarchy for panelrank.

Every error raised by the library derives from PanelRankError. Input-shaped
problems (bad numbers, mismatched lengths, unusable files) get their own
subclasses so callers can map them to diagnostics; anything else escaping the
library is a bug, not a user error.
"""

from __future__ import annotations


class PanelRankError(Exception):
    """Base class for all library errors.

    The optional location is a human-readable pointer into the input that
    caused the error (a file position or a label path), kept separate from
    the message so tools can surface it on its own; reason is the message
    without it.
    """

    def __init__(self, message: str, location: str | None = None):
        self.reason = message
        self.location = location
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)


class DomainError(PanelRankError):
    """A numeric value violates its mathematical domain."""


class LengthMismatchError(PanelRankError):
    """Two sequences that must align have different lengths."""


class DegenerateError(PanelRankError):
    """An aggregate vanished entirely and cannot be normalized."""


class ParseError(PanelRankError):
    """Input text is not well-formed."""


class SchemaError(PanelRankError):
    """Input text is well-formed but violates the documented schema."""
