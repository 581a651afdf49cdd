"""Exception hierarchy shared across the package, and shown, which echoes
a rejected value in a message.

Everything raised on purpose derives from SkewtorusError so the CLI can
map failures to exit codes in one place: configuration and truncation
problems exit 3, property failures exit 2.
"""

from __future__ import annotations


def shown(value: object) -> str:
    """repr(value) for an error message: a repr over 100 characters keeps
    its first 100 and gives its length, so a huge value cannot swell the
    message."""
    text = repr(value)
    if len(text) <= 100:
        return text
    return f"{text[:100]}... (a repr of {len(text)} characters)"


class SkewtorusError(Exception):
    """Base class for all package errors."""


class ConfigurationError(SkewtorusError):
    """Invalid configuration, declaration, or structurally bad input."""


class ParseError(SkewtorusError):
    """Text input rejected; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class TruncationError(SkewtorusError):
    """An angle's denominators do not divide L! at the active level.

    ``required_level`` is the smallest level that would accept the value,
    or None when no level up to ``endo.LEVEL_SEARCH_BOUND`` would.
    """

    def __init__(self, message: str, required_level: int | None) -> None:
        if required_level is not None:
            message += f"; smallest sufficient level is {required_level}"
        super().__init__(message)
        self.required_level = required_level


class MembershipError(SkewtorusError):
    """A component tuple violates the group membership conditions."""

    def __init__(self, index: int, message: str) -> None:
        super().__init__(f"component {index}: {message}")
        self.index = index


class RelationError(SkewtorusError):
    """A relation's precondition fails (coset comparisons, predicted forms)."""
