"""Shared exception types, and the one reader of decimal numerals.

The CLI maps these to exit codes: ContractViolation and UsageError are the
caller's fault (exit 2), and InternalError signals a broken invariant inside
the library itself (exit 3).  A failed check is no exception: the command
that reports it returns exit 1.  ``parse_decimal`` lives here because every
module that reads numbers already imports this one, which imports nothing.
"""


class UsageError(ValueError):
    """Malformed command-line input or parameter string."""


class ContractViolation(ValueError):
    """An operation was called with arguments violating its preconditions."""


class InternalError(RuntimeError):
    """A mathematically guaranteed invariant failed; indicates a bug."""


def parse_decimal(text: str, what: str) -> int:
    """A numeral of the input grammars: decimal digits only, never the sign,
    underscores or spaces that int() also reads."""
    if not text.isdecimal():
        raise UsageError(f"{what} must be a decimal integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # longer than the interpreter's int-string digit limit
        raise UsageError(f"{what} of {len(text)} digits is too long") from None
