"""Exception types shared across the package."""

import decimal


class CuntzError(Exception):
    """Base class for all library errors."""


class IndexRangeError(CuntzError, ValueError):
    """A generator index lies outside {1..d}, or d < 2."""


class AlphabetMismatchError(CuntzError, ValueError):
    """Operands live in Cuntz algebras with different alphabet sizes."""


class ParseError(CuntzError, ValueError):
    """Malformed element text."""


class SchemaError(CuntzError, ValueError):
    """Malformed JSON for an element, vector, system or endomorphism."""


class ConfigError(CuntzError, ValueError):
    """Malformed setting, such as a term cap that is not a positive integer."""


class EndomorphismValidationError(CuntzError):
    """Candidate generator images violate the defining relations."""

    def __init__(self, failures):
        self.failures = list(failures)
        super().__init__("; ".join(self.failures))


class SystemValidationError(CuntzError):
    """A candidate recursive system failed its defining conditions."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.summary())


class ResourceLimitError(CuntzError):
    """An element or coordinate basis outgrew the configured cap."""

    def __init__(self, count, cap, what="terms", operation=None):
        self.count = count
        self.cap = cap
        self.what = what
        self.operation = operation
        where = f" in {operation}" if operation else ""
        super().__init__(f"{what} count {_count_text(count)} exceeds cap {cap}{where}")


def decimal_digits(n) -> int:
    """The number of decimal digits of a positive count, without printing it."""
    return decimal.Decimal(n).adjusted() + 1


def _count_text(count) -> str:
    """``count`` in full when the interpreter prints it, else by its number
    of digits.  A Decimal stands in for a count too large to form exactly
    (:func:`cuntz.algebra.sweep_words`); past the largest Decimal it is
    infinite."""
    if isinstance(count, int):
        try:
            return str(count)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    if not decimal.Decimal(count).is_finite():
        return f"of more than {decimal.MAX_EMAX} digits"
    return f"of {decimal_digits(count)} digits"
