"""Typed failures shared across the library."""


class NeronError(Exception):
    """Base class for all library errors."""


class UnknownVariable(NeronError):
    """A polynomial or substitution referenced a variable the ring lacks."""


class NotDivisible(NeronError):
    """Exact division by a pi power failed on a scalar or polynomial."""


class ResourceLimit(NeronError):
    """A Groebner run exceeded the configured pair or degree budget."""

    def __init__(self, message: str, pairs: int = 0, degree: int = 0):
        super().__init__(message)
        self.pairs = pairs
        self.degree = degree


class NotASubgroup(NeronError):
    """A proposed centre or subgroup ideal failed its Hopf-ideal checks."""


class DivisionObstruction(NeronError):
    """Certified division by a pi power failed modulo the relation ideal."""

    def __init__(self, message: str, witness: str = ""):
        super().__init__(message)
        self.witness = witness


class LiftFailure(NeronError):
    """A universal-property lift does not exist; carries the witness."""

    def __init__(self, message: str, witness: str = ""):
        super().__init__(message)
        self.witness = witness


class ShapeMismatch(NeronError):
    """A representation matrix failed a required block or divisibility shape."""


class NotFiniteDimensional(NeronError):
    """A quotient expected to be a finite dimensional k-space is not."""


class ParseError(NeronError):
    """Input text rejected; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class UndefinedName(NeronError):
    """A block referenced a group, rep or morphism that was never defined."""
