"""Exception types shared across the package.

Exit-code mapping in the CLI (cli.dispatch): every OSError, OverflowError and
ValueError, DomainError and ParseError among them, is a usage error (1),
CapacityError is a resource cap (2), InvariantViolation is a hard internal
consistency failure (3).
"""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class ParseError(ValueError):
    """Syntax error in the polynomial grammar, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class VariableCountError(ParseError):
    """Variable index exceeds the declared number of variables."""


class CapacityError(RuntimeError):
    """A configured resource cap was exceeded; never a wrong answer."""


class DegenerateReductionError(DomainError):
    """Every generator of an integer model vanished modulo p."""


class InvariantViolation(RuntimeError):
    """A mathematical invariant that must hold was observed to fail."""
