"""Exception types shared across the package."""


class PoleError(ArithmeticError):
    """A denominator vanished at a binding (inverse binomial or affine quotient).

    Bindings that trigger this are excluded by the validity hypotheses of the
    identity being checked; grid sweeps count them as pole skips, never as
    failures.
    """


class PreconditionError(ValueError):
    """A binding violates a structural precondition.

    Typical causes: a binomial lower index that is not an integer, a negative
    lower index on a non-integer upper index, or a negative kernel exponent.
    """


class UnboundParameterError(KeyError):
    """An expression references a parameter the binding does not supply."""


class ShapeError(ValueError):
    """A descriptor does not have the shape a transform requires."""


class UnknownEntryError(KeyError):
    """No catalog entry with the requested id."""


class EmptyGridError(ValueError):
    """A grid specification produced no bindings."""


class NonIntegerExponentError(ValueError):
    """Exact Beta evaluation needs non-negative integer exponents."""


class SingularExponentError(ValueError):
    """Quadrature is not attempted when an exponent is negative."""


class DslSyntaxError(ValueError):
    """Malformed identity source; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class DslArityError(DslSyntaxError):
    """A function-style factor has the wrong number of arguments."""
