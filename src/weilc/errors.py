"""Exception types shared across the package."""


class WeilcError(Exception):
    """Base class for all errors raised by this package."""


class EmptyRelation(WeilcError):
    """A relation of total degree 0 would collapse the unit."""


class NotFiniteDimensional(WeilcError):
    """Some generator admits no pure-power relation, so the quotient is infinite."""


class AlgebraMismatch(WeilcError):
    """Two values that must live over the same algebra do not."""


class DimensionMismatch(WeilcError):
    """Chart dimensions or component counts disagree."""


class DomainError(WeilcError):
    """A primitive function was evaluated outside its real domain."""


class NotMorphism(WeilcError):
    """A candidate algebra map fails the unit, product, or augmentation check."""


class DegreeError(WeilcError):
    """A form operation received a form of invalid degree."""


class ParseError(WeilcError):
    """Expression text could not be parsed.  Carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbol(ParseError):
    """An identifier is neither a chart variable nor a known function."""


class UnknownSuite(WeilcError):
    """Requested check suite is not registered."""


class ConfigError(WeilcError):
    """Project configuration file is missing, malformed, or inconsistent."""
