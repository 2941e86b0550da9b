"""Exception types shared across the package, the base class of its
records, and the refusal that its immutable classes raise on assignment."""



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


def refuse_assignment(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the immutable classes, which
    write each field once, in the constructor, through ``object.__setattr__``
    or a slot's descriptor."""
    raise AttributeError(f"cannot assign to or delete field {name!r} of {type(self).__name__}")


# the immutable records write each field once through object's own setattr
write_field = object.__setattr__


class Record:
    """A record compares, hashes and prints by its fields: the attributes
    that its class names in ``__match_args__``, which lists the parameters of
    its ``__init__`` in order.  Two records are equal only when their classes
    are the same and their fields are equal.

    Set ``__hash__ = None`` on a record that may change after it is built:
    one with a mutable field (a dict of inputs, coefficients or named
    entries) or one whose attributes take assignment.  Its hash then raises
    ``TypeError: unhashable type``."""

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({fields})"
