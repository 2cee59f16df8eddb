"""Exception types shared across the package, and the base of its value types.

Every domain failure raises one of these; callers (in particular the CLI)
can map them to machine-readable error objects without pattern-matching
message strings.
"""

from operator import attrgetter


class Frozen:
    """Base of the package's immutable values: records of the names annotated in the class.

    Two values are equal when they are of one type and their fields are
    equal, read through one attrgetter, and equal values hash alike.  The
    repr lists the fields in order.  Setting or deleting an attribute raises
    AttributeError, so a constructor stores its fields through
    object.__setattr__.  Values keep a __dict__, so a cached_property works
    on them.  A subclass without a constructor of its own takes its fields
    by position or by name, each exactly once.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__["__annotations__"])
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        names = self._fields
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}, "
                            "each once")
        for name in names:
            object.__setattr__(self, name, values[name])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PencillabError(Exception):
    """Base class for all domain errors raised by this package."""


class RiemannHurwitzViolation(PencillabError):
    """Total ramification weight exceeds what a cover of the stated degree admits."""


class FormulationMismatch(PencillabError):
    """The two equivalent nonemptiness formulations disagreed; signals a bug."""


class ProfileInfeasible(PencillabError):
    """No tuple of cycles with the requested orders can exist."""


class ResourceLimit(PencillabError):
    """Search space exceeds the configured budget or hard guard."""


class DegeneratePencil(PencillabError):
    """The two generators are linearly dependent and span no pencil."""


class BasePointAmbiguity(PencillabError):
    """Both query points lie in the base locus; every member contains both."""


class BasePointPresent(PencillabError):
    """Operation requires a base-point-free pencil."""


class CharacteristicObstruction(PencillabError):
    """Field characteristic too small for the requested derivative-based test."""


class CoincidentPoints(PencillabError):
    """Distinct points were required."""


class ChainMismatch(PencillabError):
    """Chain multiset does not match the prescribed multiplicity vector."""


class PointCollision(PencillabError):
    """Node and marked points must be pairwise distinct."""


class ZeroCount(PencillabError):
    """Exponent fit is undefined when a sample count is zero."""
