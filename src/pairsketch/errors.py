"""Exception taxonomy shared across the package."""
from __future__ import annotations


class PairsketchError(Exception):
    """Base class for every error this package raises on purpose."""


class InvalidInitError(PairsketchError):
    """A sketch or state was created from an empty or out-of-range member set."""


class SketchDestroyedError(PairsketchError):
    """An operation touched a handle after a query already fired."""


class InvalidQueryError(PairsketchError):
    """A query was malformed, e.g. a pair query with identical endpoints."""


class PermutationError(PairsketchError):
    """A permutation description is not a bijection or does not fit the universe."""


class ScriptError(PairsketchError):
    """A script step is malformed or inconsistent with the universe."""


class TooLargeError(PairsketchError):
    """Exact enumeration was asked for beyond its guarded size limits."""


class CapacityError(PairsketchError):
    """A streaming run exhausted its preallocated scratch supply."""


class InvalidParamsError(PairsketchError):
    """Algorithm parameters fail their preconditions."""


class ParseError(PairsketchError):
    """An input file does not conform to its documented format."""


class ConfigError(PairsketchError):
    """An experiment configuration is missing fields or holds bad values."""


class ValidationError(PairsketchError):
    """A parsed stream or instance violates a structural requirement.

    ``item`` is the 0-based index of the edge at fault, when one edge is, so a
    file reader can name the line that holds it.
    """

    def __init__(self, message: str, item: int | None = None) -> None:
        super().__init__(message)
        self.item = item


class InvariantError(PairsketchError):
    """An exact internal identity (a law's mass, a survival product) failed: a bug."""
