"""Exception types shared across the package."""


class TreesepError(Exception):
    """Base class for all errors raised by this package."""


class AlphabetError(TreesepError):
    """A letter, tree, or automaton does not fit the expected ranked alphabet."""


class ArityError(TreesepError):
    """Wrong number of ports, arguments, or child states."""


class ParseError(TreesepError):
    """Malformed textual input."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class FormatError(TreesepError):
    """A structured text file (grammar, automaton) violates its format."""


class TransitionError(TreesepError):
    """A transition table is incomplete and has no rejecting sink to fall back on."""


class ResourceError(TreesepError):
    """A computation exceeds a configured bound."""


class RotationSearchExhausted(TreesepError):
    """No admissible re-association term was found within the size bound.

    Carries the bound so callers can report exactly how far the search went;
    exhaustion makes no claim that no such term exists.
    """

    def __init__(self, bound):
        super().__init__(f"no admissible term found up to size {bound}")
        self.bound = bound
