"""Exception types shared across the package.

Every error that carries a witness exposes it as a structured attribute so
that callers (and the CLI) can replay the failing instance.
"""

from __future__ import annotations


class SemicoverError(Exception):
    """Base class for all package errors."""


# -- group models -----------------------------------------------------------

class MalformedTable(SemicoverError):
    """Cayley table file has wrong dimensions or out-of-range indices."""


class NotAGroup(SemicoverError):
    """Table fails a group axiom; `witness` is the offending triple/pair."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvalidElement(SemicoverError):
    """Element is not a valid normal form for the model."""


class BallTooLarge(SemicoverError):
    """Ball enumeration exceeded the configured element cap."""


class NotASubgroup(SemicoverError):
    """Subset is not closed / inverse-closed / missing the identity."""


# -- cone sets --------------------------------------------------------------

class ModelMismatch(SemicoverError):
    """Cone was built over a different model than the one supplied."""


# -- order engine -----------------------------------------------------------

class NotACone(SemicoverError):
    """A positive-cone axiom fails; `witness` is the failing element."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class TrivialQuotient(SemicoverError):
    """Quotient order is trivial on the working ball; no cover exists."""


class MatrixTooLarge(SemicoverError):
    """Integer matrix exceeds the configured dimension cap."""


class ParseError(SemicoverError):
    """Malformed presentation, cone spec, element string, or option value."""


class NotNormalized(SemicoverError):
    """Cover pair is not in normalized form (trivial intersection etc.)."""


# -- cover engine -----------------------------------------------------------

class NotACover(SemicoverError):
    """Input pair fails a covering verdict; `flags` holds the verdicts."""

    def __init__(self, message, flags=None):
        super().__init__(message)
        self.flags = flags


class LemmaViolation(SemicoverError):
    """Both halves of the intersection split are nonempty, which cannot
    happen for genuine subsemigroup covers.  Carries the witness pair and
    the derived non-closure evidence."""

    def __init__(self, message, witness=None, non_closure=None):
        super().__init__(message)
        self.witness = witness
        self.non_closure = non_closure


class IdentityOnlyH(SemicoverError):
    """The symmetric part of the B side is trivial; nothing to split."""


class NothingToRefine(SemicoverError):
    """Conjugate split produced no usable piece at the chosen element."""


class ClosureViolation(SemicoverError):
    """A refinement postcondition failed on the ball; `witness` is the
    offending pair (or element) and `check` names the failed condition."""

    def __init__(self, message, witness=None, check=None):
        super().__init__(message)
        self.witness = witness
        self.check = check


class DepthExceeded(SemicoverError):
    """Descent budget exhausted; `state` is the partial DescentState."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


# -- covering numbers -------------------------------------------------------

class GroupTooLarge(SemicoverError):
    """Group order exceeds the configured enumeration cap."""


class CoveringMismatch(SemicoverError):
    """Covering-number computations disagree with each other or with the
    group's cyclicity, or a torsion trace with the group's inverses."""


# -- cli ---------------------------------------------------------------------

class UnknownSuite(SemicoverError):
    """Verification suite name is not recognized."""
