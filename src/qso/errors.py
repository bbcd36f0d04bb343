"""Exception hierarchy for the qso package.

Every error raised by the library derives from :class:`QsoError`, which in
turn derives from ``ValueError`` so that generic callers can catch bad
inputs without importing this module.
"""

from __future__ import annotations


class QsoError(ValueError):
    """Base class for all qso errors."""


class DimensionMismatch(QsoError):
    """Operands have incompatible dimensions."""


class DimensionUnsupported(QsoError):
    """The operation is only defined for a specific dimension (m = 3)."""


class NegativeCoefficient(QsoError):
    """A coefficient is below zero beyond the validation tolerance."""


class NotStochastic(QsoError):
    """A slice of heredity coefficients does not sum to one."""


class NotSymmetric(QsoError):
    """Coefficients are not symmetric in the first two indices."""


class InvalidPoint(QsoError):
    """A vector is not a probability distribution within tolerance."""


class NotVolterra(QsoError):
    """The operator has mass outside the parental coordinates."""


class InvalidSkew(QsoError):
    """A canonical parameter matrix is not skew-symmetric with entries in [-1, 1]."""


class InvalidFamily(QsoError):
    """Family index outside the supported range."""


class ParameterOutOfRange(QsoError):
    """A parameter lies outside its allowed range (a family parameter outside
    [0, 1], a step, a tolerance or threshold, a sample count, a mode name)."""


class NotOrthogonalityPreserving(QsoError):
    """The operator fails the orthogonality-preservation certificate."""


class VertexImageNotVertex(NotOrthogonalityPreserving):
    """A vertex maps to an interior point, so the operator cannot preserve
    orthogonality and lies outside the classified families."""


class InvalidPermutation(QsoError):
    """An index array is not a bijection of {0, ..., m-1}."""


class TooLarge(QsoError):
    """A request exceeds a documented size cap: more atoms than the
    exhaustive kernel oracle enumerates, a refutation grid step below its
    smallest allowed value, or more ``volterra check --samples`` (as a
    count, or times m^3) or ``dyn iterate --max-iter`` steps than the CLI
    takes."""
