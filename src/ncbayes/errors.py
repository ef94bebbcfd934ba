"""Exception types shared across the package.

Every error raised on purpose derives from :class:`NcbayesError` so callers
can catch the package's failures without also swallowing programming bugs.
The CLI maps :class:`ConfigurationError` subtypes to exit code 2 and
:class:`NumericError` subtypes to exit code 3.
"""


class NcbayesError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(NcbayesError):
    """A model, dataset, or run description is malformed."""


class NumericError(NcbayesError):
    """A computation failed numerically at runtime."""


# -- model construction ----------------------------------------------------

class CycleError(ConfigurationError):
    """The declared parent relation contains a directed cycle."""


class ShapeError(ConfigurationError):
    """A dimension, weight shape, or vector length is inconsistent."""


class ObservedNotLeaf(ConfigurationError):
    """An observed node appears as a parent of another node."""


class UnsupportedFamily(ConfigurationError):
    """A conditional family or link kind is not implemented."""


class ZeroScale(ConfigurationError):
    """A zero or negative scale was fixed where a density is required."""


class UnboundInput(ConfigurationError):
    """An expression input or node value was not supplied."""


# -- reparameterization ----------------------------------------------------

class NonInvertible(NumericError):
    """A transform cannot be inverted at the requested point."""


class DomainError(NumericError):
    """A value lies outside the support of its distribution."""


# -- posterior analysis ----------------------------------------------------

class SignError(NumericError):
    """A curvature has the wrong sign for a log-concave factor."""


# -- sampling and diagnostics ----------------------------------------------

class NonFinite(NumericError):
    """A quantity that must be finite came out NaN or infinite."""


class StepUnderflow(NumericError):
    """Step-size adaptation collapsed below the representable floor."""


class ConstantSeries(NumericError):
    """Autocorrelation is undefined for a series with zero variance."""


class EmptyESample(NumericError):
    """An expectation step produced no posterior samples."""


# -- data files --------------------------------------------------------------

class BadMagic(ConfigurationError):
    """A binary data file starts with an unrecognized magic number."""


class TruncatedFile(ConfigurationError):
    """A binary data file ends before its header says it should."""
