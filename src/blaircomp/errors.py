"""Exception types shared across the package."""


class BlaircompError(Exception):
    """Base of every error the package raises for a failed check."""


class DimensionMismatchError(BlaircompError, ValueError):
    """Array shapes are inconsistent with the declared problem dimensions."""


class ParameterError(BlaircompError, ValueError):
    """A numeric parameter is outside its admissible range."""


class DegenerateIterateError(BlaircompError, ValueError):
    """An update step would divide by a zero block norm."""


class DegenerateAlignmentError(BlaircompError, ValueError):
    """Alignment is undefined because a block to be aligned is zero."""


class UndefinedMetricError(BlaircompError, ValueError):
    """A metric's normalizer vanishes (e.g. zero target vector)."""


class DivergenceError(BlaircompError, RuntimeError):
    """The solver's loss became non-finite or blew up."""


class ConfigError(BlaircompError, ValueError):
    """An experiment configuration is invalid or incomplete."""
