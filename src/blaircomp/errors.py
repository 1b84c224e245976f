"""Exception types shared across the package."""


class BlaircompError(Exception):
    """Base of every error the package raises for a failed check."""


class DimensionMismatchError(BlaircompError, ValueError):
    """Array shapes are inconsistent with the declared problem dimensions."""


class ParameterError(BlaircompError, ValueError):
    """A numeric parameter is outside its admissible range."""


class DegenerateAlignmentError(BlaircompError, ValueError):
    """Alignment is undefined: ``align_pair`` (and the metrics built on it)
    or a direct ``wf_step`` call met a block whose norm is zero or outside
    ``ensemble._NORM_RANGE``, or ``align_pair`` met alignment coefficients
    that overflow; ``run_wf`` ends a run with it at the first iterate that
    holds such a block; ``incoherence`` raises it for a zero channel in the
    ground truth."""


class UndefinedMetricError(BlaircompError, ValueError):
    """A metric's normalizer vanishes (e.g. zero target vector)."""


class DivergenceError(BlaircompError, RuntimeError):
    """The solver's loss became non-finite or blew up."""


class ConfigError(BlaircompError, ValueError):
    """An experiment configuration is invalid or incomplete."""
