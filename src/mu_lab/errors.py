"""Exception hierarchy shared across the package."""


class MuLabError(Exception):
    """Base class for all package-specific failures."""


class NonPositiveDelay(MuLabError):
    """A delay r must be strictly positive."""


class OutOfDomain(MuLabError):
    """A segment was evaluated outside [-r, 0]."""


class StepMisaligned(MuLabError):
    """Integrator step is not positive or does not divide the delay."""


class NonFiniteState(MuLabError):
    """Integration produced NaN or overflow."""


class TimeOrder(MuLabError):
    """Operator evaluated with t, s in the wrong order."""


class EmptyWindow(MuLabError):
    """The admissible window for the weight exponent is empty."""


class XiOutOfWindow(MuLabError):
    """Weight exponent outside its admissible open window."""


class TruncationUnreachable(MuLabError):
    """Tail envelopes cannot meet the requested tolerance within max_span."""


class NotContracting(MuLabError):
    """Fixed-point sweeps measured a non-contracting update twice in a row."""


class ConfigError(MuLabError):
    """Scenario file is malformed; message carries the offending field."""


class MissingSeries(MuLabError):
    """Requested plot series is absent from the report."""
