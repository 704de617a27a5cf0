"""Exception hierarchy shared by all hyperreduce modules."""


class HyperreduceError(Exception):
    """Base class for all errors raised by this package."""


class PoleError(HyperreduceError):
    """An argument landed on (or within 1e-12 of) a pole of gamma/digamma."""


class DomainError(HyperreduceError):
    """Input violates the documented domain of an operation or formula."""


class DegenerateParametersError(DomainError):
    """Parameters that must be pairwise distinct are (nearly) coincident."""


class DivergentSeriesError(HyperreduceError):
    """The hypergeometric series diverges for the given spec."""


class NonConvergentAtUnityError(DivergentSeriesError):
    """p = q+1 series at z = 1 with non-positive convergence margin."""


class LowerPoleError(HyperreduceError):
    """A lower parameter hits a non-positive integer before the series terminates."""


class UnsatisfiableDomainError(HyperreduceError):
    """The case sampler could not produce an in-domain parameter set."""


# The exceptions that mean a computation failed numerically: the CLI exits 3
# on them (after mapping DomainError, a usage error, to exit 2), and the
# verifier turns them into a verdict against the side that raised.
NUMERIC_ERRORS = (HyperreduceError, ArithmeticError)
