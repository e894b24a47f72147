"""Exception types shared across the library."""


class ParameterError(ValueError):
    """An argument is outside its mathematical domain."""


class NumericalFailure(RuntimeError):
    """A result cannot be formed in double precision or from the available
    samples: an unresolvable point, or a Monte Carlo estimate without data."""
