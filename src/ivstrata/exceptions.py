"""Error hierarchy shared by every module.

Each class carries the process exit status the CLI maps it to, so library
errors translate to stable, scriptable codes without string matching.
"""

from __future__ import annotations


class IVStrataError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(IVStrataError):
    """Invalid inputs: malformed documents, bad probabilities, missing effects.

    Also raised for conditioning on a zero-probability group and for
    requesting the constant-effects decomposition of a heterogeneous
    population.
    """

    exit_code = 2


class AssumptionError(IVStrataError):
    """A maintained behavioral assumption is contradicted.

    Raised when defier shares are present where an operation requires none,
    when data refute a maintained assumption (implied shares land outside
    [0, 1]), or when the clustering sign pattern is one the algorithm
    declines to classify under the chosen policy. The message names every
    failed inequality or restriction.
    """

    exit_code = 3


class InfeasibleError(IVStrataError):
    """No population is consistent with the given first-stage coefficients."""

    exit_code = 4


class RankError(IVStrataError):
    """A linear system needed for identification is singular or degenerate."""

    exit_code = 4
