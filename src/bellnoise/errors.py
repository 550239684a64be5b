"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for errors raised by this package.

    When the input was a stack of states, ``index`` is the position of the
    first state that failed (its position along the stack's first axis);
    otherwise it is ``None``.
    """

    def __init__(self, *args, index=None):
        super().__init__(*args)
        self.index = index


class InvalidStateError(SimulationError, ValueError):
    """A matrix that should be a density matrix violates its invariants."""


class NumericalError(SimulationError, RuntimeError):
    """A numerical routine failed to converge or cannot resolve its input.

    Quadrature asked for more oscillation than its nodes resolve raises this
    rather than return an unresolved number.
    """
