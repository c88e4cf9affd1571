"""Exception types shared across the package."""


class CapabilityError(ValueError):
    """A structural limit of the implementation was exceeded.

    Meant for a request that is well-formed but outside what this code is
    built to handle, as opposed to a plain invalid argument.  Nothing in
    sigmak raises it; it stays defined because the benchmark in
    ``perfbench/`` imports it.
    """


class ConvergenceError(RuntimeError):
    """An iterative numerical method failed to converge.

    Carries the final off-diagonal Frobenius norm when raised by the Jacobi
    eigenvalue solver.
    """

    def __init__(self, message: str, offdiag_norm: float | None = None):
        super().__init__(message)
        self.offdiag_norm = offdiag_norm
