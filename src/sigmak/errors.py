"""Exception types shared across the package."""


class CapabilityError(ValueError):
    """A structural limit of the implementation was exceeded.

    Meant for a request that is well-formed but outside what this code is
    built to handle, as opposed to a plain invalid argument.  Nothing in
    sigmak raises it; it stays defined because the benchmark in
    ``perfbench/`` imports it.
    """


class ConvergenceError(RuntimeError):
    """An iterative numerical method failed to converge, or an exact check
    failed.

    The message says what failed and by how much: the float Jacobi's final
    off-diagonal norm against its target, or the scan audit's check and its
    exact residual.
    """
