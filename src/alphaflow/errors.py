"""Exception hierarchy shared across the package."""


class AlphaFlowError(Exception):
    """Base class for all package errors."""


class ConfigurationError(AlphaFlowError):
    """Invalid grid, parameter, or run configuration."""


class ContractViolation(AlphaFlowError):
    """An input violated a documented precondition or invariant."""


class BoundOverflow(ContractViolation):
    """A Gronwall bound whose exponential is not a finite double."""


class CflViolation(ConfigurationError):
    """Time step too large for the advective speed actually encountered.

    Raised as a hard error: verification results on an under-resolved
    run are meaningless.
    """

    def __init__(self, t, dt, max_speed, limit):
        self.t = t
        self.dt = dt
        self.max_speed = max_speed
        self.limit = limit
        super().__init__(
            f"CFL violation at t={t:.6g}: dt*max|u| = {dt * max_speed:.3e} "
            f"exceeds {limit:.3e}"
        )


class IntegrationBlowup(AlphaFlowError):
    """Non-finite values appeared during time integration.

    Carries the last good state, a ``SolverState``, so a caller can inspect it.
    """

    def __init__(self, t, step, detail, last_state=None):
        self.t = t
        self.step = step
        self.detail = detail
        self.last_state = last_state
        super().__init__(f"integration blew up at t={t:.6g} (step {step}): {detail}")


class CheckpointError(AlphaFlowError):
    """Base class for trajectory file problems."""


class CheckpointFormatError(CheckpointError):
    """File contents break the format: magic, header, config echo or a snapshot."""


class CheckpointVersionError(CheckpointError):
    """File carries an unsupported format version."""


class CheckpointTruncated(CheckpointError):
    """File ended before the declared payload was read."""
