"""Shared exception types for solver failures and violated preconditions."""


class StabilityError(RuntimeError):
    """No stability certificate holds, so the solver refuses to iterate."""


class SpectralRadiusError(StabilityError):
    """A spectral-radius stability condition failed.

    Carries the measured radius in ``spectral_radius`` and, when the check
    failed for a specific policy, the offending policy in ``policy``.
    """

    def __init__(self, message, spectral_radius=None, policy=None):
        super().__init__(message)
        self.spectral_radius = spectral_radius
        self.policy = policy


class ConvergenceError(RuntimeError):
    """An iterative routine diverged or hit its iteration cap.

    ``last`` holds the final finite iterate, when one is available,
    ``bound`` the certified error bound of a policy evaluation that
    stopped short of its target, and ``steps`` the last few errors of a
    loop that hit its cap, oldest first.  ``measure`` names what those
    errors are: ``"steps"`` between iterates, or ``"residuals"``
    ``||T v - v||`` of a Newton solve.
    """

    def __init__(self, message, last=None, bound=None, steps=None, measure="steps"):
        super().__init__(message)
        self.last = last
        self.bound = bound
        self.steps = steps
        self.measure = measure


class SingularJacobianError(ConvergenceError):
    """Newton iteration encountered a singular linearized system."""
