"""Exception types shared across the package.

Every computational failure mode raised by this package derives from
KamrevError, so callers (and the command-line driver) can distinguish
"the math said no" from a plain bug.
"""


class KamrevError(Exception):
    """Base class for structured computational failures."""


class ImaginaryResidue(KamrevError):
    """A supposedly real evaluation left a non-negligible imaginary part."""


class UnpairedSpectrum(KamrevError):
    """Eigenvalues of an infinitesimally reversible matrix failed to pair up."""


class NonzeroAverage(KamrevError):
    """The torus-average obstruction to a cohomological equation is nonzero."""


class SmallDivisor(KamrevError):
    """A needed divisor violates the Diophantine lower bound."""

    def __init__(self, k, divisor, bound):
        self.k = tuple(int(c) for c in k)
        self.divisor = float(divisor)
        self.bound = float(bound)
        super().__init__(
            f"divisor {self.divisor:.3e} at mode {self.k} below bound {self.bound:.3e}"
        )


class SingularMode(KamrevError):
    """A mode matrix of a coupled cohomological equation is numerically singular."""

    def __init__(self, k, cond):
        self.k = tuple(int(c) for c in k)
        self.cond = float(cond)
        super().__init__(f"mode {self.k} matrix condition {self.cond:.3e}")


class ZeroModeObstruction(KamrevError):
    """The zero-mode equation of a coupled solve is unsolvable."""


class NotInvolutive(KamrevError):
    """A claimed involution does not square to the identity."""


class NotAntiInvariant(KamrevError):
    """A vector expected in the anti-invariant subspace of an involution is not."""


class Obstruction(KamrevError):
    """A linear solve restricted to the invariant subspace has no solution."""

    def __init__(self, residual, message=""):
        self.residual = float(residual)
        super().__init__(message or f"restricted solve residual {self.residual:.3e}")


class RootFindFailure(KamrevError):
    """A toy-model root finder could not locate a root in its trust region."""


class StepFailure(KamrevError):
    """The ODE integrator behind torus verification failed to finish."""


class VersalObstruction(KamrevError):
    """The zero-mode obstruction is not covered by orbit tangent plus unfolding."""


class CancellationFailure(KamrevError):
    """A structural cancellation the theory guarantees failed numerically."""


class TruncationOverflow(KamrevError):
    """Truncation loss of a series operation exceeded its budget."""


class ImplicitSolveFailure(KamrevError):
    """A parameter-space fixed-point iteration failed to contract."""


class NoConvergence(KamrevError):
    """The normal-form iteration ran out of steps above tolerance."""

    def __init__(self, history):
        self.history = [float(r) for r in history]
        tail = ", ".join(f"{r:.3e}" for r in self.history[-4:])
        super().__init__(f"residuals did not reach tolerance (last: {tail})")
