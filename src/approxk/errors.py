"""Exception types shared across the package.

Every numerical failure mode gets its own class so callers (and the CLI)
can surface the originating operation by name.
"""


class ApproxKError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(ApproxKError):
    pass


class NotInvertible(ApproxKError):
    def __init__(self, cond_estimate):
        self.cond_estimate = cond_estimate
        super().__init__(f"matrix not invertible to tolerance (cond ~ {cond_estimate:.3e})")


class DefectiveMatrix(ApproxKError):
    pass


class ClosureFailure(ApproxKError):
    pass


class AmbiguousIntersection(ApproxKError):
    pass


class DecompositionFailure(ApproxKError):
    pass


class NotAClass(ApproxKError):
    pass


class NotEquivalent(ApproxKError):
    pass


class PathTooCoarse(ApproxKError):
    def __init__(self, index, msg=""):
        self.index = index
        super().__init__(msg or f"homotopy step {index} too coarse")


class GridTooCoarse(ApproxKError):
    pass


class NotQuantized(ApproxKError):
    pass


class DefectTooLarge(ApproxKError):
    pass


class SpectralAmbiguity(ApproxKError):
    pass


class NotCloseEnough(ApproxKError):
    def __init__(self, residual, threshold):
        self.residual = residual
        self.threshold = threshold
        super().__init__(f"membership residual {residual:.3e} exceeds threshold {threshold:.3e}")


class RoundingUnstable(ApproxKError):
    pass


class NotAContraction(ApproxKError):
    pass


class ExactnessViolation(ApproxKError):
    pass


class IotaNotZero(ApproxKError):
    pass


class NoWitness(ApproxKError):
    pass


class ReconstructionFailed(ApproxKError):
    def __init__(self, measured, msg=""):
        self.measured = measured
        super().__init__(msg or f"reconstruction certificate failed: measured {measured}")


class PairNotUniform(ApproxKError):
    pass
