"""Exception types shared across the package."""


class IQControlError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(IQControlError):
    """Operand dimensions are inconsistent."""


class HermiticityError(IQControlError):
    """A matrix required to be Hermitian is not."""


class StateError(IQControlError):
    """A density matrix (or its entries) violates its invariants."""


class DegenerateProbeError(IQControlError):
    """The probe coupling factor vanishes; the mixing angle is undefined."""


class DegenerateConditionError(IQControlError):
    """The analytic occupancy formula has a (near-)zero denominator."""


class InfeasibleError(IQControlError):
    """The requested value lies outside the physically attainable range."""


class ProbabilityError(IQControlError):
    """A probability vector is negative or does not sum to one."""


class DomainError(IQControlError):
    """A scalar argument lies outside its admissible domain."""
