"""Exception types: every input refusal is a ValidationError; a failed self-check is not."""


class ValidationError(ValueError):
    """Malformed, inconsistent or infeasible input data."""


class SupportError(ValidationError):
    """Mass found outside the allowed region."""

    def __init__(self, message: str, leaked_mass: float = 0.0):
        super().__init__(message)
        self.leaked_mass = leaked_mass


class InfeasibilityError(ValidationError):
    """Mass and first-moment data admit no two-block target."""


class AdmissibilityError(ValidationError):
    """Density exceeds the unit bound."""


class ParameterError(ValidationError):
    """Parameter set violates the constraints of a named family."""


class VerificationError(RuntimeError):
    """A construct-then-verify check failed; carries the certificate."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate
