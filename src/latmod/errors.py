"""Exception types shared across the package."""


class LatticeError(Exception):
    """Base class for all latmod errors."""


class CycleDetected(LatticeError):
    """The cover relation contains a cycle."""


class NotALattice(LatticeError):
    """A pair of elements lacks a unique meet or join."""

    def __init__(self, a, b, kind="meet"):
        self.a = a
        self.b = b
        self.kind = kind
        super().__init__(f"no unique {kind} for elements {a} and {b}")


class ParseError(LatticeError):
    """Malformed lattice JSON input."""


class SizeLimitExceeded(LatticeError):
    """A computation was requested above its configured size cap."""


class EnumerationLimitExceeded(LatticeError):
    """A map/antichain enumeration would exceed its configured cap."""


class ArgumentOutOfRange(LatticeError):
    """A constructor argument is outside its supported range."""


class NotDistributive(LatticeError):
    """Operation requires a distributive lattice."""


class DecorationConflict(LatticeError):
    """A grid decoration violates one of the structural conditions."""

    def __init__(self, condition, detail=""):
        self.condition = condition
        super().__init__(f"decoration violates ({condition}): {detail}")


class ReconstructionInvalid(LatticeError):
    """A reconstructed lattice failed its own validation."""


class RankExceedsCap(LatticeError):
    """Modularity rank exceeds the supplied iteration cap."""


class VerificationFailed(LatticeError):
    """A verification check found a computed object that violates the
    property it must have."""
