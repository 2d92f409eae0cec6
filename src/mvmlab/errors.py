"""Error types shared across the package."""


class MvmError(Exception):
    """Base class for domain errors (CLI maps these to exit code 1)."""


class MalformedDocument(MvmError):
    pass


class TableOutOfRange(MvmError):
    pass


class NotALattice(MvmError):
    # witness: triple of elements violating a lattice law, when available
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NotAnLMonoid(MvmError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnknownName(MvmError):
    pass


class NotACongruence(MvmError):
    pass


class NotDivisorClosed(MvmError):
    pass


class NotPositiveMV(MvmError):
    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class CapExceeded(MvmError):
    pass


class TermSyntaxError(MvmError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class MissingAssignment(MvmError):
    pass


class UnknownTarget(MvmError):
    pass


class BadArgument(MvmError, ValueError):
    """An argument outside its domain (a size below 1, an unknown filter or
    tag); also a ValueError, for callers that catch that."""
