"""Exception types shared across the package."""


class SkewvnError(Exception):
    """Base class for all errors raised by skewvn."""


class DimensionMismatch(SkewvnError):
    pass


class NotOrthonormal(SkewvnError):
    pass


class OddDimension(SkewvnError):
    pass


class NotSkewSymmetric(SkewvnError):
    pass


class NotSkewSelfAdjoint(SkewvnError):
    pass


class ConvergenceFailure(SkewvnError):
    pass


class OddKernel(SkewvnError):
    """The numerical kernel is odd dimensional; no anticonjugation exists."""


class InvalidP(SkewvnError):
    pass


class InvalidRank(SkewvnError):
    pass


class ZeroVector(SkewvnError):
    pass


class BudgetFailure(SkewvnError):
    pass


class KernelMismatch(SkewvnError):
    pass


class ParseError(SkewvnError):
    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}" + (
                f", column {column})" if column is not None else ")"
            )
        super().__init__(message)
        self.line = line
        self.column = column
