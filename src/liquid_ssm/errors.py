"""Exception types shared across the package."""


class LiquidSsmError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(LiquidSsmError, ValueError):
    """A size, order, or range argument violates an operation's precondition."""


class DecompositionError(LiquidSsmError, ArithmeticError):
    """Eigendecomposition failed or left an unacceptable residual."""


class DiscretizationError(LiquidSsmError, ArithmeticError):
    """The bilinear-transform solve hit a singular (I - dt/2 A) or overflowed."""


class DivergedStateError(LiquidSsmError, ArithmeticError):
    """A recurrence produced a non-finite or runaway state."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"state diverged at step {step}")


class SequenceParseError(LiquidSsmError, ValueError):
    """A sequence file could not be parsed; `offset` is the failing byte."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")


class ParameterBudgetError(LiquidSsmError, RuntimeError):
    """The finite-difference trainer refused a model over its parameter budget."""

    def __init__(self, count: int, budget: int):
        self.count = count
        self.budget = budget
        super().__init__(f"model has {count} parameters, budget is {budget}")


class ConfigError(LiquidSsmError, ValueError):
    """A run configuration failed validation before dispatch."""
