"""Exception types shared across the package."""


class TruncationTooSmall(ValueError):
    """Coherent-state tail mass beyond the Fock cutoff exceeds the tolerance."""


class NonPhysicalState(ValueError):
    """A density matrix violates Hermiticity or unit trace."""


class UnsupportedInitialState(TypeError):
    """A runner cannot evolve the given initial state: the branch backend takes a BranchState,
    the density-matrix runners a DensityMatrix of layout (atom, field 1, field 2)."""


class StepUnderflow(RuntimeError):
    """The adaptive integrator cannot meet its tolerance at the minimum step size."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration.

    Carries the offending key and, when parsed from a file, the line number.
    """

    def __init__(self, message, key=None, line=None):
        self.key = key
        self.line = line
        prefix = ""
        if key is not None:
            prefix += f"key '{key}'"
        if line is not None:
            prefix += f" (line {line})"
        super().__init__(f"{prefix}: {message}" if prefix else message)
