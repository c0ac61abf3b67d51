"""Exception types shared across the package.

The CLI maps these onto process exit codes, so raising the right class
matters more than the message wording.
"""


class ConfigError(ValueError):
    """Invalid configuration value or config file (CLI exit code 2)."""


class DataError(ValueError):
    """Malformed dataset, label, or input file (CLI exit code 3)."""


class CheckpointFormatError(DataError):
    """Checkpoint file is corrupt or structurally wrong (CLI exit code 3)."""


class NonFiniteError(ValueError):
    """An operation received NaN or Inf input."""


class DivergenceError(RuntimeError):
    """Training loss, activations or gradient norm became non-finite (CLI
    exit code 4); step is the first step that went bad."""

    def __init__(self, step: int, what: str = "loss"):
        super().__init__(f"non-finite {what} at step {step}")
        self.step = step
