"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError (and subclasses) exit 2,
NumericError exits 3, everything else is a plain traceback.
"""


class PipelineError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(PipelineError):
    """Invalid configuration, arguments, or input files."""


class CheckpointError(ConfigError):
    """A checkpoint or artifact file is corrupt or incompatible.

    A field's message starts with the file's path and names the field, so
    broken files can be diagnosed without a debugger.
    """


class NumericError(PipelineError):
    """A numeric invariant was violated (non-finite loss, gradient, or input)."""


class DegenerateMixtureError(NumericError):
    """All observations identical; a two-component mixture fit is undefined."""
