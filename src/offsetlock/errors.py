class ParameterError(ValueError):
    """Raised when an operation is called with out-of-contract parameters."""


class ConfigKeyError(ParameterError):
    """A JSON config object with unknown, missing or malformed keys; the message names its path."""
