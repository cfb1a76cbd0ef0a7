class ParameterError(ValueError):
    """Raised when an operation is called with out-of-contract parameters."""


class ConfigKeyError(ParameterError):
    """A JSON config object with unknown, missing or malformed keys; the message names its path."""


#: What a malformed JSON value may raise; RuntimeError: deep nesting, numpy's 32 dimensions.
MALFORMED = (ArithmeticError, AttributeError, KeyError, RuntimeError, TypeError, ValueError)
