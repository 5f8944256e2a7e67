"""Exception types shared across the toolkit."""


class JointvecError(Exception):
    """Base class for all toolkit errors."""


class UserError(JointvecError):
    """A failure caused by the user's input or settings (the CLI exits 1)."""


class AlignmentError(UserError):
    """Parallel inputs disagree in length (lines, sentences, documents)."""


class FileFormatError(UserError):
    """A corpus, document, or embedding file cannot be read or does not match its format."""


class SamplingError(UserError):
    """Noise sampling is impossible (corpus too small)."""


class TokenLookupError(UserError):
    """A token or token id is not present in the vocabulary or table."""


class CompositionError(JointvecError):
    """Composition called on an empty or malformed input sequence."""


class ContractError(JointvecError):
    """An internal precondition was violated (shape or argument mismatch)."""


class ConfigError(UserError):
    """Invalid configuration or incompatible model/request combination.

    A value outside its setting's range also names the setting, as the
    library calls it, and the rule it broke, so the CLI can name the flag
    or config-file line that gave the value instead.
    """

    def __init__(self, message: str, setting: str | None = None, rule: str = ""):
        super().__init__(message)
        self.setting, self.rule = setting, rule


class RepresentationError(UserError):
    """A document has no representable sentence."""


class CheckpointError(UserError):
    """A checkpoint directory is missing files or cannot be parsed."""


class DivergenceError(UserError):
    """A training batch's loss or update is not finite (step or lambda too large)."""
