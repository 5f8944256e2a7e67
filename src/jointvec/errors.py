"""Exception types shared across the toolkit."""


class JointvecError(Exception):
    """Base class for all toolkit errors."""


class AlignmentError(JointvecError):
    """Parallel inputs disagree in length (lines, sentences, documents)."""


class FileFormatError(JointvecError):
    """A corpus, document, or embedding file does not match its documented format."""


class SamplingError(JointvecError):
    """Noise sampling is impossible (corpus too small)."""


class TokenLookupError(JointvecError):
    """A token or token id is not present in the vocabulary or table."""


class CompositionError(JointvecError):
    """Composition called on an empty or malformed input sequence."""


class ContractError(JointvecError):
    """An internal precondition was violated (shape or argument mismatch)."""


class ConfigError(JointvecError):
    """Invalid configuration or incompatible model/request combination."""


class RepresentationError(JointvecError):
    """A document has no representable sentence."""


class CheckpointError(JointvecError):
    """A checkpoint directory is missing files or cannot be parsed."""


class DivergenceError(JointvecError):
    """Training drove parameters to non-finite values (step or lambda too large)."""
