"""Exception types shared across the toolkit."""


class InvalidBoxError(ValueError):
    """Box with non-finite coordinates or non-positive extent."""


class ParseError(ValueError):
    """Malformed input file; the message carries file/line context."""


class ConfigError(ValueError):
    """Invalid configuration value or combination."""


class IncompatibleMergeError(ValueError):
    """Merge node whose input branches disagree on stride or spatial dims."""
