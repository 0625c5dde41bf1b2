"""Exception taxonomy shared by all modules.

Contract and validation failures map to CLI exit code 1, input/parse
failures and an unusable response cache to exit code 2.
"""


class BookcorefError(Exception):
    """Base class for all toolkit errors."""


class SpanRangeError(BookcorefError):
    """A span or token range violates its bounds invariant."""


class CompositionError(BookcorefError):
    """Cluster sets from different documents or stages were combined."""


class StageError(BookcorefError):
    """A pipeline stage received input in the wrong stage or failed mid-run."""


class ContractError(BookcorefError):
    """A pluggable component violated its interface contract."""


class PlanningError(BookcorefError):
    """No window plan keeps a guard mention whole, or a plan cuts a seed."""


class ConfigError(BookcorefError):
    """Invalid configuration value or combination."""


def require_int(name: str, value: object) -> None:
    """Refuse a count or capacity ``value`` that is not an ``int`` (a
    ``bool`` is an ``int`` too, but no count) with a :class:`ConfigError`
    naming the field ``name``, where it is set rather than later, by a slice
    or a comparison."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an int, got {value!r}")


class GeneratorError(BookcorefError):
    """The synthetic generator could not build a corpus that meets its
    calibration targets for the requested seed."""


class ParseError(BookcorefError):
    """Malformed input file; carries the offending line/row number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaError(BookcorefError):
    """Input parsed but does not match the expected record schema."""


class CacheError(BookcorefError):
    """The service response cache file cannot be opened, read or written."""


class TransportError(BookcorefError):
    """A remote annotator service could not be reached, rejected the request
    or answered with a redirect. It is final: the HTTP client, the one retry
    layer, has already spent its retries on it."""
