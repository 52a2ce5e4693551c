"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericalError -> 3.
"""


class ToolkitError(Exception):
    """Base class for all toolkit failures."""


class ConfigError(ToolkitError):
    """Invalid run configuration."""


class BadValue(ConfigError):
    """A setting outside its range: ``name`` is the setting, ``rule`` what it breaks.

    The message is ``name`` followed by ``rule``; the CLI rewords it with the
    option's key in place of a dataclass field name.
    """

    def __init__(self, name: str, rule: str):
        super().__init__(f"{name} {rule}")
        self.name = name
        self.rule = rule


class IndivisibleGrid(ConfigError):
    """Session length, window length and sub-window length do not nest."""


class DataError(ToolkitError):
    """Input data violates the format or book-consistency contract."""


class MalformedRow(DataError):
    """Fatal parse failure; reports the first offending line, and its file if known."""

    def __init__(self, line_no: int, reason: str, path=None):
        where = f"line {line_no}" if path is None else f"{path}: line {line_no}"
        super().__init__(f"{where}: {reason}")
        self.line_no = line_no
        self.reason = reason


class EmptySession(DataError):
    """No events inside the configured session window."""


class InconsistentEvent(DataError):
    """An event contradicts the current book state (corrupted input).

    ``day``, if known, names the day's message file, or its date; ``line_no``,
    if known, is the event's line in that file and replaces its index.
    """

    def __init__(self, event_index: int, reason: str, day=None, line_no=None):
        where = f"event {event_index}" if line_no is None else f"line {line_no}"
        if day is not None:
            where = f"{day}: {where}"
        super().__init__(f"{where}: {reason}")
        self.event_index = event_index
        self.reason = reason


class TooFewRows(DataError):
    """A regression window retains fewer usable rows than required."""


class NumericalError(ToolkitError):
    """Numerical linear algebra failed or produced garbage."""


class RankDeficient(NumericalError):
    """Design matrix is numerically rank deficient."""


class NumericalFailure(NumericalError):
    """A matrix solve returned non-finite values."""


class DegenerateColumn(NumericalError):
    """A feature column has zero variance; its correlations are undefined."""
