"""Error taxonomy shared across the toolkit.

The CLI maps these onto exit codes: configuration/usage problems exit 1,
bad input data exits 2, numerical failures exit 3.
"""

import contextlib


class GkwError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(GkwError):
    """Invalid configuration value, unknown key, or bad usage."""


class DataError(GkwError):
    """Input data is missing, malformed, or inconsistent."""


class InvalidInputError(DataError):
    """Semantically invalid input (e.g. an utterance too short to process)."""


class FormatError(DataError):
    """A serialized file violates its format: bad magic, truncation, shape mismatch."""


class NumericError(GkwError):
    """A computation produced NaN or Inf, or a gradient became non-finite."""


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading. A byte sequence that does not
    decode, wherever in the file the reader meets it, raises FormatError."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            raise FormatError(f"{path}: not UTF-8 text: {err}") from None
