"""The scalar checks that the config parser and the synth testbed share.

Each refuses a bad value with a ConfigError that names the field's path.
This module imports nothing of the package, so a process that runs only the
testbed loads neither the config parser nor the flow systems it builds.
"""

from __future__ import annotations

import sys


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the field."""


def _expect(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{path}: {message}")


def _as_number(value, path: str) -> float:
    """A finite float; JSON booleans and json's NaN and Infinity tokens are refused."""
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool), path, "must be a number")
    # NaN fails the comparison, and so do the infinities and ints past the float range
    _expect(abs(value) <= sys.float_info.max, path, "must be a finite number")
    return float(value)


def _as_int(value, path: str, minimum: int | None = None) -> int:
    """An integer no smaller than ``minimum``; JSON booleans are refused."""
    _expect(isinstance(value, int) and not isinstance(value, bool), path, "must be an integer")
    _expect(minimum is None or value >= minimum, path, f"must be at least {minimum}")
    return value


def check_directory(value, path: str) -> str:
    """An output directory: a nonempty string (``Path("")`` is ``.``) with no NUL character, which no path holds."""
    _expect(isinstance(value, str) and value, path, "must be a nonempty string")
    _expect("\0" not in value, path, "must hold no NUL character")
    return value


def check_seed(value, path: str) -> int:
    """A seed in [0, 2**64): the random streams key on the seed mod 2**64, so any other would rerun one of those."""
    _expect(0 <= _as_int(value, path) < 2**64, path, "must lie in [0, 2**64)")
    return value
