"""The two rules that guard every input number, the rule for ids, the one
reader of the line-format documents, and the error they raise.

An input number is either an integer with a minimum or a real in a range.
Every type or entry point that takes one checks it here, so each rule is
written once. A node or org id read from a file holds no comma, the cell
separator of every CSV the CLI writes. The topology, workload, selection
and strategy catalog documents share one format, read by `records`;
`number` parses each of their numbers, and `made` names the line of a
value that the type built from it refuses. The CLI reports an InputError
as a config error (exit 2).
"""

from __future__ import annotations

import math
from numbers import Integral, Real


class InputError(ValueError):
    """An input value breaks a rule of the type or function that takes it."""


def _is_number(value, kind) -> bool:
    # an exact int or float answers without the ABC check, which costs about
    # 30 times more; JSON true/false load as bools, which are ints, and no
    # input number is a bool
    cls = type(value)
    if cls is int or (cls is float and kind is Real):
        return True
    return isinstance(value, kind) and not isinstance(value, bool)


def check_int(name: str, value, low: int = 1, error=InputError):
    """value, if it is an integer >= low; else error naming `name`."""
    if not (_is_number(value, Integral) and value >= low):
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def check_real(name: str, value, low=0, high=math.inf, *, open_low=False, open_high=True,
               error=InputError):
    """value, if it is a real from low to high, each bound closed unless
    open; NaN never is. Else error naming `name`. The default high, an
    open inf, makes the rule "a finite number"."""
    if not (_is_number(value, Real) and (low < value if open_low else low <= value)
            and (value < high if open_high else value <= high)):
        if high == math.inf and open_high:
            rule = f"a finite number {'>' if open_low else '>='} {low}"
        else:
            rule = f"a number in {'(' if open_low else '['}{low}, {high}{')' if open_high else ']'}"
        raise error(f"{name} must be {rule}, got {value!r}")
    return value


def check_id(name: str, value: str, error=InputError) -> str:
    """value, if it holds no comma; else error naming `name`."""
    if "," in value:
        raise error(f"{name} may not contain a comma, got {value!r}")
    return value


def records(source: str, header, error) -> list:
    """(line number, tokens) of every line of a line-format document that
    holds more than a comment: `#` starts a comment, tokens are split on
    whitespace. The first such line must be the header, which is left out;
    a document without one (the strategy catalog) passes header None."""
    lines = []
    for lineno, raw in enumerate(source.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            lines.append((lineno, tokens))
    if header is not None:
        if not lines or lines[0][1] != header.split():
            raise error(f"missing or unsupported header, expected {header!r}")
        del lines[0]
    return lines


def made(where: str, error, make, *args):
    """make(*args); an InputError it raises becomes error, led by `where`."""
    try:
        return make(*args)
    except InputError as exc:
        raise error(f"{where} {exc}") from None


def number(token: str, name: str, kind, error):
    """kind(token), kind float or int; else error naming `name`."""
    try:
        return kind(token)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise error(f"{name} is not {what}: {token!r}") from None
