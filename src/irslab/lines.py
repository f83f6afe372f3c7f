"""The line syntax that the .sgr, action and subshift formats share (README,
"File formats"): blank and '#' lines are skipped, a number field has at
most MAX_DIGITS digits, a line that may occur once is refused the second
time, and a message quotes a bad line or field cut to QUOTE_CHARS. The
command line reads its numbers by the same `number`."""

import re
from fractions import Fraction

from .errors import DomainError

MAX_DIGITS = 640  # the least int() digit limit Python 3.11+ can be set to
QUOTE_CHARS = 60
NOUNS = {int: "integer", Fraction: "rational", float: "number"}


def records(text: str):
    """(line number from 1, fields) of each line not blank nor a comment."""
    for lineno, fields in enumerate(map(str.split, text.splitlines()), 1):
        if fields and fields[0][0] != "#":
            yield lineno, fields


def number(field: str, what: str, kind=int, low=None, high=None,
           lineno: int | None = None):
    """kind(field) for kind int, Fraction or float, with no underscores. A
    run of digits or an exponent's zeros past MAX_DIGITS (checked first), a
    field kind cannot read and a value outside [low, high) (None: no bound)
    raise DomainError naming `what`, on line `lineno` or quoting the field."""
    name = (f"line {lineno}: {what}" if lineno
            else f"{what} {NOUNS[kind]} {quote(field)}")
    longest = len(field) if field.isdecimal() else max(
        map(len, re.findall(r"\d+", field)), default=0)
    exponent = None if kind is int else re.search(r"[eE][-+]?(\d+)", field)
    if longest > MAX_DIGITS or (exponent and int(exponent[1]) > MAX_DIGITS):
        raise DomainError(f"{name} has more than {MAX_DIGITS} digits")
    try:
        if "_" in field:  # int() would read 9_9_... past the cap
            raise ValueError
        value = kind(field)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"cannot parse {name}") from None
    if (low is not None and not low <= value) or (
            high is not None and not value < high):
        if isinstance(high, int) and high > 2**32 and not high & (high - 1):
            high = f"2^{high.bit_length() - 1}"  # 2^64, not its 20 digits
        shown = field.strip() if len(field) <= QUOTE_CHARS else quote(field)
        raise DomainError(f"{what} {shown} is " + (
            f"below {low}" if high is None else f"outside [{low}, {high})"))
    return value


def once(first, lineno: int, what: str) -> None:
    """Refuse a second `what`: `first` is None until one has been read."""
    if first is not None:
        raise DomainError(f"line {lineno}: second {what}")


def quote(text: str) -> str:
    """repr(text) for a message, cut after QUOTE_CHARS characters."""
    return repr(text[:QUOTE_CHARS]) + "..." * (len(text) > QUOTE_CHARS)


def bad_line(text: str, lineno: int, what: str) -> DomainError:
    """The error `what`, quoting line `lineno` of `text` stripped."""
    line = text.splitlines()[lineno - 1].strip()
    return DomainError(f"line {lineno}: {what} {quote(line)}")
