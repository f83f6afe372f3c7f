"""The line syntax that the .sgr, action and subshift formats share (README,
"File formats"): blank and '#' lines are skipped, a number field has at
most MAX_DIGITS digits, a line that may occur once is refused the second
time, and a message quotes a bad line or field cut to QUOTE_CHARS."""

from .errors import DomainError

MAX_DIGITS = 640  # the least int() digit limit Python 3.11+ can be set to
QUOTE_CHARS = 60


def records(text: str):
    """(line number from 1, fields) of each line not blank nor a comment."""
    for lineno, fields in enumerate(map(str.split, text.splitlines()), 1):
        if fields and fields[0][0] != "#":
            yield lineno, fields


def number(field: str, lineno: int, what: str) -> int:
    """int(field) for a field of decimal digits; DomainError past MAX_DIGITS."""
    if len(field) > MAX_DIGITS:
        raise DomainError(f"line {lineno}: {what} has more than {MAX_DIGITS} digits")
    return int(field)


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
