"""UTF-8 text files read line by line, with bytes that are not UTF-8
reported at their line instead of as a decoding crash."""

from __future__ import annotations

import re
from typing import IO, Iterator

from .errors import DataError

# errors="surrogateescape" turns each byte that is not UTF-8 into one of
# these code points, which strict UTF-8 text can never hold
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def open_text(path) -> IO[str]:
    """Open for reading as UTF-8 with universal newlines; never fails to decode."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def numbered_lines(fh: IO[str], path, error: type[Exception] = DataError) -> Iterator[tuple[int, str]]:
    """(1-based line number, line) of a file from `open_text`; a line holding
    a byte that is not UTF-8 raises `error` naming path:line."""
    for lineno, line in enumerate(fh, start=1):
        if not line.isascii() and _NOT_UTF8.search(line):
            raise error(f"{path}:{lineno}: not valid UTF-8")
        yield lineno, line
