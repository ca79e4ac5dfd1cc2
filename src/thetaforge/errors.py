"""Shared exception types, so the CLI can map failures to diagnostics,
and the reader of input files, which are UTF-8 in every locale."""


class ThetaforgeError(Exception):
    """Base class for errors raised by this package."""


class ParseError(ThetaforgeError, ValueError):
    """Malformed textual input (permutation strings, code files, ...)."""


class DomainError(ThetaforgeError, ValueError):
    """Structurally valid input outside the supported domain."""


class PrecisionError(ThetaforgeError, ValueError):
    """A coefficient at or beyond the truncation bound was requested."""


def read_lines(path):
    """(line number, text) for each line of a UTF-8 text file whose text
    is not blank once its '#' comment is cut; line numbers count from 1
    and undecodable bytes are a ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ParseError(
                "%s is not UTF-8 text: %s" % (path, exc)) from None
    stripped = ((i, line.split("#", 1)[0].strip())
                for i, line in enumerate(lines, start=1))
    return [(i, text) for i, text in stripped if text]
