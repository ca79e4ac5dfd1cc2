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
    """The lines of a UTF-8 text file; undecodable bytes are a ParseError."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise ParseError(
                "%s is not UTF-8 text: %s" % (path, exc)) from None
