"""Command line front end.

Jobs are canonicalized to a JSON object and fingerprinted with sha256,
so reruns of the same job produce byte-identical output.  A code or
group file given by path counts by the sha256 of its contents, so two
different files at one path get different fingerprints.  One table,
`VERBS`, says which flags each verb takes; `parse_args` reads argv
against it in place of argparse, whose import and subparsers cost each
short process about 4 ms.  Flags are spelled in full, and a usage error
exits 2 in argparse's wording.  Scans run their lines one after the
other, keep going past bad input lines, and emit records in input
order.

Records and fingerprints are written by `_json`, which gives the bytes
of `json.dumps(..., sort_keys=True)` for the types records hold; the
json module itself cost each process about 3 ms to import.  A process
started for one job flushes stdout and stderr itself, so a failed write
exits 3 with its error record, and then ends with `os._exit`, skipping
the interpreter's teardown.
"""

import os
import sys
from contextlib import nullcontext, suppress
from types import SimpleNamespace

from . import __version__
from .characters import character_cyclic, character_group
from .codes import CATALOG_CODES, load_code, mask_to_points
from .errors import DomainError, ParseError, ThetaforgeError, read_lines
from .lattice import (
    FLAVORS, doubling_code_criterion, kernel_theta, lift_order, require_even,
    theta_fixed,
)
from .modfunc import fixed_quotient, identify, is_replicable
from .perms import parse_generators, read_group_file
from .qseries import DEN, PrecisionError
from .verify import FIGURE_IDS, verify_figure

THETA_TRUNC = 16   # default integer q-powers for thetas and characters
REP_TRUNC = 26     # default for replicability and identification
MAX_TRUNC = 1000   # largest window any verb computes
MAX_KREP = 200     # largest K_rep: the Faber square costs about K^3

# Each verb's flags, and its positional argument if it has one, with a
# converter and a default.  A converter is str, int, a tuple of choices
# or bool for a switch: --table sets `table`, and --json excludes it.
_FORMAT = {"--out": (str, None), "--json": (bool, False),
           "--table": (bool, False)}
_INPUTS = {"--code": (str, "hamming8"), "--trunc": (int, None),
           "--flavor": (FLAVORS, "plain")}
_COMPUTE = {**_INPUTS, "--group": (str, None), "--group-file": (str, None),
            **_FORMAT}
_DEEP = {**_COMPUTE, "--krep": (int, 12)}
VERBS = {"theta": _COMPUTE, "quotient": _COMPUTE, "replicable": _DEEP,
         "identify": _DEEP, "doubling": _COMPUTE, "character": _COMPUTE,
         "verify": {"figure": (FIGURE_IDS, None), **_FORMAT},
         "scan": {"file": (str, None), **_INPUTS, "--krep": (int, 12),
                  **_FORMAT}}

_EXIT_CODES = (
    (ParseError, 2),
    (PrecisionError, 4),
    (ThetaforgeError, 3),
    (OSError, 3),
)


def _sha256(data):
    # the interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto
    try:
        from _sha256 import sha256      # CPython 3.10 and 3.11
    except ImportError:
        try:
            from _sha2 import sha256    # CPython 3.12 and later
        except ImportError:             # built without its own hashes
            from hashlib import sha256
    return sha256(data).hexdigest()


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r",
            "\t": "\\t", "\b": "\\b", "\f": "\\f"}


def _json_str(s):
    """A JSON string literal with json's ensure_ascii escapes."""
    out = []
    for ch in s:
        o = ord(ch)
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif 0x20 <= o < 0x7f:
            out.append(ch)
        elif o > 0xffff:   # a surrogate pair
            o -= 0x10000
            out.append("\\u%04x\\u%04x"
                       % (0xd800 | o >> 10, 0xdc00 | o & 0x3ff))
        else:
            out.append("\\u%04x" % o)
    return '"%s"' % "".join(out)


def _json(obj, item=", ", key=": ", indent="", newline=""):
    """json.dumps(obj, sort_keys=True) in the layouts that cli writes.

    item and key are json's separators.  indent is one level's indent,
    and newline is the line break and indent of obj's own line; both
    are "" for a one-line layout.  It takes the types that records
    hold: dicts with str keys, lists, tuples, str, int, bool and None.
    Anything else raises TypeError, so no other output is ever written.
    """
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = newline + indent
    if isinstance(obj, (list, tuple)):
        ends, parts = "[]", [_json(v, item, key, indent, inner) for v in obj]
    elif isinstance(obj, dict):
        if not all(isinstance(k, str) for k in obj):
            raise TypeError("keys must be str")
        ends = "{}"
        parts = [_json_str(k) + key + _json(v, item, key, indent, inner)
                 for k, v in sorted(obj.items())]
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)
    if not parts:
        return ends
    return ends[0] + inner + (item + inner).join(parts) + newline + ends[1]


def _fingerprint(job, contents):
    """sha256 of the job, with the path inputs replaced by `contents`."""
    blob = _json(dict(job, **contents), ",", ":")
    return _sha256(blob.encode())


def _file_digest(path):
    with open(path, "rb") as fh:
        return "sha256:" + _sha256(fh.read())


def _path_contents(args):
    """Job values standing for the contents of path inputs, not the paths."""
    contents = {}
    if args.code not in CATALOG_CODES:
        contents["code"] = _file_digest(args.code)
    if getattr(args, "group_file", None) is not None:
        contents["group"] = "@" + _file_digest(args.group_file)
    return contents


def _dump(obj):
    return _json(obj, ",", ": ", "  ", "\n") + "\n"


def _is_series(v):
    return isinstance(v, dict) and "coeffs" in v and "lead_num48" in v


def _render_value(v):
    if not _is_series(v):
        return _json(v)
    terms = []
    for e, c in v["coeffs"]:
        if e % DEN:
            terms.append("%s q^(%d/48)" % (c, e))
        else:
            terms.append("%s q^%d" % (c, e // DEN))
    return " + ".join(terms) if terms else "0"


def _render_rows(key, v, out):
    """Rows for one value: a series row is followed by a row for each of
    its other keys, and a mapping of series gets one row per series."""
    if isinstance(v, dict) and v and all(map(_is_series, v.values())):
        items = v.items()
    else:
        out.write("%-12s %s\n" % (key, _render_value(v)))
        items = v.items() if _is_series(v) else ()
    for k, x in sorted(items):
        if k not in ("coeffs", "lead_num48", "trunc_num48"):
            _render_rows("%s.%s" % (key, k), x, out)


def _render_table(record, out):
    rows = record.get("rows")
    for key in sorted(record):
        if key not in ("outputs", "rows"):
            _render_rows(key, record[key], out)
    for key, value in sorted(record.get("outputs", {}).items()):
        _render_rows(key, value, out)
    if rows:
        width = max(len(r["label"]) for r in rows) + 2
        for r in rows:
            mark = {True: "ok", False: "FAIL", None: "note"}[r["ok"]]
            out.write("%-*s %-4s expected %s  got %s\n"
                      % (width, r["label"], mark,
                         _render_value(r["expected"]),
                         _render_value(r["got"])))


def _emit(args, obj):
    """Write a record, or a scan's list of records, to stdout or --out."""
    with (nullcontext(sys.stdout) if args.out is None
          else open(args.out, "w")) as out:
        if not args.table:
            out.write(_dump(obj))
        elif isinstance(obj, list):
            for record in obj:
                _render_table(record, out)
                out.write("\n")
        else:
            _render_table(obj, out)


def _error(exc):
    return {"type": type(exc).__name__, "message": str(exc)}


def _load_group(args, n):
    if args.group is not None and args.group_file is not None:
        raise ParseError("give either --group or --group-file, not both")
    if args.group_file is not None:
        return read_group_file(args.group_file, n)
    if args.group:
        return parse_generators(args.group, n)
    return []


def _job_record(args, command, group, trunc, krep):
    """The fingerprinted job; krep None leaves it out."""
    job = {"command": command, "code": args.code, "flavor": args.flavor,
           "group": group, "trunc": trunc}
    if krep is not None:
        job["krep"] = krep
    return job


def _bounded(flag, value, top):
    """The value of a count flag, refused below 1 or above top before
    anything is computed."""
    if value < 1:
        raise DomainError("%s must be at least 1, got %d" % (flag, value))
    if value > top:
        raise DomainError("%s must be at most %d, got %d" % (flag, top, value))
    return value


def _bounds(args):
    """--trunc or the verb's default, and --krep or None for a verb
    without it, each bounded; replicability needs 10 powers."""
    deep = "--krep" in VERBS[args.command]
    trunc = args.trunc
    if trunc is None:
        trunc = REP_TRUNC if deep else THETA_TRUNC
    _bounded("--trunc", trunc, MAX_TRUNC)
    if deep and trunc < 10:
        raise DomainError(
            "replicability needs at least 10 integer powers, got %d" % trunc)
    return trunc, _bounded("--krep", args.krep, MAX_KREP) if deep else None


def _replicability(code, gens, flavor, trunc48, krep):
    """Outputs of `replicable` and of each scan line."""
    label, quo = fixed_quotient(code, gens, trunc48, flavor)
    record = is_replicable(quo, krep)
    record["identified_as"], delta = identify(quo)
    record["constant_delta"] = None if delta is None else "%d/%d" % (
        delta.numerator, delta.denominator)
    return {"orbit_type": label, "replicability": record}


def _run_compute(args):
    code = load_code(args.code)
    gens = _load_group(args, code.n)
    command = args.command
    trunc, krep = _bounds(args)
    trunc48 = trunc * DEN
    if command == "theta":
        outputs = {"series": theta_fixed(
            code, gens, trunc48, flavor=args.flavor).to_json_obj()}
    elif command == "quotient":
        label, quo = fixed_quotient(code, gens, trunc48, args.flavor)
        outputs = {"orbit_type": label, "series": quo.to_json_obj()}
    elif command == "replicable":
        outputs = _replicability(code, gens, args.flavor, trunc48, krep)
    elif command == "identify":
        label, quo = fixed_quotient(code, gens, trunc48, args.flavor)
        name, delta = identify(quo)
        outputs = {"orbit_type": label, "identified_as": name,
                   "constant_delta": None if delta is None else str(delta)}
    elif command == "doubling":
        if len(gens) != 1:
            raise DomainError("doubling checks a single automorphism;"
                              " give --group with one permutation")
        g = gens[0]
        code_doubling, witness = doubling_code_criterion(code, g)
        order = lift_order(code, g, flavor=args.flavor)
        outputs = {"doubling": {
            "lattice_order": g.order(),
            "lift_order": order,
            "doubling": order > g.order(),
            "code_criterion": code_doubling,
            "witness": None if witness is None else mask_to_points(witness),
        }}
        if order > g.order():
            outputs["kernel_theta"] = kernel_theta(
                code, g, trunc48, flavor=args.flavor).to_json_obj()
    else:  # character
        if len(gens) == 1:
            report = character_cyclic(code, gens[0], trunc48,
                                      flavor=args.flavor)
        else:
            report = character_group(code, gens, trunc48,
                                     flavor=args.flavor)
        character = report["character"].to_json_obj()
        character["doubling"] = report["doubling"]
        character["lift_order"] = report["lift_order"]
        character["per_j"] = {str(j): s.to_json_obj()
                              for j, s in sorted(report["per_j"].items())}
        outputs = {"character": character}
    group = args.group or (args.group_file and "@" + args.group_file) or ""
    job = _job_record(args, command, group, trunc, krep)
    _emit(args, {
        "fingerprint": _fingerprint(job, _path_contents(args)),
        "job": job,
        "outputs": outputs,
        "version": __version__,
    })
    return 0


def _run_verify(args):
    record = verify_figure(args.figure)
    _emit(args, record)
    return 1 if record["status"] == "fail" else 0


def _run_scan(args):
    code = load_code(args.code)
    trunc, krep = _bounds(args)
    require_even(code, args.flavor)
    contents = _path_contents(args)
    records = []
    for i, text in read_lines(args.file):
        job = _job_record(args, "scan-line", text, trunc, krep)
        record = {"line": i, "input": text,
                  "fingerprint": _fingerprint(job, contents),
                  "version": __version__}
        try:
            gens = parse_generators(text, code.n)
            record["outputs"] = _replicability(
                code, gens, args.flavor, trunc * DEN, krep)
        except ThetaforgeError as exc:
            record["error"] = _error(exc)
        records.append(record)
    failed = sum(1 for r in records if "error" in r)
    _emit(args, records)
    if failed:
        sys.stderr.write("scan: %d of %d lines failed\n"
                         % (failed, len(records)))
    return 1 if failed else 0


def _usage(verb):
    """The usage line that help and usage errors print, read off VERBS."""
    words = [verb or "{%s} ..." % ",".join(VERBS)]
    for name, (convert, _) in VERBS.get(verb, {}).items():
        meta = ("{%s}" % ",".join(convert) if isinstance(convert, tuple)
                else name.lstrip("-").upper())
        words.append(meta if name[0] != "-" else "[%s]" % (
            name if convert is bool else name + " " + meta))
    return "usage: thetaforge [-h] %s\n" % " ".join(words)


def _exit(verb, error=None):
    """Help on stdout and status 0, or a usage error on stderr and 2."""
    if error:
        error = "thetaforge%s: error: %s\n" % (verb and " " + verb or "",
                                               error)
    (sys.stderr if error else sys.stdout).write(_usage(verb) + (error or ""))
    raise SystemExit(2 if error else 0)


def _is_flag(token):
    """Whether a token is a flag; "-5" and "-.5" are values, as in argparse.

    A dash and one more character make a flag, unless the rest is a
    number: decimal digits, or digits around one dot with at least one
    after it.  As in argparse's pattern, the rest may end in one
    newline, and a newline right after the dash is not a flag.
    """
    if token[:1] != "-" or token[1:2] in ("", "\n"):
        return False
    rest = token[1:-1] if token.endswith("\n") else token[1:]
    whole, dot, frac = rest.partition(".")
    return not (rest.isdecimal() or dot and frac.isdecimal()
                and (whole == "" or whole.isdecimal()))


def parse_args(argv):
    """Read argv against VERBS into the attributes that the verbs read.

    Flags take `--flag value` or `--flag=value`, and the last of a
    repeated flag wins.  Help exits 0, and bad usage exits 2 with
    argparse's wording of the error.
    """
    verb = argv[0] if argv else None
    if verb in ("-h", "--help"):
        _exit(None)
    if verb not in VERBS:
        _exit(None, "argument command: invalid choice: %r (choose from %s)"
              % (verb, ", ".join(map(repr, VERBS))) if argv
              else "the following arguments are required: command")
    spec = VERBS[verb]
    args = {name: default for name, (_, default) in spec.items()}
    wanted = [name for name in spec if name[0] != "-"]   # positionals
    extras, switch, tokens = [], None, iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        if token in ("-h", "--help"):
            _exit(verb)
        if not _is_flag(token) and wanted:
            name, value = wanted.pop(0), token
        elif not _is_flag(token) or name not in spec:
            extras.append(token)
            continue
        elif spec[name][0] is bool:   # --json or --table
            if eq or switch not in (None, name):
                _exit(verb, "argument %s: %s" % (name, "ignored explicit"
                      " argument %r" % value if eq else
                      "not allowed with argument " + switch))
            switch, value = name, True
        elif not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value):
                _exit(verb, "argument %s: expected one argument" % name)
        convert = spec[name][0]
        if isinstance(convert, tuple) and value not in convert:
            _exit(verb, "argument %s: invalid choice: %r (choose from %s)"
                  % (name, value, ", ".join(map(repr, convert))))
        try:
            args[name] = int(value) if convert is int else value
        except ValueError:
            _exit(verb, "argument %s: invalid int value: %r" % (name, value))
    if wanted:
        _exit(verb, "the following arguments are required: " + wanted[0])
    if extras:
        _exit(None, "unrecognized arguments: " + " ".join(extras))
    # --json is the default and only excludes --table
    return SimpleNamespace(command=verb, **{
        name.lstrip("-").replace("-", "_"): value
        for name, value in args.items() if name != "--json"})


def main(argv=None):
    """Run one verb; argv None means this process was started for it.

    A started process flushes stdout and stderr itself, so a failed
    write gives the OSError record and exit 3, and then it ends with
    os._exit.  What a verb wrote to stdout before an error is flushed
    too.  The interpreter's teardown would only free the objects
    of a process that is about to end, and the package registers no
    atexit handler.  Help and usage errors leave by SystemExit in
    either case.  A call with an argv list returns the exit status and
    changes no state of the process.
    """
    started = argv is None
    args = parse_args(sys.argv[1:] if started else argv)
    try:
        if args.command == "verify":
            status = _run_verify(args)
        elif args.command == "scan":
            status = _run_scan(args)
        else:
            status = _run_compute(args)
        if started:
            sys.stdout.flush()
            sys.stderr.flush()
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        status = next(c for cls, c in _EXIT_CODES if isinstance(exc, cls))
        if started:
            with suppress(OSError):   # it may be the stdout that failed
                sys.stdout.flush()
        sys.stderr.write(_dump({"error": _error(exc)}))
    if not started:
        return status
    sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    main()
