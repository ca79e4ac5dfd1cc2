"""Command line front end.

Jobs are canonicalized to a JSON object and fingerprinted with sha256,
so reruns of the same job produce byte-identical output.  A code or
group file given by path counts by the sha256 of its contents, so two
different files at one path get different fingerprints.  Each verb
accepts only the flags it reads.  Scans run their lines one after the
other, keep going past bad input lines, and emit records in input
order.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import nullcontext

from . import __version__
from .characters import character_cyclic, character_group, lift_info
from .codes import CATALOG_CODES, load_code, mask_to_points
from .errors import DomainError, ParseError, ThetaforgeError
from .lattice import flavor_theta, require_even
from .modfunc import identify, is_replicable, theta_quotient
from .perms import orbit_type, parse_generators, read_group_file, type_str
from .qseries import DEN, PrecisionError
from .verify import FIGURE_IDS, verify_figure

THETA_TRUNC = 16   # default integer q-powers for thetas and characters
REP_TRUNC = 26     # default for replicability and identification
_KREP_VERBS = ("replicable", "identify", "scan")   # verbs that take --krep

_EXIT_CODES = (
    (ParseError, 2),
    (PrecisionError, 4),
    (ThetaforgeError, 3),
    (OSError, 3),
)


def _sha256(data):
    # hashlib loads OpenSSL, so only the jobs that write a digest import it
    import hashlib
    return hashlib.sha256(data).hexdigest()


def _fingerprint(job, contents):
    """sha256 of the job, with the path inputs replaced by `contents`."""
    blob = json.dumps(dict(job, **contents), sort_keys=True,
                      separators=(",", ":"))
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
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _render_value(v):
    if isinstance(v, dict) and "coeffs" in v and "lead_num48" in v:
        terms = []
        for e, c in v["coeffs"]:
            if e % DEN:
                terms.append("%s q^(%d/48)" % (c, e))
            else:
                terms.append("%s q^%d" % (c, e // DEN))
        return " + ".join(terms) if terms else "0"
    return json.dumps(v, sort_keys=True)


def _render_table(record, out):
    rows = record.get("rows")
    for key in sorted(record):
        if key in ("outputs", "rows"):
            continue
        out.write("%-12s %s\n" % (key, _render_value(record[key])))
    for key, value in sorted(record.get("outputs", {}).items()):
        out.write("%-12s %s\n" % (key, _render_value(value)))
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
    with (open(args.out, "w") if args.out else nullcontext(sys.stdout)) as out:
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


def _job_record(args, trunc):
    job = {
        "command": args.command,
        "code": args.code,
        "flavor": args.flavor,
        "group": args.group or (args.group_file and "@" + args.group_file)
        or "",
        "trunc": trunc,
    }
    if args.command in _KREP_VERBS:
        job["krep"] = args.krep
    return job


def _trunc(args):
    """--trunc or the verb's default; replicability needs 10 powers."""
    deep = args.command in _KREP_VERBS
    trunc = args.trunc
    if trunc is None:
        trunc = REP_TRUNC if deep else THETA_TRUNC
    if trunc < 1:
        raise DomainError("--trunc must be at least 1, got %d" % trunc)
    if deep and trunc < 10:
        raise DomainError(
            "replicability needs at least 10 integer powers, got %d" % trunc)
    return trunc


def _krep(args):
    """--krep, refused below 1 before anything is computed."""
    if args.krep < 1:
        raise DomainError("--krep must be at least 1, got %d" % args.krep)
    return args.krep


def _quotient_pipeline(code, gens, flavor, trunc48):
    require_even(code, flavor)
    theta = flavor_theta(code, gens, flavor, trunc48)
    label = type_str(orbit_type(gens, code.n))
    return theta, label, theta_quotient(theta, label, N=code.n)


def _replicability(code, gens, flavor, trunc48, krep):
    """Outputs of `replicable` and of each scan line."""
    _, label, quo = _quotient_pipeline(code, gens, flavor, trunc48)
    report = is_replicable(quo, krep)
    report.identified_as, report.constant_delta = identify(quo)
    return {"orbit_type": label, "replicability": report.to_json_obj()}


def _run_compute(args):
    code = load_code(args.code)
    gens = _load_group(args, code.n)
    command = args.command
    trunc = _trunc(args)
    trunc48 = trunc * DEN
    if command == "theta":
        outputs = {"series": flavor_theta(
            code, gens, args.flavor, trunc48).to_json_obj()}
    elif command == "quotient":
        _, label, quo = _quotient_pipeline(code, gens, args.flavor, trunc48)
        outputs = {"orbit_type": label, "series": quo.to_json_obj()}
    elif command == "replicable":
        outputs = _replicability(code, gens, args.flavor, trunc48,
                                 _krep(args))
    elif command == "identify":
        _, label, quo = _quotient_pipeline(code, gens, args.flavor, trunc48)
        name, delta = identify(quo)
        outputs = {"orbit_type": label, "identified_as": name,
                   "constant_delta": None if delta is None else str(delta)}
    elif command == "doubling":
        if len(gens) != 1:
            raise DomainError("doubling checks a single automorphism;"
                              " give --group with one permutation")
        info = lift_info(code, gens[0], trunc48=trunc48, flavor=args.flavor)
        outputs = {"doubling": {
            "lattice_order": info.lattice_order,
            "lift_order": info.lift_order,
            "doubling": info.doubling,
            "code_criterion": info.code_doubling,
            "witness": (None if info.witness is None
                        else mask_to_points(info.witness)),
        }}
        if info.kernel_theta is not None:
            outputs["kernel_theta"] = info.kernel_theta.to_json_obj()
    else:  # character
        if len(gens) == 1:
            report = character_cyclic(code, gens[0], trunc48,
                                      flavor=args.flavor)
        else:
            report = character_group(code, gens, trunc48,
                                     flavor=args.flavor)
        outputs = {"character": report.to_json_obj()}
    job = _job_record(args, trunc)
    _emit(args, {
        "fingerprint": _fingerprint(job, _path_contents(args)),
        "job": job,
        "outputs": outputs,
        "version": __version__,
    })
    return 0


def _run_verify(args):
    report = verify_figure(args.figure)
    _emit(args, report.to_json_obj())
    return 0 if report.ok else 1


def _run_scan(args):
    code = load_code(args.code)
    trunc = _trunc(args)
    krep = _krep(args)
    require_even(code, args.flavor)
    contents = _path_contents(args)
    records = []
    with open(args.file) as fh:
        for i, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            job = {"command": "scan-line", "code": args.code,
                   "flavor": args.flavor, "group": text, "trunc": trunc,
                   "krep": krep}
            record = {"line": i, "input": text,
                      "fingerprint": _fingerprint(job, contents),
                      "version": __version__}
            try:
                gens = parse_generators(text, code.n)
                record["outputs"] = _replicability(
                    code, gens, args.flavor, trunc * DEN, krep)
            except (ThetaforgeError, PrecisionError) as exc:
                record["error"] = _error(exc)
            records.append(record)
    failed = sum(1 for r in records if "error" in r)
    _emit(args, records)
    if failed:
        sys.stderr.write("scan: %d of %d lines failed\n"
                         % (failed, len(records)))
    return 1 if failed else 0


def _add_output(sub):
    sub.add_argument("--out", default=None, help="write output here")
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="table", action="store_false",
                     default=False)
    fmt.add_argument("--table", dest="table", action="store_true")


def _add_inputs(sub, group_flags=True, krep=False):
    sub.add_argument("--code", default="hamming8",
                     help="catalog name or path to a generator-matrix file")
    if group_flags:
        sub.add_argument("--group", default=None,
                         help="comma-separated permutations in cycle notation")
        sub.add_argument("--group-file", default=None,
                         help="file with one permutation per line")
    sub.add_argument("--flavor", default="plain",
                     choices=("plain", "super0", "super1"))
    sub.add_argument("--trunc", type=int, default=None,
                     help="integer q-powers to keep")
    if krep:
        sub.add_argument("--krep", type=int, default=12,
                         help="replicability bound K")
    _add_output(sub)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="thetaforge",
        description="theta series, theta quotients, and characters of"
                    " fixed subVOAs for binary-code lattices")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("theta", "quotient", "replicable", "identify", "doubling",
                 "character"):
        _add_inputs(subs.add_parser(name), krep=name in _KREP_VERBS)
    verify = subs.add_parser("verify")
    verify.add_argument("figure", choices=FIGURE_IDS)
    _add_output(verify)
    scan = subs.add_parser("scan")
    scan.add_argument("file", help="one generating set per line")
    _add_inputs(scan, group_flags=False, krep=True)
    return parser


def main(argv=None):
    """Run one verb; argv None means this process was started for it.

    A started process freezes its start-up heap: the objects made by
    the imports live until exit, and frozen, neither the collector nor
    the interpreter's teardown walks them.  Objects made afterwards are
    still collected.  A call with an argv list changes no state of the
    process.
    """
    if argv is None:
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "scan":
            return _run_scan(args)
        return _run_compute(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        code = next(c for cls, c in _EXIT_CODES if isinstance(exc, cls))
        sys.stderr.write(_dump({"error": _error(exc)}))
        return code


if __name__ == "__main__":
    sys.exit(main())
