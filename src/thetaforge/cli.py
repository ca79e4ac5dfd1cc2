"""Command line front end.

Jobs are canonicalized to a JSON object and fingerprinted with sha256,
so reruns of the same job produce byte-identical output; the optional
result cache is an append-only JSON-lines file keyed by that
fingerprint.  Scans fan out over a worker pool (capped by
THETAFORGE_THREADS), keep going past bad input lines, and emit records
in input order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

from . import __version__
from .characters import character_cyclic, character_group, lift_info
from .codes import load_code, mask_to_points
from .errors import DomainError, ParseError, ThetaforgeError
from .lattice import flavor_theta
from .modfunc import identify, is_replicable, theta_quotient
from .perms import orbit_type, parse_generators, read_group_file, type_str
from .qseries import DEN, PrecisionError
from .verify import FIGURE_IDS, verify_figure

THETA_TRUNC = 16   # default integer q-powers for thetas and characters
REP_TRUNC = 26     # default for replicability and identification

_EXIT_CODES = (
    (ParseError, 2),
    (PrecisionError, 4),
    (ThetaforgeError, 3),
)


def _threads():
    raw = os.environ.get("THETAFORGE_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return max(1, n) if n else min(8, os.cpu_count() or 1)


def _fingerprint(job):
    blob = json.dumps(job, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _dump(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _render_value(v):
    if isinstance(v, dict) and "coeffs" in v and "lead_num48" in v:
        terms = []
        for e, c in v["coeffs"]:
            num, den = e // DEN, None
            if e % DEN:
                terms.append("%s q^(%d/48)" % (c, e))
            else:
                terms.append("%s q^%d" % (c, num))
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


class _Emitter:
    """Writes records to stdout or --out, JSON by default."""

    def __init__(self, args):
        self.path = args.out
        self.table = args.table
        self.fh = open(self.path, "w") if self.path else sys.stdout

    def emit(self, record):
        if self.table:
            _render_table(record, self.fh)
        else:
            self.fh.write(_dump(record))

    def emit_list(self, records):
        if self.table:
            for record in records:
                _render_table(record, self.fh)
                self.fh.write("\n")
        else:
            self.fh.write(_dump(records))

    def close(self):
        if self.path:
            self.fh.close()


def _append_cache(path, record):
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    fingerprint = record["fingerprint"]
    try:
        import fcntl
    except ImportError:
        fcntl = None
    with open(path, "a+") as fh:
        if fcntl is not None:
            fcntl.flock(fh, fcntl.LOCK_EX)
        fh.seek(0)
        for existing in fh:
            try:
                if json.loads(existing).get("fingerprint") == fingerprint:
                    return
            except json.JSONDecodeError:
                continue
        fh.write(line)


def _load_group(args, n):
    if args.group is not None and args.group_file is not None:
        raise ParseError("give either --group or --group-file, not both")
    if args.group_file is not None:
        return read_group_file(args.group_file, n)
    if args.group:
        return parse_generators(args.group, n)
    return []


def _job_record(args, command, extra):
    job = {
        "command": command,
        "code": args.code,
        "flavor": args.flavor,
        "group": args.group or (args.group_file and "@" + args.group_file)
        or "",
        "trunc": args.trunc,
    }
    job.update(extra)
    return job


def _quotient_pipeline(code, gens, flavor, trunc48):
    theta = flavor_theta(code, gens, flavor, trunc48)
    label = type_str(orbit_type(gens, code.n))
    return theta, label, theta_quotient(theta, label, N=code.n)


def _run_compute(args):
    code = load_code(args.code)
    gens = _load_group(args, code.n)
    command = args.command
    deep = command in ("replicable", "identify")
    trunc = args.trunc or (REP_TRUNC if deep else THETA_TRUNC)
    args.trunc = trunc
    trunc48 = trunc * DEN
    if deep and trunc < 10:
        raise DomainError(
            "replicability needs at least 10 integer powers, got %d" % trunc)
    outputs = {}
    extra = {}
    if command == "theta":
        outputs["series"] = flavor_theta(
            code, gens, args.flavor, trunc48).to_json_obj()
    elif command == "quotient":
        theta, label, quo = _quotient_pipeline(
            code, gens, args.flavor, trunc48)
        outputs["orbit_type"] = label
        outputs["series"] = quo.to_json_obj()
    elif command in ("replicable", "identify"):
        theta, label, quo = _quotient_pipeline(
            code, gens, args.flavor, trunc48)
        outputs["orbit_type"] = label
        extra["krep"] = args.krep
        if command == "replicable":
            report = is_replicable(quo, args.krep)
            report.identified_as, report.constant_delta = identify(quo)
            outputs["replicability"] = report.to_json_obj()
        else:
            name, delta = identify(quo)
            outputs["identified_as"] = name
            outputs["constant_delta"] = (
                None if delta is None else str(delta))
    elif command == "doubling":
        if len(gens) != 1:
            raise DomainError("doubling checks a single automorphism;"
                              " give --group with one permutation")
        info = lift_info(code, gens[0], trunc48=trunc48, flavor=args.flavor)
        outputs["doubling"] = {
            "lattice_order": info.lattice_order,
            "lift_order": info.lift_order,
            "doubling": info.doubling,
            "code_criterion": info.code_doubling,
            "witness": (None if info.witness is None
                        else mask_to_points(info.witness)),
        }
        if info.kernel_theta is not None:
            outputs["kernel_theta"] = info.kernel_theta.to_json_obj()
    elif command == "character":
        if len(gens) == 1:
            report = character_cyclic(code, gens[0], trunc48,
                                      flavor=args.flavor)
        else:
            report = character_group(code, gens, trunc48,
                                     flavor=args.flavor)
        outputs["character"] = report.to_json_obj()
    else:
        raise DomainError("unhandled command %r" % command)
    job = _job_record(args, command, extra)
    record = {
        "fingerprint": _fingerprint(job),
        "job": job,
        "outputs": outputs,
        "version": __version__,
    }
    if args.cache:
        _append_cache(args.cache, record)
    emitter = _Emitter(args)
    emitter.emit(record)
    emitter.close()
    return 0


def _run_verify(args):
    report = verify_figure(args.figure)
    emitter = _Emitter(args)
    emitter.emit(report.to_json_obj())
    emitter.close()
    return 0 if report.ok else 1


def _scan_line(code, flavor, trunc48, krep, text):
    gens = parse_generators(text, code.n)
    _, label, quo = _quotient_pipeline(code, gens, flavor, trunc48)
    report = is_replicable(quo, krep)
    report.identified_as, report.constant_delta = identify(quo)
    return {"orbit_type": label, "replicability": report.to_json_obj()}


def _run_scan(args):
    code = load_code(args.code)
    trunc = args.trunc or REP_TRUNC
    trunc48 = trunc * DEN
    lines = []
    with open(args.file) as fh:
        for i, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                lines.append((i, text))

    def work(item):
        i, text = item
        job = {"command": "scan-line", "code": args.code,
               "flavor": args.flavor, "group": text, "trunc": trunc,
               "krep": args.krep}
        base = {"line": i, "input": text, "fingerprint": _fingerprint(job),
                "version": __version__}
        try:
            base["outputs"] = _scan_line(code, args.flavor, trunc48,
                                         args.krep, text)
        except (ThetaforgeError, PrecisionError) as exc:
            base["error"] = {"type": type(exc).__name__, "message": str(exc)}
        return base

    if len(lines) > 1 and _threads() > 1:
        with ThreadPoolExecutor(max_workers=_threads()) as pool:
            records = list(pool.map(work, lines))
    else:
        records = [work(item) for item in lines]
    failed = sum(1 for r in records if "error" in r)
    if args.cache:
        for record in records:
            if "error" not in record:
                _append_cache(args.cache, record)
    emitter = _Emitter(args)
    emitter.emit_list(records)
    emitter.close()
    if failed:
        sys.stderr.write("scan: %d of %d lines failed\n"
                         % (failed, len(records)))
    return 1 if failed else 0


def _add_common(sub, group_flags=True):
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
    sub.add_argument("--krep", type=int, default=12,
                     help="replicability bound K")
    sub.add_argument("--out", default=None, help="write output here")
    sub.add_argument("--cache", default=None,
                     help="append-only JSON-lines result cache")
    fmt = sub.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="table", action="store_false",
                     default=False)
    fmt.add_argument("--table", dest="table", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="thetaforge",
        description="theta series, theta quotients, and characters of"
                    " fixed subVOAs for binary-code lattices")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("theta", "quotient", "replicable", "identify", "doubling",
                 "character"):
        _add_common(subs.add_parser(name))
    verify = subs.add_parser("verify")
    verify.add_argument("figure", choices=FIGURE_IDS)
    _add_common(verify)
    scan = subs.add_parser("scan")
    scan.add_argument("file", help="one generating set per line")
    _add_common(scan, group_flags=False)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "scan":
            return _run_scan(args)
        return _run_compute(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        code = next(c for cls, c in _EXIT_CODES if isinstance(exc, cls))
        sys.stderr.write(_dump({
            "error": {"type": type(exc).__name__, "message": str(exc)}}))
        return code


if __name__ == "__main__":
    sys.exit(main())
