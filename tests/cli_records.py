"""The records corpus: CLI jobs and what each one printed.

`tests/data/cli_records.jsonl` holds one JSON object per job: its argv,
its exit status and the exact text it wrote to stdout and stderr, and
for a job with ``--out`` the text of that file.  `test_records.py`
replays every job in one process through `cli.main(argv)` and compares.
The corpus is a regression record of the outputs, not a judge of
their correctness; the oracles and closed forms stay the judges.

Run this file from the root of the repository to rewrite the corpus:

    PYTHONPATH=src python tests/cli_records.py

It also writes the input files of its jobs under `tests/data/records/`.
It is the only way either changes.  Paths in argv are relative to the
root, because a record shows the paths it was given.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

from thetaforge.cli import main
from thetaforge.errors import read_lines
from thetaforge.verify import FIGURE_IDS

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path("tests", "data", "cli_records.jsonl")
INPUTS = Path("tests", "data", "records")
OUT = "OUT"   # the --out value in argv; a replay writes to a scratch file

HAM_CLASSES = [text for _, text in
               read_lines(ROOT / "tests" / "data" / "hamming8_classes.txt")]
HALF_SWAP = "".join("(%d,%d)" % (i, i + 12) for i in range(1, 13))
# a permutation of hamming8 that is not one of its automorphisms
NON_AUTO = "(1,2)"


def run_job(argv, out_path=None):
    """Run one job in this process: (status, stdout, stderr, out text).

    An ``OUT`` value in argv is replaced by out_path, and the file's
    text is returned as the fourth item (None for other jobs).
    """
    argv = [out_path if a == OUT else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            status = main(argv)
        except SystemExit as exc:   # help and usage errors
            status = exc.code
    out = None
    if out_path is not None and out_path in argv:
        out = Path(out_path).read_text()
    return status, stdout.getvalue(), stderr.getvalue(), out


def record(argv, out_path=None):
    status, stdout, stderr, out = run_job(argv, out_path)
    rec = {"argv": argv, "status": status, "stdout": stdout,
           "stderr": stderr}
    if out is not None:
        rec["out"] = out
    return rec


def _perfbench_jobs():
    """Every perfbench job at seeds 0 and 3, its inputs written here."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run as perfbench
    jobs = []
    for seed in (0, 3):
        inputs = perfbench.Inputs(seed, str(INPUTS / ("seed%d" % seed)))
        for workload in ("leech", "series", "catalog"):
            jobs += [job.argv for job in
                     perfbench.workload_jobs(workload, inputs)]
    return jobs


def _hamming8_jobs():
    """Each verb on every hamming8 class, the trivial group among them,
    as JSON and as a table.  The super0 lattice of hamming8 is odd, so
    only `theta` and `doubling` run under every flavor."""
    jobs = []
    for verb in ("theta", "quotient", "replicable", "identify",
                 "doubling", "character"):
        flavors = ["plain", "super1"]
        if verb in ("theta", "doubling"):
            flavors.append("super0")
        for group in HAM_CLASSES:
            for flavor in flavors:
                argv = [verb, "--group", group, "--flavor", flavor]
                jobs += [argv, argv + ["--table"]]
    return jobs


def _other_jobs():
    scan_file = str(INPUTS / "scan_with_a_bad_line.txt")
    group_file = str(INPUTS / "klein_group.txt")
    (ROOT / scan_file).write_text(
        "(1,2)(3,4)(5,6)(7,8)\n(1,2,3\n(1,2)\n(1,2,3,4)(5,6,7,8)\n")
    (ROOT / group_file).write_text(
        "# the Klein four-group of the README\n"
        "(1,2)(3,8)(4,7)(5,6)\n(1,3)(2,8)(4,6)(5,7)\n")
    # inputs refused as they are read or used; one byte is not UTF-8
    refused = {
        "length12.txt": b"111100000000\n000011110000\n000000001111\n",
        "singly_even.txt": b"1100\n0011\n",
        "length65.txt": b"1" * 8 + b"0" * 57 + b"\n",
        "dim32_length64.txt": b"".join(
            (b"00" * k + b"11" + b"00" * (31 - k) + b"\n") for k in range(32)),
        "bad_character.txt": b"11110000\n11112000\n",
        "ragged_rows.txt": b"11110000\n1111\n",
        "comment_only.txt": b"# no rows here\n",
        "not_utf8.txt": b"11110000\n\xff\n",
        "unclosed_group.txt": b"(1,2\n",
        "comma_group.txt": b"(1,2),(3,4)\n",
        "comment_only_group.txt": b"# no permutations here\n",
    }
    for name, data in refused.items():
        (ROOT / INPUTS / name).write_bytes(data)
    bad = {name: str(INPUTS / name) for name in refused}
    classes = "tests/data/hamming8_classes.txt"
    fig8 = "tests/data/golay24_fig8.txt"
    g24 = "tests/data/golay24_rows.txt"
    h16 = "hamming8+hamming8"
    jobs = [["verify", f, "--table"] for f in FIGURE_IDS]
    jobs += [
        # scans, with every flavor, a table, --out and a bad line
        ["scan", classes, "--table"],
        ["scan", classes, "--flavor", "super1"],
        ["scan", classes, "--flavor", "super0", "--krep", "6"],
        ["quotient", "--flavor", "super0"],
        ["scan", fig8, "--code", g24, "--table"],
        ["scan", classes, "--out", OUT],
        ["scan", classes, "--table", "--out", OUT],
        ["scan", scan_file],
        ["scan", scan_file, "--table"],
        # golay24, the Leech flavor and rank 16
        ["theta", "--code", "golay24", "--trunc", "6"],
        ["theta", "--code", "golay24", "--flavor", "super1", "--trunc", "6"],
        ["quotient", "--code", "golay24", "--group", HALF_SWAP],
        ["doubling", "--code", "golay24", "--flavor", "super1",
         "--group", HALF_SWAP, "--trunc", "6"],
        ["character", "--code", "golay24", "--flavor", "super1",
         "--group", HALF_SWAP, "--trunc", "4"],
        ["theta", "--code", h16, "--trunc", "8"],
        ["quotient", "--code", h16],
        ["quotient", "--code", h16, "--group", "(1,2)(3,4)(5,6)(7,8)"],
        # a power 12/5 quotient: the only records with Fraction values
        ["quotient", "--code", h16, "--group", "(1,2,5,3,7,6,4)",
         "--trunc", "4"],
        ["quotient", "--code", h16, "--group", "(1,2,5,3,7,6,4)",
         "--trunc", "4", "--table"],
        ["replicable", "--code", h16, "--group", "(1,9)(2,10)(3,11)(4,12)"
         "(5,13)(6,14)(7,15)(8,16)"],
        ["character", "--code", h16, "--group", "(1,9)(2,10)(3,11)(4,12)"
         "(5,13)(6,14)(7,15)(8,16)", "--trunc", "6"],
        # group files, --out, deeper windows and the default job
        ["character", "--group-file", group_file],
        ["quotient", "--group-file", group_file, "--table"],
        ["theta", "--group", "(1,7)(2,4)(3,8)(5,6)", "--out", OUT],
        ["quotient", "--group", "(2,8,4,6)(3,5)", "--table", "--out", OUT],
        ["replicable", "--group", "(1,5,2)(3,7,8)", "--krep", "20",
         "--trunc", "42"],
        ["identify", "--group", "(1,2)(3,4)(5,6)(7,8)", "--trunc", "40"],
        ["theta"],
        # exit 2: help and usage errors
        [],
        ["--help"],
        ["theta", "--help"],
        ["nonsense"],
        ["theta", "--trunc"],
        ["theta", "--trunc", "x"],
        ["theta", "--flavor", "super2"],
        ["theta", "--json", "--table"],
        ["theta", "--bogus"],
        ["verify"],
        ["verify", "fig99"],
        # exit 3: refused input
        ["theta", "--group", NON_AUTO],
        ["character", "--group", NON_AUTO],
        ["theta", "--group", "(1,2,3"],
        ["theta", "--group", "(1,9)"],
        ["theta", "--code", "no/such/file.txt"],
        ["theta", "--group", "()", "--group-file", group_file],
        ["theta", "--trunc", "0"],
        ["theta", "--trunc", "1001"],
        ["replicable", "--trunc", "9"],
        ["replicable", "--krep", "0"],
        ["replicable", "--krep", "201"],
        ["doubling", "--group", "(1,2)(3,4)(5,6)(7,8), (1,3)(2,4)(5,7)(6,8)"],
        ["character", "--code", "golay24", "--group",
         "(1,2)(3,4)(5,6)(7,8)(9,10)(11,12)(13,14)(15,16)(17,18)(19,20)"
         "(21,22)(23,24)"],
        ["scan", "no/such/file.txt"],
        # exit 4 and its edge: windows too short for the quotient
        ["quotient", "--trunc", "1"],
        ["quotient", "--code", "golay24", "--trunc", "1"],
        ["quotient", "--code", h16, "--trunc", "1"],
        ["replicable", "--krep", "12", "--trunc", "12"],
        ["identify", "--trunc", "10"],
        ["replicable", "--krep", "30", "--trunc", "20"],
        # exit 3: refusals past parsing
        ["character"],
        ["character", "--group", "(1,7)(2,4)(3,8)(5,6), (1,2)(3,8)(4,7)(5,6)"],
        ["character", "--code", h16, "--group", "(2,3,4,7,5,8,6), "
         "(1,2)(3,4)(5,6)(7,8), (1,9)(2,10)(3,11)(4,12)(5,13)(6,14)(7,15)"
         "(8,16), (3,4,5)(6,8,7)"],
        ["doubling", "--code", bad["singly_even.txt"], "--group", "(1,2)"],
        ["doubling", "--code", bad["length12.txt"], "--flavor", "super1",
         "--group", "(1,5)(2,6)(3,7)(4,8)"],
        ["quotient", "--code", bad["length12.txt"]],
        ["theta", "--code", bad["length65.txt"]],
        ["theta", "--code", bad["dim32_length64.txt"]],
        # exit 2: code files, --group values and group files that do not parse
        ["theta", "--code", bad["bad_character.txt"]],
        ["theta", "--code", bad["ragged_rows.txt"]],
        ["theta", "--code", bad["comment_only.txt"]],
        ["theta", "--code", bad["not_utf8.txt"]],
    ]
    jobs += [["theta", "--group", text] for text in
             ("(1,2)x", "(1,(2,3))", "(1,2)3", "(1,3)(3,5)", "1,2)", ",")]
    jobs += [["theta", "--group-file", bad[name]] for name in
             ("unclosed_group.txt", "comma_group.txt",
              "comment_only_group.txt")]
    # exit 4: a window too short to identify the golay24 quotient
    jobs.append(["identify", "--code", "golay24", "--trunc", "10"])
    # exit 2: a non-ASCII character, one past U+FFFF, and a quote and a
    # backslash, each escaped in the error record; negative decimals,
    # which are values and not flags
    jobs += [["theta", "--group", "(1,2)" + tail]
             for tail in ("\u00e9", "\U0001f600", '"\\')]
    jobs += [["theta", "--trunc", value] for value in ("-1.5", "-.5")]
    # a group-file line may space its cycles apart; an unmatched ')'
    spaced = str(INPUTS / "spaced_group.txt")
    unmatched = str(INPUTS / "unmatched_group.txt")
    (ROOT / spaced).write_text("(1,7) (2,4) (3,8) (5,6)\n")
    (ROOT / unmatched).write_text("(1,2))\n")
    jobs += [["theta", "--group-file", spaced],
             ["theta", "--group-file", unmatched]]
    return jobs


def write_corpus():
    os.chdir(ROOT)
    os.makedirs(INPUTS, exist_ok=True)
    jobs = _perfbench_jobs() + _hamming8_jobs() + _other_jobs()
    with TemporaryDirectory() as scratch, open(CORPUS, "w") as fh:
        out_path = os.path.join(scratch, "out")
        for argv in jobs:
            fh.write(json.dumps(record(argv, out_path), sort_keys=True)
                     + "\n")
    return len(jobs)


if __name__ == "__main__":
    print("%d records written to %s" % (write_corpus(), CORPUS))
