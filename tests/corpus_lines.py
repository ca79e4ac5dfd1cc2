"""The package lines that no record of the corpus runs.

Replays every job of `tests/data/cli_records.jsonl` in this process,
as `test_records.py` does, under a `sys.settrace` line tracer, and
prints, module by module, the functions that no job calls and each
line of `src/thetaforge` that has bytecode but that no job executed.
The package is imported after the tracer is installed, so its
module-level lines count as run.  A line
listed here is one no recorded job reaches; whether a test reaches it
is another matter.  Run it from anywhere:

    PYTHONPATH=src python tests/corpus_lines.py

pytest does not collect this file: its name does not start with test_.
"""

import json
import os
import sys
from pathlib import Path
from tempfile import TemporaryDirectory

SRC = Path(__file__).resolve().parent.parent / "src" / "thetaforge"


def _code_objects(code):
    """code and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _code_objects(const)


def _compiled(path):
    return list(_code_objects(compile(path.read_text(), str(path), "exec")))


def replay_traced():
    """Replay the corpus under the tracer: the (file, line) pairs run,
    the (file, first line) pairs of the functions called, and the
    number of jobs."""
    src = str(SRC) + os.sep
    ran, called = set(), set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(src):
            return None
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    sys.settrace(tracer)
    try:
        from cli_records import CORPUS, ROOT, run_job
        os.chdir(ROOT)
        jobs = [json.loads(line)["argv"]
                for line in (ROOT / CORPUS).read_text().splitlines()]
        with TemporaryDirectory() as scratch:
            for argv in jobs:
                run_job(argv, os.path.join(scratch, "out"))
    finally:
        sys.settrace(None)
    return ran, called, len(jobs)


def main():
    ran, called, count = replay_traced()
    total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        codes = _compiled(path)
        # named functions only: a comprehension or lambda of one that is
        # not called is not called either
        idle = [getattr(c, "co_qualname", c.co_name) for c in codes[1:]
                if "<" not in c.co_name
                and (str(path), c.co_firstlineno) not in called]
        missed = {line for c in codes for _, _, line in c.co_lines()
                  if line is not None and (str(path), line) not in ran}
        total += len(missed)
        print("%s: %d functions not called, %d lines not run"
              % (path.name, len(idle), len(missed)))
        if idle:
            print("  not called: " + ", ".join(idle))
        for line in sorted(missed):
            print("  %4d  %s" % (line, text[line - 1].strip()))
    print("%d lines not run by the %d records" % (total, count))


if __name__ == "__main__":
    main()
