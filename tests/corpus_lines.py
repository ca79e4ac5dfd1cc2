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

`test_corpus_calls.py` replays the corpus with `calls_into` and
`uncalled` and fails on a function that no record calls.

pytest does not collect this file: its name does not start with test_.
"""

import inspect
import json
import os
import sys
from pathlib import Path
from tempfile import TemporaryDirectory

SRC = Path(__file__).resolve().parent.parent / "src" / "thetaforge"


def _code_objects(code, qualname=None):
    """(qualified name, code object) for code and every code object
    nested in it; the module has no name.  The names are built here, as
    `co_qualname` is new in Python 3.11."""
    yield qualname, code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            if qualname is None:
                name = const.co_name
            elif code.co_flags & inspect.CO_NEWLOCALS:   # a function
                name = "%s.<locals>.%s" % (qualname, const.co_name)
            else:   # a class body
                name = "%s.%s" % (qualname, const.co_name)
            yield from _code_objects(const, name)


def _compiled(path):
    return list(_code_objects(compile(path.read_text(), str(path), "exec")))


def _named_functions(codes):
    """The (qualified name, code object) pairs of named functions among
    codes: no module or class body, and no lambda or comprehension,
    which is called only if the function around it is."""
    return [(name, c) for name, c in codes if "<" not in c.co_name
            and c.co_flags & inspect.CO_NEWLOCALS]


def replay_corpus():
    """Run every job of the corpus in this process, from the root of the
    repository, as `test_records.py` does; the number of jobs."""
    from cli_records import CORPUS, ROOT, run_job
    os.chdir(ROOT)
    jobs = [json.loads(line)["argv"]
            for line in (ROOT / CORPUS).read_text().splitlines()]
    with TemporaryDirectory() as scratch:
        for argv in jobs:
            run_job(argv, os.path.join(scratch, "out"))
    return len(jobs)


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
        count = replay_corpus()
    finally:
        sys.settrace(None)
    return ran, called, count


def calls_into(src, run):
    """The (file, first line) pairs of the functions under the directory
    src that run() calls, seen by a call-only `sys.setprofile` hook; it
    costs far less than the line tracer and leaves any tracer alone."""
    prefix = str(src) + os.sep
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called


def uncalled(called, src=SRC):
    """"module.qualified.name" of each named function of the modules in
    the directory src whose (file, first line) is not in called."""
    return ["%s.%s" % (path.stem, name)
            for path in sorted(Path(src).glob("*.py"))
            for name, c in _named_functions(_compiled(path))
            if (str(path), c.co_firstlineno) not in called]


def main():
    ran, called, count = replay_traced()
    total = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text().splitlines()
        codes = _compiled(path)
        idle = [name for name, c in _named_functions(codes)
                if (str(path), c.co_firstlineno) not in called]
        missed = {line for _, c in codes for _, _, line in c.co_lines()
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
