"""Every function of the package is called by some record of the corpus.

A function that no recorded job calls is dead, or it is reached only by
tests: give it a record through `cli_records.py`, move it to
`tests/oracles.py` or delete it.  The corpus is replayed once in a
fresh interpreter, so that no cache an earlier test filled hides a
call, under the call-only profile hook of `corpus_lines.calls_into`.
The functions that no record calls on purpose are pinned below, each
with its reason; the list must be exact, so a function that a record
starts to call leaves it.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from corpus_lines import SRC, calls_into, uncalled

UNCALLED = [
    # no verb reaches the p^2 q case of Theorem C yet (ROADMAP item 17)
    "verify._check_p2q",
    # the one caller is the fractional power of a lead coefficient that
    # is not 1, which no CLI job has; the eta_power property judges it
    "qseries.iroot",
    # tests compare series; no verb does
    "qseries.QSeries.__eq__",
    # shown only when debugging
    "codes.BinaryCode.__repr__",
    "perms.Perm.__repr__",
    "qseries.QSeries.__repr__",
]

_REPLAY = """
from corpus_lines import SRC, calls_into, replay_corpus, uncalled
print("\\n".join(uncalled(calls_into(SRC, replay_corpus))))
"""


def test_every_package_function_is_called_by_a_record():
    tests = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), str(tests)]))
    proc = subprocess.run([sys.executable, "-c", _REPLAY], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert sorted(proc.stdout.split()) == sorted(UNCALLED)


_MODULE = """
def used():
    return [x for x in range(2)], (lambda: 1)()

def counted():
    yield 1

class Box:
    def method(self):
        def inner():
            return 1
        return inner()

    def idle(self):
        def inner_idle():
            return 0
        return inner_idle()

def unused():
    return 0
"""


def test_call_guard_sees_every_form(tmp_path):
    # the module and class bodies, lambdas and comprehensions are not
    # named functions; a generator counts as called once it is run
    path = tmp_path / "mod.py"
    path.write_text(_MODULE)
    spec = importlib.util.spec_from_file_location("mod", str(path))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)

    def run():
        mod.used()
        list(mod.counted())
        mod.Box().method()

    called = calls_into(tmp_path, run)
    assert uncalled(called, tmp_path) == [
        "mod.Box.idle", "mod.Box.idle.<locals>.inner_idle", "mod.unused"]
