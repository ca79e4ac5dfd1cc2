"""Run one thetaforge CLI job with timing wrappers around each layer.

Usage: python perfbench/trace_launch.py SPANS_FILE CLI_ARG...

The launcher imports ``thetaforge.cli`` (and with it every module of the
package), replaces each public function listed in TARGETS by a wrapper
that records a span, and then calls ``thetaforge.cli.main(argv)``.  A
function imported by name into another module is a separate binding, so
every binding of the original object in every loaded ``thetaforge.*``
module is replaced.  Methods are wrapped on their class.

A span is (name, start, end, parent, thread, count): times come from
``time.monotonic()`` (the system-wide monotonic clock, so run.py can
compare them with its own spawn time), ``parent`` is the index of the
enclosing span or -1, and ``count`` is a work count computed from the
call's arguments and return value only.  Spans stay in memory and are
written as one JSON document at exit.  Targets that a version of the
program no longer has are skipped.
"""

import functools
import json
import sys
import threading
import time

# span name -> (module, attribute path, count function or None)
TARGETS = {}


def _target(name, module, path, count=None):
    TARGETS[name] = (module, path, count)


def _series_len(x):
    return len(x.coeffs) if hasattr(x, "coeffs") else 1


def _mul_pairs(args, result):
    # a scalar operand counts as a one-term series
    return _series_len(args[0]) * _series_len(args[1])


def _len_result(args, result):
    return len(result)


_target("codes.load_code", "codes", "load_code")
_target("codes.codewords", "codes", "BinaryCode.codewords", _len_result)
_target("codes.fixed_subcode", "codes", "BinaryCode.fixed_subcode")
for _name in ("parse_generators", "orbits"):
    _target("perms." + _name, "perms", _name)
_target("perms.group_elements", "perms", "group_elements", _len_result)
for _name in ("theta_fixed", "theta_super", "theta_twisted", "theta_full",
              "kernel_theta", "catalog_theta", "doubling_lattice_criterion",
              "doubling_code_criterion"):
    _target("lattice." + _name, "lattice", _name)
_target("qseries.mul", "qseries", "QSeries.__mul__", _mul_pairs)
_target("qseries.add", "qseries", "QSeries.__add__")
_target("qseries.pow", "qseries", "QSeries.__pow__")
_target("qseries.pow_rational", "qseries", "QSeries.pow_rational")
_target("qseries.truediv", "qseries", "QSeries.__truediv__")
_target("qseries.eta", "qseries", "eta")
_target("qseries.shifted_theta", "qseries", "shifted_theta")
for _name in ("eta_product", "theta_quotient", "faber_table",
              "is_replicable", "identify", "mckay_thompson"):
    _target("modfunc." + _name, "modfunc", _name)
for _name in ("lift_info", "trace_series", "character_cyclic",
              "character_group", "character_plus", "verify_identity"):
    _target("characters." + _name, "characters", _name)
_target("verify.verify_figure", "verify", "verify_figure")
_target("cli.main", "cli", "main")


class Recorder:
    """Collects spans from every thread of the process."""

    def __init__(self):
        self.spans = []
        self.main_thread = threading.get_ident()
        self.main_stack = []
        self.local = threading.local()

    def stack(self):
        stack = getattr(self.local, "stack", None)
        if stack is None:
            if threading.get_ident() == self.main_thread:
                stack = self.main_stack
            else:
                stack = []
            self.local.stack = stack
        return stack

    def wrap(self, name, func, count):
        spans = self.spans
        clock = time.monotonic
        main_stack = self.main_stack

        def traced(*args, **kwargs):
            stack = self.stack()
            if stack:
                parent = stack[-1]
            elif stack is not main_stack and main_stack:
                # a pool worker's outermost span belongs to the span that
                # is open in the main thread, which waits for it
                parent = main_stack[-1]
            else:
                parent = -1
            index = len(spans)
            span = [name, clock(), 0.0, parent, threading.get_ident(), 0]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[5] = count(args, result)
            return result

        return functools.update_wrapper(traced, func)

    def install(self):
        """Wrap every target that exists; return the names wrapped."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "thetaforge" or n.startswith("thetaforge.")]
        installed = []
        for name, (module, path, count) in TARGETS.items():
            owner = sys.modules.get("thetaforge." + module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, count)
            if outer:
                setattr(owner, attr, wrapper)
            else:
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
            installed.append(name)
        return installed


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    import thetaforge.cli  # noqa: F401  (loads every module of the package)
    recorder = Recorder()
    installed = recorder.install()
    main_entry = time.monotonic()
    try:
        status = sys.modules["thetaforge.cli"].main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"main_entry": main_entry, "installed": installed,
                       "spans": recorder.spans}, fh, separators=(",", ":"))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
