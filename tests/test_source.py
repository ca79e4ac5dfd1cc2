"""Source-level guards on the package itself.

Runtime invariants must raise typed errors: ``python -O`` strips
``assert`` statements, so a check written as one silently disappears.
The package computes exact answers, so no float may enter it: neither
a float literal nor a call to ``float(...)``.  Its output depends only
on its arguments and runs in one thread: it reads no environment
variable and imports no thread, process or file-lock module.  Every
division by an eta product goes through `modfunc.eta_quotient`, which
owns the precision window, so no code outside its body divides by a
call to ``eta`` or ``eta_product``, and nothing raises a series to a
negative power: every eta product and quotient is the one recurrence
of `qseries.eta_power`, and a series is divided only by a scalar.  No module imports ``fractions`` or ``decimal``
when it is imported: `qseries._fraction` loads them for the first value
that is not whole, so a job whose values are all whole never pays for
them.  No module imports ``hashlib`` when
it is imported itself: hashlib loads OpenSSL, which every process would
pay for, so only the function that computes a digest imports it.  No module
imports ``argparse``, ``optparse`` or ``gettext`` at all: every CLI job
is a short process, and argparse with gettext and locale cost about
4 ms of each, so the command line is read by `cli.parse_args` against
the `cli.VERBS` table.  The flavor names of the a_Omega/4 glueing are
spelled only in `lattice`, which dispatches on them; every other module
takes them from `lattice.FLAVORS` or passes a flavor through.  For the
same start-up cost no module imports ``json`` (`cli` writes records
itself) or anything from ``__future__``, and none compiles a regular
expression when it is imported: a pattern is compiled the first time
its parser runs.  Only `perms` imports ``re``, to read the permutations
a user types; every constant of the package is written as the value
its callee takes, not as text parsed back at run time.  Only `modfunc`
names ``theta_quotient``: every other module gets the labelled
quotient of a fixed sublattice from `modfunc.fixed_quotient`, which
reads the rank off the orbit type.  Only `lattice._census_theta` calls
`lattice._census_keys`, so the package keeps one census engine.
An orbit type has one form, the (length, count) pairs of `perms`, so no
call hands ``eta_product``, ``eta_quotient`` or ``theta_quotient`` an
orbit type written as a dict or a string.
No module defines or names ``codewords``: the census counts popcount
keys on bit planes of the fixed subcode, and only the test oracles list
words.
Only `qseries` calls the ``QSeries(...)`` constructor on a coefficient
dict: every other series is built from `eta_power`, the thetas and
arithmetic.  Importing `cli`, which every process does, parses no
permutation and builds no series: the generators of the recorded
figures stay cycle strings until a figure runs.  Every def and class of
the package is reached from `cli.main`, so the package holds only what
a verb runs: code that only tests call lives in `tests/oracles.py`.
No module imports a name it never reads (a name in ``__all__`` is
read): the reachability walk follows definitions, not imports, so it
cannot see a stale import line.  No module imports another module's
private name or reads one off a module: what two modules share is
public, so a private name can change with its own module alone.
Only three functions catch a package error: `cli.main`, which maps it
to an exit status, `cli._run_scan`, where a failed line is a result,
and `modfunc.is_replicable`, where a short window is the
insufficient-precision verdict; every other refusal reaches `main` as
it was raised.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import thetaforge

SRC = Path(thetaforge.__file__).parent


def _offending_nodes(is_bad, skip=(), walk=ast.walk):
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name in skip:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in walk(tree) if is_bad(node)]
    return found


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(node, prefix=""):
    """(qualified name, node) for every def and class under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFS):
            yield prefix + child.name, child
            yield from _definitions(child, prefix + child.name + ".")
        else:
            yield from _definitions(child, prefix)


def _own_nodes(node):
    """node and what it holds, outside any def or class nested in it."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node)
                     if not isinstance(child, _DEFS))


def _used_names(node):
    """The names and attribute names that node reads, outside any def or
    class nested in it, which is reached on its own."""
    for node in _own_nodes(node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def _unreached(trees, root="cli.main"):
    """The defs and classes of the modules in `trees` (name -> parsed
    module) that nothing reaches, as "module.qualified.name".

    The roots are `root`, every module-level statement but imports and
    defs, and the dunder methods of each class reached.  A reached def
    reads names; each name reaches every def or class of that name in
    any module, so the walk follows names, not scopes, and never misses
    a call.  An import line reaches nothing.
    """
    labels, by_name, todo, reached = {}, {}, [], set()
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            label = "%s.%s" % (module, qualname)
            labels[label] = node
            by_name.setdefault(node.name, []).append((label, node))
        todo += [s for s in tree.body
                 if not isinstance(s, _DEFS + (ast.Import, ast.ImportFrom))]

    def reach(label, node):
        if label in reached:
            return
        reached.add(label)
        todo.append(node)
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if (isinstance(method, _DEFS) and method.name[:2] == "__"
                        and method.name[-2:] == "__"):
                    reach(label + "." + method.name, method)

    reach(root, labels[root])
    followed = set()
    while todo:
        for name in set(_used_names(todo.pop())) - followed:
            followed.add(name)
            for label, node in by_name.get(name, ()):
                reach(label, node)
    return sorted(set(labels) - reached)


def test_every_definition_is_reached_from_a_verb():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.rglob("*.py"))}
    assert _unreached(trees) == []


def test_reachability_guard_sees_every_form():
    trees = {name: ast.parse(text) for name, text in {
        "cli": (
            "from .util import Box, helper, only_imported\n"
            "TABLE = {'a': lambda: helper()}\n"
            "def main(argv=None):\n"
            "    return Box(TABLE['a']()).used()\n"
            "def unreached_function():\n"
            "    return main()\n"),
        "util": (
            "def helper():\n"
            "    return 1\n"
            "def only_imported():\n"
            "    return 2\n"
            "class Box:\n"
            "    def __init__(self, x):\n"
            "        self.x = x\n"
            "    def __eq__(self, other):\n"
            "        return self.x == other.x\n"
            "    def used(self):\n"
            "        return self.x\n"
            "    def unreached_method(self):\n"
            "        return self.used()\n"
            "class Unused:\n"
            "    def __repr__(self):\n"
            "        return 'Unused'\n"),
    }.items()}
    assert _unreached(trees) == [
        "cli.unreached_function", "util.Box.unreached_method",
        "util.Unused", "util.Unused.__repr__", "util.only_imported"]


def _unread_imports(tree):
    """(line, name) for each name an import in tree binds and no code in
    tree reads; the names listed in ``__all__`` count as read."""
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    assert ["%s:%d %s" % (path.name, line, name)
            for path in sorted(SRC.rglob("*.py"))
            for line, name in _unread_imports(ast.parse(path.read_text()))
            ] == []


def test_unread_import_guard_sees_every_form():
    tree = ast.parse(
        "import os, sys\n"
        "import z\n"
        "import a.b as c\n"
        "import p.q\n"
        "from x import y, w as v\n"
        "from . import m\n"
        "from typing import *\n"
        "__all__ = ['m']\n"
        "def f():\n"
        "    import inner\n"
        "    return os.sep, p.q.r, v\n"
        "t = c_name, z_attr.z, x.y\n")
    assert _unread_imports(tree) == [
        (1, "sys"), (2, "z"), (3, "c"), (5, "y"), (10, "inner")]


def _is_private(name):
    """One leading underscore; a dunder such as ``__version__`` is not
    private."""
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__"))


def _private_reads(tree):
    """Line of each private name that tree imports from the package, and
    of each private attribute it reads off a name such an import binds."""
    bound, lines = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "thetaforge"):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if _is_private(alias.name):
                    lines.append(alias.lineno)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or "thetaforge" for alias in node.names
                         if alias.name.split(".")[0] == "thetaforge")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                lines.append(node.lineno)
    return sorted(lines)


def test_no_module_imports_another_modules_private_name():
    assert ["%s:%d" % (path.name, line)
            for path in sorted(SRC.rglob("*.py"))
            for line in _private_reads(ast.parse(path.read_text()))] == []


def test_private_name_guard_sees_every_form():
    tree = ast.parse(
        "from .characters import (\n"
        "    _doubling_element, character_group)\n"
        "from . import __version__, lattice\n"
        "from thetaforge.qseries import _fraction as frac\n"
        "from .perms import Perm\n"
        "import thetaforge.codes\n"
        "import os\n"
        "def f():\n"
        "    from .modfunc import _faber_rows\n"
        "    return lattice._census_keys(x)\n"
        "a = thetaforge.codes._reduce\n"
        "b = Perm._cycles, lattice.Perm.__hidden\n"
        "c = os._exit, self._x, lattice.__name__, lattice.FLAVORS\n"
        "from os import _exit\n")
    assert _private_reads(tree) == [2, 4, 9, 10, 11, 12, 12]


_PACKAGE_ERRORS = {"ThetaforgeError", "ParseError", "DomainError",
                   "PrecisionError"}
_CATCHERS = ["cli._run_scan", "cli.main", "modfunc.is_replicable"]


def _named(node):
    """Every name and attribute name in node."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for sub in ast.walk(node)
            if isinstance(sub, (ast.Name, ast.Attribute))}


def _error_catchers(module, tree):
    """The defs of tree, as "module.qualified.name", and "module" for its
    top level, with an except clause that names a package error, itself
    or through a module-level name whose value names one."""
    tables = {target.id for stmt in tree.body if isinstance(stmt, ast.Assign)
              and _named(stmt.value) & _PACKAGE_ERRORS
              for target in stmt.targets if isinstance(target, ast.Name)}
    scopes = [(module, tree)] + [("%s.%s" % (module, qualname), node)
                                 for qualname, node in _definitions(tree)]
    return [label for label, scope in scopes
            if any(isinstance(node, ast.ExceptHandler) and node.type
                   and _named(node.type) & (_PACKAGE_ERRORS | tables)
                   for node in _own_nodes(scope))]


def test_only_three_functions_catch_a_package_error():
    # a refusal travels to `cli.main` as the error that names it, so no
    # other function turns one into a value or into another refusal
    assert sorted(label for path in sorted(SRC.rglob("*.py"))
                  for label in _error_catchers(
                      path.stem, ast.parse(path.read_text()))) == _CATCHERS


def test_error_catcher_guard_sees_every_form():
    tree = ast.parse(
        "CODES = ((ParseError, 2), (OSError, 3))\n"
        "OTHER = (OSError, ValueError)\n"
        "def direct():\n"
        "    try: f()\n"
        "    except DomainError: pass\n"
        "def in_a_tuple():\n"
        "    try: f()\n"
        "    except (OSError, errors.PrecisionError) as exc: pass\n"
        "def through_a_table():\n"
        "    try: f()\n"
        "    except tuple(cls for cls, _ in CODES): pass\n"
        "class Box:\n"
        "    def method(self):\n"
        "        def inner():\n"
        "            try: f()\n"
        "            except ThetaforgeError: pass\n"
        "        return inner\n"
        "def others():\n"
        "    try: f()\n"
        "    except (OSError, ValueError): pass\n"
        "    except OTHER: pass\n"
        "    except: pass\n"
        "    raise ParseError('not caught')\n"
        "try: f()\n"
        "except ParseError: pass\n")
    assert _error_catchers("m", tree) == [
        "m", "m.direct", "m.in_a_tuple", "m.through_a_table",
        "m.Box.method.inner"]


def test_no_assert_statements_in_the_package():
    assert _offending_nodes(lambda node: isinstance(node, ast.Assert)) == []


def _is_float(node):
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "float")


def test_no_floats_in_the_package():
    assert _offending_nodes(_is_float) == []


def test_float_guard_sees_literals_and_calls():
    tree = ast.parse("x = 0.5\ny = float(x)\nz = 2\n")
    assert [node.lineno for node in ast.walk(tree) if _is_float(node)] == [1, 2]


_CONCURRENCY = ("concurrent", "threading", "multiprocessing", "fcntl")


def _is_ambient(node):
    """An environment read, or an import of a concurrency or lock module."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] in _CONCURRENCY for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.level == 0
                and node.module.split(".")[0] in _CONCURRENCY)
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "os"
            and node.attr in ("environ", "getenv"))


def test_no_environment_or_concurrency_in_the_package():
    assert _offending_nodes(_is_ambient) == []


def test_ambient_guard_sees_every_form():
    tree = ast.parse(
        "import os\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('X')\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import concurrent.futures\n"
        "import threading\n"
        "from multiprocessing import Pool\n"
        "import fcntl\n"
        "from . import threading_helpers\n"
        "c = os.path.join('a', 'b')\n")
    assert sorted(node.lineno for node in ast.walk(tree)
                  if _is_ambient(node)) == [2, 3, 4, 5, 6, 7, 8]


def _divides_by_eta(node):
    """A division whose right operand calls eta or eta_product."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and any(isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id in ("eta", "eta_product")
                    for sub in ast.walk(node.right)))


def _outside_eta_quotient(tree):
    """Every node but those in the body of `eta_quotient`."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not (isinstance(node, ast.FunctionDef)
                and node.name == "eta_quotient"):
            stack.extend(ast.iter_child_nodes(node))


def test_eta_divisions_go_through_eta_quotient():
    assert _offending_nodes(_divides_by_eta, walk=_outside_eta_quotient) == []


def test_eta_division_guard_sees_every_form():
    tree = ast.parse(
        "a / eta(1, t)\n"
        "a / eta(2, t) ** 4\n"
        "a / eta_product(ot, t)\n"
        "a * eta(1, t)\n"
        "eta(1, t) / a\n"
        "a / den\n")
    assert [node.lineno for node in ast.walk(tree)
            if _divides_by_eta(node)] == [1, 2, 3]


def test_eta_division_walk_skips_only_the_eta_quotient_body():
    tree = ast.parse(
        "def eta_quotient(num, ot, t):\n"
        "    return num(t) / eta_product(ot, t)\n"
        "def other(num, ot, t):\n"
        "    return num(t) / eta_product(ot, t)\n"
        "x = a / eta(1, t)\n")
    assert sorted(node.lineno for node in _outside_eta_quotient(tree)
                  if _divides_by_eta(node)) == [4, 5]


def _is_negative(node):
    """A literal negative number: -x, or a Fraction with a negative
    numerator."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Fraction" and bool(node.args)
            and _is_negative(node.args[0]))


def _inverts(node):
    """A negative power: ``x ** -n``, ``x ** Fraction(-p, q)`` or
    ``pow(x, -n)``."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _is_negative(node.right)
    if not isinstance(node, ast.Call):
        return False
    func, args = node.func, node.args
    return (isinstance(func, ast.Name) and func.id == "pow"
            and len(args) >= 2 and _is_negative(args[1]))


def test_no_series_is_inverted_in_the_package():
    # an eta quotient is one recurrence (qseries.eta_power), and no
    # inverse series is built on the way
    assert _offending_nodes(_inverts) == []


def test_inversion_guard_sees_every_form():
    tree = ast.parse(
        "a = f ** Fraction(-1, 2)\n"
        "b = f ** Fraction(-24, n)\n"
        "c = f ** -1\n"
        "d = f ** -n\n"
        "e = pow(f, -2)\n"
        "g = f ** Fraction(24, n)\n"
        "h = f ** 2\n"
        "i = f - 1\n"
        "j = pow(f, r)\n")
    assert sorted(node.lineno for node in ast.walk(tree)
                  if _inverts(node)) == [1, 2, 3, 4, 5]


def _names_codewords(node):
    """``x.codewords``, called or not, a bare name ``codewords`` or a
    ``def codewords``."""
    return (isinstance(node, ast.Attribute) and node.attr == "codewords"
            or isinstance(node, ast.Name) and node.id == "codewords"
            or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "codewords")


def test_no_module_lists_codewords():
    # the census counts its keys on bit planes of the fixed subcode, and
    # only the test oracles list words
    assert _offending_nodes(_names_codewords) == []


def test_codeword_guard_sees_every_form():
    tree = ast.parse(
        "a = sub.codewords()\n"
        "b = map(f, code.codewords())\n"
        "c = BinaryCode.codewords\n"
        "d = codewords(sub)\n"
        "e = sub.require_listable()\n"
        "f = 'codewords() order'\n"
        "class C:\n"
        "    def codewords(self):\n"
        "        return []\n"
        "def codewords(code):\n"
        "    return []\n"
        "def listed_codewords(code):\n"
        "    return []\n")
    assert sorted(node.lineno for node in ast.walk(tree)
                  if _names_codewords(node)) == [1, 2, 3, 4, 8, 10]


def _import_time_nodes(tree):
    """Nodes that run when the module is imported: all but function bodies."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _importer(*modules):
    """A predicate: the node imports one of `modules`, or a submodule."""
    def imports(node):
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] in modules for a in node.names)
        return (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] in modules)
    return imports


_imports_hashlib = _importer("hashlib")


def test_no_module_imports_hashlib_at_import_time():
    assert _offending_nodes(_imports_hashlib, walk=_import_time_nodes) == []


def test_hashlib_guard_sees_every_module_level_form():
    tree = ast.parse(
        "import hashlib\n"
        "from hashlib import sha256\n"
        "import json, hashlib as h\n"
        "if True:\n"
        "    import hashlib\n"
        "class A:\n"
        "    import hashlib\n"
        "def f():\n"
        "    import hashlib\n"
        "g = lambda: __import__('hashlib')\n"
        "from .hashlib import x\n")
    assert sorted(node.lineno for node in _import_time_nodes(tree)
                  if _imports_hashlib(node)) == [1, 2, 3, 5, 7]


_imports_exact_numbers = _importer("fractions", "decimal")


def test_no_module_imports_fractions_or_decimal_at_import_time():
    # only `qseries._fraction` loads fractions, for a value not whole
    assert _offending_nodes(_imports_exact_numbers,
                            walk=_import_time_nodes) == []


def test_fractions_guard_sees_every_module_level_form():
    tree = ast.parse(
        "from fractions import Fraction\n"
        "import fractions\n"
        "import os, decimal as d\n"
        "from decimal import Decimal\n"
        "if True:\n"
        "    from fractions import Fraction\n"
        "class A:\n"
        "    import fractions\n"
        "def f():\n"
        "    from fractions import Fraction\n"
        "g = lambda: __import__('fractions')\n"
        "from .fractions import x\n"
        "import fractions_helpers\n")
    assert sorted(node.lineno for node in _import_time_nodes(tree)
                  if _imports_exact_numbers(node)) == [1, 2, 3, 4, 6, 8]


_imports_a_parser = _importer("argparse", "optparse", "gettext")


def test_no_module_imports_an_argument_parser():
    assert _offending_nodes(_imports_a_parser) == []


def test_parser_guard_sees_every_form():
    tree = ast.parse(
        "import argparse\n"
        "from optparse import OptionParser\n"
        "import json, gettext as g\n"
        "def f():\n"
        "    import argparse\n"
        "from .argparse import x\n"
        "import argparse_helpers\n")
    assert sorted(node.lineno for node in ast.walk(tree)
                  if _imports_a_parser(node)) == [1, 2, 3, 5]


def _names_a_flavor(node):
    """A string constant spelling a flavor of the a_Omega/4 glueing."""
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in ("super0", "super1"))


def test_flavor_names_are_spelled_only_in_lattice():
    assert _offending_nodes(_names_a_flavor, skip=("lattice.py",)) == []


def test_flavor_guard_sees_every_form():
    tree = ast.parse(
        "a = 'super0'\n"
        "b = ('plain', 'super0', 'super1')\n"
        "f(flavor='super1')\n"
        "c = {'super1': 1}\n"
        "d = 'super2'\n"
        "e = 'the super1 lattice'\n"
        "g = b'super0'\n"
        "h = 'super%d' % j\n")
    assert sorted(node.lineno for node in ast.walk(tree)
                  if _names_a_flavor(node)) == [1, 2, 2, 3, 4]


_imports_json_or_future = _importer("json", "__future__")


def test_no_module_imports_json_or_future():
    assert _offending_nodes(_imports_json_or_future) == []


def test_json_and_future_guard_sees_every_form():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import json\n"
        "import os, json.decoder as d\n"
        "from json import dumps\n"
        "def f():\n"
        "    import json\n"
        "from .json import x\n"
        "import jsonschema\n")
    assert sorted(node.lineno for node in ast.walk(tree)
                  if _imports_json_or_future(node)) == [1, 2, 3, 4, 6]


def _names_theta_quotient(node):
    """An import, a call or any other use of `theta_quotient`."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return any(a.name.split(".")[-1] == "theta_quotient"
                   for a in node.names)
    return (isinstance(node, ast.Name) and node.id == "theta_quotient"
            or isinstance(node, ast.Attribute)
            and node.attr == "theta_quotient")


def test_only_modfunc_names_theta_quotient():
    assert _offending_nodes(_names_theta_quotient, skip=("modfunc.py",)) == []


def test_theta_quotient_guard_sees_imports_and_calls():
    tree = ast.parse(
        "from .modfunc import theta_quotient\n"
        "from .modfunc import eta_quotient, theta_quotient as tq\n"
        "q = theta_quotient(theta, orbit_type)\n"
        "r = modfunc.theta_quotient(theta, orbit_type)\n"
        "s = fixed_quotient(code, gens, t)\n"
        "u = 'theta_quotient'\n"
        "from .modfunc import eta_quotient\n")
    assert sorted(node.lineno for node in ast.walk(tree)
                  if _names_theta_quotient(node)) == [1, 2, 3, 4]



def _census_key_callers(module, tree):
    """The defs of tree, as "module.qualified.name", and "module" for its
    top level, that read `_census_keys`: by name, as an attribute, or
    under a name that an import binds it to."""
    names = {"_census_keys"} | {
        alias.asname or alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) for alias in node.names
        if alias.name == "_census_keys"}
    scopes = [(module, tree)] + [("%s.%s" % (module, qualname), node)
                                 for qualname, node in _definitions(tree)]
    return [label for label, scope in scopes
            if any(isinstance(node, ast.Name) and node.id in names
                   or isinstance(node, ast.Attribute)
                   and node.attr == "_census_keys"
                   for node in _own_nodes(scope))]


def test_only_census_theta_calls_census_keys():
    # one census engine: a new side of the census passes its columns
    # through `_census_theta`, not through a second caller
    assert [label for path in sorted(SRC.rglob("*.py"))
            for label in _census_key_callers(
                path.stem, ast.parse(path.read_text()))] == [
        "lattice._census_theta"]


def test_census_key_caller_guard_sees_every_form():
    tree = ast.parse(
        "from .lattice import _census_keys as count\n"
        "keys = _census_keys(sub, columns)\n"
        "def bare(sub):\n"
        "    return _census_keys(sub, [])\n"
        "def dotted(sub):\n"
        "    return lattice._census_keys(sub, [])\n"
        "def outer(sub):\n"
        "    def inner():\n"
        "        return _census_keys(sub, [])\n"
        "    return inner\n"
        "def aliased(sub):\n"
        "    return count(sub, [])\n"
        "class C:\n"
        "    def m(self):\n"
        "        return thetaforge.lattice._census_keys(self.sub, [])\n"
        "def clean(sub):\n"
        "    t = _census_theta(sub, [], 1)\n"
        "    return census_keys(sub), keys, t, '_census_keys'\n")
    assert _census_key_callers("m", tree) == [
        "m", "m.bare", "m.dotted", "m.outer.inner", "m.aliased", "m.C.m"]

# the position of the orbit type among each eta function's arguments
_ORBIT_TYPE_ARG = {"eta_product": 0, "eta_quotient": 1, "theta_quotient": 1}


def _writes_an_orbit_type(node):
    """A call that hands an eta function its orbit type as a dict
    display, a dict comprehension or a string."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name not in _ORBIT_TYPE_ARG:
        return False
    i = _ORBIT_TYPE_ARG[name]
    args = node.args[i:i + 1] + [k.value for k in node.keywords
                                 if k.arg == "orbit_type"]
    return any(isinstance(a, (ast.Dict, ast.DictComp))
               or isinstance(a, ast.Constant) and isinstance(a.value, str)
               for a in args)


def test_orbit_types_reach_the_eta_functions_as_pairs():
    assert _offending_nodes(_writes_an_orbit_type) == []


def test_orbit_type_guard_sees_every_form():
    tree = ast.parse(
        "a = eta_product({1: 8}, t)\n"
        "b = eta_quotient(num, {2: n}, t)\n"
        "c = theta_quotient(theta, '2^12')\n"
        "d = modfunc.eta_product({t: 1 for t in ts}, w)\n"
        "e = eta_quotient(num, orbit_type={2: 4}, trunc48=t)\n"
        "f = eta_product(((1, 8),), t)\n"
        "g = eta_quotient(num, orbit_type(gens, 8), t)\n"
        "h = eta_quotient({1: 8}, ot, t)\n"
        "i = type_str({2: 4})\n"
        "j = theta_quotient(theta, g.cycle_type())\n")
    assert sorted(node.lineno for node in ast.walk(tree)
                  if _writes_an_orbit_type(node)) == [1, 2, 3, 4, 5]


# re functions that compile their pattern argument
_COMPILERS = ("compile", "match", "fullmatch", "search", "sub", "subn",
              "split", "findall", "finditer")


def _import_time_compiles(tree):
    """Calls that compile a regular expression when the module is imported,
    through `re` under any name or a function imported from it."""
    modules, functions = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "re"}
        elif isinstance(node, ast.ImportFrom) and node.module == "re":
            functions |= {a.asname or a.name for a in node.names
                          if a.name in _COMPILERS}
    for node in _import_time_nodes(tree):
        func = getattr(node, "func", None)
        if (isinstance(func, ast.Attribute) and func.attr in _COMPILERS
                and isinstance(func.value, ast.Name)
                and func.value.id in modules
                or isinstance(func, ast.Name) and func.id in functions):
            yield node


def test_no_module_compiles_a_pattern_when_imported():
    assert _offending_nodes(lambda node: True,
                            walk=_import_time_compiles) == []


def test_pattern_guard_sees_every_module_level_form():
    tree = ast.parse(
        "import re\n"
        "A = re.compile('a')\n"
        "B = [re.match('b', s)]\n"
        "class C:\n"
        "    D = re.compile('d')\n"
        "if True:\n"
        "    E = re.sub('e', '', s)\n"
        "from re import compile as rc, escape\n"
        "F = rc('f')\n"
        "import re as regex\n"
        "G = regex.findall('g', s)\n"
        "def f():\n"
        "    return re.compile('h')\n"
        "H = lambda: re.match('i', s)\n"
        "I = re.escape('j')\n"
        "J = escape('k')\n"
        "K = other.compile('l')\n")
    assert sorted(node.lineno for node in _import_time_compiles(tree)) == [
        2, 3, 5, 7, 9, 11]


_imports_re = _importer("re")


def test_only_perms_imports_re():
    assert _offending_nodes(_imports_re, skip=("perms.py",)) == []


def test_re_guard_sees_every_form():
    tree = ast.parse(
        "import re\n"
        "from re import match\n"
        "import os, re as regex\n"
        "if True:\n"
        "    from re import compile as rc\n"
        "def f():\n"
        "    import re\n"
        "class A:\n"
        "    import re\n"
        "from .re import x\n"
        "import regex\n"
        "import requests\n"
        "from reprlib import repr\n")
    assert sorted(node.lineno for node in ast.walk(tree)
                  if _imports_re(node)) == [1, 2, 3, 5, 7, 9]


def _constructs_a_series(node):
    """A call of the QSeries constructor, by name or as an attribute."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "QSeries"
            or isinstance(func, ast.Attribute) and func.attr == "QSeries")


def test_only_qseries_constructs_a_series():
    assert _offending_nodes(_constructs_a_series, skip=("qseries.py",)) == []


def test_series_constructor_guard_sees_every_form():
    tree = ast.parse(
        "a = QSeries(dict(coeffs), t)\n"
        "b = qseries.QSeries({0: 1}, t)\n"
        "c = [QSeries(d, t) for d in ds]\n"
        "d = QSeries.zero(t)\n"
        "e = QSeries.monomial(1, 0, t) * QSeries.monomial(1, 0, t)\n"
        "f = QSeries\n"
        "g = isinstance(x, QSeries)\n")
    assert sorted(node.lineno for node in ast.walk(tree)
                  if _constructs_a_series(node)) == [1, 2, 3]


# counts, in a fresh process, the permutations parsed and the series
# built while `thetaforge.cli` is imported
_IMPORT_WORK = """
from thetaforge import perms, qseries
calls = []
parse_perm, init = perms.parse_perm, qseries.QSeries.__init__

def counted_parse(*args):
    calls.append("parse_perm")
    return parse_perm(*args)

def counted_init(self, *args):
    calls.append("QSeries")
    init(self, *args)

perms.parse_perm = counted_parse
qseries.QSeries.__init__ = counted_init
import thetaforge.cli
print(calls)
"""


def test_importing_the_cli_parses_no_permutation_and_builds_no_series():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_WORK], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


# runs CLI jobs in one fresh interpreter and prints their exit statuses
# and which of fractions and decimal it has loaded
_LOADED_AFTER_JOBS = """
import contextlib, io, sys
from thetaforge.cli import main
statuses = []
for argv in %r:
    with contextlib.redirect_stdout(io.StringIO()):
        statuses.append(main(argv))
print(statuses, [m for m in ("fractions", "decimal") if m in sys.modules])
"""

_SWAP = "".join("(%d,%d)" % (i, i + 12) for i in range(1, 13))
_LEECH = ["--code", "golay24", "--flavor", "super1"]

_CLASSES = str(Path(__file__).parent / "data" / "hamming8_classes.txt")
# golay24 in the labelling of golay24_fig8.txt, and the first generator
# there, a fixed-point-free involution: its rank-24 quotient has power 1
_GOLAY_ROWS = str(Path(__file__).parent / "data" / "golay24_rows.txt")
_FIG8_INVOLUTION = ("(1,16)(2,20)(3,22)(4,21)(5,10)(6,17)(7,13)(8,11)(9,15)"
                    "(12,23)(14,18)(19,24)")

# every value these jobs hold is whole; replicability compares the
# Faber entries G/k by cross-multiplying, so it makes no Fraction
_INTEGRAL_JOBS = [
    ["theta", "--trunc", "1"],
    ["theta", *_LEECH, "--trunc", "4"],
    ["doubling", *_LEECH, "--group", _SWAP, "--trunc", "4"],
    ["quotient", "--group", "(2,8,4,6)(3,5)", "--trunc", "200"],
    ["quotient", "--code", _GOLAY_ROWS, "--group", _FIG8_INVOLUTION,
     "--trunc", "40"],
    ["replicable", "--group", "(1,5,2)(3,7,8)", "--krep", "48",
     "--trunc", "100"],
    ["scan", _CLASSES],
    ["character", "--group", "(1,2)(3,8)(4,7)(5,6), (1,3)(2,8)(4,6)(5,7)"],
    ["doubling", "--group", "(1,7)(2,4)(3,8)(5,6)"],
] + [["verify", f] for f in ("fig1", "fig2", "fig5", "fig7", "ex33", "ex34",
                             "ex53", "ex81", "thmC", "thmD")]


def _loaded_after(jobs):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _LOADED_AFTER_JOBS % (jobs,)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_integral_jobs_load_neither_fractions_nor_decimal():
    assert _loaded_after(_INTEGRAL_JOBS) == "%s []\n" % ([0] * 19)


def test_a_rank_16_quotient_loads_fractions():
    # the power 24/16 = 3/2 of a rank-16 quotient is not whole, so the
    # check above would see the import if an integral job made one
    assert _loaded_after([["quotient", "--code", "hamming8+hamming8"]]) == (
        "[0] ['fractions', 'decimal']\n")
