"""Command-line driver: record shapes, determinism, flags, and scan.

Every compute record carries a fingerprint of its canonical job
description, so identical invocations must be byte-identical; a file
input counts by its contents, a catalog name by its name.  Each
verb accepts only the flags it reads.  Scan keeps input order, its
output does not depend on the environment, and per-line failures must
not take down the whole run.  A process started for one job prints
exactly what an in-process `main` call prints, flushes its own output
and exits without the interpreter's teardown; a failed write exits 3.
No job loads OpenSSL or json: fingerprints come from the interpreter's
own SHA-256, and records from a writer that matches json.dumps.
"""

import hashlib
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from thetaforge import __version__, characters, cli, verify
from thetaforge.cli import main
from thetaforge.codes import catalog_code
from thetaforge.errors import ParseError, read_lines
from thetaforge.lattice import theta_fixed
from thetaforge.perms import parse_generators

from oracles import build_parser

DATA = Path(__file__).parent / "data"

HAM = catalog_code("hamming8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------- compute records ----------

def test_theta_record_matches_the_library(capsys):
    rec = run_json(capsys, "theta", "--code", "hamming8",
                   "--group", "(2,8,4,6)(3,5)", "--trunc", "10")
    gens = parse_generators("(2,8,4,6)(3,5)", 8)
    want = theta_fixed(HAM, gens, 10 * 48).to_json_obj()
    assert rec["outputs"]["series"] == want
    assert rec["job"]["command"] == "theta"
    assert rec["job"]["trunc"] == 10
    assert rec["version"]


def test_default_truncations_are_recorded(capsys):
    rec = run_json(capsys, "theta")
    assert rec["job"]["trunc"] == 16
    rec = run_json(capsys, "replicable", "--group", "(1,2)(3,4)(5,6)(7,8)")
    assert rec["job"]["trunc"] == 26


def test_identical_runs_are_byte_identical(capsys, tmp_path):
    argv = ["theta", "--group", "(1,2)(3,4)(5,6)(7,8)", "--trunc", "6"]
    assert main(argv + ["--out", str(tmp_path / "a.json")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b.json")]) == 0
    a = (tmp_path / "a.json").read_bytes()
    assert a == (tmp_path / "b.json").read_bytes()
    assert json.loads(a)["fingerprint"]
    capsys.readouterr()


def test_fingerprint_tracks_the_job_not_the_run(capsys):
    one = run_json(capsys, "theta", "--trunc", "6")
    two = run_json(capsys, "theta", "--trunc", "6")
    other = run_json(capsys, "theta", "--trunc", "7")
    assert one["fingerprint"] == two["fingerprint"]
    assert one["fingerprint"] != other["fingerprint"]


def test_catalog_name_fingerprints_are_pinned(capsys):
    rec = run_json(capsys, "theta", "--trunc", "6")
    assert rec["fingerprint"] == (
        "27b739974c534b709ff2770b3370716e2d5bb014d7035a9a6016f43136b7c5a5")
    code, out, err = run(capsys, "scan", str(DATA / "hamming8_classes.txt"))
    assert json.loads(out)[0]["fingerprint"] == (
        "6f0bb3819ddd1c2b2d27555ecd4e99ac70282b5a48e687e8aeb3416b43942ad6")


H8_ROWS = "10000111\n01001011\n00101101\n00011110\n"
SWAPPED_ROWS = "01001011\n10000111\n00101101\n00011110\n"  # the same code


def test_path_inputs_are_fingerprinted_by_their_contents(capsys, tmp_path):
    group_file = tmp_path / "gens.txt"

    def fingerprint(code_file, rows, gens):
        code_file.write_text(rows)
        group_file.write_text(gens)
        rec = run_json(capsys, "replicable", "--code", str(code_file),
                       "--group-file", str(group_file), "--trunc", "10")
        assert rec["job"]["code"] == str(code_file)
        return rec["fingerprint"]

    here, there = tmp_path / "code.txt", tmp_path / "elsewhere.txt"
    first = fingerprint(here, H8_ROWS, "(1,5,2)(3,7,8)\n")
    # different files written in turn to the same paths
    assert fingerprint(here, SWAPPED_ROWS, "(1,5,2)(3,7,8)\n") != first
    assert fingerprint(here, H8_ROWS, "(5,2,1)(8,3,7)\n") != first
    # the same contents at another path keep the fingerprint
    assert fingerprint(there, H8_ROWS, "(1,5,2)(3,7,8)\n") == first


def test_scan_fingerprints_follow_the_code_file(capsys, tmp_path):
    code_file = tmp_path / "code.txt"
    scan_file = tmp_path / "lines.txt"
    scan_file.write_text("(1,5,2)(3,7,8)\n")
    prints = []
    for rows in (H8_ROWS, SWAPPED_ROWS):
        code_file.write_text(rows)
        code, out, err = run(capsys, "scan", str(scan_file),
                             "--code", str(code_file))
        assert code == 0
        prints.append(json.loads(out)[0]["fingerprint"])
    assert prints[0] != prints[1]


def test_out_file_leaves_stdout_empty(capsys, tmp_path):
    target = tmp_path / "rec.json"
    code, out, err = run(capsys, "theta", "--trunc", "6",
                         "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["job"]["command"] == "theta"


def test_table_mode_renders_series_terms(capsys):
    code, out, err = run(capsys, "theta", "--trunc", "4", "--table")
    assert code == 0
    assert "1 q^0" in out
    assert "fingerprint" in out


def test_table_mode_keeps_every_field_of_a_character(capsys):
    argv = ["character", "--group", "(1,7)(2,4)(3,8)(5,6)", "--trunc", "2"]
    code, out, err = run(capsys, *argv, "--table")
    assert code == 0
    # the series row, then one row for each other key of the record
    assert out.splitlines()[-7:] == [
        "character    1 q^(-16/48) + 64 q^(32/48) + 1052 q^(80/48)",
        "character.doubling true",
        "character.lift_order 4",
        "character.per_j.0 1 q^(-16/48) + 248 q^(32/48) + 4124 q^(80/48)",
        "character.per_j.1 1 q^(-16/48) + 8 q^(32/48) + 28 q^(80/48)",
        "character.per_j.2 1 q^(-16/48) + -8 q^(32/48) + 28 q^(80/48)",
        "character.per_j.3 1 q^(-16/48) + 8 q^(32/48) + 28 q^(80/48)",
    ]
    ch = run_json(capsys, *argv)["outputs"]["character"]
    assert sorted(ch) == ["coeffs", "doubling", "lead_num48", "lift_order",
                          "per_j", "trunc_num48"]


# ---------- the individual commands ----------

def test_quotient_reports_orbit_type_and_pole(capsys):
    rec = run_json(capsys, "quotient",
                   "--group", "(1,2)(3,4)(5,6)(7,8)", "--trunc", "8")
    assert rec["outputs"]["orbit_type"] == "2^4"
    series = rec["outputs"]["series"]
    assert series["lead_num48"] == -48
    assert series["coeffs"][0] == [-48, 1]
    assert series["coeffs"][1] == [0, 24]


def test_replicable_identifies_the_mckay_thompson_series(capsys):
    rec = run_json(capsys, "replicable",
                   "--group", "(1,2)(3,4)(5,6)(7,8)")
    rep = rec["outputs"]["replicability"]
    assert rep["verdict"] == "replicable-up-to-K_rep"
    assert rep["identified_as"] == "T_4A"
    assert rep["constant_delta"] == "0/1"
    assert rep["violations"] == []
    assert rec["job"]["krep"] == 12


def test_replicable_lists_violations(capsys):
    rec = run_json(capsys, "replicable", "--group", "(1,6)(7,8)")
    rep = rec["outputs"]["replicability"]
    assert rep["verdict"] == "not-replicable"
    assert rep["violations"][0] == [2, 3, 1, 6]
    assert rep["identified_as"] is None


def test_replicable_degrades_to_insufficient_precision(capsys):
    rec = run_json(capsys, "replicable",
                   "--group", "(1,2)(3,4)(5,6)(7,8)", "--krep", "20")
    assert (rec["outputs"]["replicability"]["verdict"]
            == "insufficient-precision")


def test_identify_names_series_or_stays_silent(capsys):
    rec = run_json(capsys, "identify", "--group", "(3,4,5)(6,8,7)")
    assert rec["outputs"]["identified_as"] == "T_3A"
    rec = run_json(capsys, "identify", "--group", "(4,5)(6,7)")
    assert rec["outputs"]["identified_as"] is None
    assert rec["outputs"]["constant_delta"] is None


def test_doubling_reports_both_criteria_and_the_witness(capsys):
    rec = run_json(capsys, "doubling", "--group", "(1,7)(2,4)(3,8)(5,6)")
    d = rec["outputs"]["doubling"]
    assert d == {"lattice_order": 2, "lift_order": 4, "doubling": True,
                 "code_criterion": True, "witness": [1, 6, 7, 8]}
    kt = rec["outputs"]["kernel_theta"]
    assert kt["coeffs"][:3] == [[0, 1], [48, 112], [96, 1136]]
    # a lift that keeps its order has no kernel sublattice to report
    rec = run_json(capsys, "doubling", "--group", "(1,2)(3,8)(4,7)(5,6)")
    assert rec["outputs"] == {"doubling": {
        "lattice_order": 2, "lift_order": 2, "doubling": False,
        "code_criterion": False, "witness": None}}


def test_doubling_refuses_a_code_that_is_not_doubly_even(capsys, tmp_path):
    # i2^4 has four disjoint words of weight 2
    path = tmp_path / "i2x4.txt"
    path.write_text("11000000\n00110000\n00001100\n00000011\n")
    code, out, err = run(capsys, "doubling", "--code", str(path),
                         "--group", "(1,2)")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "DomainError", "message": "doubling needs a doubly even code"}


def test_doubling_wants_exactly_one_permutation(capsys):
    code, out, err = run(capsys, "doubling")
    assert code == 3
    assert "single automorphism" in json.loads(err)["error"]["message"]


def test_character_accepts_single_elements_and_groups(capsys):
    rec = run_json(capsys, "character", "--group", "(1,2)(3,8)(4,7)(5,6)",
                   "--trunc", "8")
    ch = rec["outputs"]["character"]
    assert ch["lift_order"] == 2
    assert [c for _, c in ch["coeffs"][:3]] == [1, 136, 2076]
    rec = run_json(capsys, "character", "--trunc", "8", "--group",
                   "(1,2)(3,8)(4,7)(5,6), (1,3)(2,8)(4,6)(5,7)")
    ch = rec["outputs"]["character"]
    assert ch["lift_order"] == 4
    assert [c for _, c in ch["coeffs"][:3]] == [1, 80, 1052]


def test_super_flavor_reaches_the_doubled_unimodular_lattice(capsys):
    rec = run_json(capsys, "theta", "--flavor", "super1", "--trunc", "4")
    assert rec["outputs"]["series"]["coeffs"] == [
        [0, 1], [48, 240], [96, 2160], [144, 6720]]


def test_group_file_flag_reads_one_permutation_per_line(capsys, tmp_path):
    gf = tmp_path / "gens.txt"
    gf.write_text("# a Klein four group\n(4,6)(5,7)\n(4,7)(5,6)\n")
    rec = run_json(capsys, "theta", "--group-file", str(gf), "--trunc", "6")
    assert rec["job"]["group"] == "@" + str(gf)
    code, out, err = run(capsys, "theta", "--group", "()",
                         "--group-file", str(gf))
    assert code == 2


# ---------- error reporting ----------

@pytest.mark.parametrize("verb", ["theta", "doubling", "character"])
def test_a_non_automorphism_is_refused_with_one_message(capsys, verb):
    code, out, err = run(capsys, verb, "--group", "(1,2)")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"] == {
        "type": "DomainError",
        "message": "(1,2) is not an automorphism of the code"}


def test_parse_errors_exit_2_with_a_diagnostic(capsys):
    code, out, err = run(capsys, "theta", "--group", "(1,x)")
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "ParseError"
    assert "'x'" in payload["error"]["message"]


def test_unknown_code_exits_3(capsys):
    code, out, err = run(capsys, "theta", "--code", "nosuchcode")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "DomainError"


def test_oversized_code_file_exits_3(capsys, tmp_path):
    # 2^25 codewords are refused before any enumeration starts
    path = tmp_path / "dim25.txt"
    path.write_text("".join("0" * i + "1" + "0" * (25 - i) + "\n"
                            for i in range(25)))
    for group in ([], ["--group", "()"]):
        code, out, err = run(capsys, "theta", "--code", str(path), *group)
        assert code == 3
        assert out == ""
        payload = json.loads(err)["error"]
        assert payload["type"] == "DomainError"
        assert payload["message"] == "refusing to enumerate 2^25 codewords"


def test_broken_character_invariant_exits_3(capsys, monkeypatch):
    # the super0 flavor of hamming8 is the odd lattice Z^8, whose
    # averaged traces would leave the dimension grid: it is refused
    # before any trace is computed
    def no_theta(*args, **kwargs):
        raise AssertionError("computed a theta series for an odd lattice")

    # a memoized trace would not reach the patched theta
    characters._trace.cache_clear()
    monkeypatch.setattr(characters, "theta_twisted", no_theta)
    for group in ("(1,7)(2,4)(3,8)(5,6)",
                  "(1,2)(3,8)(4,7)(5,6), (1,3)(2,8)(4,6)(5,7)"):
        code, out, err = run(capsys, "character", "--flavor", "super0",
                             "--group", group)
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == {
            "type": "DomainError",
            "message": "the super0 lattice of the code is odd"}


ODD = ["--flavor", "super0", "--group", "(1,5,2)(3,7,8)"]


@pytest.mark.parametrize("argv", [
    ["quotient", "--trunc", "3"] + ODD,
    ["replicable"] + ODD,
    ["identify"] + ODD,
    ["scan", str(DATA / "hamming8_classes.txt"), "--flavor", "super0"],
], ids=["quotient", "replicable", "identify", "scan"])
def test_odd_lattices_are_refused_before_computing(capsys, monkeypatch, argv):
    # N/8 = 1 is odd, so the super0 glueing of hamming8 is odd
    def no_theta(*args, **kwargs):
        raise AssertionError("computed a theta series for an odd lattice")

    monkeypatch.setattr(cli, "theta_fixed", no_theta)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload == {"type": "DomainError",
                       "message": "the super0 lattice of the code is odd"}


@pytest.mark.parametrize("argv", [
    ["theta", "--trunc", "3"] + ODD,
    ["doubling", "--flavor", "super0", "--group", "(1,7)(2,4)(3,8)(5,6)"],
], ids=["theta", "doubling"])
def test_theta_and_doubling_accept_odd_flavors(capsys, argv):
    assert run_json(capsys, *argv)["job"]["flavor"] == "super0"


def test_shallow_replicability_is_refused(capsys):
    code, out, err = run(capsys, "replicable", "--trunc", "8")
    assert code == 3
    assert "at least 10" in json.loads(err)["error"]["message"]


def test_shallow_scan_is_refused_before_any_line(capsys):
    code, out, err = run(capsys, "scan", str(DATA / "hamming8_classes.txt"),
                         "--trunc", "3")
    assert code == 3
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "DomainError"
    assert "at least 10" in payload["message"]


@pytest.mark.parametrize("argv", [
    ["theta", "--trunc", "0"],
    ["theta", "--trunc", "-3"],
    ["replicable", "--trunc", "0"],
    ["scan", str(DATA / "hamming8_classes.txt"), "--trunc", "0"],
], ids=["theta-0", "theta-negative", "replicable-0", "scan-0"])
def test_trunc_below_one_is_refused(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "DomainError"
    assert "at least 1," in payload["message"]


@pytest.mark.parametrize("verb", ["theta", "quotient", "replicable",
                                  "identify", "doubling", "character",
                                  "scan"])
def test_trunc_above_the_cap_is_refused_before_any_work(
        capsys, tmp_path, verb):
    # an unbounded window once ran for minutes and grew past 5 GB listing
    # theta terms; past the cap nothing is computed, and were the cap
    # gone, one line of 1001 powers is all this would compute
    argv = [verb]
    if verb == "scan":
        argv.append(str(tmp_path / "one_line.txt"))
        Path(argv[-1]).write_text("(1,5,2)(3,7,8)\n")
    code, out, err = run(capsys, *argv, "--trunc", str(cli.MAX_TRUNC + 1))
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": {
        "type": "DomainError",
        "message": "--trunc must be at most 1000, got 1001"}}


def test_the_largest_window_is_computed(capsys):
    record = run_json(capsys, "theta", "--trunc", str(cli.MAX_TRUNC))
    assert record["outputs"]["series"]["trunc_num48"] == 1000 * 48


@pytest.mark.parametrize("trunc", ["1", "2"])
def test_a_quotient_with_no_window_exits_4(capsys, trunc):
    # golay24 divides by eta^24, which takes 2 powers of theta's window
    code, out, err = run(capsys, "quotient", "--code", "golay24",
                         "--trunc", trunc)
    assert (code, out) == (4, "")
    payload = json.loads(err)["error"]
    assert payload["type"] == "PrecisionError"
    assert "no window" in payload["message"]


@pytest.mark.parametrize("trunc,status,error", [
    ("1", 4, "PrecisionError"), ("2", 3, "DomainError")])
def test_a_quotient_with_no_window_is_refused_before_its_rank(
        capsys, tmp_path, trunc, status, error):
    # three disjoint tetrads: doubly even of length 12, so the rank 12 of
    # its lattice is no multiple of 8; eta^12 takes 1 power of the window
    path = tmp_path / "tetrads12.txt"
    path.write_text("111100000000\n000011110000\n000000001111\n")
    code, out, err = run(capsys, "quotient", "--code", str(path),
                         "--trunc", trunc)
    assert (code, out) == (status, "")
    payload = json.loads(err)["error"]
    assert payload["type"] == error
    assert ("no window" if status == 4 else "rank must be a positive"
            " multiple of 8, got 12") in payload["message"]


def test_the_shortest_golay24_quotient_with_a_window_is_exact(capsys):
    rec = run_json(capsys, "quotient", "--code", "golay24", "--trunc", "3")
    series = rec["outputs"]["series"]
    # q^-1 (1 + 48 q)(1 + 24 q) through q^0: 48 roots, and 24 from eta^-24
    assert (series["lead_num48"], series["trunc_num48"]) == (-48, 48)
    assert series["coeffs"] == [[-48, 1], [0, 72]]


@pytest.mark.parametrize("argv", [
    ["replicable", "--krep", "0"],
    ["replicable", "--krep", "-2"],
    ["scan", str(DATA / "hamming8_classes.txt"), "--krep", "0"],
    ["identify", "--krep", "0"],
], ids=["replicable-0", "replicable-negative", "scan-0", "identify-0"])
def test_krep_below_one_is_refused_before_computing(capsys, monkeypatch,
                                                    argv):
    def no_theta(*args, **kwargs):
        raise AssertionError("computed a theta series for a bad --krep")

    monkeypatch.setattr(cli, "theta_fixed", no_theta)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "DomainError",
        "message": "--krep must be at least 1, got %s" % argv[-1]}


@pytest.mark.parametrize("argv", [
    ["replicable", "--group", "(1,5,2)(3,7,8)", "--trunc", "1000",
     "--krep", "201"],
    ["scan", str(DATA / "hamming8_classes.txt"), "--krep", "499"],
    ["identify", "--krep", "1000"],
], ids=["replicable", "scan", "identify"])
def test_krep_above_the_cap_is_refused_before_computing(capsys, monkeypatch,
                                                        argv):
    # the Faber square costs about K^3, so a large K would run for minutes
    def no_quotient(*args, **kwargs):
        raise AssertionError("computed a quotient for a bad --krep")

    monkeypatch.setattr(cli, "fixed_quotient", no_quotient)
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == {
        "type": "DomainError",
        "message": "--krep must be at most %d, got %s"
                   % (cli.MAX_KREP, argv[-1])}


def test_krep_at_the_cap_is_accepted():
    args = cli.parse_args(["replicable", "--krep", str(cli.MAX_KREP)])
    assert (cli._bounded("--krep", args.krep, cli.MAX_KREP)
            == cli.MAX_KREP == 200)


@pytest.mark.parametrize("argv", [
    ["scan", "/nonexistent.txt"],
    ["theta", "--group-file", "/nonexistent.txt"],
    ["theta", "--out", "/nonexistent/dir/x.json"],
], ids=["scan-file", "group-file", "out-dir"])
def test_missing_paths_exit_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"


def test_an_empty_out_path_exits_3(capsys):
    for out_flag in (["--out="], ["--out", ""]):
        code, out, err = run(capsys, "theta", "--trunc", "1", *out_flag)
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"


# ---------- verify ----------

def test_verify_emits_a_passing_report(capsys):
    code, out, err = run(capsys, "verify", "ex33")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert all(r["ok"] in (True, None) for r in report["rows"])


@pytest.mark.parametrize("argv", [
    ["verify", "ex33", "--trunc", "5"],
    ["verify", "ex33", "--cache", "x"],
    ["theta", "--krep", "5"],
    ["scan", str(DATA / "hamming8_classes.txt"), "--cache", "x"],
], ids=["verify-trunc", "verify-cache", "theta-krep", "scan-cache"])
def test_verbs_refuse_flags_they_ignore(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_a_failing_figure_exits_1_and_marks_its_rows(capsys, monkeypatch):
    theta = verify.theta_fixed
    monkeypatch.setattr(verify, "theta_fixed",
                        lambda *args, **kwargs: 2 * theta(*args, **kwargs))
    code, out, _ = run(capsys, "verify", "ex33")
    assert code == 1
    assert json.loads(out)["status"] == "fail"
    code, out, _ = run(capsys, "verify", "ex33", "--table")
    assert code == 1
    assert 'status       "fail"\n' in out
    assert "fixed theta of (2,8,4,6)(3,5)   FAIL expected " in out


EX34_TABLE = (
    'figure       "ex34"\n'
    'status       "pass"\n'
    'quotient through q^3                          ok   expected'
    ' [1, 18, 150, 780, 2928]  got [1, 18, 150, 780, 2928]\n'
    'quotient q^4..q^6 (recomputed)                ok   expected'
    ' [8892, 24032, 60840]  got [8892, 24032, 60840]\n'
    'printed q^4 term differs from recomputation   note expected 88926'
    '  got 8892\n'
)


def test_verify_table_marks_checked_and_informational_rows(capsys):
    assert run(capsys, "verify", "ex34", "--table") == (0, EX34_TABLE, "")


def test_verify_rejects_unknown_figures(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "fig99"])
    capsys.readouterr()


# ---------- scan ----------

def test_scan_keeps_input_order_and_splits_the_classes(capsys, tmp_path):
    out_file = tmp_path / "scan.json"
    code = main(["scan", str(DATA / "hamming8_classes.txt"),
                 "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    records = json.loads(out_file.read_text())
    assert len(records) == 11
    assert [r["line"] for r in records] == sorted(r["line"] for r in records)
    verdicts = [r["outputs"]["replicability"]["verdict"] for r in records]
    assert verdicts.count("replicable-up-to-K_rep") == 7
    assert verdicts.count("not-replicable") == 4
    names = {r["outputs"]["replicability"]["identified_as"]
             for r in records} - {None}
    assert names == {"T_1A", "T_3A", "T_4A", "T_6b", "T_7A", "T_8B"}


def test_two_identical_scans_write_equal_bytes(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    main(["scan", str(DATA / "hamming8_classes.txt"), "--out", str(a)])
    main(["scan", str(DATA / "hamming8_classes.txt"), "--out", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_scan_survives_bad_lines_and_flags_them(capsys, tmp_path):
    listing = tmp_path / "mixed.txt"
    listing.write_text("(1,2)(3,8)(4,7)(5,6)\n(1,9)\n()\n")
    code, out, err = run(capsys, "scan", str(listing))
    assert code == 1
    assert "1 of 3 lines failed" in err
    records = json.loads(out)
    assert [r["line"] for r in records] == [1, 2, 3]
    assert records[1]["error"]["type"] == "ParseError"
    assert "outputs" not in records[1]
    assert records[0]["outputs"]["replicability"]["verdict"]


SCAN_TABLE = (
    'fingerprint  "6c391eba86963eef52ce7a445daeab29'
    '5165f436144b54d8444bb43dc87a85af"\n'
    'input        "(1,5,2)(3,7,8)"\n'
    'line         1\n'
    'version      "%(version)s"\n'
    'orbit_type   "1^2 3^2"\n'
    'replicability {"K_rep": 12, "constant_delta": "0/1",'
    ' "identified_as": "T_3A", "verdict": "replicable-up-to-K_rep",'
    ' "violations": []}\n'
    '\n'
    'error        {"message": "(1,2) is not an automorphism of the code",'
    ' "type": "DomainError"}\n'
    'fingerprint  "04bbd0c8e16130542f22fbe5b750aace'
    '0091102bd8f190ec8e7cbf640641f446"\n'
    'input        "(1,2)"\n'
    'line         2\n'
    'version      "%(version)s"\n'
    '\n'
    'fingerprint  "50a475036064b9c1f5b82f461e8b253a'
    '5e68be5cf91940b5e789953592c6fe40"\n'
    'input        "(1,2)(3,8)(4,7)(5,6)"\n'
    'line         3\n'
    'version      "%(version)s"\n'
    'orbit_type   "2^4"\n'
    'replicability {"K_rep": 12, "constant_delta": null,'
    ' "identified_as": null, "verdict": "not-replicable",'
    ' "violations": [[2, 3, 1, 6], [2, 5, 1, 10], [3, 4, 1, 12],'
    ' [4, 6, 2, 12], [5, 6, 3, 10]]}\n'
    '\n'
) % {"version": __version__}


def test_scan_table_renders_each_line_and_the_error_row(capsys, tmp_path):
    listing = tmp_path / "three.txt"
    listing.write_text("(1,5,2)(3,7,8)\n(1,2)\n(1,2)(3,8)(4,7)(5,6)\n")
    assert run(capsys, "scan", str(listing), "--table") == (
        1, SCAN_TABLE, "scan: 1 of 3 lines failed\n")


def test_scan_of_only_comments_is_empty(capsys, tmp_path):
    listing = tmp_path / "empty.txt"
    listing.write_text("# nothing here\n\n")
    code, out, err = run(capsys, "scan", str(listing))
    assert code == 0
    assert json.loads(out) == []


# ---------- the process entry point ----------

SRC = Path(cli.__file__).parents[1]


def spawn(*argv, python=(), stdout=subprocess.PIPE, unbuffered=True):
    """Run thetaforge as its own process; return (status, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    if not unbuffered:
        env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, *python, *argv], env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def in_process(capsys, argv):
    """(status, stdout, stderr) of a main call, SystemExit included."""
    try:
        status = main(argv)
    except SystemExit as exit_info:
        status = exit_info.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


@pytest.mark.parametrize("status, argv", [
    (0, ["theta", "--group", "(2,8,4,6)(3,5)", "--trunc", "4"]),
    (0, ["scan", str(DATA / "hamming8_classes.txt"), "--trunc", "12"]),
    (0, ["verify", "ex33"]),
    (3, ["theta", "--trunc", "0"]),
    (2, ["theta", "--krep", "5"]),
    (4, ["identify", "--code", "golay24", "--trunc", "10"]),
    (0, ["character", "--group", "(1,7)(2,4)(3,8)(5,6)", "--trunc", "3",
         "--out", "OUT"]),
], ids=["theta", "scan", "verify", "exit-3", "exit-2", "exit-4", "out"])
def test_a_process_prints_what_an_in_process_call_prints(
        capsys, tmp_path, status, argv):
    out = tmp_path / "record.json"
    argv = [str(out) if a == "OUT" else a for a in argv]

    def written():
        text = out.read_text() if out.exists() else None
        out.unlink(missing_ok=True)
        return text

    want = in_process(capsys, argv), written()
    assert want[0][0] == status
    assert (spawn("-m", "thetaforge.cli", *argv), written()) == want


# main() with no argv list, as the console script calls it; it must not
# return, so the line after it never prints
BARE_MAIN = "from thetaforge.cli import main\nmain()\nprint('returned')\n"


@pytest.mark.parametrize("entry", [
    ["-m", "thetaforge.cli"], ["-c", BARE_MAIN]], ids=["module", "bare-main"])
@pytest.mark.parametrize("argv", [
    ["theta", "--trunc", "2"],
    ["scan", str(DATA / "golay24_fig8.txt"), "--trunc", "10"],
    ["character", "--group", "(1,5)(2,6), (3,8)(4,7)", "--trunc", "2"],
    ["theta", "--trunc", "0"],
], ids=["theta", "scan-exit-1", "character", "exit-3"])
def test_a_started_process_gives_the_in_process_status_and_output(
        capsys, entry, argv):
    assert spawn(*entry, *argv) == in_process(capsys, argv)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_a_failed_write_to_stdout_exits_3_with_the_error_record(unbuffered):
    # block-buffered stdout used to be flushed only at teardown, which
    # reported the OSError as ignored and exited 120
    with open("/dev/full", "w") as full:
        code, _, err = spawn("-m", "thetaforge.cli", "theta", "--trunc", "2",
                             stdout=full, unbuffered=unbuffered)
    assert code == 3
    assert json.loads(err) == {"error": {
        "type": "OSError", "message": "[Errno 28] No space left on device"}}


# a verb that writes part of its output and then fails
PARTIAL_MAIN = """import sys
from thetaforge import cli
def partial(args):
    sys.stdout.write("partial\\n")
    raise cli.DomainError("late")
cli._run_compute = partial
cli.main()
"""


def test_a_started_process_flushes_stdout_written_before_an_error():
    code, out, err = spawn("-c", PARTIAL_MAIN, "theta", unbuffered=False)
    assert (code, out) == (3, "partial\n")
    assert json.loads(err) == {"error": {
        "type": "DomainError", "message": "late"}}


def _imported(stderr):
    """Module names in the -X importtime report on stderr."""
    return {line.rsplit("|", 1)[-1].strip() for line in stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [
    ["theta", "--trunc", "1"],
    ["scan", str(DATA / "hamming8_classes.txt"), "--trunc", "12"],
    ["character", "--group", "(1,7)(2,4)(3,8)(5,6)", "--trunc", "2"],
    ["doubling", "--group", "(1,7)(2,4)(3,8)(5,6)", "--trunc", "2"],
    ["verify", "ex33"],
], ids=["theta", "scan", "character", "doubling", "verify"])
def test_no_job_loads_openssl(argv):
    code, out, err = spawn("-X", "importtime", "-m", "thetaforge.cli", *argv)
    assert code == 0, err
    assert "fingerprint" in out or argv[0] == "verify"
    assert "thetaforge.verify" in _imported(err)
    assert "_hashlib" not in _imported(err)


@given(st.binary(max_size=2000))
@example(b"")
@example(b"a" * 55)
@example(b"b" * 56)
@example(b"c" * 64)
@example(b"d" * 1000)
def test_the_digest_is_hashlib_sha256(data):
    assert cli._sha256(data) == hashlib.sha256(data).hexdigest()


def _recording_module(name, calls):
    def sha256(data):
        calls.append(name)
        return hashlib.sha256(data)
    module = types.ModuleType(name)
    module.sha256 = sha256
    return module


@pytest.mark.parametrize("missing, fallback", [
    (["_sha256"], "_sha2"),
    (["_sha256", "_sha2"], "hashlib"),
])
def test_each_digest_import_fallback_gives_the_same_digest(
        monkeypatch, missing, fallback):
    data = b"thetaforge" * 50
    calls = []
    for name in missing:
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setitem(sys.modules, fallback,
                        _recording_module(fallback, calls))
    assert cli._sha256(data) == hashlib.sha256(data).hexdigest()
    assert calls == [fallback]


def test_the_cli_loads_no_argument_parsing_library():
    code, _, err = spawn("-X", "importtime", "-m", "thetaforge.cli",
                         "theta", "--trunc", "1")
    assert code == 0
    assert {"argparse", "gettext", "locale"} & _imported(err) == set()


@pytest.mark.parametrize("argv", [
    ["theta", "--trunc", "1"],
    ["scan", str(DATA / "hamming8_classes.txt"), "--trunc", "12"],
    ["verify", "ex33", "--table"],
], ids=["theta", "scan", "verify-table"])
def test_no_job_loads_json_or_future(argv):
    code, _, err = spawn("-X", "importtime", "-m", "thetaforge.cli", *argv)
    assert code == 0, err
    assert {"json", "json.decoder", "__future__"} & _imported(err) == set()


# ---------- the record writer against json.dumps ----------

# every code point: control characters, lone surrogates, astral planes
TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10ffff,
                             exclude_categories=()), max_size=12)
RECORDS = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=24)


@given(RECORDS)
@example({"a\u00e9\ud800\U0001f600":
          ["\x00\x1f\x7f\\\"\n\r\t\b\f", -10 ** 40]})
@example({"": {}, "b": [], "c": [[]], "d": [{}], "e": ()})
def test_the_writer_matches_json_dumps_in_every_layout(record):
    assert cli._dump(record) == json.dumps(record, sort_keys=True,
                                           indent=2) + "\n"
    assert cli._json(record, ",", ":") == json.dumps(
        record, sort_keys=True, separators=(",", ":"))
    assert cli._json(record) == json.dumps(record, sort_keys=True)


@pytest.mark.parametrize("record", [
    0.5, Fraction(1, 3), [1, 2.0], {"a": {"b": Fraction(2)}},
    {1: "x"}, {"a": 1, None: 2}, {(1, 2): 3}, {True: 1}, {1, 2}, b"x",
], ids=["float", "Fraction", "nested-float", "nested-Fraction", "int-key",
        "None-key", "tuple-key", "bool-key", "set", "bytes"])
def test_the_writer_refuses_what_records_never_hold(record):
    with pytest.raises(TypeError):
        cli._json(record)
    with pytest.raises(TypeError):
        cli._dump(record)


# ---------- reading input files ----------

@pytest.mark.parametrize("argv, text", [
    (["scan", "FILE"], "(1,2)(3,4)(5,6)(7,8)  # \u00e9t\u00e9\n"),
    (["theta", "--code", "FILE"],
     "11110000 # \u00e9\n00001111\n11001100\n10101010\n"),
    (["theta", "--group-file", "FILE"], "(1,2)(3,4)(5,6)(7,8) # \u00e9\n"),
], ids=["scan", "code", "group-file"])
def test_input_files_are_utf8_and_other_bytes_a_parse_error(
        capsys, tmp_path, argv, text):
    path = tmp_path / "input.txt"
    argv = [str(path) if a == "FILE" else a for a in argv]
    path.write_bytes(text.encode("utf-8"))
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    path.write_bytes(b"\xff" + text.encode("utf-8"))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith("%s is not UTF-8 text: " % path)


def test_read_lines_numbers_the_lines_left_once_comments_are_cut(tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(b"# header\r\n\r\n  11110000  # first row\r\n"
                     b"   \n\t# indented comment\n00001111\r\n"
                     b"#\n11001100#tight\n\n")
    assert read_lines(path) == [(3, "11110000"), (6, "00001111"),
                                (8, "11001100")]
    path.write_bytes(b"\n# only comments\n\n")
    assert read_lines(path) == []
    path.write_bytes(b"11110000\n\xff\n")
    with pytest.raises(ParseError, match="is not UTF-8 text"):
        read_lines(path)


# the pattern parse_args used to tell flags from negative numbers
OLD_FLAG = re.compile(r"-(?!\d+$|\d*\.\d+$).")


@given(st.text("-0123456789.\nx \u0663\u00b2", max_size=6))
@example("-5")
@example("-.5")
@example("-5.")
@example("-5\n")
@example("-\n")
@example("--")
@example("-\u00b2")
def test_flags_and_negative_numbers_split_as_before(token):
    assert cli._is_flag(token) == bool(OLD_FLAG.match(token))


# ---------- the verb table against the argparse parser it replaced ----------

ROOT = Path(__file__).parents[1]


def _parsed(parse, argv):
    """(exit status, attributes) of one parse; attributes None on exit."""
    try:
        return 0, vars(parse(list(argv)))
    except SystemExit as exit_info:
        return exit_info.code, None


def _readme_argvs():
    lines = (ROOT / "README.md").read_text().splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("thetaforge ")]


def _perfbench_argvs(directory):
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    argvs = [bench.SETUP_JOB[1]]
    for seed in (0, 3):
        inputs = bench.Inputs(seed, str(directory / str(seed)))
        for workload in ("leech", "series", "catalog"):
            argvs += [job.argv for job in bench.workload_jobs(workload,
                                                             inputs)]
    return argvs


def _sample_values(convert):
    if isinstance(convert, tuple):
        return list(convert)
    return ["7", "-3", "0"] if convert is int else ["x", "(1,2)(3,4)", ""]


def _every_flag_argvs():
    """Each verb with each of its flags, as `--flag v` and `--flag=v`."""
    argvs = []
    for verb, spec in cli.VERBS.items():
        head = [verb] + [_sample_values(c)[0] for n, (c, _) in spec.items()
                         if n[0] != "-"]
        for name, (convert, _) in spec.items():
            if name[0] != "-":
                continue
            if convert is bool:
                argvs.append(head + [name])
                continue
            for value in _sample_values(convert):
                argvs += [head + [name, value], head + ["%s=%s" % (name, value)]]
    return argvs


REPEATED = [
    ["theta", "--trunc", "5", "--trunc", "7"],
    ["theta", "--code", "golay24", "--code=hamming8"],
    ["replicable", "--krep=3", "--krep", "30", "--flavor", "super1",
     "--flavor=plain"],
    ["theta", "--table", "--table"],
    ["verify", "--json", "ex33", "--json", "--out", "a", "--out", "b"],
    ["scan", "--code", "x", "lines.txt", "--trunc", "12"],
    ["scan", "-3"],
    ["scan", "-"],
    ["theta", "--group", "-3", "--trunc=-3"],
]

# argv, and the last line the old parser wrote to stderr for it
USAGE_ERRORS = [
    (["theta", "--krep", "5"],
     "thetaforge: error: unrecognized arguments: --krep 5"),
    (["verify", "ex33", "--trunc", "5"],
     "thetaforge: error: unrecognized arguments: --trunc 5"),
    (["scan", "lines.txt", "--group", "()"],
     "thetaforge: error: unrecognized arguments: --group ()"),
    (["verify", "ex33", "ex34"],
     "thetaforge: error: unrecognized arguments: ex34"),
    (["theta", "-x", "extra", "--cache=1"],
     "thetaforge: error: unrecognized arguments: -x extra --cache=1"),
    (["verify", "fig99"],
     "thetaforge verify: error: argument figure: invalid choice: 'fig99'"
     " (choose from 'fig1', 'fig2', 'fig5', 'fig7', 'ex33', 'ex34',"
     " 'ex53', 'ex81', 'thmC', 'thmD')"),
    (["theta", "--flavor", "bogus"],
     "thetaforge theta: error: argument --flavor: invalid choice: 'bogus'"
     " (choose from 'plain', 'super0', 'super1')"),
    (["theta", "--trunc", "x"],
     "thetaforge theta: error: argument --trunc: invalid int value: 'x'"),
    (["scan", "f", "--krep=1.5"],
     "thetaforge scan: error: argument --krep: invalid int value: '1.5'"),
    (["theta", "--trunc"],
     "thetaforge theta: error: argument --trunc: expected one argument"),
    (["theta", "--group", "--table"],
     "thetaforge theta: error: argument --group: expected one argument"),
    (["verify"],
     "thetaforge verify: error: the following arguments are required:"
     " figure"),
    (["scan", "--code", "golay24"],
     "thetaforge scan: error: the following arguments are required: file"),
    (["theta", "--json", "--table"],
     "thetaforge theta: error: argument --table: not allowed with argument"
     " --json"),
    (["verify", "ex33", "--table", "--json"],
     "thetaforge verify: error: argument --json: not allowed with argument"
     " --table"),
    (["theta", "--json=x"],
     "thetaforge theta: error: argument --json: ignored explicit argument"
     " 'x'"),
    ([], "thetaforge: error: the following arguments are required: command"),
    (["bogus"],
     "thetaforge: error: argument command: invalid choice: 'bogus' (choose"
     " from 'theta', 'quotient', 'replicable', 'identify', 'doubling',"
     " 'character', 'verify', 'scan')"),
]


def test_the_verb_table_parses_as_the_argparse_parser_did(capsys, tmp_path):
    corpus = (_readme_argvs() + _perfbench_argvs(tmp_path)
              + _every_flag_argvs() + REPEATED
              + [argv for argv, _ in USAGE_ERRORS])
    assert {argv[0] for argv in _readme_argvs()} == set(cli.VERBS)
    for argv in corpus:
        new = _parsed(cli.parse_args, argv)
        assert new == _parsed(build_parser().parse_args, argv), argv
    capsys.readouterr()


@pytest.mark.parametrize("argv,error", USAGE_ERRORS,
                         ids=[" ".join(a) or "empty" for a, _ in USAGE_ERRORS])
def test_usage_errors_keep_the_argparse_wording(capsys, argv, error):
    with pytest.raises(SystemExit) as exit_info:
        cli.parse_args(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, last = captured.err.splitlines()
    assert usage.startswith("usage: thetaforge [-h] ")
    assert last == error


def test_flag_prefixes_are_no_longer_expanded(capsys):
    # argparse took a unique prefix of a flag; the verb table does not
    for argv in (["theta", "--tr", "5"], ["replicable", "--kr=20"]):
        assert _parsed(build_parser().parse_args, argv)[0] == 0
        assert _parsed(cli.parse_args, argv) == (2, None)
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [None] + list(cli.VERBS))
def test_help_names_every_verb_and_flag(capsys, verb):
    argv = ["--help"] if verb is None else [verb, "-h"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: thetaforge [-h] ")
    names = (list(cli.VERBS) if verb is None else
             [verb] + [name for name in cli.VERBS[verb] if name[0] == "-"])
    assert all(name in out for name in names)


def test_a_help_process_exits_0():
    code, out, err = spawn("-m", "thetaforge.cli", "scan", "--help")
    assert (code, err) == (0, "")
    assert "--krep" in out and "FILE" in out
