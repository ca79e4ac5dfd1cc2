"""End-to-end and per-layer benchmark for thetaforge.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload leech|series|catalog --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

Every job is a real CLI run, one fresh ``python -m thetaforge.cli``
process with ``src`` on PYTHONPATH, started by this single benchmark process
in a closed loop: the next job starts when the previous one has exited.
A pass runs the workload's jobs once; passes repeat until ``--seconds``
have gone by.  Every job's output is checked against the recorded
reference (see ``check``).

The seed draws a coordinate permutation for each code length.  Codes are
passed as relabelled generator-matrix files, every generator is
conjugated by the same permutation and scan lines are shuffled, so one
reference serves every seed.  Seed 0 is the identity.

With ``--trace 0`` the last line reports the end-to-end metrics
(``setup_s``, ``wall_s``, ``peak_rss_mb``; the two times are scaled to a
fixed machine speed with ``yardstick.py``); with ``--trace 1`` untraced
and traced passes alternate and the last line reports the per-layer
metrics of BENCHMARK.json, measured by ``trace_launch.py``.  Lines before
it give each metric with its unit and sample count, the error rate and
the environment; the full result goes to ``.bench_build/perfbench/``.
The exit status is 0 only if every job succeeded with the expected
output.
"""

import argparse
import json
import os
import platform
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from math import lcm

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(BENCH, "data")
REFERENCE = os.path.join(BENCH, "reference.json")

# setup_s comes from spawns of the cheapest job, spread over the run:
# this many before every pass, each followed by a spawn of yardstick.py.
SETUP_SPAWNS_PER_PASS = 3
# The speed of a shared virtual machine drifts by up to 1.7x over tens of
# seconds to minutes, which moves every wall time together.  setup_s and
# wall_s are therefore reported at a fixed machine speed: each sample is
# multiplied by YARDSTICK_REF_S / (yardstick time at that moment), which
# for a setup spawn is the yardstick spawned right after it and for a pass
# the median of the yardsticks spawned just before and just after it.
YARDSTICK_REF_S = 0.1
YARDSTICK_OUTPUT = "2048 943109\n"
JOB_TIMEOUT_S = 150     # a job still running after this is killed and fails

SETUP_JOB = ("setup.theta", ["theta", "--trunc", "1"])
HALF_SWAP = "".join("(%d,%d)" % (i, i + 12) for i in range(1, 13))
FIGURES = ("fig1", "fig2", "fig5", "fig7", "ex33", "ex34", "ex53", "ex81",
           "thmC", "thmD")
VERBS = ("theta", "quotient", "replicable", "doubling", "character", "scan",
         "verify")

# Spans recorded by trace_launch.py, and the metrics reported for each.
TIMED_AND_COUNTED = (
    ["lattice." + f for f in (
        "theta_fixed", "theta_super", "theta_twisted", "theta_full",
        "kernel_theta", "catalog_theta", "doubling_lattice_criterion",
        "doubling_code_criterion")]
    + ["codes.codewords"]
    + ["qseries." + f for f in ("mul", "add", "pow", "pow_rational",
                                "truediv")]
    + ["modfunc." + f for f in (
        "eta_product", "theta_quotient", "faber_table", "is_replicable",
        "identify", "mckay_thompson")])
TIMED_ONLY = (
    ["qseries.eta", "qseries.shifted_theta"]
    + ["characters." + f for f in (
        "lift_info", "trace_series", "character_cyclic", "character_group",
        "character_plus", "verify_identity")]
    + ["perms." + f for f in ("parse_generators", "orbits",
                              "group_elements")]
    + ["codes.load_code", "codes.fixed_subcode", "verify.verify_figure",
       "cli.main"])
# span name -> metric holding the sum of the span's work counts
WORK_COUNTS = {"codes.codewords": "codes.codewords.words",
               "qseries.mul": "qseries.mul.term_pairs",
               "perms.group_elements": "perms.group_elements.elements"}


# ---------- seeded inputs ----------

def read_rows(name):
    with open(os.path.join(DATA, name)) as fh:
        return [line.split("#", 1)[0].strip() for line in fh
                if line.split("#", 1)[0].strip()]


class Inputs:
    """Relabelled inputs for one seed, written under ``directory``."""

    def __init__(self, seed, directory):
        self.rng = random.Random(seed)
        self.seed = seed
        self.directory = directory
        self.perm = {}
        for n in (8, 24):
            images = list(range(1, n + 1))
            if seed:
                self.rng.shuffle(images)
            self.perm[n] = images
        os.makedirs(directory, exist_ok=True)

    def conjugate(self, text, n):
        """Cycle notation for pi g pi^-1: rename every point p to pi(p)."""
        images = self.perm[n]
        return re.sub(r"\d+", lambda m: str(images[int(m.group()) - 1]), text)

    def code(self, name):
        """Write the relabelled rows of a data file; return (path, rows)."""
        rows = read_rows(name)
        images = self.perm[len(rows[0])]
        out = []
        for row in rows:
            new = ["0"] * len(row)
            for i, bit in enumerate(row):
                new[images[i] - 1] = bit
            out.append("".join(new))
        path = os.path.join(self.directory, name)
        with open(path, "w") as fh:
            fh.write("\n".join(out) + "\n")
        return path, out

    def scan_file(self, name, n):
        """Conjugate and shuffle the lines of a scan file.

        Returns the path and, for each written line, the index of the
        original line it came from.
        """
        lines = read_rows(name)
        order = list(range(len(lines)))
        if self.seed:
            self.rng.shuffle(order)
        path = os.path.join(self.directory, name)
        with open(path, "w") as fh:
            for i in order:
                fh.write(self.conjugate(lines[i], n) + "\n")
        return path, order


class Job:
    def __init__(self, key, argv, order=None, witness_check=None):
        self.key = key
        self.argv = argv
        self.verb = argv[0]
        self.order = order                  # scan: original line indices
        self.witness_check = witness_check  # doubling: (rows, generator)


def workload_jobs(workload, inputs):
    """The jobs of one pass, with inputs relabelled for the seed."""
    if workload == "leech":
        g24, g24_rows = inputs.code("golay24_rows.txt")
        swap = inputs.conjugate(HALF_SWAP, 24)
        return [
            Job("leech.theta", ["theta", "--code", g24, "--flavor", "super1",
                                "--trunc", "16"]),
            Job("leech.doubling", ["doubling", "--code", g24, "--flavor",
                                   "super1", "--group", swap, "--trunc", "10"],
                witness_check=(g24_rows, swap)),
        ]
    h8, h8_rows = inputs.code("hamming8_rows.txt")
    if workload == "series":
        return [
            Job("series.quotient", [
                "quotient", "--code", h8, "--group",
                inputs.conjugate("(2,8,4,6)(3,5)", 8), "--trunc", "200"]),
            Job("series.replicable", [
                "replicable", "--code", h8, "--group",
                inputs.conjugate("(1,5,2)(3,7,8)", 8), "--krep", "48",
                "--trunc", "100"]),
        ]
    if workload == "catalog":
        fig8_code, _ = inputs.code("golay24_fig8_rows.txt")
        classes, classes_order = inputs.scan_file("hamming8_classes.txt", 8)
        fig8, fig8_order = inputs.scan_file("golay24_fig8.txt", 24)
        involution = inputs.conjugate("(1,7)(2,4)(3,8)(5,6)", 8)
        klein = inputs.conjugate(
            "(1,2)(3,8)(4,7)(5,6), (1,3)(2,8)(4,6)(5,7)", 8)
        return ([
            Job("catalog.scan-hamming8", ["scan", classes, "--code", h8],
                order=classes_order),
            Job("catalog.scan-golay24", ["scan", fig8, "--code", fig8_code],
                order=fig8_order),
        ] + [Job("catalog.verify-" + f, ["verify", f]) for f in FIGURES] + [
            Job("catalog.character-cyclic",
                ["character", "--code", h8, "--group", involution]),
            Job("catalog.character-klein",
                ["character", "--code", h8, "--group", klein]),
            Job("catalog.doubling",
                ["doubling", "--code", h8, "--group", involution],
                witness_check=(h8_rows, involution)),
        ])
    raise ValueError("unknown workload %r" % workload)


# ---------- output checks ----------

def _mask(points):
    mask = 0
    for p in points:
        mask |= 1 << (p - 1)
    return mask


def _in_span(rows, mask):
    """Whether mask is a GF(2) combination of the rows."""
    basis = []
    for row in rows:
        v = _mask(i + 1 for i, bit in enumerate(row) if bit == "1")
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    for b in basis:
        mask = min(mask, mask ^ b)
    return mask == 0


def _doubling_witness_ok(witness, rows, cycles):
    """A witness B is a codeword with |B & g^(m/2) B| = 2 mod 4."""
    n = len(rows[0])
    images = list(range(n))
    lengths = []
    for cycle in re.findall(r"\(([^)]*)\)", cycles):
        points = [int(p) - 1 for p in cycle.split(",") if p.strip()]
        lengths.append(len(points))
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    m = lcm(*lengths) if lengths else 1
    if m % 2:
        return False
    half = list(range(n))
    for _ in range(m // 2):
        half = [images[i] for i in half]
    bmask = _mask(witness)
    moved = _mask(half[p - 1] + 1 for p in witness)
    return _in_span(rows, bmask) and bin(bmask & moved).count("1") % 4 == 2


def digest(job, record):
    """The labelling-free part of a job's output that must match."""
    if job.verb == "verify":
        return {"status": record["status"], "rows": record["rows"]}
    if job.verb == "scan":
        lines = [None] * len(record)
        for written, original in enumerate(job.order):
            entry = record[written]
            lines[original] = {
                "outputs": entry.get("outputs"),
                "error": entry["error"]["type"] if "error" in entry else None}
        return lines
    outputs = json.loads(json.dumps(record["outputs"]))
    if "doubling" in outputs:
        # the witness depends on the labelling: keep only whether it exists
        outputs["doubling"]["witness"] = (
            outputs["doubling"]["witness"] is not None)
    return outputs


def check(job, status, stdout, reference):
    """None if the job's exit status and output are as recorded."""
    expected = reference.get(job.key)
    if expected is None:
        return "no reference for %s" % job.key
    if status != expected["exit"]:
        return "exit status %s, expected %s" % (status, expected["exit"])
    try:
        record = json.loads(stdout)
        got = digest(job, record)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "unreadable output: %s" % exc
    if got != expected["outputs"]:
        return "output differs from reference"
    if job.witness_check is not None:
        witness = record["outputs"]["doubling"]["witness"]
        if witness is not None and not _doubling_witness_ok(
                witness, *job.witness_check):
            return "doubling witness %s fails its defining property" % witness
    return None


# ---------- running jobs ----------

def job_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(WORK, "pycache")
    env["THETAFORGE_THREADS"] = str(len(os.sched_getaffinity(0)))
    return env


class Runner:
    """Spawns jobs one at a time and tallies their outcomes."""

    def __init__(self, reference, directory):
        self.reference = reference
        self.directory = directory
        self.env = job_env()
        self.attempted = 0
        self.failures = []
        self.out_path = os.path.join(directory, "job.out")
        self.err_path = os.path.join(directory, "job.err")

    def spawn(self, argv):
        """Run argv to completion; return (status, wall, spawn time, usage)."""
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env)
            killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, wait_status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        return proc.returncode, wall, start, usage

    def yardstick(self):
        """Wall time of one spawn of yardstick.py."""
        status, wall, _, _ = self.spawn(
            [sys.executable, os.path.join(BENCH, "yardstick.py")])
        with open(self.out_path) as fh:
            if status != 0 or fh.read() != YARDSTICK_OUTPUT:
                raise RuntimeError("yardstick.py did not complete its work")
        return wall

    def run(self, job, spans_path=None):
        if spans_path is None:
            argv = [sys.executable, "-m", "thetaforge.cli"] + job.argv
        else:
            argv = [sys.executable, os.path.join(BENCH, "trace_launch.py"),
                    spans_path] + job.argv
            if os.path.exists(spans_path):
                os.remove(spans_path)
        status, wall, start, usage = self.spawn(argv)
        with open(self.out_path) as fh:
            problem = check(job, status, fh.read(), self.reference)
        if spans_path is not None and not os.path.exists(spans_path):
            problem = problem or "the traced job wrote no spans"
        self.attempted += 1
        if problem is not None:
            self.failures.append({"job": job.key, "argv": job.argv,
                                  "problem": problem})
        return {"job": job.key, "verb": job.verb, "wall": wall,
                "start": start, "cpu": usage.ru_utime + usage.ru_stime,
                "maxrss_mb": usage.ru_maxrss / 1024, "ok": problem is None}

    def run_pass(self, jobs, spans_dir=None):
        results = []
        for i, job in enumerate(jobs):
            spans = None if spans_dir is None else os.path.join(
                spans_dir, "%02d.json" % i)
            result = self.run(job, spans)
            if spans is not None and os.path.exists(spans):
                result["trace"] = traced_layers(spans, result)
            results.append(result)
        return results


# ---------- trace analysis ----------

def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def traced_layers(spans_path, result):
    """Per-layer totals of one traced job."""
    with open(spans_path) as fh:
        doc = json.load(fh)
    spans = doc["spans"]
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    totals = defaultdict(float)
    for i, (name, start, end, _parent, _thread, count) in enumerate(spans):
        inner = [(max(spans[c][1], start), min(spans[c][2], end))
                 for c in children[i]]
        totals[name + ".self_s"] += end - start - _covered(
            [iv for iv in inner if iv[1] > iv[0]])
        totals[name + ".calls"] += 1
        if name in WORK_COUNTS:
            totals[WORK_COUNTS[name]] += count
    totals["proc.start_s"] = doc["main_entry"] - result["start"]
    totals["trace.unattributed_s"] = result["wall"] - _covered(
        [(s[1], s[2]) for s in spans])
    return totals


# ---------- metrics ----------

def pass_summary(results):
    return {"wall": sum(r["wall"] for r in results),
            "cpu": sum(r["cpu"] for r in results),
            "peak_rss_mb": max(r["maxrss_mb"] for r in results),
            "median_rss_mb": statistics.median(r["maxrss_mb"] for r in results)}


def tail(values):
    """(percentile, value) of the highest percentile with ten samples
    beyond it, or None when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    k = n - 11                        # zero-based rank, ten values above
    return 100.0 * (k + 1) / n, sorted(values)[k]


def per_layer_metrics(untraced, traced):
    names = ([n + s for n in TIMED_AND_COUNTED for s in (".self_s", ".calls")]
             + [n + ".self_s" for n in TIMED_ONLY]
             + list(WORK_COUNTS.values())
             + ["proc.start_s", "proc.cpu_s", "proc.maxrss_mb",
                "trace.overhead_s", "trace.unattributed_s"]
             + ["cli.%s.wall_s" % v for v in VERBS])
    per_pass = []
    for results in traced:
        totals = defaultdict(float)
        for r in results:
            for key, value in r.get("trace", {}).items():
                totals[key] += value
        per_pass.append(totals)
    values = {n: statistics.median(t.get(n, 0.0) for t in per_pass)
              for n in names}
    for verb in VERBS:
        values["cli.%s.wall_s" % verb] = statistics.median(
            sum(r["wall"] for r in results if r["verb"] == verb)
            for results in untraced)
    plain = [pass_summary(r) for r in untraced]
    values["proc.cpu_s"] = statistics.median(p["cpu"] for p in plain)
    values["proc.maxrss_mb"] = statistics.median(
        p["median_rss_mb"] for p in plain)
    values["trace.overhead_s"] = (
        statistics.median(pass_summary(r)["wall"] for r in traced)
        - statistics.median(p["wall"] for p in plain))
    return values


def environment(seed):
    sha = "unknown"     # a checkout without .git has no commit to name
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"host": socket.gethostname(), "python": platform.python_version(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": job_env()["THETAFORGE_THREADS"], "git": sha,
            "seed": seed}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------- entry points ----------

def record_reference(directory):
    """Run every job once on seed 0 and store its output as the reference."""
    runner = Runner({}, directory)
    inputs = Inputs(0, os.path.join(directory, "inputs"))
    reference = {}
    jobs = [Job(*SETUP_JOB)] + [
        job for w in ("leech", "series", "catalog")
        for job in workload_jobs(w, inputs)]
    for job in jobs:
        status, _, _, _ = runner.spawn(
            [sys.executable, "-m", "thetaforge.cli"] + job.argv)
        with open(runner.out_path) as fh:
            record = json.load(fh)
        reference[job.key] = {"exit": status, "outputs": digest(job, record)}
        print("recorded %s (exit %d)" % (job.key, status))
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def measure(args, directory):
    if not os.path.isfile(os.path.join(ROOT, "src", "thetaforge", "cli.py")):
        sys.stderr.write("perfbench: no thetaforge sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2
    spec = load_spec()
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    env = environment(args.seed)
    runner = Runner(reference, directory)

    # set-up: inputs and one warm-up spawn that also writes the bytecode
    inputs = Inputs(args.seed, os.path.join(directory, "inputs"))
    jobs = workload_jobs(args.workload, inputs)
    setup_job = Job(*SETUP_JOB)
    runner.run(setup_job)
    if runner.failures:
        sys.stderr.write("perfbench: set-up job failed: %s\n"
                         % runner.failures[0]["problem"])
        return 2

    setup, yardstick, untraced, traced = [], [], [], []
    spans_dir = os.path.join(directory, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    start = time.monotonic()
    while not untraced or time.monotonic() - start < args.seconds:
        for _ in range(SETUP_SPAWNS_PER_PASS):
            setup.append(runner.run(setup_job)["wall"])
            yardstick.append(runner.yardstick())
        untraced.append(runner.run_pass(jobs))
        if args.trace:
            traced.append(runner.run_pass(jobs, spans_dir))

    yardstick += [runner.yardstick() for _ in range(SETUP_SPAWNS_PER_PASS)]

    passes = [pass_summary(r) for r in untraced]
    walls = [p["wall"] for p in passes]
    k = SETUP_SPAWNS_PER_PASS
    setup_s = statistics.median(
        YARDSTICK_REF_S * t / y for t, y in zip(setup, yardstick))
    wall_s = statistics.median(
        YARDSTICK_REF_S * t / statistics.median(yardstick[k * i:k * i + 2 * k])
        for i, t in enumerate(walls))
    failed = len(runner.failures)
    lines = [
        "perfbench workload=%s seed=%d trace=%d host=%s python=%s nproc=%s"
        " affinity=%s THETAFORGE_THREADS=%s git=%s" % (
            args.workload, args.seed, args.trace, env["host"], env["python"],
            env["nproc"], env["affinity"], env["threads"], env["git"]),
        "yardstick    %.4f s    median of %d spawns of yardstick.py; 'scaled'"
        " times are at the speed where it takes %.1f s" % (
            statistics.median(yardstick), len(yardstick), YARDSTICK_REF_S),
        "setup_s      %.4f s    scaled; raw %.4f s, medians of %d spawns of"
        " 'theta --trunc 1'" % (setup_s, statistics.median(setup),
                                len(setup)),
        "wall_s       %.4f s    scaled; raw %.4f s, medians of %d passes of"
        " %d jobs" % (wall_s, statistics.median(walls), len(walls),
                      len(jobs)),
    ]
    high = tail(walls)
    lines.append("wall_s tail  " + (
        "p%.0f %.4f s raw" % high if high else
        "n/a: needs 11 passes for ten beyond a percentile, had %d"
        % len(walls)))
    lines.append("peak_rss_mb  %.1f MB   median over %d passes of the largest"
                 " job max-RSS" % (statistics.median(
                     p["peak_rss_mb"] for p in passes), len(passes)))
    lines.append("error_rate   %.4f ratio  %d failed of %d jobs" % (
        failed / runner.attempted, failed, runner.attempted))
    for failure in runner.failures[:10]:
        lines.append("FAILED %s: %s" % (failure["job"], failure["problem"]))

    if args.trace:
        values = per_layer_metrics(untraced, traced)
        wanted = spec["per_layer"]
        lines.append("traced passes: %d, untraced passes: %d"
                     % (len(traced), len(untraced)))
    else:
        values = {"setup_s": setup_s, "wall_s": wall_s,
                  "peak_rss_mb": statistics.median(
                      p["peak_rss_mb"] for p in passes)}
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.stderr.write("perfbench: no value for %s\n" % ", ".join(missing))
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    if args.trace:
        for name, metric in metrics.items():
            lines.append("%-44s %14.6g %s" % (name, metric["value"],
                                              metric["unit"]))
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(WORK, "result-%s-%d-%d.json" % (
            args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"environment": env, "result": result, "setup": setup,
                   "yardstick": yardstick,
                   "passes": untraced, "traced_passes": traced,
                   "failures": runner.failures}, fh, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("leech", "series", "catalog"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="record reference outputs from seed 0")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    os.makedirs(WORK, exist_ok=True)
    # inputs, outputs and spans of this run, apart from any other run's
    directory = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if args.record:
            return record_reference(directory)
        return measure(args, directory)
    finally:
        shutil.rmtree(directory)


if __name__ == "__main__":
    sys.exit(main())
