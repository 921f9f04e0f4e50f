#!/usr/bin/env python3
"""Closed-loop benchmark of the ``mereo`` command line.

One client drives ``mereo.cli.main(argv)`` in this process: each op is one
CLI command and the next op starts when the previous one returns.  Inputs
(amplitude JSON files for ``--gamma`` and every ``--seed``) are generated
from ``--seed``; every report is checked against facts derived here from
those inputs, and the first op is replayed to check that its ``results``
repeat bit for bit.  Ops run in whole cycles of the workload's op mix until
``--seconds`` have elapsed.

    python3 perfbench/run.py --workload certify-scale --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: ``ops_per_s`` (median over
cycles of ops per busy second), ``op_p50_s``, ``op_tail_s`` (the op time
with ten ops beyond it), ``peak_rss_mb`` of this process, and ``setup_s``
(median over fresh interpreters that import ``mereo.cli`` and build its
parser).  Times are scaled to nominal host speed, see ``reference_s``; the
wall-clock values are printed beside them, as is ``fail_ratio``.

``--trace 1`` runs a fixed number of cycles untraced and then twice with
per-layer spans (``perfbench/spans.py``), requires the two traced passes to
agree on every exact count, and prints the per-layer metrics: self times
in wall seconds, ``trace.overhead_s`` at nominal host speed.  The last line of stdout is the JSON result.  Run from the root of
a mereo source tree.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: with two threads OpenBLAS
# sporadically takes 100x longer on small matmuls on a 2-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import ctypes
import glob
import io
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from spans import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 11
TAIL_OPS = 10  # ops that must lie beyond the reported tail percentile
SEARCH_FLOOR = 0.01  # the acceptance gate's bound on the restricted minimum
# Host speed drifts by up to 1.8x over tens of seconds on shared machines, and
# CPU time drifts with it.  Every timing is therefore scaled by a reference
# kernel timed just before it, to the speed at which that kernel takes
# NOMINAL_REFERENCE_S (an idle 2-vCPU Intel Xeon VM).
REFERENCE = np.random.default_rng(0).standard_normal((128, 128)) * (1 + 1j)
NOMINAL_REFERENCE_S = 0.0025
REFERENCE_WINDOW = 5  # ops whose reference timings are pooled, against timing jitter
UNITS = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Op(NamedTuple):
    argv: list
    check: Callable[[dict], list]  # report -> problems found


# --------------------------------------------------------------- inputs


def amplitude(rng, d_a, d_b, rank):
    """Unit-norm complex amplitude of the given rank."""
    def ginibre(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    m = ginibre(d_a, d_b) if rank == min(d_a, d_b) else ginibre(d_a, rank) @ ginibre(rank, d_b)
    return m / np.linalg.norm(m)


def write_gamma(path, m):
    path.write_text(json.dumps({
        "rows": m.shape[0], "cols": m.shape[1],
        "re": m.real.ravel().tolist(), "im": m.imag.ravel().tolist(),
    }))
    return str(path)


def expected_holistic(rank, d_a, d_b):
    """Certifier verdict by convention: holistic iff no co-occurring witness."""
    return {
        "atleastone": not (rank < d_a or rank < d_b),
        "both": not (rank < d_a and rank < d_b),
    }


def tolerances(report):
    return report["config_echo"]["tolerances"]


# ------------------------------------------------------------ workloads


def certify_cycle(rng, files):
    """30 ops: d=8 x8, 16 x12, 24 x8, 32 x2; half at rank d/2; conventions alternate.

    The weights put the median op among the d=16 ops and the tail inside the
    d=24 ones, away from the jumps between sizes; each half cycle holds one
    d=32 op, so every size is sampled throughout the run.
    """
    mix = [(32, 16), (24, 24), (16, 8), (8, 4), (24, 12), (16, 16), (8, 8), (24, 24),
           (16, 8), (16, 16), (24, 12), (8, 8), (16, 8), (16, 16), (8, 4),
           (32, 32), (24, 12), (16, 16), (8, 8), (24, 24), (16, 8), (8, 4), (24, 12),
           (16, 16), (16, 8), (24, 24), (8, 4), (16, 16), (16, 8), (8, 8)]
    ops = []
    for i, (d, rank) in enumerate(mix):
        m = amplitude(rng, d, d, rank)
        convention = ("atleastone", "bothreport")[i % 2]
        ops.append(Op(["certify", "--gamma", write_gamma(files(".json"), m), "--convention", convention],
                      lambda rep, m=m, convention=convention: check_certify(rep, m, convention)))
    return ops


def check_certify(report, m, convention):
    tols = tolerances(report)
    res = report["results"]
    s = np.linalg.svd(m, compute_uv=False)
    rank = int(np.sum(s > tols["tol_rank"]))
    expected = expected_holistic(rank, *m.shape)
    wanted = ["atleastone", "both"] if convention == "bothreport" else [convention]
    problems = []
    if sorted(res["verdicts"]) != sorted(wanted):
        problems.append(f"verdicts {sorted(res['verdicts'])} for --convention {convention}")
    for name, verdict in res["verdicts"].items():
        if verdict["rank"] != rank:
            problems.append(f"{name}: rank {verdict['rank']}, SVD gives {rank}")
        if verdict["holistic"] != expected[name]:
            problems.append(f"{name}: holistic={verdict['holistic']}, expected {expected[name]}")
        if (verdict["lambda1_witness"] is None) != expected[name]:
            problems.append(f"{name}: co-occurring witness present={verdict['lambda1_witness'] is not None}")
        if verdict["lambda0_witness"] is None:
            problems.append(f"{name}: no exclusive witness")
        for key in ("lambda1_witness", "lambda0_witness"):
            w = verdict[key]
            if w is not None and not w["replay_commutator_norm"] <= tols["tol_compat"]:
                problems.append(f"{name}: {key} replays to {w['replay_commutator_norm']!r}")
    return problems


def search_cycle(rng, files):
    """7 ops: full-rank d=6, 3, 6, 4, 6, then bell2 with the grid oracle, then d=6.

    Four d=6 ops per cycle keep the median and the tail inside the slowest
    size, away from the mix of the three faster ops.
    """
    ops = []
    for d in (6, 3, 6, 4, 6, 2, 6):
        if d == 2:
            m = np.eye(2) / np.sqrt(2.0)
            argv = ["search", "--preset", "bell2", "--oracle"]
        else:
            m = amplitude(rng, d, d, d)
            argv = ["search", "--gamma", write_gamma(files(".json"), m)]
        argv += ["--exclude-exclusive", "--restarts", "32", "--seed", str(int(rng.integers(2**31)))]
        ops.append(Op(argv, lambda rep, m=m: check_search(rep, m)))
    return ops


def check_search(report, m):
    """Full-rank inputs are holistic, so the restricted minimum stays off zero."""
    res = report["results"]
    restarts = report["config_echo"]["restarts"]
    s_max = float(np.linalg.svd(m, compute_uv=False)[0])
    problems = []
    if res["dims"] != list(m.shape):
        problems.append(f"dims {res['dims']}")
    if not res["min_value"] >= SEARCH_FLOOR:
        problems.append(f"restricted minimum {res['min_value']!r} < {SEARCH_FLOOR}")
    # a rank-(1,1) pair overlaps the amplitude by at most its top singular value
    if not 0.0 <= res["cooccurrence_weight"] <= s_max + 1e-9:
        problems.append(f"co-occurrence weight {res['cooccurrence_weight']!r} outside [0, {s_max!r}]")
    if not restarts <= res["iterations_used"] <= restarts * 500:
        problems.append(f"iterations_used {res['iterations_used']} for {restarts} restarts")
    oracle = res["grid_oracle"]
    if (oracle is not None) != report["config_echo"]["oracle"]:
        problems.append("grid oracle presence does not match --oracle")
    elif oracle is not None and not oracle["min_value"] >= SEARCH_FLOOR:
        problems.append(f"grid minimum {oracle['min_value']!r} < {SEARCH_FLOOR}")
    return problems


def density_cycle(rng, files):
    """6 ops: 2x2, 2x3, 3x3 at 300 samples, twice each; every other op writes --csv."""
    ops = []
    for i, dims in enumerate(((2, 2), (2, 3), (3, 3)) * 2):
        argv = ["density", "--dims", *map(str, dims), "--samples", "300",
                "--seed", str(int(rng.integers(2**31)))]
        path = str(files(".csv")) if i % 2 == 0 else None
        if path:
            argv += ["--csv", path]
        ops.append(Op(argv, lambda rep, dims=dims, path=path: check_density(rep, dims, 300, path)))
    return ops


def check_density(report, dims, samples, csv_path):
    """Generic draws have full rank, so every sample gets the same verdict."""
    res = report["results"]
    expected = expected_holistic(min(dims), *dims)
    problems = []
    if res["samples"] != samples or res["dims"] != list(dims):
        problems.append(f"scanned {res['samples']} samples at {res['dims']}")
    for name in ("atleastone", "both"):
        if res[f"fraction_{name}"] != float(expected[name]):
            problems.append(f"fraction_{name} = {res[f'fraction_{name}']!r}, expected {float(expected[name])}")
    if sum(res["histogram"]["counts"]) != samples:
        problems.append("histogram does not count every sample")
    if csv_path is not None:
        with open(csv_path, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        want = ["true" if expected[n] else "false" for n in ("atleastone", "both")]
        if len(rows) != samples or any(row[2:] != want for row in rows):
            problems.append("CSV rows disagree with the expected verdicts")
    return problems


def lattice_cycle(rng, files):
    """3 ops: lattice --k d^2 at d = 5, 6, 7."""
    ops = []
    for d in (5, 6, 7):
        m = amplitude(rng, d, d, d)
        ops.append(Op(["lattice", "--gamma", write_gamma(files(".json"), m), "--k", str(d * d),
                       "--seed", str(int(rng.integers(2**31)))],
                      lambda rep, k=d * d: check_lattice(rep, k)))
    return ops


def check_lattice(report, k):
    """k = d^2 HS-orthonormal members: mutually exclusive and complete."""
    tols = tolerances(report)
    res = report["results"]
    comm = np.array(res["pairwise_commutator_norms"])
    prod = np.array(res["pairwise_product_norms"])
    problems = []
    if len(res["members"]) != k or comm.shape != (k, k) or prod.shape != (k, k):
        problems.append(f"{len(res['members'])} members, tables {comm.shape} {prod.shape}")
        return problems
    if not res["completeness_deviation"] <= tols["tol_recon"]:
        problems.append(f"completeness_deviation {res['completeness_deviation']!r}")
    if not comm.max() <= tols["tol_compat"]:
        problems.append(f"members fail to commute: {comm.max()!r}")
    if not (prod - np.diag(np.diag(prod))).max() <= tols["tol_compat"]:
        problems.append("members are not mutually exclusive")
    return problems


WORKLOADS = {  # name -> (cycle builder, cycles in a traced run)
    "certify-scale": (certify_cycle, 1),
    "search-crosscheck": (search_cycle, 2),
    "density-scan": (density_cycle, 3),
    "lattice-report": (lattice_cycle, 3),
}


# --------------------------------------------------------------- driver


def reference_s():
    """Best of three timings of a fixed numpy kernel, the yardstick of host speed.

    It mixes many tiny LAPACK calls, some at d=24 and a 128x128 complex
    matmul, as the workloads do.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(10):
            np.linalg.eigvalsh(REFERENCE[:24, :24] @ REFERENCE[:24, :24].conj().T)
            np.linalg.svd(REFERENCE[:24, :24], compute_uv=False)
        for _ in range(60):
            u, s, vh = np.linalg.svd(REFERENCE[:2, :3])
            np.linalg.norm(REFERENCE[:2, :3] - (u * s) @ vh[:2])
        REFERENCE @ REFERENCE
        REFERENCE @ REFERENCE
        best = min(best, time.perf_counter() - start)
    return best


class Client:
    """The closed-loop client: runs ops one after another and checks them."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.times = []  # wall seconds per op
        self.scaled = []  # the same at nominal host speed
        self.references = []  # reference kernel time before each op
        self.attempted = 0
        self.failures = []

    def run(self, op):
        """Run one op; returns its parsed report, or None when it failed."""
        out, err = io.StringIO(), io.StringIO()
        self.references.append(reference_s())
        scale = NOMINAL_REFERENCE_S / statistics.median(self.references[-REFERENCE_WINDOW:])
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(op.argv)
        except (Exception, SystemExit):
            code = f"raised: {traceback.format_exc(limit=3)}"
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        self.scaled.append(elapsed * scale)
        self.attempted += 1
        if code != 0:
            return self.fail(op, f"exit {code}: {err.getvalue().strip()}")
        try:
            report = json.loads(out.getvalue())
            problems = op.check(report)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return self.fail(op, f"malformed report: {exc!r}")
        if problems:
            return self.fail(op, "; ".join(problems))
        if self.tracer is not None and report["command"] == "search":
            self.tracer.work["search.iterations"] += report["results"]["iterations_used"]
        return report

    def fail(self, op, why):
        self.failures.append(f"{' '.join(op.argv)}: {why}")
        return None


def tail(times):
    """Time at the highest percentile with TAIL_OPS ops beyond it."""
    return sorted(times)[-TAIL_OPS - 1]


def measure_setup():
    """Median time, wall and scaled, of a fresh interpreter importing mereo.cli and building its parser."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); from mereo.cli import build_parser; build_parser()"
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        scale = NOMINAL_REFERENCE_S / reference_s()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)
        times.append(time.perf_counter() - start)
        scaled.append(times[-1] * scale)
    return statistics.median(times), statistics.median(scaled)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(path), symbol, None)
            if getter is not None:
                threads = getter()
                break
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}", "blas_threads": threads,
        "nproc": os.cpu_count(), "cpu": cpu,
    }


def run_measured(cli, build, rng, files, seconds):
    """Whole cycles until `seconds` have passed, then a replay of the first op.

    Returns the client and the number of ops in each cycle.
    """
    client = Client(cli)
    cycles = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or sum(cycles) <= TAIL_OPS:
        cycle = build(rng, files)
        for op in cycle:
            report = client.run(op)
            if not cycles and op is cycle[0]:
                first_op, first = op, report
        cycles.append(len(cycle))
    # replay contract: the same argv reproduces `results` bit for bit
    again = client.run(first_op)
    if first is not None and again is not None and first["results"] != again["results"]:
        client.fail(first_op, "replayed results differ")
    return client, cycles


def end_to_end(times, cycles):
    """Median cycle throughput, median op time and tail op time of one run."""
    rates, start = [], 0
    for n in cycles:
        rates.append(n / sum(times[start:start + n]))
        start += n
    return {"ops_per_s": statistics.median(rates), "op_p50_s": statistics.median(times[:start]),
            "op_tail_s": tail(times[:start])}


def run_traced(cli, build, rng, files, cycles):
    """Fixed ops untraced, then twice traced; the traced passes must agree on exact counts."""
    ops = [op for _ in range(cycles) for op in build(rng, files)]
    client = Client(cli)
    for op in ops:
        client.run(op)
    untraced_s = sum(client.scaled)
    passes = []
    for _ in range(2):
        client.tracer = tracer = Tracer()
        start = len(client.times)
        tracer.install()
        try:
            for op in ops:
                client.run(op)
        finally:
            tracer.uninstall()
        passes.append((tracer, sum(client.scaled[start:])))
    (first, traced_s), (second, _) = passes
    if first.exact_counts() != second.exact_counts():
        client.failures.append(f"exact counts differ between traced passes: "
                               f"{first.exact_counts()} vs {second.exact_counts()}")
    return client, first.metrics(traced_s - untraced_s)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mereo" / "cli.py").is_file():
        sys.exit(f"perfbench: no mereo sources at {SRC}")
    sys.path.insert(0, str(SRC))
    from mereo import cli

    if Path(cli.__file__).resolve().parent != SRC / "mereo":
        sys.exit(f"perfbench: imported mereo from {cli.__file__}, not {SRC}")

    build, trace_cycles = WORKLOADS[args.workload]
    rng = np.random.default_rng([args.seed, list(WORKLOADS).index(args.workload)])
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=WORK))
    names = itertools.count()

    def files(suffix):
        return scratch / f"{next(names)}{suffix}"

    try:
        if args.trace:
            client, metrics = run_traced(cli, build, rng, files, trace_cycles)
        else:
            setup_wall, setup_s = measure_setup()
            client, cycles = run_measured(cli, build, rng, files, args.seconds)
            wall = end_to_end(client.times, cycles) | {"setup_s": setup_wall}
            metrics = end_to_end(client.scaled, cycles) | {
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": setup_s,
            }
            metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = len(client.failures)
    for line in client.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "clients": 1,
                      "env": environment()}))
    if not args.trace:
        ops = sum(cycles)
        print(f"ops {ops} in {len(cycles)} cycles; op_tail_s is p{100 * (ops - TAIL_OPS) / ops:.1f}"
              f" with {TAIL_OPS} ops beyond it")
        print(f"fail_ratio {failed / client.attempted} ({failed}/{client.attempted})")
        for name, value in wall.items():
            print(f"wall {name} {value!r} {UNITS[name]}")
    for name, metric in metrics.items():
        target = f"  -> {PER_LAYER[name][1]}" if args.trace else ""
        print(f"{name} {metric['value']!r} {metric['unit']}{target}")
    print(json.dumps({"correct": failed == 0, "attempted": client.attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
