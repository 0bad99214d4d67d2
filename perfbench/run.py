"""failcast benchmark: `failcast generate` then `failcast evaluate`, as users run them.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--size bench|full|tiny]

NAME is one of the workloads below, or ``all`` to run every workload untraced
and traced in turn.  Run it from anywhere; it builds nothing and uses the
failcast sources in ``src/`` next to this directory.

One run:
  1. set-up: ``generate`` writes each of the workload's datasets, all of one
     size, from seeds derived from --seed; ``setup_s`` is the median wall
     time of those processes;
  2. measurement: ``evaluate`` of each dataset in turn, each to its own
     --out-dir, until every dataset has a sample, the first dataset has been
     evaluated twice and about --seconds are used.  A time is the mean over
     datasets of each dataset's median.
     With --trace 1 the loop instead alternates a traced and an untraced
     process on the first dataset, and the metrics are the per-layer ones of
     perfbench/trace_run.py.

Every ``evaluate`` counts as attempted.  It fails when it exits non-zero,
misses a bundle file, has confusion counts that do not sum to a fold's
n_test, implies a stream of other than machines * (days * 24 - 24) rows, or
writes a bundle that differs in any byte from the dataset's first one.

Human-readable lines go to stdout first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_RUN = os.path.join(HERE, "trace_run.py")
WORK = os.path.join(ROOT, ".perfbench_work")

DATASET_SEED_STRIDE = 1000   # dataset j of a run is generated with seed + offset + 1000 j
HORIZON_HOURS = 24          # evaluate's default --horizon, which every workload keeps
BUNDLE_FILES = ("report.json", "summary.txt", "run_config.json",
                "weights_full.csv", "weights_reduced.csv",
                "weights_full.svg", "weights_reduced.svg",
                "confusion_full.svg", "confusion_reduced.svg")
DATA_FILES = ("telemetry.csv", "errors.csv", "maintenance.csv",
              "failures.csv", "machines.csv")


@dataclass(frozen=True)
class Workload:
    seed_offset: int        # generator seed = --seed + seed_offset
    flags: tuple            # evaluate flags; "{machines}" is filled in


# Why each workload is in the benchmark: BENCHMARK.json and README.md.
WORKLOADS = {
    "year-3fold": Workload(0, ()),
    "lomo-20": Workload(1, ("--folds", "{machines}")),
    "window-24h": Workload(2, ("--label-window", "--weight", "2")),
}

# (machines, days, datasets) per workload.  "full" is the ROADMAP reference
# scale: minutes per run and over 1 GB on year-3fold.  "bench" keeps each
# workload's layer mix at a few seconds per evaluate so that a run fits its
# time limit.  Newton line searches cost very different amounts on different
# inputs of the same size, so a bench run averages over several datasets to
# stay steady from one --seed to the next.  With 3 folds, 8 machines leave at
# least 5 in every training side: with 4, all of them share one age (and
# evaluate stops on a constant column) in about 1 fold in 8000.  "tiny"
# is for the smoke test.
SIZES = {
    "full": {"year-3fold": (100, 365, 1), "lomo-20": (20, 365, 1),
             "window-24h": (50, 365, 1)},
    "bench": {"year-3fold": (8, 365, 4), "lomo-20": (20, 60, 4),
              "window-24h": (8, 365, 3)},
    "tiny": {"year-3fold": (8, 45, 2), "lomo-20": (8, 45, 2),
             "window-24h": (8, 45, 2)},
}
# Wall-clock limit for one workload run, from start to result.
BUDGET_S = {"full": 3600.0, "bench": 170.0, "tiny": 170.0}

E2E_UNITS = {
    "evaluate_s": "s", "rows_per_s": "rows/s", "evaluate_cpu_s": "s",
    "peak_rss_mb": "MB", "setup_s": "s",
    "balanced_accuracy_full": "ratio", "balanced_accuracy_reduced": "ratio",
}

# Per-layer self times, from spans of the traced evaluate (of the traced
# generate for SETUP_LAYERS).
SETUP_LAYERS = ("synth.generate", "ingest.write_bundle")
LAYER_TIMES = ("synth.generate", "ingest.write_bundle", "ingest.load_bundle",
               "schema.validate_dataset", "assemble.build_event_stream",
               "assemble.raw_feature_matrix", "evaluate.make_folds",
               "logreg.fit", "report.dataset_digest", "report.write_bundle")
LAYER_COUNTS = ("ingest.records_in", "ingest.violations",
                "schema.validate_dataset_calls", "assemble.rows_out",
                "assemble.positive_rows", "assemble.raw_feature_matrix_calls",
                "evaluate.folds", "logreg.fits", "logreg.iterations",
                "logreg.objective_calls", "logreg.gradient_calls",
                "logreg.unconverged_fits")
LAYER_RSS = ("ingest.load_bundle", "assemble.build_event_stream",
             "evaluate.evaluate_cv")


class BenchError(Exception):
    """The benchmark cannot produce a result (missing sources, failed set-up)."""


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(argv, log_path, deadline):
    """Run one process to completion; wall, CPU and max RSS are its own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=log, stderr=log, env=env, cwd=ROOT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                os.kill, (child.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return Proc(child.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def digest_files(directory, names):
    """sha256 per file; a missing file maps to None."""
    out = {}
    for name in names:
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            out[name] = None
            continue
        with open(path, "rb") as handle:
            out[name] = hashlib.sha256(handle.read()).hexdigest()
    return out


def self_times(spans):
    """Self time per span name: duration minus the time child spans cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    totals = {}
    for i, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered[i]
    return totals


@dataclass
class Dataset:
    """One generated input set and the evaluate runs made on it."""

    seed: int
    data: str
    out: str
    reference: dict | None = None     # bundle digests of the first evaluate
    report: dict | None = None        # report.json of the first evaluate
    samples: list = field(default_factory=list)   # timed untraced Procs


class Bench:
    """One workload run: set-up, measurement and output checks."""

    def __init__(self, workload, seed, seconds, size):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.machines, self.days, count = SIZES[size][workload]
        self.seconds = seconds
        self.deadline = time.monotonic() + BUDGET_S[size]
        self.dir = os.path.join(WORK, f"{workload}-s{seed}-p{os.getpid()}")
        self.log = os.path.join(self.dir, "children.log")
        base = seed + self.workload.seed_offset
        self.datasets = [
            Dataset(base + DATASET_SEED_STRIDE * j,
                    os.path.join(self.dir, f"data-{j}"),
                    os.path.join(self.dir, f"report-{j}"))
            for j in range(count)]
        self.attempted = 0
        self.failed = 0
        self.problems = []

    @property
    def eval_flags(self):
        return [f.format(machines=self.machines) for f in self.workload.flags]

    @property
    def expected_rows(self):
        return self.machines * (self.days * 24 - HORIZON_HOURS)

    def spawn(self, traced, *args):
        """Run one failcast command; returns (Proc, spans payload or None)."""
        spans_path = os.path.join(self.dir, "spans.json")
        if traced:
            argv = [sys.executable, TRACE_RUN, spans_path, *args]
        else:
            argv = [sys.executable, "-m", "failcast", *args]
        proc = run_child(argv, self.log, self.deadline)
        spans = None
        if traced and os.path.isfile(spans_path):
            with open(spans_path) as handle:
                spans = json.load(handle)
            os.remove(spans_path)
        return proc, spans

    def last_log_line(self):
        with open(self.log, errors="replace") as handle:
            lines = [line.strip() for line in handle if line.strip()]
        return lines[-1] if lines else "no output"

    def setup(self, traced):
        """Generate every dataset once; returns the generate Procs and spans."""
        os.makedirs(self.dir, exist_ok=True)
        runs = []
        for ds in self.datasets:
            proc, spans = self.spawn(
                traced, "generate", "--out-dir", ds.data,
                "--machines", str(self.machines), "--days", str(self.days),
                "--seed", str(ds.seed))
            if proc.code != 0:
                raise BenchError(f"generate exited {proc.code}: {self.last_log_line()}")
            if None in digest_files(ds.data, DATA_FILES).values():
                raise BenchError(f"generate did not write all of {DATA_FILES}")
            runs.append((proc, spans))
        return runs

    def evaluate(self, ds, traced):
        """One checked evaluate of ``ds``; returns (Proc, spans or None)."""
        shutil.rmtree(ds.out, ignore_errors=True)
        proc, spans = self.spawn(traced, "evaluate", "--in-dir", ds.data,
                                 "--out-dir", ds.out, *self.eval_flags)
        self.attempted += 1
        problems = self.check_bundle(ds, proc)
        if traced:
            problems += self.check_trace(spans)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return proc, spans

    def check_bundle(self, ds, proc):
        if proc.code != 0:
            return [f"evaluate exited {proc.code}: {self.last_log_line()}"]
        digests = digest_files(ds.out, BUNDLE_FILES)
        missing = [name for name, d in digests.items() if d is None]
        if missing:
            return [f"bundle lacks {missing}"]
        with open(os.path.join(ds.out, "report.json")) as handle:
            report = json.load(handle)
        try:
            problems = self.check_report(report)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            problems = [f"report.json lacks the expected structure: {exc!r}"]
        if ds.reference is None:
            ds.reference, ds.report = digests, report
        elif digests != ds.reference:
            changed = [n for n in BUNDLE_FILES if digests[n] != ds.reference[n]]
            problems.append(f"rerun to the same --out-dir changed {changed}")
        return problems

    def check_report(self, report):
        problems = []
        for run_name, run in report["runs"].items():
            folds = run["folds"]
            for fold in folds:
                total = sum(sum(row) for row in fold["counts"])
                if total != fold["n_test"]:
                    problems.append(f"{run_name} fold {fold['fold_index']}: "
                                    f"counts sum {total} != n_test {fold['n_test']}")
            # Every machine is tested once, after the cutoff, and trained on
            # in k - 1 folds, before it: the two sides rebuild the stream.
            n_test = sum(f["n_test"] for f in folds)
            n_train = sum(f["n_train"] for f in folds)
            rows, rest = divmod(n_train, len(folds) - 1)
            if rest or n_test + rows != self.expected_rows:
                problems.append(f"{run_name}: stream of {n_test} + "
                                f"{n_train}/{len(folds) - 1} rows, expected "
                                f"{self.expected_rows}")
        return problems

    def check_trace(self, spans):
        if spans is None:
            return ["traced evaluate wrote no spans"]
        problems = []
        root = [s for s in spans["spans"] if s[3] is None]
        total_self = sum(self_times(spans["spans"]).values())
        if len(root) != 1 or abs(total_self - (root[0][2] - root[0][1])) > 1e-6:
            problems.append("span self times do not add up to the traced wall")
        if spans["counts"].get("assemble.rows_out") != self.expected_rows:
            problems.append(f"traced stream has {spans['counts'].get('assemble.rows_out')}"
                            f" rows, expected {self.expected_rows}")
        return problems

    def quality(self, ds):
        """Average normalized failure recall and true-negative rate per
        feature set, from the dataset's first report.json."""
        out = {}
        for run_name in ("full", "reduced"):
            avg = ds.report["runs"][run_name]["average_normalized"]
            out[f"recall_{run_name}"] = avg[1][1]
            out[f"tnr_{run_name}"] = avg[0][0]
        return out

    def end_to_end(self):
        """Evaluate the datasets in turn until each has a sample, the first
        has been rerun (for the byte check) and --seconds are used."""
        setups = [proc for proc, _ in self.setup(traced=False)]
        start = time.monotonic()
        for turn in itertools.count():
            ds = self.datasets[turn % len(self.datasets)]
            proc, _ = self.evaluate(ds, traced=False)
            if proc.code == 0:
                ds.samples.append(proc)
            if (turn >= len(self.datasets)
                    and time.monotonic() - start + proc.wall_s > self.seconds):
                break
        if any(not ds.samples or ds.report is None for ds in self.datasets):
            raise BenchError("a dataset has no passing evaluate: "
                             + "; ".join(self.problems))

        def mean_of_medians(attr):
            return statistics.fmean(
                statistics.median(getattr(p, attr) for p in ds.samples)
                for ds in self.datasets)

        evaluate_s = mean_of_medians("wall_s")
        values = {
            "evaluate_s": evaluate_s,
            "rows_per_s": self.expected_rows / evaluate_s,
            "evaluate_cpu_s": mean_of_medians("cpu_s"),
            "peak_rss_mb": mean_of_medians("rss_mb"),
            "setup_s": statistics.median(p.wall_s for p in setups),
        }
        for run_name in ("full", "reduced"):
            values[f"balanced_accuracy_{run_name}"] = statistics.fmean(
                (q[f"recall_{run_name}"] + q[f"tnr_{run_name}"]) / 2
                for q in map(self.quality, self.datasets))
        for ds in self.datasets:
            print(f"# seed {ds.seed}: evaluate wall "
                  + " ".join(f"{p.wall_s:.3f}" for p in ds.samples) + " s; "
                  + " ".join(f"{k} {v:.6f}" for k, v in self.quality(ds).items()))
        print("# generate wall " + " ".join(f"{p.wall_s:.3f}" for p in setups) + " s")
        return {k: (v, E2E_UNITS[k]) for k, v in values.items()}

    def per_layer(self):
        """Traced generate of every dataset; then (traced, untraced) evaluate
        pairs on the first dataset for --seconds."""
        gen_spans = [spans for _, spans in self.setup(traced=True)]
        ds = self.datasets[0]
        traced, untraced = [], []
        start = time.monotonic()
        while True:
            traced.append(self.evaluate(ds, traced=True))
            untraced.append(self.evaluate(ds, traced=False)[0])
            pair_s = traced[-1][0].wall_s + untraced[-1].wall_s
            if time.monotonic() - start + pair_s > self.seconds:
                break
        traced = [(proc, spans) for proc, spans in traced if proc.code == 0 and spans]
        evals = [spans for _, spans in traced]
        untraced = [p for p in untraced if p.code == 0]
        if not evals or not untraced or ds.report is None:
            raise BenchError("no passing traced and untraced evaluate pair: "
                             + "; ".join(self.problems))
        counts = evals[0]["counts"]
        if any(s["counts"] != counts for s in evals):
            self.failed += 1
            self.problems.append("traced counts differ between reruns")

        def median_self(runs, name):
            return statistics.median(self_times(s["spans"]).get(name, 0.0)
                                     for s in runs)

        values = {}
        for name in LAYER_TIMES:
            runs = gen_spans if name in SETUP_LAYERS else evals
            values[f"{name}_s"] = (median_self(runs, name), "s")
        values["evaluate.evaluate_cv_self_s"] = (median_self(evals, "evaluate.evaluate_cv"), "s")
        values["cli.other_s"] = (median_self(evals, "cli.main"), "s")
        for name in LAYER_COUNTS:
            values[name] = (counts.get(name, 0), "count")
        searches = counts.get("logreg.objective_calls", 0) - counts.get("logreg.fits", 0)
        values["logreg.step_accept_ratio"] = (
            counts.get("logreg.iterations", 0) / searches if searches else 0.0, "ratio")
        for name, value in self.quality(ds).items():
            values[f"evaluate.{name}"] = (value, "ratio")
        for name in LAYER_RSS:
            values[f"{name}_rss_mb"] = (
                statistics.median(s["rss_mb"][name] for s in evals), "MB")
        traced_wall = statistics.median(proc.wall_s for proc, _ in traced)
        values["trace.wall_s"] = (traced_wall, "s")
        values["trace.overhead_s"] = (
            traced_wall - statistics.median(p.wall_s for p in untraced), "s")
        print(f"# seed {ds.seed}: {len(traced)} traced and {len(untraced)} "
              "untraced evaluate runs")
        return values

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _blas():
    """BLAS name, version and thread count of the numpy failcast runs with."""
    import numpy
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                threads = int(getter())
                break
    return numpy.__version__, {"name": info.get("name"),
                               "version": info.get("version"),
                               "threads": threads}


def env_record(bench, size):
    src_digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "failcast", "*.py"))):
        with open(path, "rb") as handle:
            src_digest.update(handle.read())
    numpy_version, blas = _blas()
    return {
        "git_commit": _git_commit(),
        "src_sha256": src_digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas": blas,
        "workload": bench.name, "size": size,
        "machines": bench.machines, "days": bench.days,
        "generate_seeds": [ds.seed for ds in bench.datasets],
        "evaluate_flags": bench.eval_flags,
    }


def run_one(workload, seed, seconds, trace, size):
    """Returns (metrics, attempted, failed) for one workload run."""
    bench = Bench(workload, seed, seconds, size)
    try:
        print("env " + json.dumps(env_record(bench, size), sort_keys=True))
        metrics = bench.per_layer() if trace else bench.end_to_end()
    finally:
        bench.cleanup()
    for problem in bench.problems:
        print(f"# check failed: {problem}")
    print(f"# {workload}: failed_frac {bench.failed}/{bench.attempted} = "
          f"{bench.failed / bench.attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:12s} {name:36s} {value:14.6f} {unit}")
    return metrics, bench.attempted, bench.failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="bench")
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that the running child
    # is killed and reaped and the work directory is removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "failcast", "cli.py")):
        print(f"error: failcast sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    metrics, attempted, failed = {}, 0, 0
    try:
        for workload, trace in runs:
            values, a, f = run_one(workload, args.seed, args.seconds, trace, args.size)
            prefix = f"{workload}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in values.items()})
            attempted += a
            failed += f
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
