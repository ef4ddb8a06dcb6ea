"""Benchmark of the toricjac command line, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload saturation --seed 1 --seconds 40 --trace 0

One operation is one in-process ``toricjac.cli.main(argv)`` call with
stdout and stderr captured; every call builds its own JacobianSystem, so
per-operation caches start cold as they do for a command-line user.  The
load is a closed loop with one client.  Passes over the workload's
operations repeat until the next pass would end after ``--seconds``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics of the traced passes.  Earlier lines are a readable
summary.  Each run also writes its samples (and, when traced, its spans)
under perfbench/results/.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 21
DIGESTS = HERE / "digests.json"
DIGEST_SEED = 1
RESULTS = HERE / "results"

IMPORT_PROBE = ("import time; t = time.perf_counter(); import toricjac.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true",
                        help="store this run's output digests as the reference")
    return parser.parse_args(argv)


def import_seconds():
    """Seconds of one import of toricjac.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout)


def run_op(cli, argv):
    """(exit code, stdout, stderr, start, seconds) of one main(argv) call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), start, seconds


class Runner:
    """Runs passes, checks every output, and keeps the samples."""

    def __init__(self, cli, ops, reference):
        self.cli = cli
        self.ops = ops
        self.reference = reference   # op key -> stored digest, or {}
        self.seen = {}               # op key -> digest of its first output
        self.failures = []
        self.attempted = 0
        self.timed = []              # (op index, start, seconds) of each success

    def run_pass(self, tracer=None):
        """Seconds of each successful op of one pass over the workload."""
        times = []
        for i, (key, argv, check) in enumerate(self.ops):
            gc.collect()
            self.attempted += 1
            if tracer is not None:
                tracer.op = self.attempted
            try:
                code, out, err, start, seconds = run_op(self.cli, argv)
                self._check(key, code, out, err, check)
            except Exception as e:  # an op that fails is counted, not fatal
                self.failures.append(f"{key[:60]}: {type(e).__name__}: {e}")
                continue
            times.append(seconds)
            self.timed.append((i, start, seconds))
        return times

    def _check(self, key, code, out, err, check):
        if code != 0:
            raise workloads.CheckFailed(f"exit code {code}")
        if err:
            raise workloads.CheckFailed(f"stderr: {err.strip()[:200]}")
        check(out)
        d = workloads.digest(out)
        first = self.seen.setdefault(key, d)
        if d != first:
            raise workloads.CheckFailed("output differs from an earlier repeat")
        want = self.reference.get(key)
        if want is not None and want != d:
            raise workloads.CheckFailed("output differs from the stored digest")


def keep_going(started, seconds, pass_times):
    """Start another pass only if it is expected to end within the run."""
    if not pass_times:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + statistics.mean(pass_times) <= seconds


def rate(times):
    """Operations per second of busy time."""
    return len(times) / sum(times) if times else 0.0


def calibrated_pass(runner, probe):
    """Sum over the pass's ops of each one's median calibrated seconds.

    Summing over the pass weighs every kind of operation as a user running
    the whole workload sees it.
    """
    repeats = {}
    for i, start, seconds in runner.timed:
        repeats.setdefault(i, []).append(probe.calibrate(start, seconds))
    # An op that never succeeded has no time; the run is failed then.
    return sum(statistics.median(v) for v in repeats.values()), repeats


def end_to_end(runner, seconds):
    """Untraced passes, with the import probes spread evenly over the run.

    The passes run under a host-speed probe (see hostspeed.py) that the
    import probes stay out of.  The host's speed drifts over seconds, so
    import probes taken in one burst share one state of the host; spread
    out, their median follows the run.
    """
    times, pass_times, setup = [], [], []
    probe = hostspeed.Probe()
    started = time.perf_counter()
    while keep_going(started, seconds, pass_times):
        share = (time.perf_counter() - started) / seconds
        due = min(SETUP_REPEATS, 1 + int((SETUP_REPEATS - 1) * share))
        while len(setup) < due:
            setup.append(import_seconds())
        t0 = time.perf_counter()
        with probe:
            times += runner.run_pass()
        pass_times.append(time.perf_counter() - t0)
    while len(setup) < SETUP_REPEATS:
        setup.append(import_seconds())
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_s, calibrated = calibrated_pass(runner, probe)
    metrics = {
        "pass_s.calibrated": (pass_s, "s"),
        "peak_rss_mb": (peak, "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    extra = {
        "pass_seconds": pass_times,
        "calibrated_seconds": [calibrated.get(i, []) for i in range(len(runner.ops))],
        "probe_seconds": [d for _, d in probe.samples],
        "setup_seconds": setup,
    }
    return metrics, times, extra


def per_layer(runner, seconds):
    """Alternate untraced and traced passes; layer metrics of the traced ones."""
    tracer = spans.Tracer()
    plain, traced, pass_times = [], [], []
    started = time.perf_counter()
    while keep_going(started, seconds, pass_times):
        t0 = time.perf_counter()
        plain += runner.run_pass()
        spans.install(tracer)
        try:
            traced += runner.run_pass(tracer)
        finally:
            tracer.unpatch()
        pass_times.append(time.perf_counter() - t0)
    metrics = layer_metrics(tracer, max(len(traced), 1), sum(traced) or 1.0)
    metrics["trace.ops_per_s"] = (rate(traced), "1/s")
    metrics["trace.overhead_ratio"] = (
        rate(plain) / rate(traced) if traced else 0.0, "ratio")
    return metrics, traced, tracer


LAYER_CALLS = ("linalg.rref", "linalg.reduce_vector", "jacobian.j0_piece",
               "jacobian.j1_piece", "groebner.is_unit_ideal",
               "groebner.s_polynomial", "groebner.reduce_poly",
               "cox.monomial_basis")
LAYER_SELF = ("linalg.rref", "linalg.kernel", "linalg.reduce_vector",
              "linalg.rank", "jacobian.j0_piece", "jacobian.j1_piece",
              "jacobian.nondegenerate_decide", "jacobian.saturation_certificate",
              "jacobian.multiplication_matrix", "groebner.is_unit_ideal",
              "groebner.reduce_poly", "criterion.evaluate",
              "criterion.find_rank_g_deformation", "cox.monomial_basis",
              "divisors.polytope", "cli.main")
# rank and kernel do their work in rref, so their self time is near 0.
LAYER_TOTAL = ("linalg.kernel", "linalg.rank", "groebner.is_unit_ideal",
               "jacobian.j1_piece")
MODULES = ("cli", "criterion", "jacobian", "linalg", "groebner", "cox", "divisors")


def layer_metrics(tracer, ops, op_seconds):
    """Per-operation calls and seconds of each layer, from the traced spans."""
    calls, self_s, total_s = spans.layer_totals(tracer.spans)
    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = (calls[name] / ops, "calls/op")
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = (self_s[name] / ops, "s/op")
    for name in LAYER_TOTAL:
        out[f"{name}.total_s"] = (total_s[name] / ops, "s/op")
    out["linalg.rref.cells"] = (tracer.cells["linalg.rref"] / ops, "cells/op")
    out["linalg.rref.max_out_bits"] = (tracer.max_bits["linalg.rref"], "bits")
    hits, lookups = spans.cache_hits(tracer.spans)
    out["jacobian.piece_cache.hit_ratio"] = (hits / lookups if lookups else 0.0,
                                             "ratio")
    shares = dict.fromkeys(MODULES, 0.0)
    for name, seconds in self_s.items():
        module = name.split(".")[0]
        if module in shares:
            shares[module] += seconds
    for module, seconds in shares.items():
        out[f"share.{module}"] = (seconds / op_seconds, "ratio")
    return out


def src_lines():
    return sum(1 for path in sorted(SRC.rglob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def run_metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }


def load_reference(args):
    """Stored output digests this run must reproduce, by op key.

    A class-keyed workload's digests hold at every seed; the others hold
    only at the seed they were written with.
    """
    if args.write_digests or not DIGESTS.exists():
        return {}
    if args.seed != DIGEST_SEED and args.workload not in workloads.CLASS_KEYED:
        return {}
    return json.loads(DIGESTS.read_text()).get(args.workload, {})


def save_reference(args, runner):
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    stored[args.workload] = dict(sorted(runner.seen.items()))
    DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    args = parse_args(argv)
    readme = ROOT / "README.md"
    if not (SRC / "toricjac" / "cli.py").is_file() or not readme.is_file():
        print(f"error: {ROOT} holds no toricjac sources and README.md",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from toricjac import cli
    if Path(cli.__file__).resolve().parent != SRC / "toricjac":
        print(f"error: imported toricjac from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)  # README examples name repo-relative files
    ops = workloads.build_passes(args.workload, args.seed, readme.read_text())
    if not ops:
        print(f"error: README.md gives workload {args.workload} no examples",
              file=sys.stderr)
        return 2
    runner = Runner(cli, ops, load_reference(args))
    if args.trace:
        metrics, times, tracer = per_layer(runner, args.seconds)
        extra = {}
    else:
        metrics, times, extra = end_to_end(runner, args.seconds)
        tracer = None
    if args.write_digests and not runner.failures:
        save_reference(args, runner)

    meta = run_metadata(args)
    failed = len(runner.failures)
    summary = {
        "meta": meta,
        "ops": len(times),
        "ops_per_s": rate(times),
        "attempted": runner.attempted,
        "failed": failed,
        "failed_ratio": failed / runner.attempted,
        "failures": runner.failures,
        "op_seconds": times,
        **extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if tracer is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span.to_list()) + "\n")

    print(f"# {json.dumps(meta)}")
    for line in runner.failures:
        print(f"# FAILED {line}")
    print(f"# failed_ratio {failed}/{runner.attempted} = {failed / runner.attempted}"
          f"; {len(times)} operations, {rate(times):.6g} per second of busy time"
          + (f"; {len(extra['pass_seconds'])} passes of {len(ops)}, "
             f"host-speed probe median {statistics.median(extra['probe_seconds']):.6g} s"
             if extra else ""))
    for name, (value, unit) in metrics.items():
        print(f"# {name:45s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
