"""Benchmark of the ``bellnoise`` command line, end to end and per module.

    python3 bench/run.py --workload mc-sampling --seed 0 --seconds 20 --trace 0
    python3 bench/run.py      # every workload, untraced then traced

A run calls ``bellnoise.cli.main(argv)`` in-process, one op at a time (a
closed loop with one client).  It runs whole cycles of the workload until the
ops have taken at least ``--seconds`` (calibrated, see below) and at least
MIN_OPS ops have run, so every run has the same mix of ops, and it checks
every output against the
references in ``checks.py``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the package's functions and reports per-module metrics
instead.  The last line of standard output is one JSON object; a fuller
record of the run, with provenance, sample counts and raw wall times, goes
to ``bench/out/``.

Timings are calibrated.  On a shared host the machine's speed drifts by tens
of percent over tens of seconds, and the drift slows the program and any
other code alike.  So right after each timed op the benchmark times
``calibrate()``, a fixed task that shares no code with the program, and
reports the op's time scaled by ``CAL_REF_S / calibration``: seconds at the
machine speed where the calibration takes ``CAL_REF_S``.  Set-up samples are
scaled the same way by a bare interpreter start timed right after each, which
tracks process start-up far better than ``calibrate()`` does.  A change to the
program moves the op and set-up times, not their calibrations.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks
import layers
import workloads
from spans import Tracer, installed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# The tail is the highest percentile with TAIL_BEYOND samples above it.
TAIL_BEYOND = 10
MIN_OPS = TAIL_BEYOND + 1
SETUP_RUNS = 15
# calibrate() and a bare `python3 -c pass` take about this long on a 2-core
# x86_64 VM with Python 3.11 and numpy 2.4
CAL_REF_S = 0.025
STARTUP_REF_S = 0.045

END_TO_END = [
    # name, unit, better, bound
    ("op_p50_s", "s", "lower", 0.25),
    ("op_tail_s", "s", "lower", 0.25),
    ("points_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """``(value, percentile)`` of the highest order statistic with ``beyond`` samples above it."""
    ordered = sorted(samples)
    k = len(ordered) - 1 - beyond
    if k < 0:
        raise ValueError(f"need more than {beyond} samples, got {len(ordered)}")
    return ordered[k], 100.0 * k / max(len(ordered) - 1, 1)


def calibrate():
    """Seconds for a fixed interpreter-and-numpy task that shares no code with the program."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(500):
        a = np.random.default_rng([7, i]).random((4, 4)) + 0j
        acc += float(np.abs(a - a.conj().T).max()) + sum(k * k for k in range(40))
    tensor = np.random.default_rng(1).random((2, 2, 2, 2)) + 0j
    batch = np.random.default_rng(2).random((8192, 2, 2, 2)) + 0j
    np.einsum("iajb,nkba->nkij", tensor, batch)
    return time.perf_counter() - start


def load_program():
    if not (SRC / "bellnoise" / "cli.py").is_file():
        sys.exit(f"bench: no bellnoise package under {SRC}")
    sys.path.insert(0, str(SRC))
    from bellnoise import cli, correlations, evolve, linalg, scenarios

    return cli, layers.targets(cli, scenarios, evolve, correlations, linalg)


def call(cli, argv, tracer=None):
    """Run one CLI call; return ``(seconds, error or None)``."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli") if tracer else nullcontext()
    start = time.perf_counter()
    try:
        with span, redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # a raising op is a failed op, not a failed benchmark
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, None if code == 0 else f"exit {code}: {err.getvalue().strip()}"


def check(op):
    """Reference check of one op's output; returns its squared MC negativity errors."""
    text = Path(op.output).read_text()
    if op.kind == "closed_form":
        checks.check_closed_form(text, op.scenario)
    elif op.kind == "mc":
        return checks.check_mc(text, op.scenario, op.samples)
    else:
        checks.check_compare(text)
    return []


def drive(cli, workload, seed, seconds, work, tracer):
    """Run whole cycles of ``workload`` until the ops took ``seconds`` of calibrated time.

    Counting calibrated time keeps the number of ops, and so the op mix
    behind each percentile, the same from run to run on a drifting host.
    Returns ``(op, seconds, calibration seconds)`` per op, the errors by op
    index, and the squared MC negativity errors.
    """
    done, errors, squares = [], {}, []
    measured = 0.0
    while len(done) < MIN_OPS or measured < seconds:
        for op in workloads.cycle(workload, len(done), seed, work):
            Path(op.output).parent.mkdir(parents=True, exist_ok=True)
            elapsed, error = call(cli, op.argv, tracer)
            cal = calibrate()
            measured += elapsed * CAL_REF_S / cal
            if error is None:
                try:
                    squares += check(op)
                except (OSError, ValueError, checks.CheckError) as exc:
                    error = f"check: {exc}"
            if error is not None:
                errors[len(done)] = f"{op.label}: {error}"
            done.append((op, elapsed, cal))
    return done, errors, squares


def check_determinism(cli, done, errors, work):
    """Rerun the first cycle's pooled ops with one worker; the CSV bytes must match.

    Returns the calibrated one-worker time over the calibrated pooled time, or
    0 without pooled ops.
    """
    single = pooled = 0.0
    seen = set()
    for index, (op, elapsed, cal) in enumerate(done):
        if op.workers < 2 or op.label in seen or index in errors:
            continue
        seen.add(op.label)
        reference = f"{work}/reference{index:03d}.csv"
        argv = list(op.argv)
        argv[argv.index("--workers") + 1] = "1"
        argv[argv.index("--out") + 1] = reference
        ref_elapsed, error = call(cli, argv)
        if error is None and Path(reference).read_bytes() != Path(op.output).read_bytes():
            error = "CSV bytes differ between --workers 1 and --workers " + str(op.workers)
        if error is not None:
            errors[index] = f"{op.label}: determinism: {error}"
            continue
        single += ref_elapsed / calibrate()
        pooled += elapsed / cal
    return single / pooled if pooled else 0.0


def peak_rss_mb(workers):
    """Parent high-water RSS plus the largest pool worker's, once per pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def setup_times(runs=SETUP_RUNS):
    """Seconds for a fresh interpreter to import ``bellnoise.cli``, and for a bare one to start.

    One untimed import first compiles the bytecode and fills the page cache.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))

    def seconds(code):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, cwd=ROOT)
        return time.perf_counter() - start

    seconds("import bellnoise.cli")
    return [(seconds("import bellnoise.cli"), seconds("pass")) for _ in range(runs)]


def git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def provenance(workload, seed, seconds, trace):
    import bellnoise

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "bellnoise": bellnoise.__version__,
        "git_revision": git_revision(),
        "machine": platform.machine(),
    }


def end_to_end(done, setup, rss):
    """``{name: (calibrated value, raw wall-time value, samples)}``."""
    times = [elapsed for _, elapsed, _ in done]
    scaled = [elapsed * CAL_REF_S / cal for _, elapsed, cal in done]
    speed = CAL_REF_S / statistics.mean(cal for _, _, cal in done)
    points = sum(op.points for op, _, _ in done)
    return {
        "op_p50_s": (statistics.median(scaled), statistics.median(times), len(times)),
        "op_tail_s": (tail_percentile(scaled)[0], tail_percentile(times)[0], len(times)),
        "points_per_s": (points / (sum(times) * speed), points / sum(times), len(times)),
        "peak_rss_mb": (rss, rss, 1),
        "setup_s": (statistics.median(t * STARTUP_REF_S / bare for t, bare in setup),
                    statistics.median(t for t, _ in setup), len(setup)),
    }


def run(workload, seed, seconds, trace):
    cli, targets = load_program()
    work = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    call(cli, ["simulate", "--noise", "rtn", "--gamma", "1", "--points", "3",
               "--out", str(work / "warmup.csv")])

    tracer = Tracer() if trace else None
    with installed(tracer, targets) if trace else nullcontext():
        done, errors, squares = drive(cli, workload, seed, seconds, work, tracer)
        if tracer:
            tracer.enabled = False
        pool_speedup = check_determinism(cli, done, errors, work)
    pool = max(op.workers for op, _, _ in done)
    rss = peak_rss_mb(pool if pool > 1 else 0)
    setup = setup_times()
    e2e = end_to_end(done, setup, rss)

    units = {name: unit for name, unit, _, _ in END_TO_END}
    record = {
        "provenance": provenance(workload, seed, seconds, trace),
        "ops": len(done),
        "ops_s": sum(elapsed for _, elapsed, _ in done),
        "op_tail_percentile": tail_percentile([elapsed for _, elapsed, _ in done])[1],
        "op_times": [[op.label, elapsed, cal] for op, elapsed, cal in done],
        "calibration_ref_s": CAL_REF_S,
        "startup_ref_s": STARTUP_REF_S,
        "setup_times": setup,
        "errors": errors,
        "end_to_end": {name: {"value": value, "wall_value": wall, "unit": units[name],
                              "samples": n} for name, (value, wall, n) in e2e.items()},
    }
    if trace:
        summary = tracer.summary()
        extra = dict(tracer.counts, pool_speedup=pool_speedup)
        mc_s = sum(summary.get(span, (0, 0.0))[1] for span in ("evolve.mc", "evolve.pool"))
        extra["mc_samples_per_s"] = extra.get("mc_samples", 0) / mc_s if mc_s else 0.0
        extra["mc_neg_rmse"] = (sum(squares) / len(squares)) ** 0.5 if squares else 0.0
        metrics = layers.layer_metrics(summary, extra)
        record["per_layer"] = metrics
        record["spans"] = {name: {"calls": calls, "busy_s": busy, "self_s": own}
                           for name, (calls, busy, own) in sorted(summary.items())}
        record["moves"] = {name: {"moves": moves, "workload": where}
                           for name, _, _, _, moves, where in layers.PER_LAYER}
    else:
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, (value, _, _) in e2e.items()}
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"# {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"# {record['ops']} ops in {record['ops_s']:.3f} s wall, "
          f"tail at p{record['op_tail_percentile']:.0f}")
    for name, entry in record["end_to_end"].items():
        print(f"{name:<16} {entry['value']:.6g} {entry['unit']} (n={entry['samples']}, "
              f"wall {entry['wall_value']:.6g})")
    if trace:
        for name, entry in metrics.items():
            print(f"{name:<34} {entry['value']:.6g} {entry['unit']}")
    for index, error in sorted(errors.items()):
        print(f"op {index} failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": len(done), "failed": len(errors),
                      "metrics": metrics}))


def run_all(seed, seconds):
    """Every workload untraced, then traced, each in its own process."""
    rows = []
    for workload in workloads.NAMES:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if done.returncode != 0:
                sys.exit(f"bench: {workload} trace={trace} exited {done.returncode}")
            result = json.loads(done.stdout.splitlines()[-1])
            record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
            rows.append((workload, trace, result, record))
            print(f"== {workload} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            print("\n".join(done.stdout.splitlines()[:-1]))
    for workload in workloads.NAMES:
        plain, traced = (record["end_to_end"]["op_p50_s"]["value"]
                         for w, _, _, record in rows if w == workload)
        print(f"{workload}: tracing overhead {traced / plain - 1:+.1%} on op_p50_s")
    summary = {f"{w}-trace{t}": {"result": result, "record": record}
               for w, t, result, record in rows}
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT / 'summary.json'}")
    sys.exit(0 if all(result["correct"] for _, _, result, _ in rows) else 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES,
                        help="one workload; without it, run every workload twice")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        run_all(args.seed, args.seconds)
    else:
        run(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
