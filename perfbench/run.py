"""Benchmark runner for mwlab: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --smoke

Run from the root of a checkout. A job is one whole pass over the workload's
fixed list of operations. Passes repeat until S seconds have gone by; the
outputs of every pass are then checked. The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
--smoke runs one pass with every check and a single timed start.
"""

import argparse
import gc
import json
import os
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_STARTS = 5          # timed fresh starts per run, after one untimed start
START_TIMEOUT_S = 60
PROBLEMS_SHOWN = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one pass with every check")
    return p.parse_args(argv)


def fresh_start(tokens):
    """Seconds from launching a fresh interpreter to its set-up being ready."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), *tokens]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.wait(timeout=START_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    return ready


def measure_setup(tokens, starts):
    fresh_start(tokens)  # untimed: writes the bytecode caches
    return statistics.median(fresh_start(tokens) for _ in range(starts))


def run_pass(ops):
    """One job: every op in order. Returns (seconds in ops, outputs)."""
    busy, outputs = 0.0, []
    clock = time.perf_counter
    for op in ops:
        start = clock()
        result = op.run()
        busy += clock() - start
        outputs.append(op.collect(result))
    return busy, outputs


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "mwlab" / "__init__.py").is_file():
        print(f"error: no mwlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = 0.0 if args.smoke else (
        args.seconds if args.seconds is not None else bench["run_seconds"])

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        return run(args, bench, WORKLOADS[args.workload], workdir, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, bench, workload_cls, workdir, seconds):
    workload = workload_cls(ROOT, args.seed, workdir)
    tokens = workload.prepare()
    setup_s = None
    if not args.trace:
        setup_s = measure_setup(tokens, 1 if args.smoke else SETUP_STARTS)

    sys.path.insert(0, str(ROOT / "src"))
    import mwlab
    import mwlab.cli  # noqa: F401  loads every module before tracing
    if not Path(mwlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"mwlab imported from {mwlab.__file__}")
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    ops = workload.load(mwlab)

    if tracer:
        tracer.phase = "pass"
    # Outputs are kept as pickled bytes, which the garbage collector does not
    # walk: held as objects, they would make every later pass slower.
    job_times, first, differing = [], None, []
    start = time.perf_counter()
    while True:
        busy, outputs = run_pass(ops)
        job_times.append(busy)
        blob = pickle.dumps(outputs)
        del outputs
        if first is None:
            first = blob
        elif blob != first:
            differing.append(len(job_times))
        del blob
        gc.collect()  # every pass starts from the same collector state
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.phase = "check"

    problems, failed_ops = workload.check(mwlab, pickle.loads(first))
    problems += [f"pass {k} gave other outputs than pass 1" for k in differing]
    passes = len(job_times)

    if tracer:
        metrics = spans.layer_metrics(tracer, passes, bench["per_layer"])
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
                     {"workload": args.workload, "seed": args.seed,
                      "passes": passes})
    else:
        values = {"setup_s": setup_s,
                  "jobs_per_s": passes / elapsed,
                  "job_p50_s": statistics.median(job_times),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    result = {"correct": not problems,
              "attempted": passes * len(ops),
              "failed": passes * len(failed_ops),
              "metrics": metrics}

    for p in problems[:PROBLEMS_SHOWN]:
        print(f"problem: {p}", file=sys.stderr)
    if failed_ops:
        print(f"failed operations each pass: {', '.join(failed_ops)}",
              file=sys.stderr)
    times = ", ".join(f"{t:.4f}" for t in job_times)
    print(f"{args.workload} seed={args.seed}: {passes} passes of {len(ops)} "
          f"operations in {elapsed:.3f} s; job times [{times}]")
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")\
        .write_text(json.dumps({**result, "problems": problems,
                                "failed_operations": failed_ops,
                                "job_times_s": job_times}, indent=1) + "\n",
                    encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
