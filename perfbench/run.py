"""Run one kummerlab benchmark workload and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kummerlab checkout; the package is imported from
./src.  The workloads, their tolerances and the loop settings are described
in perfbench/spec.json, the metric names and units in BENCHMARK.json.

A run is a sequence of rounds.  Each round is one fresh worker process
(perfbench/worker.py) that imports kummerlab, builds the task list from the
seed and works through it back to back on one thread, with BLAS pinned to
one thread.  Rounds repeat until their task lists, timed at reference speed
(below), add up to --seconds, so a slow host does not cut a run short.  End-to-end metrics come from untraced rounds; with --trace 1 the
rounds alternate untraced and traced, the per-layer metrics come from the
traced ones, and their difference in wall time is the tracing overhead.
Every round must produce the same digest of its numeric outputs.

Times are reported at reference speed.  The worker times a fixed ~2 ms
reference kernel a few times before every task and after the last one.
Each task's time is multiplied by loop.reference_s / (median of the kernel
timings just before and just after it), and set-up time by
loop.reference_s / (median kernel timing of the run).  Set-up is timed in
every untraced round and in extra worker starts that stop at READY, until
there are loop.setup_samples timings; their median is reported.  A shared
2-vCPU VM runs the same code up to 1.7 times slower for stretches of
seconds to minutes; the scaling removes most of that swing and leaves the
program's own changes.  The raw medians are printed beside the scaled ones.

Tasks are judged by the workload's oracle (see workloads.py).  A wrong task
counts as failed.  An unsolved task, where the program truthfully reports
that it missed its tolerance, counts into fail_ratio.  The run is correct
when no task is wrong, no more than the workload's max_unsolved_ratio of the
tasks are unsolved, and every round gives the same digest.

The last line printed is one JSON object with the keys correct, attempted,
failed and metrics.  Exit code 2 means the benchmark could not run at all.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "spec.json")
# the workload is killed if one round outlives this, so the run ends within 180 s
ROUND_TIMEOUT_S = 170


class RoundError(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def tail(values):
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With fewer than 22 samples that percentile would fall at or below the
    median, so the maximum is reported instead, as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 22:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _worker(workload, seed, mode, run_dir):
    return [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode,
            SPEC_PATH, run_dir]


def time_setup(workload, seed, env, run_dir):
    """Seconds from starting a worker until it is READY; that worker then exits."""
    start = time.perf_counter()
    proc = subprocess.Popen(_worker(workload, seed, "setup", run_dir), stdout=subprocess.PIPE,
                            text=True, env=env)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RoundError(f"set-up of {workload} exited {proc.returncode}")
    return setup_s


def run_round(workload, seed, traced, env, run_dir, timeout):
    """One worker process; returns its result with the measured set-up time."""
    cmd = _worker(workload, seed, "1" if traced else "0", run_dir)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, _ = proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = out.strip().splitlines()
    if ready.strip() != "READY" or proc.returncode != 0 or not lines:
        raise RoundError(f"worker for {workload} exited {proc.returncode} without a result")
    result = json.loads(lines[-1])
    result.update(setup_s=setup_s, traced=traced)
    return result


def scale_to_reference(result, reference_s):
    """Per-task and wall times of a round at the reference kernel's speed.

    ``reference_s`` holds ``reference_repeats`` kernel timings before each
    task and after the last, so task i lies between the groups starting at
    k*i and k*(i+1); the median of those 2k timings sets its factor.
    """
    refs, k = result["reference_s"], result["reference_repeats"]
    task_s = [sec * reference_s / statistics.median(refs[k * i:k * (i + 2)])
              for i, sec in enumerate(result["task_s"])]
    result.update(
        task_ms=[1e3 * sec for sec in task_s],
        wall_s=sum(task_s),
        raw_wall_s=sum(result["task_s"]),
    )
    return result


def worker_env(root, spec):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for name in spec["loop"]["thread_env"]:
        env[name] = str(spec["loop"]["blas_threads"])
    return env


def end_to_end(rounds, setups, reference_s):
    """Medians over untraced rounds; task latency is each task's median over rounds.

    Every round runs the same task list, so a task's repeats differ only by
    the machine's own noise, which the per-task median removes before the
    percentiles are taken across tasks.
    """
    untraced = [r for r in rounds if not r["traced"]]
    task_ms = [statistics.median(ms) for ms in zip(*(r["task_ms"] for r in untraced))]
    tail_ms, pct = tail(task_ms)
    per_round = f"median of {len(untraced)} rounds"
    raw_wall = statistics.median(r["raw_wall_s"] for r in untraced)
    raw_setup = statistics.median(setups)
    kernel = statistics.median(ref for r in rounds for ref in r["reference_s"])
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "task_ms.p50": statistics.median(task_ms),
        "task_ms.tail": tail_ms,
        "setup_s": raw_setup * reference_s / kernel,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in untraced),
    }
    notes = {"task_ms.tail": f"p{pct:.1f} of {len(task_ms)} tasks, each the {per_round}",
             "task_ms.p50": f"of {len(task_ms)} tasks, each the {per_round}",
             "wall_s": f"{per_round}; unscaled {raw_wall:.4g} s",
             "setup_s": f"median of {len(setups)} starts; unscaled {raw_setup:.4g} s",
             "peak_rss_mb": per_round}
    return values, notes


def per_layer(rounds, unsolved, attempted):
    traced = [r for r in rounds if r["traced"]]
    names = traced[0]["layers"]
    values = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    untraced_wall = statistics.median(r["wall_s"] for r in rounds if not r["traced"])
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values.update({
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": (traced_wall - untraced_wall) / untraced_wall,
        "trace.spans": statistics.median(r["spans"] for r in traced),
        "fail_ratio": unsolved / attempted,
        "fail_ratio.attempted": attempted,
    })
    notes = {"trace.overhead_s": f"median of {len(traced)} traced minus median of "
                                 f"{len(rounds) - len(traced)} untraced rounds"}
    return values, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "kummerlab", "__init__.py")):
        print("error: src/kummerlab not found; run from the root of a kummerlab checkout",
              file=sys.stderr)
        return 2
    with open(bench_path) as fh:
        bench = json.load(fh)
    with open(SPEC_PATH) as fh:
        spec = json.load(fh)
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(spec['workloads'])}", file=sys.stderr)
        return 2
    seed = spec["seeds"]["default"] if args.seed is None else args.seed
    env = worker_env(root, spec)
    run_dir = os.path.join(root, ".perfbench_run")
    os.makedirs(run_dir, exist_ok=True)

    loop = spec["loop"]
    workload = spec["workloads"][args.workload]
    min_rounds = loop["min_rounds"] + (1 if args.trace else 0)
    rounds = []
    measured = 0.0
    began = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            left = ROUND_TIMEOUT_S - (time.perf_counter() - began)
            result = run_round(args.workload, seed, traced, env, run_dir, left)
            rounds.append(scale_to_reference(result, loop["reference_s"]))
            measured += result["wall_s"]
            elapsed = time.perf_counter() - began
            if measured >= args.seconds and len(rounds) >= min_rounds:
                break
            if elapsed > loop["max_run_s"] and len(rounds) >= 1 + args.trace:
                break
        setups = [r["setup_s"] for r in rounds if not r["traced"]]
        while not args.trace and len(setups) < loop["setup_samples"]:
            setups.append(time_setup(args.workload, seed, env, run_dir))
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digests = {r["digest"] for r in rounds}
    attempted = sum(len(r["task_ms"]) for r in rounds)
    failed = sum(len(r["wrong"]) for r in rounds)
    unsolved = sum(len(r["unsolved"]) for r in rounds)
    for kind in ("wrong", "unsolved"):
        for task in rounds[0][kind][:3]:
            print(f"task {task['task']} {kind}: {'; '.join(task['why'][:3])}", file=sys.stderr)
    if len(digests) > 1:
        print(f"error: outputs differ between rounds of one seed: {sorted(digests)}",
              file=sys.stderr)
    correct = (failed == 0 and len(digests) == 1
               and unsolved <= workload["max_unsolved_ratio"] * attempted)

    if args.trace:
        values, notes = per_layer(rounds, unsolved, attempted)
        wanted = bench["per_layer"]
    else:
        values, notes = end_to_end(rounds, setups, loop["reference_s"])
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    traced_count = sum(r["traced"] for r in rounds)
    print(f"workload {args.workload}  seed {seed}  rounds {len(rounds) - traced_count} "
          f"untraced + {traced_count} traced  python {platform.python_version()}  "
          f"numpy {rounds[0]['numpy']}  nproc {os.cpu_count()}  "
          f"BLAS threads {loop['blas_threads']}")
    print(f"digest {sorted(digests)[0][:16]} ({'identical' if len(digests) == 1 else 'DIFFERENT'}"
          f" across rounds)  wrong {failed}/{attempted} tasks  "
          f"fail_ratio (unsolved) {unsolved}/{attempted} tasks")
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']:10s} {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
