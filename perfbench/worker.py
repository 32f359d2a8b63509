"""One pass over a workload's task list, in a fresh process.

usage: worker.py WORKLOAD SEED MODE SPEC_PATH RUN_DIR

MODE is 0 for an untraced round, 1 for a traced one, and ``setup`` to stop
at READY, which times set-up alone.

Imports kummerlab, builds the inputs from SEED, then prints ``READY`` so the
parent can time set-up.  It runs the tasks back to back on one thread,
checks every output against its oracle, and prints one JSON line: each
task's time, the reference-kernel times taken between tasks, the wrong and
the unsolved tasks, peak RSS, a digest of all numeric outputs and, with
TRACE 1, the per-layer metrics.  Spans are written to
RUN_DIR/<workload>.spans.jsonl.
"""

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

start = time.perf_counter()
import kummerlab  # noqa: E402

import_s = time.perf_counter() - start

import numpy as np  # noqa: E402

from tracer import Tracer, layer_metrics, read_spans  # noqa: E402
from workloads import CLI_STEPS, WORKLOADS  # noqa: E402


_REFERENCE_MATRIX = np.random.default_rng(0).normal(size=(8, 8))
REFERENCE_REPEATS = 6  # kernel timings before each task and after the last


def reference_seconds():
    """Time a fixed mix of interpreter and small-numpy work, about 2 ms.

    Timed between tasks, it tracks how fast the host runs during the
    round; on a shared 2-vCPU VM that swings by a third or more within a
    minute.  It calls nothing in kummerlab.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(12000):
        total += i * 0.5
    for _ in range(120):
        total += float(np.linalg.svd(_REFERENCE_MATRIX, compute_uv=False)[0])
        total += float(np.exp(_REFERENCE_MATRIX).sum())
    return time.perf_counter() - start


class Context:
    """What a task may need besides its inputs."""

    def __init__(self, kl, work_dir, tracer):
        self.kl = kl
        self.work_dir = work_dir
        self.tracer = tracer
        self.cli_seconds = {}
        self.cli_nonzero = 0
        self.child_import_s = []

    def absorb_child(self, spans_path, import_path):
        """Merge a traced child's spans into this process's span list."""
        spans = self.tracer.spans
        spans.extend(read_spans(spans_path, self.tracer.task, len(spans)))
        with open(import_path) as fh:
            self.child_import_s.append(float(fh.read()))


def _feed(h, value):
    """Hash a nested output in a canonical order, floats by their exact bits."""
    if isinstance(value, dict):
        for key in sorted(value):
            h.update(key.encode())
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(b"[%d" % len(value))
        for item in value:
            _feed(h, item)
    elif isinstance(value, bytes):
        h.update(value)
    elif isinstance(value, str):
        h.update(value.encode())
    else:
        arr = np.asarray(value)
        arr = arr.astype(complex if np.iscomplexobj(arr) else float)
        h.update(arr.dtype.str.encode() + repr(arr.shape).encode() + arr.tobytes())


def main(argv):
    workload, seed, mode, spec_path, run_dir = argv
    seed, trace = int(seed), mode == "1"
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(kummerlab.__file__).startswith(src + os.sep):
        print(f"kummerlab imported from {kummerlab.__file__}, not from {src}", file=sys.stderr)
        return 3
    with open(spec_path) as fh:
        spec = json.load(fh)["workloads"][workload]
    make, run, check = WORKLOADS[workload]
    work_dir = os.path.join(run_dir, f"{workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        tracer = Tracer() if trace else None
        ctx = Context(kummerlab, work_dir, tracer)
        tasks = make(seed, spec, ctx)
        if tracer is not None:
            tracer.install()
        print("READY", flush=True)
        if mode == "setup":
            return 0

        outputs, errors, task_s, refs = [], [], [], []
        reference_seconds()  # the first call pays one-time costs; discard it
        for i, task in enumerate(tasks):
            refs.extend(reference_seconds() for _ in range(REFERENCE_REPEATS))
            if tracer is not None:
                tracer.task = i
            start = time.perf_counter()
            try:
                outputs.append(run(kummerlab, task, ctx))
                errors.append(None)
            except Exception as exc:  # a failed task is counted, not fatal
                outputs.append(None)
                errors.append(exc)
            task_s.append(time.perf_counter() - start)
        refs.extend(reference_seconds() for _ in range(REFERENCE_REPEATS))
        who = resource.RUSAGE_CHILDREN if workload == "cli-pipeline" else resource.RUSAGE_SELF
        rss_mb = resource.getrusage(who).ru_maxrss * 1024 / 1e6
        if tracer is not None:
            tracer.uninstall()

        digest = hashlib.sha256()
        wrong, unsolved = [], []
        for i, (task, out, err) in enumerate(zip(tasks, outputs, errors)):
            bad, missed = _judge(check, task, out, err, spec["tolerances"])
            if bad:
                wrong.append({"task": i, "why": bad})
            if missed:
                unsolved.append({"task": i, "why": missed})
            _feed(digest, out if out is not None else f"{type(err).__name__}: {err}")

        result = {
            "task_s": task_s,
            "reference_s": refs,
            "reference_repeats": REFERENCE_REPEATS,
            "rss_mb": rss_mb,
            "wrong": wrong,
            "unsolved": unsolved,
            "digest": digest.hexdigest(),
            "numpy": np.__version__,
        }
        if tracer is not None:
            result["layers"] = layer_metrics(tracer.spans)
            result["layers"].update(_cli_metrics(ctx))
            result["spans"] = len(tracer.spans)
            tracer.write(os.path.join(run_dir, f"{workload}.spans.jsonl"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _judge(check, task, out, err, tol):
    """(wrong, unsolved) messages for one task.

    A ``ToleranceFailure`` is the program reporting that it did not reach
    its target, so the task is unsolved; any other exception, or an oracle
    that cannot read the output, makes it wrong.
    """
    if isinstance(err, kummerlab.ToleranceFailure):
        return [], [f"{type(err).__name__}: {err}"]
    if err is not None:
        return [f"{type(err).__name__}: {err}"], []
    try:
        return check(kummerlab, task, out, tol)
    except Exception as exc:
        return [f"oracle could not read the output: {type(exc).__name__}: {exc}"], []


def _cli_metrics(ctx):
    # cli-pipeline: the children's median import time; in-process workloads:
    # this worker's own import kummerlab, the share of setup_s the cli pays too
    imports = ctx.child_import_s or [import_s]
    out = {"cli.import_s": statistics.median(imports), "cli.exit_nonzero": ctx.cli_nonzero}
    for step in CLI_STEPS:
        out[f"cli.{step}.s"] = ctx.cli_seconds.get(step, 0.0)
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
