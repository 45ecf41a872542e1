"""One workload run in a fresh process; `run.py` starts it and reads its lines.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [SPANS_FILE]

MODE is `setup` (import and make the inputs, then exit), `run`, or `trace`
(run with spans recorded).  Every stdout line is one JSON object:
`{"ready": ...}` once the first op can start, `{"op": ...}` per finished
op, `{"rss_mb": ...}` after the last op, `{"check": ...}` per checked answer, and `{"done": ...}`
at the end.
"""

from __future__ import annotations

import hashlib
import json
import platform
import resource
import statistics
import sys
import time
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def fingerprint(answer) -> str:
    return hashlib.sha1(repr(answer).encode()).hexdigest()[:16]


# The reference loop's time on the machine the benchmark was defined on, at
# its quiet speed (2-vCPU Intel Xeon VM, Python 3.11); how often it is
# sampled; and how many recent samples set the speed an op ran at.
REF_S = 1.4e-3
REF_EVERY_S = 0.05
REF_RECENT = 9
MAX_WALL_SHARE = 1.5  # a very slow machine stops the ops at 1.5 times `seconds`


def reference_loop() -> float:
    """Seconds one fixed pure-integer Python loop takes right now.

    It measures how fast this CPU runs the interpreter at the moment, on a
    machine whose speed drifts by tens of percent over seconds with its
    neighbours' load.  It allocates no container, so the program's heap and
    garbage collector cannot touch it.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.perf_counter() - t0


def run_ops(workload, items, seconds: float, tracer=None, report=emit) -> None:
    """Closed loop, one op at a time, until the ops have taken `seconds`.

    Between ops, at least REF_EVERY_S apart, the reference loop is timed.
    Each op's latency is also given scaled to the reference speed: times
    REF_S over the median of the last REF_RECENT samples.  The scaled time
    ends the loop, so a run does the same ops however fast the machine runs
    at the moment, while a change to the program moves the scaled time in
    full; the wall-clock time of the ops is held to MAX_WALL_SHARE times
    `seconds`.

    Each op is reported as it finishes, with both latencies, its answer's
    fingerprint and the exception it raised, if any.  The peak RSS is
    reported next, and then each answer's check: the checks run after the
    timed loop, so that their work (the oracle's large temporaries in `ass`)
    neither disturbs the timed ops nor shows in the peak RSS.
    """
    busy = wall = 0.0
    answers = []
    recent: deque[float] = deque(maxlen=REF_RECENT)
    last_ref = float("-inf")
    for i, item in enumerate(items):
        if busy >= seconds or wall >= MAX_WALL_SHARE * seconds:
            break
        if time.perf_counter() - last_ref >= REF_EVERY_S:
            last_ref = time.perf_counter()
            recent.append(reference_loop())
        error = answer = None
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            answer = workload.run(item)
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
        scaled = elapsed * REF_S / statistics.median(recent)
        busy += scaled
        wall += elapsed
        answers.append((item, answer, error))
        report({"op": i, "s": elapsed, "scaled": scaled, "answer": fingerprint(answer), "error": error})
    report({"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    for i, (item, answer, error) in enumerate(answers):
        if error is None:
            try:
                error = workload.check(item, answer)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        report({"check": i, "error": error})


def main(argv: list[str]) -> int:
    workload_name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    sys.path.insert(0, str(SRC))
    import edgesat.cli  # noqa: F401  (loads every module, as the CLI does)
    import numpy

    if not Path(edgesat.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"edgesat imported from {edgesat.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[workload_name]()
    items = workload.make_inputs(seed)
    emit({"ready": {
        "inputs": len(items),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }})
    if mode == "setup":
        return 0
    tracer = None
    if mode == "trace":
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    try:
        run_ops(workload, items, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    done = {"digest": digest(items)}  # after the ops: set-up is not charged for it
    if tracer is not None:
        done["layers"] = layer_metrics(tracer.names, tracer.arrays())
        if len(argv) > 4:
            tracer.save(argv[4])
    emit({"done": done})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
