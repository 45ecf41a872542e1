"""The edgesat benchmark: one workload run, its metrics as one JSON line.

    python3 perfbench/run.py --workload census|ass|membership --seed N \
        --seconds S --trace 0|1

Each run starts fresh single-threaded worker processes (`worker.py`), so
the module-level `nu` cache starts empty, as it does for a CLI user.  With
`--trace 0` it reports the end-to-end metrics of `BENCHMARK.json`: set-up is
timed in five processes and reported as their median, then one of them runs
the workload for S seconds of ops.  Op times are scaled to a reference CPU
speed (see `worker.run_ops`); the wall-clock figures are in the info line.
With `--trace 1` it runs the workload untraced and then traced, S/2 seconds
each, and reports the per-layer metrics.  Every answer is checked; a worker
that outlives its time cap is killed and its unfinished op counts as failed.
The last stdout line is the result; the lines before it give the inputs'
digest, the machine and the error count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # samples beyond the tail percentile
INVOCATION_CAP_S = 170.0


def child_cap(seconds: int, remaining: float) -> float:
    """Wall-clock cap of one workload process: its ops, checks and set-up."""
    return min(remaining, 3.0 * seconds + 60.0)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


class ChildRun:
    """What one worker process reported, read line by line under a cap."""

    def __init__(self) -> None:
        self.setup_s: float | None = None
        self.ready: dict | None = None
        self.ops: list[dict] = []
        self.checks: dict[int, str | None] = {}
        self.rss_mb: float | None = None
        self.done: dict | None = None
        self.cut_off = False
        self.returncode: int | None = None

    def take(self, msg: dict) -> None:
        """Record one line of the worker's output."""
        if "op" in msg:
            self.ops.append(msg)
        elif "check" in msg:
            self.checks[msg["check"]] = msg["error"]
        elif "rss_mb" in msg:
            self.rss_mb = msg["rss_mb"]
        elif "done" in msg:
            self.done = msg["done"]
        elif "ready" in msg:
            self.ready = msg["ready"]

    @property
    def finished(self) -> bool:
        return self.done is not None and self.returncode == 0


def run_child(cmd: list[str], cap_s: float) -> ChildRun:
    """Start `cmd`, read its JSON lines, and kill it if it outlives `cap_s`."""
    out = ChildRun()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            buf = b""
            while True:
                left = cap_s - (time.perf_counter() - t0)
                if left <= 0:
                    out.cut_off = True
                    break
                if not sel.select(left):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buf += chunk
                *lines, buf = buf.split(b"\n")
                for line in lines:
                    msg = json.loads(line)
                    if "ready" in msg:
                        out.setup_s = time.perf_counter() - t0
                    out.take(msg)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if out.cut_off:
        proc.kill()
    try:
        proc.wait(timeout=max(1.0, cap_s - (time.perf_counter() - t0)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        out.cut_off = True
    finally:
        proc.stdout.close()
    out.returncode = proc.returncode
    return out


def worker_cmd(workload: str, seed: int, seconds: float, mode: str, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), mode, *extra]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The latency at the highest percentile with TAIL_BEYOND samples beyond it,
    and that percentile; the maximum when there are too few samples."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def tally(run: ChildRun) -> tuple[int, int, list[str]]:
    """Ops attempted and failed.  An op failed if it raised, if its answer
    failed its check, or if the cap or a crash came before it was checked."""
    errors = []
    for o in run.ops:
        i = o["op"]
        error = o["error"] or run.checks.get(i, "not checked")
        if error:
            errors.append(f"op {i}: {error}")
    attempted = len(run.ops)
    if not run.finished and run.rss_mb is None:  # stopped inside the timed loop
        attempted += 1
        errors.append(f"op {len(run.ops)}: cut off" if run.cut_off else
                      f"op {len(run.ops)}: worker exited with {run.returncode}")
    return attempted, len(errors), errors


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "cpu_model": platform.processor() or None}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction" and level in ("2", "3"):
                info[f"l{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    info["git_sha"] = git_sha()
    return info


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(args, remaining) -> tuple[dict, dict, int, int]:
    """End-to-end metrics; returns (metrics, info, attempted, failed)."""
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = run_child(worker_cmd(args.workload, args.seed, args.seconds, "setup"), min(60.0, remaining()))
        if probe.ready is None or probe.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {probe.returncode})")
        setups.append(probe.setup_s)
    run = run_child(worker_cmd(args.workload, args.seed, args.seconds, "run"), child_cap(args.seconds, remaining()))
    if run.ready is None:
        raise RuntimeError(f"set-up failed (exit {run.returncode})")
    setups.append(run.setup_s)
    attempted, failed, errors = tally(run)
    if not run.ops:
        raise RuntimeError("no op finished")
    raw = [o["s"] for o in run.ops]
    latencies = [o["scaled"] for o in run.ops]
    tail_s, tail_pct = tail(latencies)
    rss = run.rss_mb or resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": rss,
    }
    info = {
        **run.ready,
        "digest": run.done and run.done["digest"],
        "ops": len(latencies),
        "tail_percentile": tail_pct,
        "tail_beyond": min(TAIL_BEYOND, len(latencies) - 1),
        "setup_samples_s": setups,
        "wall_clock": {
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": 1e3 * statistics.median(raw),
            "op_tail_ms": 1e3 * tail(raw)[0],
        },
        "slowdown": sum(raw) / sum(latencies),  # wall clock over reference-speed time
        "error_ratio": failed / attempted,
        "errors": errors[:5],
    }
    return metrics, info, attempted, failed


def measure_layers(args, remaining) -> tuple[dict, dict, int, int]:
    """Per-layer metrics from a traced run, next to an untraced one."""
    half = args.seconds / 2  # the two runs together take as long as one untraced run
    plain = run_child(worker_cmd(args.workload, args.seed, half, "run"), child_cap(args.seconds, remaining() / 2))
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}.npz"
    traced = run_child(
        worker_cmd(args.workload, args.seed, half, "trace", str(spans_file)),
        child_cap(args.seconds, remaining()),
    )
    if plain.ready is None or traced.ready is None:
        raise RuntimeError("set-up failed")
    attempted, failed, errors = (a + b for a, b in zip(tally(plain), tally(traced)))
    plain_answers = {o["op"]: o["answer"] for o in plain.ops}
    differ = [o["op"] for o in traced.ops if o["op"] in plain_answers and o["answer"] != plain_answers[o["op"]]]
    failed += len(differ)
    errors += [f"op {i}: traced answer differs" for i in differ]
    if traced.done is None or not plain.ops:
        raise RuntimeError("the traced run did not finish")
    metrics = dict(traced.done["layers"])
    # Over the ops both runs finished: later ops reuse more of the nu cache.
    common = min(len(plain.ops), len(traced.ops))
    metrics["trace.overhead_ratio"] = (
        sum(o["scaled"] for o in plain.ops[:common]) / sum(o["scaled"] for o in traced.ops[:common])
    )
    info = {
        **traced.ready,
        "digest": traced.done["digest"],
        "ops": len(traced.ops),
        "untraced_ops": len(plain.ops),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "error_ratio": failed / attempted,
        "errors": errors[:5],
    }
    return metrics, info, attempted, failed


def parse_args(argv: list[str], spec: dict) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    started_at = time.time()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, spec)
    if not (ROOT / "src" / "edgesat" / "__init__.py").is_file():
        print(f"perfbench: no edgesat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def remaining() -> float:
        return INVOCATION_CAP_S - (time.perf_counter() - started)

    try:
        metrics, info, attempted, failed = (measure_layers if args.trace else measure)(args, remaining)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "started_at": started_at, "attempted": attempted,
        "failed": failed, **info, **machine(),
    }
    print(json.dumps({"info": info}, sort_keys=True))
    for m in wanted:
        print(f"{m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
