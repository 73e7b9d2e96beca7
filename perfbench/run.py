"""Run the pcftube benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each in
turn.  Each workload runs in one worker process that calls ``pcftube.cli``
in-process, with BLAS threads capped at the number of usable CPUs.  With
``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured; with
``--trace 1`` the per-layer metrics, from spans recorded around the calls
into each pcftube module.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The package is imported from ``src/`` of the
checkout, so the benchmark exits non-zero where there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from worker import THREAD_VARS
from workloads import ORACLES, ROOT, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
PACKAGE = os.path.join(ROOT, "src", "pcftube", "__init__.py")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(ROOT, ".perfbench_out")
# Cold starts before the worker and again after it, so that a slow spell of
# the machine during one of the two does not decide the median.
SETUP_PROBES = 4
DEADLINE_S = 170.0  # one workload must finish within 180 s


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(nproc()) for var in THREAD_VARS})
    return env


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    # Stop git at the checkout root, so an enclosing repository is not reported.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_until(cmd: list[str], env: dict, deadline: float, **kwargs) -> int:
    """Run ``cmd`` in the checkout, killing it at ``deadline``; returns its exit code.

    A timer does the killing, so the wait itself blocks in waitpid rather
    than polling, which would round the measured time to the polling step.
    """
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, **kwargs)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        returncode = proc.wait()
    finally:
        timer.cancel()
    if time.monotonic() >= deadline:
        raise BenchError(f"{os.path.basename(cmd[1])} passed the {DEADLINE_S:.0f} s deadline")
    return returncode


def setup_samples(preset: str, env: dict, deadline: float) -> list[float]:
    """Wall seconds of SETUP_PROBES fresh processes, launch to exit."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        returncode = run_until([sys.executable, WORKER, "probe", preset], env, deadline, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
        if returncode != 0:
            raise BenchError(f"cold-start probe exited with {returncode}")
    return samples


def run_worker(name: str, seed: int, seconds: float, trace: int, env: dict, deadline: float) -> dict:
    os.makedirs(OUT, exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    result_path = os.path.join(OUT, f"{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [
        sys.executable, WORKER, "measure", "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--workdir", os.path.join(OUT, f"{tag}-{os.getpid()}"), "--result", result_path,
    ]
    returncode = run_until(cmd, env, deadline, stdout=sys.stderr)
    if returncode != 0:
        raise BenchError(f"{name}: worker exited with {returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Measure one workload; returns (computed metrics, report for printing)."""
    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    report = {}
    metrics = {}
    preset = WORKLOADS[name].preset
    setup = [] if trace else setup_samples(preset, env, deadline)
    result = run_worker(name, seed, seconds, trace, env, deadline)
    if not trace:
        setup += setup_samples(preset, env, deadline)
        report["setup_s"] = quartiles(setup) + (len(setup),)
        metrics["setup_s"] = report["setup_s"][1]
    report["wall_s"] = quartiles(result["walls"]) + (len(result["walls"]),)
    report["ops"] = result["ops"]
    if trace:
        report["traced_wall_s"] = quartiles(result["traced_walls"]) + (len(result["traced_walls"]),)
        metrics.update(result.pop("layers"))
        spans_path = os.path.join(OUT, f"{name}-seed{seed}-spans.json")
        with open(spans_path, "w") as fh:
            json.dump(result.pop("spans"), fh)
        report["spans_path"] = spans_path
    else:
        metrics["wall_s"] = report["wall_s"][1]
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    report["attempted"], report["failed"] = result["attempted"], result["failed"]
    report["context"] = dict(
        result["context"], nproc=nproc(), cpu=cpu_model(), seed=seed, commit=git_commit(), workload=name, trace=trace
    )
    return metrics, report


def select_metrics(computed: dict, declared: list[dict]) -> dict:
    """The declared metrics, each with its unit; a declared name not computed is an error."""
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}


def print_report(name: str, metrics: dict, report: dict) -> None:
    attempted, failed = report["attempted"], report["failed"]
    verdict = "PASS" if failed == 0 else "FAIL"
    print(f"== {name}: gate {verdict}, {attempted - failed}/{attempted} items correct, {report['ops']} ops")
    samples = {
        "setup_s": "cold starts",
        "wall_s": "untraced ops",
    }
    for key, spec in metrics.items():
        line = f"  {key:34s} {spec['value']:.6g} {spec['unit']}"
        if key in samples:
            q1, _, q3, count = report[key]
            line += f"  median of {count} {samples[key]}, q1 {q1:.6g}, q3 {q3:.6g}"
        elif key == "peak_rss_mb":
            line += "  one worker process"
        print(line)
    if "traced_wall_s" in report:
        traced, untraced = report["traced_wall_s"], report["wall_s"]
        print(
            f"  {'traced minus untraced wall':34s} {traced[1] - untraced[1]:.6g} s"
            f"  medians of {traced[3]} traced and {untraced[3]} untraced ops"
        )
    print(f"  {'fail_ratio':34s} {failed / attempted:.6g}  ({failed} of {attempted} items failed)")
    if "spans_path" in report:
        print(f"  spans: {report['spans_path']}")
    print(f"  context: {json.dumps(report['context'], sort_keys=True)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    for path in (PACKAGE, ORACLES, SPEC):
        if not os.path.isfile(path):
            print(f"not a pcftube source checkout: {path} is missing", file=sys.stderr)
            return 2
    with open(SPEC) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            computed, report = run_workload(name, args.seed, args.seconds, args.trace)
            metrics = select_metrics(computed, declared)
            print_report(name, metrics, report)
            combined["correct"] = combined["correct"] and report["failed"] == 0
            combined["attempted"] += report["attempted"]
            combined["failed"] += report["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            combined["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
