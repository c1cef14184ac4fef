"""Run the locert benchmark.

    python3 perfbench/run.py --workload braid-long --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a checkout; the program is the checkout's ``src``.
Each workload is a closed loop: one client, one query in flight.  The
in-process workloads call ``locert.cli.run``; ``small-queries`` launches a
fresh ``python -m locert.cli`` per query.  Every verdict is checked against
a reference in ``references.py``.

With ``--trace 0`` the run measures end-to-end metrics for ``--seconds``
seconds (whole rounds, at least MIN_SAMPLES queries).  Every time is
adjusted for the host's current speed (see ``hostspeed.py``); the raw
figures are printed beside the adjusted ones.  With ``--trace 1`` it
runs a fixed number of rounds, each once untraced and once under the span
tracer, and reports per-layer metrics.  ``--workload all`` runs every
workload in its own process and prints a table.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Ten samples must lie beyond the reported p90.
MIN_SAMPLES = 110
SETUP_LAUNCHES = 12
QUERY_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q))
    return ordered[rank - 1], len(ordered) - rank


class Runner:
    """Executes queries and checks their verdicts."""

    def __init__(self, in_process: bool, env: dict):
        self.in_process = in_process
        self.env = env
        if in_process:
            from locert import cli

            self.cli = cli

    def execute(self, q, traced: bool = False):
        """Run one query; returns (wall seconds, error or None, envelope,
        child trace summary or None).  With ``traced`` a fresh-process query
        runs under ``tracer.py``; in process, the caller installs the tracer."""
        if q.prepare is not None:
            q.prepare()
        summary = None
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with redirect_stderr(err):
                    code = self.cli.run(q.argv, out=out)
            except Exception:
                wall = time.perf_counter() - start
                return wall, "traceback: " + traceback.format_exc(limit=3), None, None
            wall = time.perf_counter() - start
            stdout, stderr = out.getvalue(), err.getvalue()
        else:
            if traced:
                cmd = [sys.executable, str(HERE / "tracer.py"), *q.argv]
            else:
                cmd = [sys.executable, "-m", "locert.cli", *q.argv]
            start = time.perf_counter()
            proc = subprocess.run(
                cmd, capture_output=True, text=True, env=self.env, cwd=ROOT,
                timeout=QUERY_TIMEOUT_S,
            )
            wall = time.perf_counter() - start
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            if traced:
                from tracer import split_summary

                summary, stderr = split_summary(stderr)
        return (wall, *self._check(q, code, stdout, stderr), summary)

    @staticmethod
    def _check(q, code, stdout: str, stderr: str):
        if "Traceback" in stderr:
            return "traceback: " + stderr[-500:], None
        if code != q.expect_code:
            return f"exit {code}, expected {q.expect_code}: {stderr[-200:]}", None
        try:
            envelope = json.loads(stdout)
            return q.verify(envelope), envelope
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"malformed envelope: {exc!r}", None


def _report_failure(q, error: str) -> None:
    argv = " ".join(a if len(a) < 60 else a[:57] + "..." for a in q.argv)
    print(f"FAILED {argv}: {error}", file=sys.stderr)


class SetupProbe:
    """Times a fresh interpreter running `import locert.cli`, with the
    launches spread across the run and each adjusted for host speed."""

    def __init__(self, env: dict, speed: HostSpeed):
        self.cmd = [sys.executable, "-c", "import locert.cli"]
        self.env = env
        self.speed = speed
        self.times: list[float] = []
        subprocess.run(self.cmd, env=env, cwd=ROOT, check=True, timeout=QUERY_TIMEOUT_S)  # writes bytecode caches

    def _launch(self) -> None:
        slowdown = self.speed.slowdown()
        start = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True, timeout=QUERY_TIMEOUT_S)
        self.times.append((time.perf_counter() - start) / slowdown)

    def due(self, elapsed: float, seconds: float) -> None:
        """Launch once if the run has reached this launch's share of time."""
        if len(self.times) < SETUP_LAUNCHES and elapsed >= len(self.times) * seconds / SETUP_LAUNCHES:
            self._launch()

    def value(self) -> float:
        while len(self.times) < SETUP_LAUNCHES:
            self._launch()
        return statistics.median(self.times)


def run_untraced(workload, seed: int, seconds: float, workdir: Path, env: dict) -> dict:
    from workloads import composition

    speed = HostSpeed()
    setup = SetupProbe(env, speed)
    runner = Runner(workload.in_process, env)
    walls: list[float] = []  # adjusted for host speed
    raw: list[float] = []
    executed = []
    failed = 0
    start = time.perf_counter()
    for queries in workload.rounds(seed, workdir, ROOT):
        setup.due(time.perf_counter() - start, seconds)
        for q in queries:
            slowdown = speed.slowdown()
            wall, error, _, _ = runner.execute(q)
            walls.append(wall / slowdown)
            raw.append(wall)
            executed.append((q.family, q.size))
            if error:
                failed += 1
                _report_failure(q, error)
        if time.perf_counter() - start >= seconds and len(walls) >= MIN_SAMPLES:
            break
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    p50, _ = _percentile(walls, 0.5)
    p90, beyond = _percentile(walls, 0.9)
    values = {
        "setup_s": setup.value(),
        "throughput_qps": (len(walls) - failed) / sum(walls),
        "latency_p50_ms": p50 * 1000.0,
        "latency_p90_ms": p90 * 1000.0,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {SETUP_LAUNCHES} launches across the run",
        "throughput_qps": f"raw {(len(raw) - failed) / sum(raw):.4g}, mean host slowdown {sum(raw) / sum(walls):.3f}",
        "latency_p50_ms": f"n={len(walls)}, raw {_percentile(raw, 0.5)[0] * 1000.0:.4g}",
        "latency_p90_ms": f"n={len(walls)}, {beyond} beyond, raw {_percentile(raw, 0.9)[0] * 1000.0:.4g}",
        "peak_rss_mb": "this process" if workload.in_process else "max over child processes",
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return _result(len(walls), failed, metrics, notes, composition(executed))


def run_traced(workload, seed: int, workdir: Path, env: dict) -> dict:
    import tracer as tr
    from workloads import composition

    runner = Runner(workload.in_process, env)
    speed = HostSpeed()
    tracer = tr.Tracer()
    summaries: list[dict] = []
    overhead_ms: list[float] = []
    untraced_s = traced_s = 0.0
    attempted = failed = 0
    executed = []
    rounds = workload.rounds(seed, workdir, ROOT)
    for _ in range(workload.trace_rounds):
        queries = next(rounds)
        for q in queries:
            slowdown = speed.slowdown()
            wall, error, _, _ = runner.execute(q)
            untraced_s += wall / slowdown
            attempted += 1
            executed.append((q.family, q.size))
            if error:
                failed += 1
                _report_failure(q, error)
        if workload.in_process:
            tracer.install()
        try:
            for q in queries:
                tracer.query += 1
                slowdown = speed.slowdown()
                wall, error, envelope, summary = runner.execute(q, traced=True)
                traced_s += wall / slowdown
                attempted += 1
                if error:
                    failed += 1
                    _report_failure(q, error)
                    continue
                if summary is not None:
                    summaries.append(summary)
                    cli_ms = summary["cli_wall_ms"]
                else:
                    cli_ms = wall * 1000.0
                overhead_ms.append(cli_ms - envelope["runtime_ms"])
        finally:
            tracer.uninstall()
    # In-process spans are in `tracer`; fresh-process queries sent their own summaries.
    merged = tr.merge(summaries + [tracer.summary()])
    metrics = tr.per_layer_metrics(merged, overhead_ms, traced_s / untraced_s)
    notes = {"trace.overhead_ratio": f"{traced_s:.3f} s traced / {untraced_s:.3f} s untraced"}
    return _result(attempted, failed, metrics, notes, composition(executed))


def _result(attempted: int, failed: int, metrics: dict, notes: dict, comp: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "notes": notes,
        "composition": comp,
    }


def _print_report(name: str, seed: int, trace: int, result: dict) -> None:
    print(f"workload {name}  seed {seed}  trace {trace}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}  "
          f"failed_ratio {result['failed'] / result['attempted']:.4f}")
    print("  composition " + json.dumps(result["composition"], sort_keys=True))
    for key, m in result["metrics"].items():
        note = result["notes"].get(key)
        print(f"  {key:40s} {m['value']:14.6g} {m['unit']:6s}" + (f"  ({note})" if note else ""))


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    names = list(results)
    print("\n" + " " * 40 + "".join(f"{n:>16s}" for n in names))
    for key in results[names[0]]["metrics"]:
        unit = results[names[0]]["metrics"][key]["unit"]
        cells = "".join(f"{results[n]['metrics'][key]['value']:16.6g}" for n in names)
        print(f"{key + ' [' + unit + ']':40s}{cells}")
    failed_ratio = "".join(f"{results[n]['failed'] / results[n]['attempted']:16.4f}" for n in names)
    print(f"{'failed_ratio [ratio]':40s}{failed_ratio}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()}}))
    return 0 if failed == 0 else 1


def _pin_to_one_cpu() -> None:
    """Run the benchmark and the processes it starts on one CPU, so the
    host-speed kernel reads the speed of the CPU the queries run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "locert" / "cli.py").is_file():
        print(f"error: no locert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import locert

    if Path(locert.__file__).resolve().parent != SRC / "locert":
        print(f"error: imported locert from {locert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    _pin_to_one_cpu()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as tmp:
        if args.trace:
            result = run_traced(workload, args.seed, Path(tmp), env)
        else:
            result = run_untraced(workload, args.seed, args.seconds, Path(tmp), env)
    _print_report(args.workload, args.seed, args.trace, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
