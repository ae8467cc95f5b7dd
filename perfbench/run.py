"""Benchmark of the latfuzz CLI.

    python3 perfbench/run.py --workload pairwise --seed 0 --seconds 32 --trace 0

Run from the root of a checkout.  The seed picks the generated documents
(see workloads.py); the program sees only those documents.  One client runs
one command at a time, each in a fresh interpreter that runs latfuzz.cli as
`python -m latfuzz.cli` does (see LAUNCH), with PYTHONPATH=src, so
start-up, import, load and JSON output count as they do for users (a
closed loop with one client).

--trace 0 prints the end-to-end metrics:

  setup_s      `validate` once on each document of the workload, in sequence
               (median of SETUP_REPEATS passes)
  session_s    the whole command list once, in sequence: the sum over the
               commands of each one's median wall time over the sessions
               run in --seconds (at least one)
  cmd_s.p50    median wall time of one command (Harrell-Davis estimate over
               the same per-command medians)
  cmd_s.p90    90th percentile of the same
  peak_rss_mb  largest peak resident set of any single command process (its
               own VmHWM, which it reports at exit)

--trace 1 runs the command list, plus the workload's probe commands, in this
process instead, once untraced and once traced (tracer.py), and prints
per-module self times, self times of the hot functions, deterministic call
counts, the import cost of the CLI and the tracing overhead.

Every command's exit code, verdict and result digest is checked against
reference.json (gate.py); the final line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  `failed / attempted` is the fail
ratio, printed above it.  `--workload all` runs every workload both ways.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
IMPORT_PROBES = 5
COMMAND_TIMEOUT_S = 60

# Runs latfuzz.cli as __main__, as `python -m latfuzz.cli` does, and at exit
# writes the process's own peak RSS (VmHWM, in kB) to a file.  The ru_maxrss
# that wait4 returns cannot be used: until exec the child shares (vfork) or
# copies (fork) the parent's memory, and exec keeps that high-water mark, so
# the benchmark's own peak would leak into every command's.
LAUNCH = """\
import atexit, os, runpy

def report(path=os.environ["PERFBENCH_PEAK_FILE"]):
    with open("/proc/self/status") as status, open(path, "w") as out:
        out.write(next(l.split()[1] for l in status if l.startswith("VmHWM:")))

atexit.register(report)
runpy.run_module("latfuzz.cli", run_name="__main__", alter_sys=True)
"""

COUNTED = ("fuzzyset.set_at", "fuzzyset.set_index", "fuzzyset.backward_image",
           "ftransform.ft_transform", "relation.upper_approx")


@dataclass
class Run:
    wall_s: float
    code: int | None     # None when the command timed out
    peak_rss_mb: float


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LATFUZZ_BUDGET", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv, env, timeout: float = COMMAND_TIMEOUT_S) -> tuple[Run, str]:
    """Run one command in a fresh interpreter; return its measurements and
    its standard output."""
    WORK.mkdir(parents=True, exist_ok=True)
    out_path, peak_path = WORK / "stdout.json", WORK / "peak_kb"
    peak_path.unlink(missing_ok=True)
    env = dict(env, PERFBENCH_PEAK_FILE=str(peak_path))
    lock, state = threading.Lock(), {"reaped": False, "killed": False}
    with open(out_path, "wb") as out:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *argv],
                                stdout=out, stderr=subprocess.DEVNULL,
                                env=env, cwd=ROOT)

        def kill():
            with lock:
                if not state["reaped"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill)
        timer.start()
        # wait without reaping, so the timer can never signal a reused pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = perf_counter() - start
        with lock:
            _, status, _ = os.wait4(proc.pid, 0)
            state["reaped"] = True
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if state["killed"] else proc.returncode
    # a killed command reports no peak; it counts as failed anyway
    peak_kb = int(peak_path.read_text()) if peak_path.exists() else 0
    return Run(wall, code, peak_kb / 1024), out_path.read_text()


class Bench:
    """One workload's documents under one seed, plus the correctness tally."""

    def __init__(self, workload: workloads.Workload, seed: int):
        self.workload = workload
        self.paths = workloads.materialise(workload, seed,
                                           WORK / workload.name)
        self.docs = {slot: p.read_bytes() for slot, p in self.paths.items()}
        self.reference = gate.Reference()
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, slot: str, args, code, stdout: str) -> None:
        self.attempted += 1
        key = gate.command_key(self.docs[slot], args)
        if code is None or not self.reference.matches(key, code, stdout):
            self.failed += 1
            self.failures.append(f"{slot}: {' '.join(args)} (exit {code})")

    def command(self, slot: str, args) -> Run:
        run, stdout = run_cli([*args, "--doc", str(self.paths[slot])],
                              self.env)
        self.check(slot, args, run.code, stdout)
        return run

    def setup(self) -> list[Run]:
        return [self.command(slot, self.workload.setup) for slot in self.paths]

    def session(self) -> list[Run]:
        return [self.command(slot, args)
                for slot, *args in self.workload.commands]


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def quantile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a mean of all order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) distribution.  A
    single order statistic jumps whenever noise reorders commands of
    different cost around it; this estimate moves smoothly instead."""
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def _beta_cdf(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function, by its continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    # modified Lentz evaluation of the continued fraction
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return math.exp(log_front) * h / a


def end_to_end(bench: Bench, seconds: float) -> dict:
    """Set-up passes, then whole sessions for about `seconds`: another
    session starts while it would end nearer to `seconds` than stopping."""
    bench.command(next(iter(bench.paths)), bench.workload.setup)  # warm-up
    runs: list[Run] = []
    setups = []
    for _ in range(SETUP_REPEATS):
        passed = bench.setup()
        setups.append(sum(r.wall_s for r in passed))
        runs += passed
    sessions = []
    start = perf_counter()
    while True:
        sessions.append(bench.session())
        runs += sessions[-1]
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(sessions) / 2 >= seconds:
            break
    # each command's median over the sessions: a burst of host noise in one
    # session moves it less than it moves that session's sum
    walls = [statistics.median(r.wall_s for r in same)
             for same in zip(*sessions)]
    print(f"{bench.workload.name}: {len(sessions)} sessions of {len(walls)} "
          f"commands; cmd_s samples: {len(walls)} (median of "
          f"{len(sessions)} each); setup passes: {len(setups)}")
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "session_s": _metric(sum(walls), "s"),
        "cmd_s.p50": _metric(quantile(walls, 0.5), "s"),
        "cmd_s.p90": _metric(quantile(walls, 0.9), "s"),
        "peak_rss_mb": _metric(max(r.peak_rss_mb for r in runs), "MB"),
    }


def call_in_process(cli, argv) -> tuple[float, int | None, str]:
    """Run one command through `cli.run` in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            code = cli.run(argv)
        except Exception:  # a crash is a failed command, not a stop
            code = None
        seconds = perf_counter() - start
    return seconds, code, out.getvalue()


def in_process_sessions(bench: Bench, cli, trace: tracer.Tracer):
    """Run the command list in this process, each command once untraced and
    once traced, alternating which goes first so that drift and warm-up
    fall on both alike.  Return both summed times and the report bytes."""
    plain = traced = 0.0
    nbytes = 0
    commands = bench.workload.commands + bench.workload.probes
    for i, (slot, *args) in enumerate(commands):
        argv = [*args, "--doc", str(bench.paths[slot])]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                trace.request = i
                with trace:
                    seconds, code, text = call_in_process(cli, argv)
                traced += seconds
                nbytes += len(text.encode())
            else:
                seconds, code, text = call_in_process(cli, argv)
                plain += seconds
            bench.check(slot, args, code, text)
    return plain, traced, nbytes


def import_cost(env) -> float:
    """Median cost of `import latfuzz.cli` over a bare interpreter."""
    bare, loaded = [], []
    for _ in range(IMPORT_PROBES):
        for code, into in (("pass", bare), ("import latfuzz.cli", loaded)):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           check=True)
            into.append(perf_counter() - start)
    return statistics.median(loaded) - statistics.median(bare)


def per_layer(bench: Bench) -> dict:
    sys.path.insert(0, str(SRC))
    from latfuzz import cli

    trace = tracer.Tracer()
    plain_s, traced_s, nbytes = in_process_sessions(bench, cli, trace)
    trace.write(WORK / bench.workload.name / "trace.json")

    metrics = {f"{m}.self_s": _metric(s, "s")
               for m, s in trace.module_self_s().items()}
    for name in tracer.HOT:
        metrics[f"{name}.self_s"] = _metric(trace.self_s[name], "s")
    for name in COUNTED:
        metrics[f"{name}.calls"] = _metric(trace.calls[name], "count")
    metrics["cli.report_bytes"] = _metric(nbytes, "bytes")
    metrics["cli.import_s"] = _metric(import_cost(bench.env), "s")
    metrics["trace.overhead_s"] = _metric(traced_s - plain_s, "s")
    return metrics


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    bench = Bench(workloads.WORKLOADS[name], seed)
    metrics = per_layer(bench) if traced else end_to_end(bench, seconds)
    for m, v in metrics.items():
        print(f"  {m:40s} {v['value']:.6g} {v['unit']}")
    ratio = bench.failed / bench.attempted
    print(f"  fail_ratio {ratio:.4g} ({bench.failed}/{bench.attempted})")
    for line in bench.failures[:10]:
        print(f"  FAILED {line}", file=sys.stderr)
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latfuzz" / "cli.py").is_file():
        print(f"perfbench: no latfuzz sources under {SRC}", file=sys.stderr)
        return 2
    if not gate.REFERENCE.is_file():
        print(f"perfbench: missing {gate.REFERENCE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        results = {
            f"{name}/trace{t}": measure(name, args.seed, args.seconds, bool(t))
            for name in workloads.WORKLOADS for t in (0, 1)
        }
        print(json.dumps(results))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
