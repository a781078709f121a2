"""Benchmark of blend: derivative throughput, oracle cost and accuracy.

Usage (from the repository root):

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --write-spec        # regenerate BENCHMARK.json

One process runs one workload; ``--workload all`` runs each in its own
process.  Load is closed-loop from one client thread: each op starts when
the previous one has ended.  Whole rounds of the workload's ops repeat until
``--seconds`` have passed.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics; with ``--trace 1`` untraced and traced rounds
alternate and it carries the per-layer metrics, tracing overhead included.
BLAS runs on one thread; the program is imported from ``src/`` of the
checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Fresh processes timed from spawn to ready, spread over the run; setup_s is their median.
SETUP_REPEATS = 5

WORKLOAD_NAMES = [w["name"] for w in spec.WORKLOADS]

#: Workloads whose time is Python work, scaled to the host's reference speed
#: (see hostspeed.py).  The others stay as measured: remote-oracle's time is
#: mostly its oracle's fixed latency, which a slow host does not stretch, and
#: queue's is mostly numpy array arithmetic, which a slow host slows by
#: another factor than the pure-Python reference.
SPEED_SCALED = {"analytic", "cli"}

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """One BLAS thread, and the program's default serial grid, for this process and its children."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    # remote-oracle passes its worker count explicitly.
    os.environ.pop("BLEND_THREADS", None)


class ProgramMissing(RuntimeError):
    pass


def load_program():
    init = SRC / "blend" / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no program sources at {init.relative_to(ROOT)}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import blend

    if Path(blend.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"imported blend from {blend.__file__}, not from {init}")
    return blend


def build(workload: str, seed: int):
    import workloads

    ctx = workloads.Context(ROOT)
    return ctx, workloads.BUILDERS[workload](ctx, seed)


def measure_setup(workload: str, seed: int) -> float:
    """Spawn-to-ready time of a fresh process that imports blend and builds the inputs."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up process exited {code} before it was ready")
    return elapsed


class Runner:
    """Runs whole rounds, keeps the first outcome of each op and checks the rest repeat it."""

    def __init__(self, ops, host=None):
        self.ops = ops
        self.host = host
        self.first = [None] * len(ops)
        self.latencies_ns: list[list[int]] = [[] for _ in ops]
        self.rounds = 0
        self.evals = 0
        self.evals_counted = 0
        self.nondeterministic: list[str] = []

    def round(self, tracer=None) -> int:
        start = time.perf_counter_ns()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op += 1
            t0 = time.perf_counter_ns()
            out = op.execute()
            self.latencies_ns[i].append(time.perf_counter_ns() - t0)
            if self.host is not None:
                self.host.tick()
            if out.evals is not None:
                self.evals += out.evals
                self.evals_counted += 1
            key = (repr(out.value), out.evals, repr(out.detail[:2]))
            if self.first[i] is None:
                self.first[i] = (key, out)
            elif self.first[i][0] != key and len(self.nondeterministic) < 5:
                self.nondeterministic.append(f"{op.label}: {key} after {self.first[i][0]}")
        self.rounds += 1
        return time.perf_counter_ns() - start

    def verdicts(self):
        return [op.check(first[1]) for op, first in zip(self.ops, self.first)]


def summary(runner: Runner, verdicts) -> tuple[dict, list[str]]:
    """correct/attempted/failed, and the reasons behind anything wrong."""
    problems = [f"nondeterministic: {text}" for text in runner.nondeterministic]
    failures = []
    for op, verdict in zip(runner.ops, verdicts):
        if verdict.fatal:
            problems.append(f"wrong: {op.label}: {verdict.fatal}")
        elif verdict.failure:
            failures.append(f"failed: {op.label}: {verdict.failure}")
    attempted = runner.rounds * len(runner.ops)
    failed = runner.rounds * len(failures)
    return {"correct": not problems, "attempted": attempted, "failed": failed}, problems + failures


def fast_decile(samples: list[int]) -> int:
    """The k-th smallest of an op's latencies, k = n // 10 (0-based): its undisturbed time."""
    return sorted(samples)[len(samples) // 10]


def end_to_end(runner: Runner, verdicts, setup_times: list[float], slowdown: float = 1.0) -> dict:
    """Timings from each op's fast-decile latency over the run's rounds, divided by ``slowdown``.

    Every op runs once per round.  On a shared host whose core speed drifts
    by up to 1.6x over tens of seconds, the fast decile of each op's samples
    discards the slow stretches inside a run, which plain means do not.
    """
    per_op_ms = sorted(fast_decile(samples) / 1e6 / slowdown for samples in runner.latencies_ns)
    digits = [v.digits for v in verdicts if v.digits is not None]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(per_op_ms) / (sum(per_op_ms) / 1e3),
        "latency_p50_ms": statistics.median(per_op_ms),
        "latency_p90_ms": statistics.quantiles(per_op_ms, n=10, method="inclusive")[8] if len(per_op_ms) > 1 else per_op_ms[0],
        "evals_per_op": runner.evals / runner.evals_counted if runner.evals_counted else 0.0,
        "correct_digits_p50": statistics.median(digits) if digits else 0.0,
    }


def environment() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_program()
    ctx, ops = build(workload, seed)
    if not trace:
        host = hostspeed.Sampler()
        runner = Runner(ops, host)
        # Set-up samples are spread over the run, outside the timed rounds, so
        # they do not all land in one slow or fast stretch of the host.
        setup_times = [measure_setup(workload, seed)]
        loop_ns = 0
        while loop_ns < seconds * 1e9:
            loop_ns += runner.round()
            if len(setup_times) < SETUP_REPEATS and loop_ns >= len(setup_times) * seconds * 1e9 / SETUP_REPEATS:
                setup_times.append(measure_setup(workload, seed))
        while len(setup_times) < SETUP_REPEATS:
            setup_times.append(measure_setup(workload, seed))
        verdicts = runner.verdicts()
        head, notes = summary(runner, verdicts)
        slowdown = host.slowdown()
        metrics = end_to_end(runner, verdicts, setup_times, slowdown if workload in SPEED_SCALED else 1.0)
        measured = end_to_end(runner, verdicts, setup_times)
        print("as measured " + json.dumps(measured, sort_keys=True))
        extra = {
            "setup_s_samples": setup_times,
            "rounds": runner.rounds,
            "ops_per_round": len(ops),
            "host_slowdown": slowdown,
            "host_samples": len(host.samples),
            "metrics_as_measured": measured,
        }
    else:
        runner = Runner(ops)
        import workloads
        from spans import LayerStats, Tracer, install_cli_spans, install_program_spans

        tracer = Tracer()
        stats = LayerStats()
        plain_ns = traced_ns = 0
        start = time.perf_counter()
        while True:
            plain_ns += runner.round()
            ctx.tracer = tracer
            (install_cli_spans if workload == "cli" else install_program_spans)(tracer)
            try:
                traced_ns += runner.round(tracer)
            finally:
                tracer.unwrap()
                ctx.tracer = None
            stats.add(tracer.take(), len(ops))
            if time.perf_counter() - start >= seconds:
                break
        if workload == "cli":
            # After the rounds: a fresh interpreter leaves the caches cold for
            # the round that follows it, which would skew trace.overhead_pct.
            for _ in range(5):
                workloads.trace_cold_import(ROOT, tracer)
            stats.add(tracer.take(), 0)
        head, notes = summary(runner, runner.verdicts())
        metrics = stats.metrics(100.0 * (traced_ns / plain_ns - 1.0))
        trace_path = RESULTS / f"trace-{workload}-seed{seed}.jsonl"
        stats.write(trace_path)
        extra = {"rounds": runner.rounds, "ops_per_round": len(ops), "trace_file": str(trace_path.relative_to(ROOT))}
    for note in notes:
        print(note)
    result = dict(head, metrics={name: {"value": value, "unit": spec.UNITS[name]} for name, value in metrics.items()})
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "env": environment(), **extra, "result": result, "notes": notes}
    print("env " + json.dumps(record["env"], sort_keys=True))
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; prints every metric per workload, then all results as one JSON line."""
    results = {}
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exited {done.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(lines[-1])
    for workload, result in results.items():
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json at the repository root and exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_environment()
    if args.write_spec:
        print(spec.write_benchmark_json(ROOT))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.setup_only:
            load_program()
            build(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        if args.workload == "all":
            return run_all(args.seed, args.seconds, args.trace)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
