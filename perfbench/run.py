#!/usr/bin/env python3
"""qschub's benchmark: one command that runs a workload, checks every
output, and prints each metric by name with its unit.

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0

Run it from the repository root.  Workloads (see README.md for why each was
chosen and which layer metrics should move which end-to-end metric):

  table    cold `qschub qtable "G(3,8)"`, then cold `qschub qtable "G(5,8)" --json`
  plane    `qschub nd --upto 350`
  session  library processes, one at a time, each replaying a seeded stream
           of queries, warm

With --trace 0 the workload runs in child processes, one at a time, in a
closed loop, and the end-to-end metrics are printed.  With --trace 1 the
same workload runs in this process through qschub.cli.parse_and_dispatch
(or the session stream), alternating untraced and traced passes, and the
per-layer metrics are printed.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; details, the
environment and the spans go to .perfbench-out/.  The exit code is 0 when
every output passed the gate, 1 when one did not, 2 when the benchmark
could not run.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import checks
import session as session_mod
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench-out"
SPEC = ROOT / "BENCHMARK.json"

CLI_WORKLOADS = {
    "table": {
        "full": (("qtable", "G(3,8)"), ("qtable", "G(5,8)", "--json")),
        "tiny": (("qtable", "G(2,5)"), ("qtable", "G(3,5)", "--json")),
    },
    "plane": {
        "full": (("nd", "--upto", "350"),),
        "tiny": (("nd", "--upto", "12"),),
    },
}
MIN_ITERATIONS = 3
# Set-up is measured at least this many times per run, spread over the run
# (after each timed iteration; for session, once in each of this many
# library processes) rather than in one burst before timing, so that one fast
# or slow moment of a shared machine does not decide it.  The median is
# reported.
SETUP_SAMPLES = 7
# On a shared virtual machine each vCPU switches, about once a second,
# between an uncontended speed and a contended one about 1.45 times slower,
# and the share of time in each drifts from minute to minute.  Times are
# therefore taken in one state, not in a mix of both.  A session pass (about
# 0.1 s) often runs wholly uncontended, and a query (microseconds) almost
# always has uncontended repetitions, so session reports its fastest pass
# and each query's fastest latency.  A cold command (1-3 s) seldom runs
# wholly uncontended, but often wholly contended, so table and plane report
# the upper decile of each command's runs (the second slowest of 10-19), which
# also passes over one outlier.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result line)."""


# -- child processes ------------------------------------------------------


def child_env() -> tuple[dict, list]:
    """The environment every child gets: this one without PYTHON* and
    QSCHUB_* variables, plus the checkout's src/ and a fixed hash seed."""
    removed = sorted(k for k in os.environ if k.startswith(("PYTHON", "QSCHUB_")))
    env = {k: v for k, v in os.environ.items() if k not in removed}
    env.update(PYTHONPATH=f"{SRC}{os.pathsep}{BENCH}", PYTHONHASHSEED="0")
    return env, removed


class Child:
    """One finished child: wall time, CPU time, time to its READY line, peak
    RSS (CPU time and RSS from os.wait4, so they are this child's own), exit
    code and output."""

    def __init__(self, argv, env, stdin: bytes | None = None, ready: bool = False):
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        status = None
        try:
            if stdin is not None:
                with contextlib.suppress(BrokenPipeError):
                    proc.stdin.write(stdin)
                    proc.stdin.close()
            self.ready_s = None
            if ready and proc.stdout.readline() == b"READY\n":
                self.ready_s = time.perf_counter() - start
            self.stdout = proc.stdout.read()
            self.stderr = proc.stderr.read()
            _, status, usage = os.wait4(proc.pid, 0)
            self.wall_s = time.perf_counter() - start
        finally:
            watchdog.cancel()
            if status is None:
                proc.kill()
                os.wait4(proc.pid, 0)
            proc.returncode = 0 if status is None else os.waitstatus_to_exitcode(status)
            for stream in (proc.stdin, proc.stdout, proc.stderr):
                if stream is not None:
                    with contextlib.suppress(OSError):
                        stream.close()
        self.code = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def warm_up(env) -> None:
    """One untimed invocation, so that __pycache__ exists before timing and
    set-up does not include compiling; also proves which qschub runs."""
    probe = Child([sys.executable, "-c", "import qschub.cli, session; print(qschub.__file__)"], env)
    expected = SRC / "qschub" / "__init__.py"
    if probe.code != 0 or Path(probe.stdout.decode().strip()) != expected:
        raise BenchError(f"qschub does not import from {expected}: {probe.stderr.decode().strip()}")
    Child([sys.executable, "-m", "qschub", "info", "G(2,4)"], env)


def nearest_rank(ordered, q: float):
    """The nearest-rank q-quantile of an ascending sequence: the smallest
    value with at least a share q of the values at or below it."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- the output gate for CLI workloads ------------------------------------


def check_cli(workload: str, size: str, outputs: list, codes: list) -> list:
    """Failure messages per operation (one process each)."""
    golden = checks.load_golden(size)[workload]
    failures = [[] for _ in outputs]
    for i, (data, code) in enumerate(zip(outputs, codes)):
        if code != 0:
            failures[i].append(f"op {i}: exit code {code}")
        failures[i] += checks.check_golden(f"op {i}", data, golden[i])
    argv = CLI_WORKLOADS[workload][size]
    if workload == "table":
        failures[1] += checks.check_transpose(outputs[0], outputs[1])
    else:
        failures[0] += checks.check_nd_table(outputs[0], int(argv[0][2]))
    return failures


def corrupt_bytes(data: bytes) -> bytes:
    """Fault injection for the self-test: change the last digit."""
    for i in range(len(data) - 1, -1, -1):
        if data[i : i + 1].isdigit():
            return data[:i] + (b"7" if data[i : i + 1] != b"7" else b"3") + data[i + 1 :]
    return data + b"0"


class Tally:
    """Operations attempted and failed, with the failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, op_failures: list) -> None:
        """One operation, failed if it has any failure message."""
        self.add_many(1, 1 if op_failures else 0, op_failures)

    def add_many(self, attempted: int, failed: int, messages: list) -> None:
        self.attempted += attempted
        self.failed += failed
        self.failures += messages


# -- untraced: child processes ---------------------------------------------


def run_cli_untraced(args, env, tally: Tally, details: dict) -> dict:
    argvs = CLI_WORKLOADS[args.workload][args.size]

    def setup() -> float:
        return Child([sys.executable, "-c", "import qschub.cli"], env).wall_s

    setups, iterations = [], []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(iterations) < MIN_ITERATIONS:
        children = [Child([sys.executable, "-m", "qschub", *argv], env) for argv in argvs]
        outputs = [c.stdout for c in children]
        if args.corrupt:
            outputs[0] = corrupt_bytes(outputs[0])
        for op in check_cli(args.workload, args.size, outputs, [c.code for c in children]):
            tally.add(op)
        iterations.append({
            "wall_s": sum(c.wall_s for c in children),
            "child_wall_s": [c.wall_s for c in children],
            "child_cpu_s": [c.cpu_s for c in children],
            "rss_mb": max(c.rss_mb for c in children),
            "child_rss_mb": [c.rss_mb for c in children],
        })
        setups.append(setup())
    setups += [setup() for _ in range(SETUP_SAMPLES - len(setups))]
    # Each command's upper decile of runs; the commands are the operations.
    commands = sorted(nearest_rank(sorted(times), 0.9) for times in zip(*(it["child_wall_s"] for it in iterations)))
    details.update(setup_samples_s=setups, iterations=iterations)
    return {
        "wall_s": sum(commands),
        "setup_s": median(setups),
        "peak_rss_mb": median(it["rss_mb"] for it in iterations),
        "query_p50_us": nearest_rank(commands, 0.50) * 1e6,
        "query_p99_us": nearest_rank(commands, 0.99) * 1e6,
    }


def run_session_untraced(args, env, tally: Tally, details: dict) -> dict:
    """SETUP_SAMPLES library children one after another, each timed for an
    equal share of the run, so that the set-ups are spread over the run."""
    stream = session_mod.build_stream(args.seed, args.size)
    argv = [sys.executable, "-c", "import session; session.child_main()"]
    request = json.dumps({
        "stream": stream, "seconds": args.seconds / SETUP_SAMPLES, "min_passes": MIN_ITERATIONS,
        "golden": checks.load_golden(args.size)["session"], "corrupt": args.corrupt,
    }).encode()

    children, results = [], []
    for _ in range(SETUP_SAMPLES):
        child = Child(argv, env, request, ready=True)
        try:
            result = json.loads(child.stdout.decode().splitlines()[-1])
        except (IndexError, ValueError):
            raise BenchError(f"session child gave no result: {child.stderr.decode()[-2000:]}") from None
        tally.add_many(result["attempted"], result["failed"], result["failures"])
        children.append(child)
        results.append(result)
    pass_ns = [wall for result in results for wall in result["pass_ns"]]
    best_ns = sorted(map(min, *(result["best_ns"] for result in results)))
    details.update(setup_samples_s=[c.ready_s for c in children], child_rss_mb=[c.rss_mb for c in children],
                   pass_ns=pass_ns)
    return {
        "wall_s": min(pass_ns) / 1e9,
        "setup_s": median(c.ready_s for c in children),
        "peak_rss_mb": median(c.rss_mb for c in children),
        "query_p50_us": nearest_rank(best_ns, 0.50) / 1e3,
        "query_p99_us": nearest_rank(best_ns, 0.99) / 1e3,
    }


# -- traced: in this process ------------------------------------------------


class Library:
    """The qschub modules, imported into this process (trace mode only)."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        start = time.perf_counter()
        import qschub
        import qschub.cli

        self.import_s = time.perf_counter() - start
        if Path(qschub.__file__) != SRC / "qschub" / "__init__.py":
            raise BenchError(f"qschub imported from {qschub.__file__}, not {SRC}")
        for layer in LAYERS:
            setattr(self, layer, getattr(qschub, layer))

    def caches(self, layer: str) -> list:
        """The memo caches (functools.lru_cache) defined in a layer's module."""
        module = getattr(self, layer)
        return [obj for obj in list(vars(module).values())
                if callable(getattr(obj, "cache_info", None)) and getattr(obj, "__module__", None) == module.__name__]

    def cache_totals(self) -> dict:
        """(hits, misses) summed over each layer's memo caches."""
        totals = {}
        for layer in LAYERS:
            infos = [cache.cache_info() for cache in self.caches(layer)]
            totals[layer] = (sum(i.hits for i in infos), sum(i.misses for i in infos))
        return totals

    def clear_caches(self) -> None:
        """Empty every memo cache: a cold start without a new process."""
        for layer in LAYERS:
            for cache in self.caches(layer):
                cache.cache_clear()
        reset = getattr(self.plane_curves, "reset_cache", None)
        if reset is not None:
            reset()

    def run_cli(self, argv) -> tuple[int, bytes, float]:
        """One cold command, as `qschub ARGV` would run it; an exception
        escaping the CLI reads as exit code 1."""
        self.clear_caches()
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            try:
                code = self.cli.parse_and_dispatch(list(argv))
            except Exception:  # counted as a failed operation
                code = 1
        return code, buffer.getvalue().encode("utf-8"), time.perf_counter() - start


def layer_metrics(tracer, caches_before: dict, caches_after: dict, output_bytes: int) -> dict:
    c = tracer.counts
    self_s = tracer.self_times()

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def hit_ratio(layer):
        hits = caches_after[layer][0] - caches_before[layer][0]
        misses = caches_after[layer][1] - caches_before[layer][1]
        return ratio(hits, hits + misses)

    def layer_self(layer):
        return sum((v for k, v in self_s.items() if k.split(".", 1)[0] == layer), 0.0)

    return {
        "partitions.shapes": c["partitions.shapes"],
        "partitions.self_s": layer_self("partitions"),
        "partitions.contains_ratio": ratio(c["partitions.filter_passed"], c["partitions.filtered"]),
        "lr.coeff_calls": c["lr.lr_coefficient"],
        "lr.coeff_nonzero_ratio": ratio(c["lr.nonzero"], c["lr.lr_coefficient"]),
        "lr.expansions": c["lr.schur_product"],
        "lr.self_s": layer_self("lr"),
        "lr.cache_hit_ratio": hit_ratio("lr"),
        "quantum.products": c["quantum.quantum_product"],
        "quantum.cache_hit_ratio": hit_ratio("quantum"),
        "quantum.reductions": c["quantum.rim_hook_reduce"],
        "quantum.hooks_removed": c["quantum.hooks_removed"],
        "quantum.terms_killed": c["quantum.terms_killed"],
        "quantum.reduce_self_s": self_s["quantum.rim_hook_reduce"],
        "quantum.mul_self_s": self_s["quantum.mul"],
        "quantum.self_s": layer_self("quantum"),
        "gromov_witten.queries": c["gromov_witten.gw_spoint"],
        "gromov_witten.three_point_calls": c["gromov_witten.gw_3point"],
        "gromov_witten.self_s": layer_self("gromov_witten"),
        "counting.problems": c["counting.rational_curve_count"],
        "counting.self_s": layer_self("counting"),
        "plane_curves.nd_calls": c["plane_curves.kontsevich_nd"],
        "plane_curves.comb_calls": c["plane_curves.comb_calls"],
        "plane_curves.self_s": layer_self("plane_curves"),
        "plane_curves.max_digits": len(str(tracer.max_nd)) if tracer.max_nd else 0,
        "cli.parse_s": self_s["cli.parse"],
        "cli.handler_s": self_s["cli.handler"],
        "cli.render_s": self_s["cli.render"],
        "cli.output_bytes": output_bytes,
        "trace.spans": len(tracer.name),
    }


def run_traced(args, tally: Tally, details: dict) -> dict:
    lib = Library()
    untraced, traced, per_pass = [], [], []
    if args.workload == "session":
        sess = session_mod.Session(lib, session_mod.build_stream(args.seed, args.size))
        lib.clear_caches()
        _, _, fill = sess.run_pass()
        failed, messages = sess.check_fill(fill, checks.load_golden(args.size)["session"], args.corrupt)
        tally.add_many(len(fill), len(failed), messages)

    def one_pass():
        """One workload iteration (table, plane) or warm pass (session);
        returns (wall seconds, output bytes)."""
        if args.workload == "session":
            wall, _, results = sess.run_pass()
            failed, messages = sess.check_repeat(results)
            tally.add_many(len(results), len(failed), messages)
            return wall / 1e9, 0
        argvs = CLI_WORKLOADS[args.workload][args.size]
        runs = [lib.run_cli(argv) for argv in argvs]
        outputs = [data for _, data, _ in runs]
        if args.corrupt:
            outputs[0] = corrupt_bytes(outputs[0])
        for op in check_cli(args.workload, args.size, outputs, [code for code, _, _ in runs]):
            tally.add(op)
        return sum(wall for _, _, wall in runs), sum(len(d) for d in outputs)

    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(traced) < 1:
        untraced.append(one_pass()[0])
        tracer = Tracer(lib)
        before = lib.cache_totals()
        tracer.install()
        try:
            wall, output_bytes = one_pass()
        finally:
            tracer.restore()
        traced.append(wall)
        per_pass.append(layer_metrics(tracer, before, lib.cache_totals(), output_bytes))
        if len(per_pass) == 1:
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
            tracer.write(spans)
            details.update(spans_file=str(spans.relative_to(ROOT)), missing_names=tracer.missing)

    # Counts come from the first traced pass (every pass must repeat them);
    # times are medians over the traced passes.
    first = per_pass[0]
    metrics = {}
    for name in first:
        values = [m[name] for m in per_pass]
        if name.endswith("_s"):
            metrics[name] = median(values)
        else:
            metrics[name] = first[name]
            if any(v != first[name] for v in values):
                details.setdefault("count_drift", []).append({name: values})
    metrics["import_s"] = lib.import_s
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    details.update(untraced_wall_s=untraced, traced_wall_s=traced)
    return metrics


# -- main -------------------------------------------------------------------


def environment(env: dict, removed: list) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "child_env": {"PYTHONPATH": env["PYTHONPATH"], "PYTHONHASHSEED": env["PYTHONHASHSEED"],
                      "removed": removed},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("table", "plane", "session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="alter one output before the gate, to show the gate rejects it")
    args = parser.parse_args(argv)

    try:
        if not (SRC / "qschub" / "__init__.py").is_file():
            raise BenchError(f"no qschub sources under {SRC}")
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        listed = spec["per_layer" if args.trace else "end_to_end"]
        env, removed = child_env()
        details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "size": args.size, "environment": environment(env, removed)}
        warm_up(env)
        tally = Tally()
        if args.trace:
            metrics = run_traced(args, tally, details)
        elif args.workload == "session":
            metrics = run_session_untraced(args, env, tally, details)
        else:
            metrics = run_cli_untraced(args, env, tally, details)
        unmeasured = [m["name"] for m in listed if m["name"] not in metrics]
        if unmeasured:
            raise BenchError(f"{SPEC.name} lists metrics this benchmark does not measure: {unmeasured}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    details.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                   error_rate=tally.failed / max(tally.attempted, 1), failures=tally.failures[:50])
    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    for failure in tally.failures[:10]:
        print(f"# FAIL {failure}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {tally.attempted} operations, "
          f"{tally.failed} failed, error_rate={details['error_rate']:g}; details in {report.relative_to(ROOT)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
