#!/usr/bin/env python3
"""The benchmark's own fast self-test, at tiny sizes (about 15 seconds).

    python3 perfbench/selftest.py

It checks that every workload, in both modes, prints every metric that
BENCHMARK.json lists, with its unit, and passes the output gate;
that a corrupted output is counted as a failure; that the per-layer counts
repeat exactly across two traced runs with the same seed; and that the
benchmark refuses to run without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    """Run run.py at tiny size; returns (exit code, result line, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--size", "tiny", "--seconds", "0.3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


def test_every_metric_printed_with_unit():
    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            spec = {m["name"]: m["unit"] for m in SPEC[key]}
            code, result, out = bench("--workload", workload, "--seed", "5", "--trace", trace)
            assert code == 0 and result is not None, out
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, out
            assert set(result["metrics"]) == set(spec), (workload, trace, sorted(result["metrics"]))
            for name, metric in result["metrics"].items():
                assert metric["unit"] == spec[name], (name, metric)
                assert isinstance(metric["value"], (int, float)), (name, metric)
                if trace == "0":
                    assert metric["value"] > 0, (workload, name, metric)


def test_corrupted_output_is_a_failure():
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, result, out = bench("--workload", workload, "--seed", "5", "--trace", trace, "--corrupt")
            assert code == 1 and result is not None, out
            assert result["correct"] is False and result["failed"] >= 1, (workload, trace, result)


def test_gate_checks_reject_altered_outputs():
    table = b"s[0] * s[0] = 1\ns[0] * s[1] = s[1]\ns[1] * s[0] = s[1]\ns[1] * s[1] = q*1\n"
    transposed = {"result": {"rows": [
        {"left": l, "right": r, "terms": [{"q": q, "partition": p, "coeff": 1}]}
        for l, r, q, p in (("0", "0", 0, "0"), ("0", "1", 0, "1"), ("1", "0", 0, "1"), ("1", "1", 1, "0"))
    ]}}
    assert checks.check_transpose(table, json.dumps(transposed).encode()) == []
    transposed["result"]["rows"][3]["terms"][0]["coeff"] = 2
    assert checks.check_transpose(table, json.dumps(transposed).encode())
    nd = "".join(f"{d}: {v}\n" for d, v in enumerate(checks.KNOWN_ND, 1)).encode()
    assert checks.check_nd_table(nd, 7) == []
    assert checks.check_nd_table(nd.replace(b"3: 12", b"3: 13"), 7)
    assert checks.check_count(2, ((1,), (2,)), (4, 1, 2), (8, 2, 2)) == []
    assert checks.check_count(2, ((1,), (2,)), (4, 1, 2), (8, 2, 4))


def test_traced_counts_repeat():
    for workload in WORKLOADS:
        runs = [bench("--workload", workload, "--seed", "9", "--trace", "1") for _ in range(2)]
        counts = [
            {k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "ratio", "bytes", "digits")}
            for _, result, _ in runs
        ]
        assert counts[0] == counts[1], (workload, counts)


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench-out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, result, out = bench("--workload", "plane", "--seed", "1", "--trace", "0", cwd=bare)
        assert code not in (0, 1) and result is None, out
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {str(exc)[:2000]}")
    print("selftest:", "PASS" if not failures else f"{failures} FAILED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
