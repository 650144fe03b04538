"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload, untraced and traced, it runs run.py with --tiny and
checks that:
  - the last line is the result object, with exactly the keys correct,
    attempted, failed and metrics, and correct is true;
  - its metrics are exactly the end_to_end (untraced) or per_layer (traced)
    metrics of BENCHMARK.json, each with the unit given there;
  - every one of them is also printed on its own line with that unit;
  - in the traced run the self times of all layers plus the unattributed
    remainder add up to the traced wall time.
It also checks that a repetition that raises, traced or not, counts as one
failed check and has no wall time, and that a directory holding only
BENCHMARK.json and the benchmark's files makes run.py exit with an error
and print no result.
Exits 0 when every check holds.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=170)


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = bench(ROOT, workload, trace)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: correct is {result.get('correct')}")
    section = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        errors.append(f"{where}: metrics/units differ from BENCHMARK.json:"
                      f" {sorted(set(got.items()) ^ set(want.items()))}")
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            printed[parts[0]] = parts[2]
    for name, unit in want.items():
        if printed.get(name) != unit:
            errors.append(f"{where}: {name} printed with unit"
                          f" {printed.get(name)!r}, expected {unit!r}")
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) \
            + m["trace.unattributed_s"]
        if not math.isclose(total, m["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-12):
            errors.append(f"{where}: self times plus remainder {total!r}"
                          f" != traced wall {m['trace.wall_s']!r}")
    return errors


def check_crash_counted() -> list[str]:
    def boom(rep, raw, cfg, scratch):
        with rep.measure():
            raise RuntimeError("boom")
    errors = []
    for traced in (False, True):
        rec = spans.Recorder() if traced else None
        rep = worker.repetition(boom, {}, None, run.OUT, rec)
        if (rep["attempted"], rep["failed"], rep["wall_s"]) != (1, 1, None) \
                or "boom" not in rep["failures"][0]:
            errors.append(f"crash, traced {traced}: {rep}")
    return errors


def check_bare_directory() -> list[str]:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench(bare, "particle-band", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode},"
                f" stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.OUT.mkdir(exist_ok=True)
    errors = check_crash_counted() + check_bare_directory()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            errors += check_run(workload, trace, spec)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "ok" if not errors else f"{len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
