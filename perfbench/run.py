"""stefanlab benchmark: end-to-end metrics, and per-layer metrics from a traced run.

    python3 perfbench/run.py --workload particle-band --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload in turn

Run from the root of a checkout; the program is imported from its src/
tree.  Every repetition runs in a fresh worker process with BLAS and OpenMP
pools pinned to one thread, so its set-up time and peak RSS are its own, as
for a user who runs one scenario per process.  Repetitions follow one
another until --seconds have passed (at least one), each followed by
SETUP_PROBES set-up-only processes, so that set-up samples are spread over
the run like the repetitions: the machine's speed drifts over seconds.

setup_s is the fastest set-up over all these processes, after one
unmeasured warm-up that fills the bytecode and file caches: set-up is the
same fixed work every time, and on a shared host its samples mix a fast and
a slow mode, whose median flips between the two from run to run.  wall_s is
the median time to solution and peak_rss_mb the median peak RSS over the
repetitions.  With --trace 1 one more process runs a repetition with every
layer wrapped in spans, and the per-layer metrics of BENCHMARK.json are
reported instead.

Every run checks the program's outputs (fail_ratio = failed / attempted
checks; an exception counts as a failure), records a sha256 digest of the
frontier and compares it with perfbench/digests.json (a mismatch is
informational), and appends its full record, with the machine it ran on, to
perfbench/out/results.jsonl.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("particle-band", "grid-ladder", "lab-roundtrip")
SETUP_PROBES = 2        # set-up-only processes after each repetition
# time a run may take beyond --seconds: the warm-up, the repetition under
# way when the time is up, and the traced repetition
MARGIN_S = 140
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def machine() -> dict:
    """CPU count, model and cache sizes, as far as the system exposes them."""
    info = {"nproc": os.cpu_count(), "cpu_model": "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Data" and level in ("2", "3"):
            info[f"l{level}"] = size
    return info


def worker(args: list[str], env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--out", str(OUT)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0),
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("run exceeded its deadline of --seconds"
                         f" + {MARGIN_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def median_of(reps: list[dict], key) -> float | None:
    vals = [key(r) for r in reps]
    vals = [v for v in vals if v is not None]
    return statistics.median(vals) if vals else None


def run_workload(name: str, seed: int, seconds: int, trace: int, tiny: bool,
                 spec: dict, env: dict) -> dict:
    base = ["--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    deadline = time.monotonic() + seconds + MARGIN_S
    # unmeasured warm-up: fills the bytecode and file caches
    worker(base + ["--setup-only"], env, deadline)
    runs, setups = [], []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(worker(base, env, deadline))
        setups += [worker(base + ["--setup-only"], env, deadline)["setup_s"]
                   for _ in range(SETUP_PROBES)]
    setups += [r["setup_s"] for r in runs]
    traced = worker(base + ["--trace", "1"], env, deadline) if trace else None

    reps = [r["rep"] for r in runs]
    checked = reps + ([traced["rep"]] if trace else [])
    attempted = sum(r["attempted"] for r in checked)
    failed = sum(r["failed"] for r in checked)
    wall_s = median_of(reps, lambda r: r["wall_s"])
    if wall_s is None:
        raise BenchError("no repetition completed:\n" + "\n".join(reps[0]["failures"]))
    end_to_end = {"setup_s": min(setups), "wall_s": wall_s,
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs)}
    # figures only some workloads have; reported as 0 by the others
    extra = {f"{p}_s": median_of(reps, lambda r, p=p: r["phases"].get(p)) or 0.0
             for p in ("simulate", "analyze", "verify")}
    extra["front_gap_rel"] = median_of(reps, lambda r: r["front_gap_rel"]) or 0.0
    extra["fail_ratio"] = failed / attempted

    digests = json.loads((HERE / "digests.json").read_text())
    digest = next((r["digest"] for r in checked if r["digest"]), None)
    # "any" holds the digest of a workload whose frontier the seed cannot move
    ref = {} if tiny else digests.get(name, {})
    expected = ref.get(str(seed), ref.get("any"))
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": machine(), "versions": runs[0]["versions"],
        "threads": {k: env[k] for k in THREAD_VARS},
        "repetitions": len(reps), "setup_samples_s": setups,
        "end_to_end": end_to_end, **extra,
        "attempted": attempted, "failed": failed,
        "failures": [f for r in checked for f in r["failures"]],
        "digest": digest,
        "digest_match": None if expected is None else digest == expected,
        "reps": reps,
    }
    if trace:
        layers = dict(traced["layers"])
        # traced and untraced wall times cover the same calls into the
        # program; a traced repetition that crashed has no overhead figure
        traced_wall = traced["rep"]["wall_s"]
        layers["trace.overhead_s"] = \
            0.0 if traced_wall is None else traced_wall - wall_s
        layers.update(extra)
        record["per_layer"] = layers
        record["traced_rep"] = traced["rep"]
        record["spans_file"] = traced["spans_file"]

    section = spec["per_layer"] if trace else spec["end_to_end"]
    values = record["per_layer"] if trace else end_to_end
    names = {m["name"] for m in section}
    if set(values) != names:
        raise BenchError(f"measured metrics differ from BENCHMARK.json:"
                         f" missing {sorted(names - set(values))},"
                         f" unknown {sorted(set(values) - names)}")
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in section}
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def report(rec: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    m = rec["machine"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}"
          f"  ({rec['repetitions']} repetitions in {rec['seconds']} s)")
    print(f"   nproc {m['nproc']}, {m['cpu_model']}, L2 {m.get('l2', '?')},"
          f" L3 {m.get('l3', '?')}; python {rec['versions']['python']},"
          f" numpy {rec['versions']['numpy']}, scipy {rec['versions']['scipy']};"
          f" threads {rec['threads']['OMP_NUM_THREADS']}")
    rows = dict(rec["end_to_end"])
    for key in ("simulate_s", "analyze_s", "verify_s", "front_gap_rel", "fail_ratio"):
        rows[key] = rec[key]
    if rec["trace"]:
        rows.update(rec["per_layer"])
    for name, value in rows.items():
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6f}"
        print(f"  {name:<58} {text:>16} {units[name]}")
    print(f"   checks: {rec['failed']} failed of {rec['attempted']}")
    for f in rec["failures"]:
        print(f"   FAIL {f.strip()}")
    print(f"   frontier sha256 {rec['digest']}  digest_match {rec['digest_match']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="reduced sizes, for the self-test only")
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "stefanlab" / "__init__.py").is_file() \
            or not spec_path.is_file():
        print(f"error: {ROOT} is not a stefanlab checkout (src/stefanlab or"
              " BENCHMARK.json missing)", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    env = {**os.environ, **{k: "1" for k in THREAD_VARS}}
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, seconds, args.trace, args.tiny,
                                spec, env) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        report(rec, spec)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["failed"] == 0 for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
