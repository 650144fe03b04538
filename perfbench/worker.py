"""One repetition of one workload in a fresh process, started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N [--trace 0|1]
        [--setup-only] [--tiny] --out DIR

Set-up is timed from the first line of this file: importing numpy, scipy
and stefanlab, validating the config and building the density, up to the
first solver call.  With --setup-only the worker stops there.  Otherwise it
runs one repetition, untraced, or with --trace 1 with every layer wrapped in
spans, and reports it with its peak RSS as one JSON line on standard output.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# the program is run from its source tree, never from an installed copy
sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int, tiny: bool):
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (the grid solver's banded solve)
    import stefanlab
    if Path(stefanlab.__file__).resolve().parent != SRC / "stefanlab":
        raise RuntimeError(f"imported stefanlab from {stefanlab.__file__},"
                           f" not from {SRC}")
    import workloads
    from stefanlab import harness
    raw = workloads.config(workload, seed, tiny)
    cfg = harness.scenario_from_dict(raw)
    harness.build_density(cfg.density)
    versions = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__}
    return raw, cfg, time.perf_counter() - T0, versions


def repetition(runner, raw, cfg, scratch: Path, recorder=None) -> dict:
    """One repetition; an exception counts as one failed check."""
    import workloads
    rep = workloads.Rep(recorder)
    try:
        runner(rep, raw, cfg, scratch)
    except Exception:
        rep.crashed(traceback.format_exc())
    return rep.as_dict()


def traced_rep(runner, raw, cfg, scratch: Path, out: Path, tag: str):
    """One repetition with every layer wrapped in spans; the spans go to a
    file under out, and the per-layer metrics are returned with the rep."""
    import spans
    from stefanlab import harness
    invariant_ids = [iid for iid, _ in harness.INVARIANT_REGISTRY]
    rec = spans.Recorder()
    rec.install()
    try:
        rep = repetition(runner, raw, cfg, scratch, rec)
    finally:
        rec.uninstall()
    metrics = spans.layer_metrics(rec, invariant_ids)
    t_first = rec.spans[0][spans.START] if rec.spans else 0.0
    rows = [[s[spans.NAME], s[spans.PARENT], s[spans.START] - t_first,
             s[spans.END] - t_first] for s in rec.spans]
    path = out / f"spans-{tag}.json"
    path.write_text(json.dumps(
        {"fields": ["name", "parent", "start_s", "end_s"], "spans": rows}))
    return rep, metrics, str(path.relative_to(HERE.parent))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    raw, cfg, setup_s, versions = setup(args.workload, args.seed, args.tiny)
    report = {"setup_s": setup_s, "versions": versions}
    if not args.setup_only:
        import workloads
        runner = workloads.RUNNERS[args.workload]
        out = Path(args.out)
        scratch = out / "tmp"
        scratch.mkdir(parents=True, exist_ok=True)
        if args.trace:
            tag = f"{args.workload}-seed{args.seed}"
            report["rep"], report["layers"], report["spans_file"] = \
                traced_rep(runner, raw, cfg, scratch, out, tag)
        else:
            report["rep"] = repetition(runner, raw, cfg, scratch)
        report["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
