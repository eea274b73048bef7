"""nsclab benchmark: runs one workload in a closed loop and prints its metrics.

    python3 perfbench/run.py --workload relax3d --seed 1 --seconds 45 --trace 0

Each repetition is one fresh Python process (cold caches) running
perfbench/workload.py; the next starts only after the previous one has
exited and its artifacts have been checked and removed.  A new
repetition starts only if the median repetition so far would still end
within --seconds, so a run stays within its time (at least one
repetition; two with --trace 1).

--trace 0 prints the end-to-end metrics: medians over repetitions of
wall_s, setup_s and peak_rss_mb.  --trace 1 alternates untraced and traced
repetitions and prints the per-layer metrics of the traced ones, plus
trace.overhead_s, the traced minus the untraced median wall time.  Traced
numbers never enter the end-to-end metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  Per-repetition records, the environment and (traced
runs) all spans are written under .perfbench/ at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("relax3d", "radial", "imex3d")
# The gates compare against references recorded per program seed, so the
# benchmark seed selects one of these program seeds (see README.md).
REFERENCE_SEEDS = 16
# A run must end within 180 s even if a repetition hangs.
RUN_LIMIT_S = 170


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def environment(threads: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    commit = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "ram_gib": round(ram, 2),
        "python": platform.python_version(),
        "blas_threads": threads,
        "commit": commit,
    }


def run_rep(args, rep: int, trace: bool, env: dict, timeout: float) -> dict:
    """One repetition in a fresh process; artifacts removed afterwards."""
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "work"))
    result = work / "result.json"
    spans = work / "spans.json"
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload,
        "--program-seed", str(args.seed % REFERENCE_SEEDS),
        "--work", str(work), "--rep", str(rep),
    ]
    if trace:
        cmd.append("--trace")
    if args.tiny:
        cmd.append("--tiny")
    t0 = now()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], env=env, capture_output=True, text=True, timeout=timeout
        )
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, stderr = "timeout", str(exc.stderr or "")
    elapsed = now() - t0
    try:
        record = json.loads(result.read_text())
        if trace and spans.exists():
            record["spans"] = json.loads(spans.read_text())
    except (OSError, ValueError):
        record = {"passed": False, "wall_s": elapsed, "setup_s": elapsed, "peak_rss_mb": 0.0}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(rep=rep, traced=trace, exit_code=code)
    if code != 0:
        record["passed"] = False
        record["stderr_tail"] = stderr[-2000:]
    if not record["passed"]:
        failed = [k for k, v in record.get("gates", {}).items() if not v["ok"]]
        print(f"rep {rep}: FAILED (exit {code}; gates {failed})", file=sys.stderr)
        print(record.get("stderr_tail", ""), file=sys.stderr)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrunken sizes, for the self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nsclab" / "__init__.py").is_file():
        print(f"nsclab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(threads)
    env.pop("PYTHONPATH", None)

    traced = bool(args.trace)
    reps = []
    start = now()
    durations = []
    while not reps or (traced and len(reps) < 2) or now() - start + statistics.median(durations) <= args.seconds:
        trace_this = traced and len(reps) % 2 == 1
        timeout = max(1.0, RUN_LIMIT_S - (now() - start))
        t = now()
        reps.append(run_rep(args, len(reps), trace_this, env, timeout))
        durations.append(now() - t)

    info = environment(threads)
    info.update(next((r["versions"] for r in reps if "versions" in r), {}))
    print("environment " + json.dumps(info, sort_keys=True))
    failed = sum(not r["passed"] for r in reps)
    plain = [r for r in reps if not r["traced"]]
    ok_plain = [r for r in plain if r["passed"]] or plain
    med = lambda key, rs: statistics.median(r[key] for r in rs)
    if not traced:
        metrics = {
            "wall_s": {"value": med("wall_s", ok_plain), "unit": "s"},
            "setup_s": {"value": med("setup_s", ok_plain), "unit": "s"},
            "peak_rss_mb": {"value": med("peak_rss_mb", ok_plain), "unit": "MiB"},
        }
    else:
        metrics = layer_metrics(reps, ok_plain)
    attempted = len(reps)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": reps[0].get("program_seed"),
        "seed_note": "radial has no random input and ignores the seed" if args.workload == "radial" else "",
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "environment": info,
        "repetitions": [{k: v for k, v in r.items() if k != "spans"} for r in reps],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")
    (OUT / f"results-{stem}.json").write_text(json.dumps(summary, indent=1))
    if traced:
        trace_file = {
            "workload": args.workload,
            "seed": args.seed,
            "span_fields": ["name", "start", "end", "parent", "rep_id"],
            "repetitions": [r["spans"] for r in reps if r["traced"] and "spans" in r],
        }
        (OUT / f"trace-{stem}.json").write_text(json.dumps(trace_file))
    print(f"{args.workload}: {attempted} repetitions, failed_frac {failed / attempted:.3f}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


UNITS = {"_s": "s", ".s": "s", "bytes": "bytes", "per_source": "fft/call"}


def layer_metrics(reps: list, ok_plain: list) -> dict:
    traced = [r for r in reps if r["traced"] and "layers" in r]
    if not traced:
        raise SystemExit("no traced repetition produced layer metrics")
    names = list(traced[0]["layers"])
    out = {}
    for name in names:
        value = statistics.median(r["layers"][name] for r in traced)
        unit = next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")
        out[name] = {"value": value, "unit": unit}
    overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(r["wall_s"] for r in ok_plain)
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


if __name__ == "__main__":
    sys.exit(main())
