"""One repetition of one benchmark workload, in a fresh process.

Run by ``perfbench/run.py``; not meant to be called by hand.  The process
imports nsclab from the checkout's ``src/``, writes the workload's configs,
drives the studies through ``nsclab.cli.main`` (the user's path: config,
study, artifacts, sha256 manifest), then checks the artifacts against the
workload's correctness gates.  Timestamps are CLOCK_MONOTONIC, which is
shared by all processes, so ``--t0`` (taken by the parent just before it
started this process) anchors setup and wall times at process start.
The gate checks run after the timed region.

Writes one JSON record to ``<work>/result.json``.  With ``--trace``,
wraps the layer boundaries first (see tracer.py), adds per-layer metrics
to the record and writes all spans to ``<work>/spans.json``; the study
``--out`` directories are subdirectories of ``<work>``, so neither file
lands in one.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# Workload definitions: a list of (study, tag, config, seeded) per workload.
# The tag names the config file and the study's --out directory; seeded
# studies get the program seed as --seed.  ``tiny`` shrinks every size so
# the self-test can run each code path fast.


def studies_for(workload: str, tiny: bool) -> list:
    if workload == "relax3d":
        cfg = {
            "model": {"kind": "nsc", "d": 3},
            "grid": {"n": 8 if tiny else 16},
            "study": {
                "relax-sweep": {
                    "eps_list": [1e-1, 3e-2] if tiny else [1e-1, 3e-2, 1e-2, 3e-3],
                    "T": 1.0 if tiny else 4.0,
                    "well_prepared": True,
                }
            },
        }
        return [("relax-sweep", "relax", cfg, True)]
    if workload == "radial":
        radial = {"nodes": 512} if tiny else {}
        decay = {"t_count": 20} if tiny else {}
        lyap = {"t_count": 12} if tiny else {}
        out = []
        for tag, eps in (("decay_e2", 1e-2), ("decay_e3", 1e-3)):
            cfg = {"model": {"kind": "nsc", "d": 3, "eps": eps}, "radial": radial, "study": {"decay-fit": decay}}
            out.append(("decay-fit", tag, cfg, False))
        cfg = {"model": {"kind": "nsc", "d": 3, "eps": 1e-2}, "radial": radial, "study": {"lyapunov": lyap}}
        out.append(("lyapunov", "lyapunov", cfg, False))
        return out
    if workload == "imex3d":
        cfg = {
            "model": {"kind": "nsc", "d": 3, "eps": 0.05},
            "grid": {"n": 8 if tiny else 32},
            "output": {"stride": 4},
            "study": {
                "evolve": {
                    "T": 0.4,
                    "nonlinear": True,
                    "flux_init": "random",
                    "snapshots": True,
                }
            },
        }
        return [("evolve", "evolve", cfg, True)]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Correctness gates.  Each returns {gate name: (ok, detail)} and the values
# that references.json records for the program seed.


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _close_all(values, refs, rtol) -> tuple:
    worst = max((_rel(v, r) for v, r in zip(values, refs)), default=0.0)
    return len(values) == len(refs) and worst <= rtol, f"max rel diff {worst:.3g}"


def gates_relax3d(outs: dict, ref) -> tuple:
    rep = json.loads((outs["relax"] / "report.json").read_text())
    xt, wp, slope = rep["xtilde_values"], rep["well_prepared_values"], rep["slope_fitted"]
    gates = {
        "slope_in_range": (0.85 <= slope <= 1.15, f"slope {slope:.6f}"),
        "monotone": (all(b <= a * (1 + 1e-12) for a, b in zip(xt, xt[1:])), str(xt)),
        "well_prepared_dominated": (
            wp is not None and len(wp) == len(xt) and all(w <= x for w, x in zip(wp, xt)),
            str(wp),
        ),
    }
    values = {"xtilde": xt, "xtilde_well_prepared": wp}
    if ref is not None:
        gates["xtilde_reference"] = _close_all(xt, ref["xtilde"], 1e-7)
        gates["xtilde_well_prepared_reference"] = _close_all(wp, ref["xtilde_well_prepared"], 1e-7)
    return gates, values


def gates_radial(outs: dict) -> tuple:
    fits = [json.loads((outs[t] / "report.json").read_text())["density_velocity"] for t in ("decay_e2", "decay_e3")]
    lyap = json.loads((outs["lyapunov"] / "report.json").read_text())
    gates = {}
    for tag, fit in zip(("e2", "e3"), fits):
        err = _rel(fit["exponent_fitted"], -0.75)
        gates[f"exponent_{tag}"] = (err <= 0.05, f"exponent {fit['exponent_fitted']:.6f}")
        gates[f"r_squared_{tag}"] = (fit["r_squared"] >= 0.99, f"r2 {fit['r_squared']:.6f}")
    uni = _rel(fits[0]["exponent_fitted"], fits[1]["exponent_fitted"])
    gates["eps_uniformity"] = (uni <= 0.02, f"{uni:.3%}")
    gates["lyapunov_monotone"] = (bool(lyap["monotone"]), "")
    viol = lyap["max_envelope_violation"]
    gates["envelope_violation"] = (viol <= 1e-12, f"{viol:.3g}")
    tail = _rel(lyap["tail_slope"], lyap["tail_slope_theory"])
    gates["tail_slope"] = (tail <= 0.10, f"{tail:.3%}")
    return gates, {}


def gates_imex3d(outs: dict, ref, snapshots: list) -> tuple:
    with open(outs["evolve"] / "norms.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], [[float(x) for x in row] for row in rows[1:]]
    flat = [x for row in data for x in row]
    mean_a = [row[header.index("mean_a")] for row in data]
    l2_cols = [i for i, name in enumerate(header) if name.startswith("l2_")]
    last_norms = [data[-1][i] for i in l2_cols]
    last_snap = [f.l2_norm() for f in snapshots[-1].fields()] if snapshots else []
    drift = max(abs(m - mean_a[0]) for m in mean_a)
    gates = {
        "norms_finite": (bool(flat) and all(math.isfinite(x) for x in flat), f"{len(flat)} values"),
        "mean_a_conserved": (drift <= 1e-10, f"drift {drift:.3g}"),
        "snapshot_count": (len(snapshots) == len(data), f"{len(snapshots)} snapshots, {len(data)} rows"),
        "snapshots_hermitian": (all(s.is_hermitian() for s in snapshots), ""),
        # snapshots hold complex64, the CSV the complex128 norms
        "last_snapshot_matches_norms": _close_all(last_snap, last_norms, 1e-6),
    }
    values = {"final_norms": last_norms}
    if ref is not None:
        gates["final_norms_reference"] = _close_all(last_norms, ref["final_norms"], 1e-7)
    return gates, values


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("relax3d", "radial", "imex3d"))
    ap.add_argument("--program-seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--no-reference", action="store_true", help="record values without comparing")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import scipy
    import yaml

    import nsclab
    from nsclab import cli, spectral

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(args.rep)
        tracing.install(tracer, nsclab)

    plan = studies_for(args.workload, args.tiny)
    runs = []
    for study, tag, cfg, seeded in plan:
        path = args.work / f"{tag}.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=True))
        cli.load_config(path, study)  # parse, as the CLI will
        argv_ = [study, "--config", str(path), "--out", str(args.work / tag)]
        if seeded:
            argv_ += ["--seed", str(args.program_seed)]
        runs.append((tag, argv_))

    t_setup = now()
    exit_codes = {}
    for tag, argv_ in runs:
        exit_codes[tag] = cli.main(argv_)
        if tracer is not None:
            tracer.counters["cli.artifact_bytes"] += sum(p.stat().st_size for p in (args.work / tag).iterdir())
    snapshots = []
    if args.workload == "imex3d":
        snapshots = [spectral.load_state(p) for p in sorted((args.work / "evolve").glob("snapshot_*.fld"))]
    t_end = now()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    gates = {f"exit_{tag}": (code == 0, f"exit {code}") for tag, code in exit_codes.items()}
    values = {}
    if all(code == 0 for code in exit_codes.values()):
        ref = None
        if not (args.tiny or args.no_reference):
            table = json.loads(REFERENCES.read_text()).get(args.workload, {})
            ref = table.get(str(args.program_seed))
            if args.workload != "radial" and ref is None:
                gates["reference_present"] = (False, f"no reference for program seed {args.program_seed}")
        outs = {tag: args.work / tag for tag, _ in runs}
        if args.workload == "relax3d":
            more, values = gates_relax3d(outs, ref)
        elif args.workload == "radial":
            more, values = gates_radial(outs)
        else:
            more, values = gates_imex3d(outs, ref, snapshots)
        gates.update(more)

    record = {
        "workload": args.workload,
        "rep": args.rep,
        "program_seed": args.program_seed if any(seeded for *_, seeded in plan) else None,
        "setup_s": t_setup - args.t0,
        "wall_s": t_end - args.t0,
        "peak_rss_mb": peak_rss_mb,
        "gates": {name: {"ok": bool(ok), "detail": detail} for name, (ok, detail) in gates.items()},
        "passed": all(ok for ok, _ in gates.values()),
        "values": values,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        record["layers"] = tracing.per_layer(tracer.summary(), tracer.counters)
        (args.work / "spans.json").write_text(json.dumps(tracer.dump()))
    (args.work / "result.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
