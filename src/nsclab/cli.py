"""Configuration-driven command line: every study and diagnostic as a
subcommand with reproducible, hash-manifested outputs.

Usage: nsclab <study> --config cfg.yaml [--out DIR] [--seed N]
       [--threads N] [--dry-run]

The YAML config holds a model block, a grid or radial block, a thresholds
block, one study block (matching the subcommand) and an output block.
Numbers in CSV/dat artifacts are printed with 17 significant digits and
'\n' line endings; identical config + seed reproduces byte-identical files.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import scipy.fft
import yaml

from . import besov, diagnostics, evolve, model, spectral, studies

STUDIES = (
    "spectrum",
    "sk-check",
    "evolve",
    "decay-fit",
    "relax-sweep",
    "initial-layer",
    "lyapunov",
    "bernstein",
)

EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL = 0, 2, 3


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Deterministic formatting and artifact plumbing.


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return f"{float(x):.17g}"


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


def write_dat(path: Path, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("# " + " ".join(header) + "\n")
        for row in rows:
            fh.write(" ".join(fmt(x) for x in row) + "\n")


def _jsonable(obj):
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def write_json(path: Path, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(out_dir: Path, config: dict, artifacts) -> None:
    echo = _jsonable(config)
    # the run location is not part of the study; keep manifests comparable
    echo.get("output", {}).pop("directory", None)
    manifest = {
        "config": echo,
        "artifacts": {name: sha256_file(out_dir / name) for name in sorted(artifacts)},
    }
    write_json(out_dir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# Config handling.

_DEFAULTS = {
    "model": {
        "kind": "nsc",
        "d": 3,
        "eps": 0.01,
        "alpha": 1.0,
        "beta": 1.0,
        "gamma": 1.0,
        "kappa": 1.0,
        "visc_mu": 0.5,
        "visc_lam": 0.0,
    },
    "grid": {"n": 32, "L": 2.0 * math.pi},
    "radial": {"r_min": 1e-4, "r_max": 10.0, "nodes": 4096},
    "thresholds": {"K": 8, "k": 1.0},
    "output": {"directory": "out", "stride": 10, "formats": ["csv", "json", "dat"]},
    "seed": 0,
    "threads": 0,
}

_STUDY_DEFAULTS = {
    "spectrum": {"r_min": 1e-3, "r_max": 1e3, "count": 200, "direction": None, "reduced": False},
    "sk-check": {"directions": 20, "include_axes": True},
    "evolve": {
        "T": 1.0,
        "dt": 0.0,
        "nonlinear": False,
        "amplitude": 1e-2,
        "spectral_decay": 3.0,
        "flux_init": "zero",
        "snapshots": False,
    },
    "decay-fit": {"p": 2.0, "sigma": 0.0, "sigma1": 1.5, "t_min": 10.0, "t_max": 1000.0, "t_count": 25},
    "relax-sweep": {
        "eps_list": [1e-1, 3e-2, 1e-2, 3e-3],
        "T": 4.0,
        "p": 2.0,
        "amplitude": 1e-2,
        "spectral_decay": 3.0,
        "well_prepared": True,
        "nonlinear": False,
    },
    "initial-layer": {"amplitude": 1e-3, "flux_amplitude": 1e-2, "mode": [1, 0, 0], "efolds": 5.0, "samples": 60, "scaling_factor": 2.0},
    "lyapunov": {"p": 2.0, "sigma1": 1.5, "t_min": 1.0, "t_max": 1000.0, "t_count": 40, "r_max": 64.0},
    "bernstein": {"trials": 100, "s_min": -1.5, "s_max": 1.5, "sp_min": 0.1, "sp_max": 2.0, "c_bern": 4.0},
}


def _merge(defaults: dict, override) -> dict:
    out = dict(defaults)
    if override:
        for key, val in override.items():
            if isinstance(val, dict) and isinstance(out.get(key), dict):
                out[key] = _merge(out[key], val)
            else:
                out[key] = val
    return out


def load_config(path, study: str, seed=None, out=None, threads=None) -> dict:
    raw = {}
    if path:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    study_block = raw.get("study", {})
    if study_block:
        names = [k for k in study_block if k in STUDIES]
        if len(names) != 1:
            raise ConfigError(f"config must contain exactly one study block, found {names}")
        if names[0] != study:
            raise ConfigError(f"config study block {names[0]!r} does not match subcommand {study!r}")
        study_params = study_block[names[0]] or {}
    else:
        study_params = {}
    cfg = {
        "model": _merge(_DEFAULTS["model"], raw.get("model")),
        "grid": _merge(_DEFAULTS["grid"], raw.get("grid")),
        "radial": _merge(_DEFAULTS["radial"], raw.get("radial")),
        "thresholds": _merge(_DEFAULTS["thresholds"], raw.get("thresholds")),
        "output": _merge(_DEFAULTS["output"], raw.get("output")),
        "study": {study: _merge(_STUDY_DEFAULTS[study], study_params)},
        "seed": raw.get("seed", _DEFAULTS["seed"]),
        "threads": raw.get("threads", _DEFAULTS["threads"]),
    }
    if seed is not None:
        cfg["seed"] = seed
    if out is not None:
        cfg["output"]["directory"] = str(out)
    if threads is not None:
        cfg["threads"] = threads
    if not isinstance(cfg["seed"], int):
        raise ConfigError(f"seed must be an integer, got {cfg['seed']!r}")
    return cfg


def build_model(cfg: dict) -> model.ModelSpec:
    m = cfg["model"]
    if "phys" in m and m["phys"]:
        params = model.PhysParams(**m["phys"])
        return model.build_spec(params, m["kind"], int(m["d"]))
    return model.ModelSpec(
        kind=m["kind"],
        d=int(m["d"]),
        alpha=float(m["alpha"]),
        beta=float(m["beta"]),
        gamma=float(m["gamma"]),
        kappa=float(m["kappa"]),
        eps=float(m["eps"]),
        visc_mu=float(m["visc_mu"]),
        visc_lam=float(m["visc_lam"]),
    )


def build_grid(cfg: dict, spec: model.ModelSpec) -> spectral.Grid:
    g = cfg["grid"]
    return spectral.Grid(d=spec.d, n=int(g["n"]), L=float(g["L"]))


def build_thresholds(cfg: dict, eps: float) -> besov.Thresholds:
    t = cfg["thresholds"]
    return besov.make_thresholds(int(t["K"]), float(t["k"]), eps)


def _random_state(cfg, spec, grid, rng, amplitude, decay, flux_init):
    st = studies.random_state(grid, rng, amplitude, decay, with_flux=spec.kind is model.SystemKind.NSC)
    if spec.kind is model.SystemKind.NSC:
        if flux_init == "zero":
            q = tuple(spectral.zero_field(grid) for _ in range(grid.d))
            st = spectral.State(a=st.a, v=st.v, theta=st.theta, q=q)
        elif flux_init == "well-prepared":
            st = spectral.State(a=st.a, v=st.v, theta=st.theta, q=studies.well_prepared_flux(st.theta, spec))
        elif flux_init != "random":
            raise ConfigError(f"unknown flux_init {flux_init!r}")
    return st


# ---------------------------------------------------------------------------
# Study runners.  Each returns a list of artifact filenames.


def run_spectrum(cfg, out_dir, rng):
    spec = build_model(cfg)
    p = cfg["study"]["spectrum"]
    rs = np.logspace(math.log10(float(p["r_min"])), math.log10(float(p["r_max"])), int(p["count"]))
    direction = p["direction"]
    if direction is None:
        direction = [1.0] + [0.0] * (spec.d - 1)
    direction = np.asarray(direction, dtype=float)[: spec.d]
    direction = direction / np.linalg.norm(direction)

    def one(r):
        if p["reduced"]:
            m = model.reduced_symbol(spec, float(r))
        elif spec.kind in (model.SystemKind.NSC, model.SystemKind.NSF):
            m = model.symbol(spec, r * direction)
        else:
            m = model.symbol(spec, float(r))
        return model.eigenvalues(m)

    eigs = [one(r) for r in rs]
    n = len(eigs[0])
    header = ["xi_abs"] + [f"re_lambda_{i+1}" for i in range(n)] + [f"im_lambda_{i+1}" for i in range(n)]
    rows = [[r] + list(e.real) + list(e.imag) for r, e in zip(rs, eigs)]
    write_csv(out_dir / "spectrum.csv", header, rows)
    write_dat(out_dir / "spectrum.dat", header, rows)
    report = {
        "kind": spec.kind.value,
        "n_eigenvalues": n,
        "max_real_part": float(max(e.real.max() for e in eigs)),
        "rows": len(rows),
    }
    write_json(out_dir / "report.json", report)
    return ["spectrum.csv", "spectrum.dat", "report.json"]


def run_sk_check(cfg, out_dir, rng):
    spec = build_model(cfg)
    p = cfg["study"]["sk-check"]
    dirs = []
    if p["include_axes"]:
        dirs.extend(np.eye(spec.d))
    while len(dirs) < int(p["directions"]):
        v = rng.standard_normal(spec.d)
        dirs.append(v / np.linalg.norm(v))
    reports = [model.kalman_rank(spec, w) for w in dirs]
    rows = [
        [i] + list(w) + [rep.rank, rep.full]
        for i, (w, rep) in enumerate(zip(dirs, reports))
    ]
    header = ["index"] + [f"omega_{i+1}" for i in range(spec.d)] + ["rank", "full"]
    write_csv(out_dir / "sk_check.csv", header, rows)
    payload = {
        "n_components": spec.n_components,
        "all_full": bool(all(r.full for r in reports)),
        "ranks": [r.rank for r in reports],
    }
    write_json(out_dir / "report.json", payload)
    return ["sk_check.csv", "report.json"]


def run_evolve(cfg, out_dir, rng):
    spec = build_model(cfg)
    grid = build_grid(cfg, spec)
    th = build_thresholds(cfg, spec.eps) if spec.kind is model.SystemKind.NSC else None
    p = cfg["study"]["evolve"]
    st = _random_state(cfg, spec, grid, rng, float(p["amplitude"]), float(p["spectral_decay"]), p["flux_init"])
    T = float(p["T"])
    dt = float(p["dt"]) or evolve.default_dt(st, spec)
    nsteps = max(1, int(round(T / dt)))
    dt = T / nsteps
    stride = max(1, int(cfg["output"]["stride"]))

    rows = []
    artifacts = []
    labels = st.component_labels()

    def record(s):
        rows.append([s.time, float(s.a.mean.real)] + [f.l2_norm() for f in s.fields()])

    record(st)
    cur = st
    snap_idx = 0
    if p["snapshots"]:
        spectral.save_state(out_dir / f"snapshot_{snap_idx:05d}.fld", cur)
        artifacts.append(f"snapshot_{snap_idx:05d}.fld")
    if p["nonlinear"]:
        for step in range(1, nsteps + 1):
            cur = evolve.imex_step(cur, spec, dt, th)
            if step % stride == 0 or step == nsteps:
                record(cur)
                if p["snapshots"]:
                    snap_idx += 1
                    spectral.save_state(out_dir / f"snapshot_{snap_idx:05d}.fld", cur)
                    artifacts.append(f"snapshot_{snap_idx:05d}.fld")
    else:
        prop = evolve.LinearPropagator(spec, grid, dt)
        for step in range(1, nsteps + 1):
            cur = prop.step(cur)
            if step % stride == 0 or step == nsteps:
                record(cur)
                if p["snapshots"]:
                    snap_idx += 1
                    spectral.save_state(out_dir / f"snapshot_{snap_idx:05d}.fld", cur)
                    artifacts.append(f"snapshot_{snap_idx:05d}.fld")
    header = ["t", "mean_a"] + [f"l2_{c}" for c in labels]
    write_csv(out_dir / "norms.csv", header, rows)
    sidecar = {
        "model": cfg["model"],
        "grid": cfg["grid"],
        "dt": dt,
        "steps": nsteps,
        "thresholds": cfg["thresholds"] if th is not None else None,
        "nonlinear": bool(p["nonlinear"]),
    }
    if p["nonlinear"] and spec.d < 3:
        sidecar["label"] = "experimental: outside the decay-theory hypotheses (d < 3)"
    write_json(out_dir / "run.json", sidecar)
    artifacts += ["norms.csv", "run.json"]

    # band decomposition of the final state
    named = dict(zip(labels, cur.fields()))
    prof = besov.band_profile(named, p=2)
    write_csv(out_dir / "band_profile.csv", ["j", "band_center", "component", "p", "band_norm"], prof.rows())
    artifacts.append("band_profile.csv")

    # per-band hypocoercivity diagnostics and the solution functional
    if th is not None and not p["nonlinear"]:
        traj = evolve.linear_trajectory(st, spec, T / min(nsteps, 100), min(nsteps, 100))
        artifacts += _write_band_diagnostics(out_dir, st, spec, th)
        x = diagnostics.functional_X(traj, spec, th)
        write_json(
            out_dir / "x_report.json",
            {"x_low": x.x_low, "x_med": x.x_med, "x_high": x.x_high, "total": x.total, **x.constituents},
        )
        artifacts.append("x_report.json")
    return artifacts


def _write_band_diagnostics(out_dir, state0, spec, th, steps: int = 40) -> list:
    """(t, j, regime, lyapunov, dissipation, residual) rows per in-regime band.

    Each band gets its own finely-strided window from the initial state so
    the centered-difference residual is resolved in its regime's timescale.
    """
    grid = state0.grid
    rows = []
    bands = list(besov.grid_band_range(grid))
    for regime, js, eta in (
        ("low", [j for j in bands if j <= th.J0], 0.1),
        ("high", [j for j in bands if j >= th.Jeps], 0.25),
    ):
        for j in js:
            dt = 5e-3 / diagnostics._regime_rate(spec, j, regime)
            traj = evolve.linear_trajectory(state0, spec, dt, steps)
            times, vals, diss, dl = diagnostics._centered_series(traj, j, regime, spec, eta)
            if not np.any(vals > 0):
                continue
            # the residual of dissipation_residual, from the same series
            res = dl + diagnostics._calibrate([(dl, diss[1:-1])]) * diss[1:-1]
            res_map = dict(zip(np.round(times[1:-1], 14), res))
            for t, lv, dv in zip(times, vals, diss):
                rows.append([t, j, regime, lv, dv, res_map.get(round(float(t), 14), float("nan"))])
    write_csv(
        out_dir / "band_diagnostics.csv",
        ["t", "j", "regime", "lyapunov", "dissipation", "residual"],
        rows,
    )
    return ["band_diagnostics.csv"]


def run_decay_fit(cfg, out_dir, rng):
    spec = build_model(cfg)
    p = cfg["study"]["decay-fit"]
    r = cfg["radial"]
    sigma1 = float(p["sigma1"])
    prof = evolve.sharp_low_profile(sigma1, spec.d)
    ts = np.logspace(math.log10(float(p["t_min"])), math.log10(float(p["t_max"])), int(p["t_count"]))
    rep = studies.decay_fit(
        spec, prof, spec.d, float(p["p"]), float(p["sigma"]), sigma1,
        t_grid=ts, r_max=float(r["r_max"]), nodes=int(r["nodes"]),
    )
    rows = [
        [t, nav] + ([ntq] if rep.norms_tq is not None else [])
        for t, nav, ntq in zip(
            rep.times, rep.norms_av, rep.norms_tq if rep.norms_tq is not None else rep.norms_av
        )
    ]
    header = ["t", "norm_av"] + (["norm_thetaflux"] if rep.norms_tq is not None else [])
    write_csv(out_dir / "decay.csv", header, rows)
    write_dat(out_dir / "decay.dat", header, rows)
    payload = {
        "density_velocity": dataclasses.asdict(rep.density_velocity),
        "temperature_flux": dataclasses.asdict(rep.temperature_flux) if rep.temperature_flux else None,
    }
    write_json(out_dir / "report.json", payload)
    return ["decay.csv", "decay.dat", "report.json"]


def run_relax_sweep(cfg, out_dir, rng):
    spec = build_model(cfg)
    grid = build_grid(cfg, spec)
    p = cfg["study"]["relax-sweep"]
    base = studies.random_state(grid, rng, float(p["amplitude"]), float(p["spectral_decay"]))
    rep = studies.relax_sweep(
        base,
        spec.d,
        [float(e) for e in p["eps_list"]],
        T=float(p["T"]),
        p=float(p["p"]),
        K=int(cfg["thresholds"]["K"]),
        k=float(cfg["thresholds"]["k"]),
        compare_well_prepared=bool(p["well_prepared"]),
        nonlinear=bool(p["nonlinear"]),
    )
    header = ["eps", "xtilde"] + (["xtilde_well_prepared"] if rep.well_prepared_values else [])
    rows = []
    for i, eps in enumerate(rep.eps_values):
        row = [eps, rep.xtilde_values[i]]
        if rep.well_prepared_values:
            row.append(rep.well_prepared_values[i])
        rows.append(row)
    write_csv(out_dir / "relax.csv", header, rows)
    write_dat(out_dir / "relax.dat", header, rows)
    write_json(out_dir / "report.json", dataclasses.asdict(rep))
    return ["relax.csv", "relax.dat", "report.json"]


def run_initial_layer(cfg, out_dir, rng):
    spec = build_model(cfg)
    grid = build_grid(cfg, spec)
    p = cfg["study"]["initial-layer"]
    st = spectral.zero_state(grid)
    mode = tuple(int(m) for m in p["mode"])[: grid.d]
    st.theta.coeffs[mode] = float(p["amplitude"])
    st.q[0].coeffs[mode] = float(p["flux_amplitude"]) / spec.eps
    st = spectral.State(
        a=st.a,
        v=st.v,
        theta=st.theta.hermitized(),
        q=(st.q[0].hermitized(),) + tuple(st.q[1:]),
    )
    rep = studies.initial_layer(spec, st, n_efolds=float(p["efolds"]), samples=int(p["samples"]))
    scaling = studies.layer_scaling(spec, st, factor=float(p["scaling_factor"]))
    rep_dict = dataclasses.asdict(rep)
    series = [(t, q) for t, q in zip(rep_dict.pop("times"), rep_dict.pop("q_norms"))]
    payload = {
        "layer": rep_dict,
        "scaling": dataclasses.asdict(scaling),
        "scaling_ratio": scaling.ratio,
        "expected_ratio": float(p["scaling_factor"]) ** 2,
    }
    write_json(out_dir / "report.json", payload)
    write_csv(out_dir / "layer.csv", ["t", "q_norm"], series)
    write_dat(out_dir / "layer.dat", ["t", "q_norm"], series)
    return ["report.json", "layer.csv", "layer.dat"]


def run_lyapunov(cfg, out_dir, rng):
    spec = build_model(cfg)
    p = cfg["study"]["lyapunov"]
    r = cfg["radial"]
    th = build_thresholds(cfg, spec.eps)
    sigma1 = float(p["sigma1"])
    prof = evolve.sharp_low_profile(sigma1, spec.d)
    ts = np.logspace(math.log10(float(p["t_min"])), math.log10(float(p["t_max"])), int(p["t_count"]))
    rep = studies.lyapunov_ode_compare(
        spec, prof, th, float(p["p"]), sigma1,
        t_grid=ts, r_max=float(p["r_max"]), nodes=int(r["nodes"]),
    )
    rows = list(zip(rep.times, rep.l1_values, rep.envelope))
    write_csv(out_dir / "lyapunov.csv", ["t", "l1", "envelope"], rows)
    write_dat(out_dir / "lyapunov.dat", ["t", "l1", "envelope"], rows)
    payload = {
        "c0_fitted": rep.c0_fitted,
        "monotone": rep.monotone,
        "max_envelope_violation": rep.max_envelope_violation,
        "tail_slope": rep.tail_slope,
        "tail_slope_theory": rep.tail_slope_theory,
    }
    write_json(out_dir / "report.json", payload)
    return ["lyapunov.csv", "lyapunov.dat", "report.json"]


def run_bernstein(cfg, out_dir, rng):
    spec = build_model(cfg)
    grid = build_grid(cfg, spec)
    th = build_thresholds(cfg, spec.eps)
    p = cfg["study"]["bernstein"]
    rows = []
    worst = {}
    bands = list(besov.grid_band_range(grid))
    for trial in range(int(p["trials"])):
        f = spectral.random_field(grid, rng, 1.0, 0.0)
        for j in bands:
            band = besov.band_project(f, j)
            if band.l2_norm() == 0.0:
                continue
            s = rng.uniform(float(p["s_min"]), float(p["s_max"]))
            sp = rng.uniform(float(p["sp_min"]), float(p["sp_max"]))
            for res in besov.bernstein_check(band, s, sp, 2, th, c_bern=float(p["c_bern"])):
                rows.append([trial, j, res["name"], s, sp, res["lhs"], res["rhs"], res["ratio"], res["violated"]])
                worst[res["name"]] = max(worst.get(res["name"], 0.0), res["ratio"])
    write_csv(
        out_dir / "bernstein.csv",
        ["trial", "band", "inequality", "s", "s_prime", "lhs", "rhs", "ratio", "violated"],
        rows,
    )
    payload = {
        "worst_ratios": worst,
        "c_bern": float(p["c_bern"]),
        "all_hold": bool(all(v <= float(p["c_bern"]) for v in worst.values())),
    }
    write_json(out_dir / "report.json", payload)
    return ["bernstein.csv", "report.json"]


_RUNNERS = {
    "spectrum": run_spectrum,
    "sk-check": run_sk_check,
    "evolve": run_evolve,
    "decay-fit": run_decay_fit,
    "relax-sweep": run_relax_sweep,
    "initial-layer": run_initial_layer,
    "lyapunov": run_lyapunov,
    "bernstein": run_bernstein,
}


# studies whose preconditions reference the regime thresholds of model.eps
_THRESHOLD_STUDIES = {"evolve", "lyapunov", "bernstein"}


def run(config: dict) -> int:
    """Execute the study named in the config; returns the process exit code."""
    study = next(iter(config["study"]))
    out_dir = Path(config["output"]["directory"])
    threads = int(config["threads"]) or (os.cpu_count() or 1)
    try:
        spec = build_model(config)  # validate before touching the filesystem
        if spec.kind is model.SystemKind.NSC and study in _THRESHOLD_STUDIES:
            build_thresholds(config, spec.eps)
    except (ValueError, ConfigError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(int(config["seed"]))
    try:
        # pocketfft splits a batched transform into independent 1-D ones, so
        # the worker count changes no output bit
        with scipy.fft.set_workers(threads):
            artifacts = _RUNNERS[study](config, out_dir, rng)
    except (ValueError, ConfigError, besov.ThresholdOrderError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (
        evolve.NumericalBlowupError,
        evolve.DensityPositivityError,
        studies.LayerResolutionError,
        FloatingPointError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    write_manifest(out_dir, config, artifacts)
    print(f"wrote {len(artifacts) + 1} artifacts to {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nsclab", description=__doc__)
    parser.add_argument("study", choices=STUDIES)
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--threads", type=int, default=None,
        help="FFT worker threads, 0 for one per CPU; outputs do not depend on it",
    )
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.study, seed=args.seed, out=args.out, threads=args.threads)
        spec = build_model(cfg)
        if spec.kind is model.SystemKind.NSC and args.study in _THRESHOLD_STUDIES:
            build_thresholds(cfg, spec.eps)
    except (ConfigError, ValueError, OSError, yaml.YAMLError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.dry_run:
        yaml.safe_dump(_jsonable(cfg), sys.stdout, sort_keys=True)
        return EXIT_OK
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
