"""Configuration-driven command line: every study and diagnostic as a
subcommand with reproducible, hash-manifested outputs.

Usage: nsclab <study> --config cfg.yaml [--out DIR] [--seed N]
       [--threads N] [--dry-run]

The YAML config holds a model block, a grid or radial block, a thresholds
block, one study block (matching the subcommand) and an output block;
a key that has no default, or a value of another kind than its default,
is a validation error.
Numbers in CSV/dat artifacts are printed with 17 significant digits and
'\n' line endings; identical config + seed reproduces byte-identical files.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import besov, diagnostics, evolve, model, spectral, studies

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


def _sha256():
    """A SHA-256 hasher that loads no OpenSSL: OpenSSL's only when the process
    already holds it (numpy.random loads it, so every study that draws has it),
    else CPython's built-in one (_sha2 from 3.12, _sha256 before), hashlib
    last.  Every one gives the same digest."""
    if sys.modules.get("_hashlib") is None:
        for name in ("_sha2", "_sha256"):
            try:
                return importlib.import_module(name).sha256()
            except ImportError:
                pass
    import hashlib

    return hashlib.sha256()


def sha256_file(path: Path) -> str:
    h = _sha256()
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
    "radial": {"r_max": 10.0, "nodes": 4096},
    "thresholds": {"K": 8, "k": 1.0},
    "output": {"directory": "out", "stride": 10},
    "seed": 0,
    "threads": 0,
}

# one entry per study: its name is the subcommand, its dict the schema of its block
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
    "initial-layer": {"amplitude": 1e-3, "flux_amplitude": 1e-2, "mode": None, "efolds": 5.0, "samples": 60, "scaling_factor": 2.0},
    "lyapunov": {"sigma1": 1.5, "t_min": 1.0, "t_max": 1000.0, "t_count": 40, "r_max": 64.0},
    "bernstein": {"trials": 100, "s_min": -1.5, "s_max": 1.5, "sp_min": 0.1, "sp_max": 2.0, "c_bern": 4.0},
}


# studies whose preconditions reference the regime thresholds of model.eps
_THRESHOLD_STUDIES = {"evolve", "lyapunov", "bernstein"}
_GRID_STUDIES = {"evolve", "relax-sweep", "initial-layer", "bernstein"}
_FLUX_INITS = ("zero", "random", "well-prepared")


def _check_keys(where: str, given, allowed) -> None:
    if not isinstance(given, dict):
        raise ConfigError(f"{where or 'config root'} must be a mapping, got {given!r}")
    unknown = [f"{where}.{k}" if where else str(k) for k in given if k not in allowed]
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(unknown)}")


def _is_number(val, kind=float) -> bool:
    """val is not a bool, is finite and kind() reads it (YAML reads 1e-2 as a
    string); an int kind refuses a fractional part instead of truncating it."""
    if isinstance(val, bool):
        return False
    try:
        return math.isfinite(float(val)) and (kind is float or kind(val) == float(val))
    except (TypeError, ValueError, OverflowError):
        return False


def _check_value(where: str, default, val) -> None:
    """Raise ConfigError unless val is the kind of value its default is
    (spectrum.direction and initial-layer.mode, null by default, may be
    lists of numbers)."""
    if isinstance(default, bool):
        ok, want = isinstance(val, bool), "true or false"
    elif isinstance(default, (int, float)):
        ok, want = _is_number(val, type(default)), "an integer" if type(default) is int else "a finite number"
    elif isinstance(default, list) or default is None:
        kind = type(default[0]) if default else float
        ok = val is default or (isinstance(val, list) and all(_is_number(x, kind) for x in val))
        want = "a list of finite numbers"
    elif where.endswith(".flux_init"):
        ok, want = val in _FLUX_INITS, f"one of {', '.join(_FLUX_INITS)}"
    else:
        return
    if not ok:
        raise ConfigError(f"{where} must be {want}, got {val!r}")


def _merge(where: str, defaults: dict, override, extra=()) -> dict:
    if override is None:
        return dict(defaults)
    _check_keys(where, override, (*defaults, *extra))
    for key, val in override.items():
        if key in defaults:
            _check_value(f"{where}.{key}", defaults[key], val)
    return {**defaults, **override}


def _judged(where: str, check, *args):
    """check(*args); a ValueError (argument name first) but a ThresholdOrderError
    becomes a ConfigError naming where.<argument>, or thresholds.<argument> for K and k."""
    try:
        return check(*args)
    except besov.ThresholdOrderError:
        raise
    except ValueError as exc:
        arg = str(exc).split(" ", 1)[0]
        raise ConfigError(f"{'thresholds' if arg in ('K', 'k') else where}.{exc}") from None


def _log_times(where: str, block: dict) -> np.ndarray:
    """The log-spaced grid of a study block, r_min to r_max over count radii
    (spectrum) or t_min to t_max over t_count times; ConfigError unless
    0 < min < max."""
    lo, hi, count = ("r_min", "r_max", "count") if "r_min" in block else ("t_min", "t_max", "t_count")
    if not 0 < float(block[lo]) < float(block[hi]):
        raise ConfigError(f"{where}.{lo} and {hi} must satisfy 0 < {lo} < {hi}, got {block[lo]!r} and {block[hi]!r}")
    return np.logspace(math.log10(float(block[lo])), math.log10(float(block[hi])), int(block[count]))


def _check_study(name: str, block: dict, spec: model.ModelSpec, cfg: dict) -> None:
    """Raise ConfigError for a study the model of spec cannot run, or a
    study value of the right kind that the study would still refuse on the
    grid or the radial nodes of cfg, by the library's own check where it
    has one."""
    where, direction, mode, n = f"study.{name}", block.get("direction"), block.get("mode"), int(cfg["grid"]["n"])
    d = spec.d
    if name in ("evolve", "initial-layer", "decay-fit", "lyapunov") and spec.kind not in (model.SystemKind.NSC, model.SystemKind.NSF):
        raise ConfigError(f"{where} needs the full NSC/NSF system (model.kind: nsc or nsf), got {spec.kind.value}")
    if name in ("lyapunov", "bernstein", "initial-layer") and spec.kind is model.SystemKind.NSF:
        raise ConfigError(f"{where} needs the relaxing system (model.kind: nsc): it reads model.eps > 0")
    if direction is not None and (len(direction) != d or not any(float(x) for x in direction)):
        raise ConfigError(f"{where}.direction must be {d} numbers, not all zero, got {direction!r}")
    if mode is not None and (len(mode) != d or not all(type(m) is int and abs(m) < n / 2 for m in mode)):
        raise ConfigError(f"{where}.mode must be {d} integers of magnitude below n/2 = {n / 2:g}, got {mode!r}")
    for key in ("T", "count", "t_count", "scaling_factor", "trials"):  # a duration, three sample counts, a divisor
        if key in block and not float(block[key]) > 0:
            raise ConfigError(f"{where}.{key} must be positive, got {block[key]!r}")
    if name == "sk-check" and int(block["directions"]) < (0 if block["include_axes"] else 1):
        raise ConfigError(f"{where}.directions must be non-negative, and positive without include_axes, got {block['directions']!r}")
    if float(block.get("dt", 0.0)) < 0:
        raise ConfigError(f"{where}.dt must be positive, or 0 for the default step, got {block['dt']!r}")
    if name in ("decay-fit", "lyapunov"):
        _judged("radial", evolve._check_nodes, int(cfg["radial"]["nodes"]))
        key, r_max = ("radial", cfg["radial"]["r_max"]) if name == "decay-fit" else (where, block["r_max"])
        _judged(key, studies._check_reach, evolve.sharp_low_profile(float(block["sigma1"]), d), float(r_max))
    if name in ("spectrum", "decay-fit", "lyapunov"):
        times = _log_times(where, block)
    if name == "relax-sweep":
        eps = [float(e) for e in block["eps_list"]]
        K, k = int(cfg["thresholds"]["K"]), float(cfg["thresholds"]["k"])
        _judged(where, studies._validate_sweep, spec, n, eps, float(block["p"]), block["nonlinear"], K, k)
        if not float(block["amplitude"]):
            raise ConfigError(f"{where}.amplitude must be nonzero: zero data leave the error 0 at every eps and no slope to fit")
    elif name == "decay-fit":
        _judged(where, studies._validate_decay_ranges, d, float(block["p"]), float(block["sigma"]), float(block["sigma1"]), int(block["t_count"]))
    elif name == "lyapunov":
        _judged(where, studies._tail_samples, times)
        _judged(where, studies._ode_exponent, d, float(block["sigma1"]))
    elif name == "bernstein":
        if not 0 < float(block["sp_min"]) <= float(block["sp_max"]):
            raise ConfigError(f"{where}.sp_min and sp_max must satisfy 0 < sp_min <= sp_max, got {block['sp_min']!r} and {block['sp_max']!r}")
        if not float(block["s_min"]) <= float(block["s_max"]):
            raise ConfigError(f"{where}.s_min must not exceed s_max, got {block['s_min']!r} and {block['s_max']!r}")
    elif name == "initial-layer":
        _judged(where, studies._validate_layer, float(block["efolds"]), int(block["samples"]))
        _judged(where, studies._q_l2, _layer_state(spec, cfg, block), spec)


def load_config(path, study: str, seed=None, out=None, threads=None) -> dict:
    """The resolved config of one run, judged before anything is computed.

    Raises ConfigError (a ValueError) for a key the defaults do not hold,
    a value of another kind than its default or one its study or the
    grid would refuse (naming the dotted key), a section that is not a
    mapping or a bad seed or thread count, and ValueError for a model or
    regime split that cannot be built.
    """
    raw = {}
    if path:
        with open(path) as fh:
            raw = yaml.safe_load(fh) or {}
    _check_keys("", raw, (*_DEFAULTS, "study"))
    study_block = {} if raw.get("study") is None else raw["study"]
    _check_keys("study", study_block, _STUDY_DEFAULTS)
    if study_block and list(study_block) != [study]:
        raise ConfigError(f"config study blocks {list(study_block)} do not match subcommand {study!r} alone")
    block = _merge(f"study.{study}", _STUDY_DEFAULTS[study], study_block.get(study))
    cfg = {
        name: _merge(name, defaults, raw.get(name), extra=("phys",) if name == "model" else ())
        for name, defaults in _DEFAULTS.items()
        if isinstance(defaults, dict)
    }
    cfg["study"] = {study: block}
    phys = cfg["model"].get("phys")
    if phys:  # judged against the PhysParams defaults, every one a float; it sets every coefficient
        _merge("model.phys", {f.name: f.default for f in dataclasses.fields(model.PhysParams)}, phys)
        if given := [f"model.{key}" for key in raw["model"] if key not in ("kind", "d", "phys")]:
            raise ConfigError(f"{', '.join(given)} cannot be given next to model.phys, which sets the normalized coefficients")
    for key, override in (("seed", seed), ("threads", threads)):
        val = raw.get(key, _DEFAULTS[key]) if override is None else override
        if isinstance(val, bool) or not isinstance(val, int) or val < 0:
            raise ConfigError(f"{key} must be a non-negative integer, got {val!r}")
        cfg[key] = val
    if not int(cfg["output"]["stride"]) > 0:
        raise ConfigError(f"output.stride must be positive, got {cfg['output']['stride']!r}")
    if out is not None:
        cfg["output"]["directory"] = str(out)
    spec = build_model(cfg)
    _check_study(study, block, spec, cfg)
    if study in _GRID_STUDIES:
        build_grid(cfg, spec)
    if spec.kind is model.SystemKind.NSC and study in _THRESHOLD_STUDIES:
        build_thresholds(cfg, spec.eps)
    return cfg


def build_model(cfg: dict) -> model.ModelSpec:
    m = cfg["model"]
    if m.get("phys"):
        params = model.PhysParams(**{k: float(v) for k, v in m["phys"].items()})
        return model.build_spec(params, m["kind"], int(m["d"]))
    coeffs = {k: float(v) for k, v in m.items() if k not in ("kind", "d", "phys")}
    return model.ModelSpec(kind=m["kind"], d=int(m["d"]), **coeffs)


def build_grid(cfg: dict, spec: model.ModelSpec) -> spectral.Grid:
    g = cfg["grid"]
    try:
        return spectral.Grid(d=spec.d, n=int(g["n"]), L=float(g["L"]))
    except ValueError as exc:  # Grid names the field it refuses, n or L
        raise ConfigError(f"grid.{exc}") from None


def build_thresholds(cfg: dict, eps: float) -> besov.Thresholds:
    t = cfg["thresholds"]
    return _judged("thresholds", besov.make_thresholds, int(t["K"]), float(t["k"]), eps)


def _random_state(spec, grid, rng, amplitude, decay, flux_init):
    st = studies.random_state(grid, rng, amplitude, decay, with_flux=spec.kind is model.SystemKind.NSC)
    if spec.kind is model.SystemKind.NSC:
        if flux_init == "zero":
            st.u[2 + grid.d :] = 0.0
        elif flux_init == "well-prepared":
            st = spectral.State(a=st.a, v=st.v, theta=st.theta, q=studies.well_prepared_flux(st.theta, spec))
    return st


def _layer_state(spec, cfg, p):
    """The datum of an initial-layer block p: theta and eps q_1 at one mode, e_1 by default."""
    st = spectral.zero_state(build_grid(cfg, spec))
    mode = tuple(p["mode"] or [1] + [0] * (spec.d - 1))
    st.theta.coeffs[mode] = float(p["amplitude"])
    st.q[0].coeffs[mode] = float(p["flux_amplitude"]) / spec.eps
    return st.hermitized()


# ---------------------------------------------------------------------------
# Study runners.  Each takes the config, the model spec `run` builds from it
# once and the output directory, and returns a list of artifact filenames.
# A runner that draws builds its generator from the config seed itself, so a
# study that draws nothing never imports numpy.random.


def run_spectrum(cfg, spec, out_dir):
    p = cfg["study"]["spectrum"]
    rs = _log_times("study.spectrum", p)
    direction = p["direction"]
    if direction is None:
        direction = [1.0] + [0.0] * (spec.d - 1)
    direction = np.asarray(direction, dtype=float)
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


def run_sk_check(cfg, spec, out_dir):
    rng = np.random.default_rng(int(cfg["seed"]))
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


def run_evolve(cfg, spec, out_dir):
    rng = np.random.default_rng(int(cfg["seed"]))
    grid = build_grid(cfg, spec)
    th = build_thresholds(cfg, spec.eps) if spec.kind is model.SystemKind.NSC else None
    p = cfg["study"]["evolve"]
    st = _random_state(spec, grid, rng, float(p["amplitude"]), float(p["spectral_decay"]), p["flux_init"])
    T = float(p["T"])
    dt = float(p["dt"]) or evolve.default_dt(st, spec)
    nsteps = max(1, int(round(T / dt)))
    dt = T / nsteps
    stride = int(cfg["output"]["stride"])

    rows = []
    artifacts = []
    labels = st.component_labels()

    def record(s):
        rows.append([s.time, float(s.a.mean.real)] + [f.l2_norm() for f in s.fields()])
        if p["snapshots"]:
            name = f"snapshot_{len(rows) - 1:05d}.fld"
            spectral.save_state(out_dir / name, s)
            artifacts.append(name)

    if p["nonlinear"]:
        advance = lambda s: evolve.imex_step(s, spec, dt)
    else:
        advance = evolve.LinearPropagator(spec, grid, dt).step
    record(st)
    cur = st
    for step in range(1, nsteps + 1):
        cur = advance(cur)
        if step % stride == 0 or step == nsteps:
            record(cur)
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
    prof = besov.band_profile(named)
    write_csv(out_dir / "band_profile.csv", ["j", "band_center", "component", "p", "band_norm"], prof.rows())
    artifacts.append("band_profile.csv")

    # per-band hypocoercivity diagnostics and the solution functional
    if th is not None and not p["nonlinear"]:
        header = ["t", "j", "regime", "lyapunov", "dissipation", "residual"]
        write_csv(out_dir / "band_diagnostics.csv", header, diagnostics.band_diagnostics(st, spec, th))
        artifacts.append("band_diagnostics.csv")
        x = diagnostics.functional_X(st, spec, th, np.linspace(0.0, T, min(nsteps, 100) + 1))
        write_json(
            out_dir / "x_report.json",
            {"x_low": x.x_low, "x_med": x.x_med, "x_high": x.x_high, "total": x.total, **x.constituents},
        )
        artifacts.append("x_report.json")
    return artifacts


def run_decay_fit(cfg, spec, out_dir):
    p = cfg["study"]["decay-fit"]
    r = cfg["radial"]
    prof = evolve.sharp_low_profile(float(p["sigma1"]), spec.d)
    ts = _log_times("study.decay-fit", p)
    rep = studies.decay_fit(spec, prof, float(p["p"]), float(p["sigma"]), t_grid=ts, r_max=float(r["r_max"]), nodes=int(r["nodes"]))
    cols = [rep.times, rep.norms_av] + ([rep.norms_tq] if rep.norms_tq is not None else [])
    header, rows = ["t", "norm_av", "norm_thetaflux"][: len(cols)], list(zip(*cols))
    write_csv(out_dir / "decay.csv", header, rows)
    write_dat(out_dir / "decay.dat", header, rows)
    payload = {
        "density_velocity": dataclasses.asdict(rep.density_velocity),
        "temperature_flux": dataclasses.asdict(rep.temperature_flux) if rep.temperature_flux else None,
    }
    write_json(out_dir / "report.json", payload)
    return ["decay.csv", "decay.dat", "report.json"]


def run_relax_sweep(cfg, spec, out_dir):
    rng = np.random.default_rng(int(cfg["seed"]))
    grid = build_grid(cfg, spec)
    p = cfg["study"]["relax-sweep"]
    base = studies.random_state(grid, rng, float(p["amplitude"]), float(p["spectral_decay"]))
    rep = studies.relax_sweep(
        base,
        spec,
        [float(e) for e in p["eps_list"]],
        T=float(p["T"]),
        p=float(p["p"]),
        K=int(cfg["thresholds"]["K"]),
        k=float(cfg["thresholds"]["k"]),
        compare_well_prepared=bool(p["well_prepared"]),
        nonlinear=bool(p["nonlinear"]),
    )
    cols = [rep.eps_values, rep.xtilde_values] + ([rep.well_prepared_values] if rep.well_prepared_values else [])
    header, rows = ["eps", "xtilde", "xtilde_well_prepared"][: len(cols)], list(zip(*cols))
    write_csv(out_dir / "relax.csv", header, rows)
    write_dat(out_dir / "relax.dat", header, rows)
    write_json(out_dir / "report.json", dataclasses.asdict(rep))
    return ["relax.csv", "relax.dat", "report.json"]


def run_initial_layer(cfg, spec, out_dir):
    p = cfg["study"]["initial-layer"]
    st = _layer_state(spec, cfg, p)
    factor, efolds, samples = float(p["scaling_factor"]), float(p["efolds"]), int(p["samples"])
    rep = studies.initial_layer(spec, st, n_efolds=efolds, samples=samples)
    fine_spec = dataclasses.replace(spec, eps=spec.eps / factor)
    fine = studies.initial_layer(fine_spec, st, n_efolds=efolds, samples=samples)
    scaling = studies.LayerScalingReport(spec.eps, fine_spec.eps, rep.rate_fitted, fine.rate_fitted)
    rep_dict = dataclasses.asdict(rep)
    series = [(t, q) for t, q in zip(rep_dict.pop("times"), rep_dict.pop("q_norms"))]
    payload = {
        "layer": rep_dict,
        "scaling": dataclasses.asdict(scaling),
        "scaling_ratio": scaling.ratio,
        "expected_ratio": factor**2,
    }
    write_json(out_dir / "report.json", payload)
    write_csv(out_dir / "layer.csv", ["t", "q_norm"], series)
    write_dat(out_dir / "layer.dat", ["t", "q_norm"], series)
    return ["report.json", "layer.csv", "layer.dat"]


def run_lyapunov(cfg, spec, out_dir):
    p = cfg["study"]["lyapunov"]
    r = cfg["radial"]
    th = build_thresholds(cfg, spec.eps)
    prof = evolve.sharp_low_profile(float(p["sigma1"]), spec.d)
    ts = _log_times("study.lyapunov", p)
    rep = studies.lyapunov_ode_compare(spec, prof, th, t_grid=ts, r_max=float(p["r_max"]), nodes=int(r["nodes"]))
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


def run_bernstein(cfg, spec, out_dir):
    rng = np.random.default_rng(int(cfg["seed"]))
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


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask), or the host's
    count where the platform has no mask."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(config: dict) -> int:
    """Execute the study named in the config; returns the process exit code."""
    study = next(iter(config["study"]))
    out_dir = Path(config["output"]["directory"])
    threads = int(config["threads"]) or _usable_cpus()
    out_dir.mkdir(parents=True, exist_ok=True)
    # the nonlinear sources split each transform's rows over the threads;
    # every 1-D transform is independent of its batch, so no output bit moves
    token = evolve._FFT_WORKERS.set(threads)
    try:
        artifacts = _RUNNERS[study](config, build_model(config), out_dir)
    except ValueError as exc:  # ConfigError and ThresholdOrderError among them
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
    finally:
        evolve._FFT_WORKERS.reset(token)
    write_manifest(out_dir, config, artifacts)
    print(f"wrote {len(artifacts) + 1} artifacts to {out_dir}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nsclab", description=__doc__)
    parser.add_argument("study", choices=_STUDY_DEFAULTS)
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--threads", type=int, default=None,
        help="threads of the nonlinear sources' transforms, 0 for one per usable CPU; outputs do not depend on it",
    )
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.study, seed=args.seed, out=args.out, threads=args.threads)
    except (ValueError, TypeError, OSError, yaml.YAMLError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    if args.dry_run:
        yaml.safe_dump(_jsonable(cfg), sys.stdout, sort_keys=True)
        return EXIT_OK
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
