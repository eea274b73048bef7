import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from nsclab import cli, evolve
from nsclab.cli import _STUDY_DEFAULTS, EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, load_config, main
from nsclab.evolve import imex_step
from nsclab.model import ModelSpec
from nsclab.spectral import Grid, load_state
from nsclab.studies import random_state


def write_cfg(path, payload):
    with open(path, "w") as fh:
        yaml.safe_dump(payload, fh)
    return path


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_dry_run_prints_resolved_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.yaml", {"model": {"kind": "nsc", "d": 2, "eps": 0.05}, "seed": 3})
    code = main(["spectrum", "--config", str(cfg), "--dry-run"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    resolved = yaml.safe_load(out)
    assert resolved["model"]["eps"] == 0.05
    assert resolved["seed"] == 3
    assert "spectrum" in resolved["study"]


def test_threshold_violation_exits_2(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "c.yaml",
        {"model": {"kind": "nsc", "d": 2, "eps": 0.25}, "thresholds": {"K": 8, "k": 1.0}, "seed": 1},
    )
    code = main(["bernstein", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "J0" in err and "Jeps" in err


def test_study_block_mismatch(tmp_path):
    cfg = write_cfg(tmp_path / "c.yaml", {"study": {"spectrum": {}}, "seed": 0})
    with pytest.raises(Exception):
        load_config(cfg, "bernstein")


def test_seed_must_be_integer(tmp_path):
    cfg = write_cfg(tmp_path / "c.yaml", {"seed": "abc"})
    code = main(["spectrum", "--config", str(cfg), "--dry-run"])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"seeed": 3}, "seeed"),
        ({"grid": {"nn": 16}}, "grid.nn"),
        ({"output": {"formats": ["csv"]}}, "output.formats"),
        ({"radial": {"r_min": 1e-4}}, "radial.r_min"),
        ({"study": {"relax-sweep": {"eps_lst": [0.1]}}}, "study.relax-sweep.eps_lst"),
        ({"study": {"relax_sweep": {}}}, "study.relax_sweep"),
        ({"model": {"phys": {"rho_bar": 1.0, "mu_typo": 2.0}}}, "model.phys.mu_typo"),
        ({"grid": [1, 2]}, "grid"),
        ({"threads": "abc"}, "threads"),
        ({"seed": -1}, "seed"),
        ({"study": {"relax-sweep": {"T": "abc"}}}, "study.relax-sweep.T"),
        ({"study": {"evolve": {"flux_init": "bogus"}}}, "study.evolve.flux_init"),
        ({"grid": {"n": "abc"}}, "grid.n"),
        ({"model": {"phys": {"rho_bar": "abc"}}}, "model.phys.rho_bar"),
        ({"model": {"eps": None}}, "model.eps"),
        ({"study": {"spectrum": {"direction": [1, 0, 0, 5]}}}, "study.spectrum.direction"),
        ({"study": {"spectrum": {"direction": [1.0]}}}, "study.spectrum.direction"),
        ({"study": {"spectrum": {"direction": [0, 0, 0]}}}, "study.spectrum.direction"),
        ({"study": {"relax-sweep": {"p": -1}}}, "study.relax-sweep.p"),
        ({"study": {"relax-sweep": {"p": 5.0}}}, "study.relax-sweep.p"),
        ({"grid": {"n": 7}}, "grid.n"),
        ({"grid": {"L": -1.0}}, "grid.L"),
        ({"study": {"relax-sweep": {"eps_list": []}}}, "study.relax-sweep.eps_list"),
        ({"study": {"relax-sweep": {"eps_list": [0.1, 0.1]}}}, "study.relax-sweep.eps_list"),
        ({"study": {"relax-sweep": {"eps_list": [0.1, -0.05]}}}, "study.relax-sweep.eps_list"),
        ({"study": {"relax-sweep": {"nonlinear": True}}}, "study.relax-sweep.nonlinear"),  # d = 3
        ({"model": {"d": 2}, "grid": {"n": 512}, "study": {"relax-sweep": {"nonlinear": True}}}, "study.relax-sweep.nonlinear"),
        ({"model": {"d": 2}, "grid": {"n": 16}, "study": {"initial-layer": {"mode": [40, 0]}}}, "study.initial-layer.mode"),
        ({"model": {"d": 2}, "grid": {"n": 16}, "study": {"initial-layer": {"mode": [8, 0]}}}, "study.initial-layer.mode"),
        ({"model": {"d": 2}, "study": {"initial-layer": {"mode": [1.7, 0]}}}, "study.initial-layer.mode"),
        ({"study": {"initial-layer": {"mode": [1]}}}, "study.initial-layer.mode"),  # d = 3
        ({"model": {"d": 2}, "study": {"initial-layer": {"mode": [1, 0, 0, 5]}}}, "study.initial-layer.mode"),
        ({"grid": {"n": 16.7}}, "grid.n"),
        ({"thresholds": {"K": 8.9}}, "thresholds.K"),
        ({"study": {"initial-layer": {"samples": 60.5}}}, "study.initial-layer.samples"),
        ({"study": {"evolve": {"T": float("inf")}}}, "study.evolve.T"),
        ({"study": {"evolve": {"T": float("nan")}}}, "study.evolve.T"),
        ({"study": {"relax-sweep": {"T": float("inf")}}}, "study.relax-sweep.T"),
        ({"study": {"relax-sweep": {"eps_list": [0.1, float("nan")]}}}, "study.relax-sweep.eps_list"),
        ({"study": {"evolve": {"T": -1.0}}}, "study.evolve.T"),
        ({"study": {"evolve": {"dt": -0.1}}}, "study.evolve.dt"),
        ({"study": {"relax-sweep": {"T": -1.0}}}, "study.relax-sweep.T"),
        ({"study": {"initial-layer": {"efolds": -1.0}}}, "study.initial-layer.efolds"),
        ({"study": {"spectrum": {"count": 0}}}, "study.spectrum.count"),
        ({"study": {"lyapunov": {"t_count": 1}}}, "study.lyapunov.t_count"),
        ({"study": {"lyapunov": {"t_count": 2}}}, "study.lyapunov.t_count"),  # one sample at t >= 50
        ({"study": {"initial-layer": {"scaling_factor": 0}}}, "study.initial-layer.scaling_factor"),
        ({"study": {"decay-fit": {"t_count": 19}}}, "study.decay-fit.t_count"),
        ({"study": {"decay-fit": {"sigma1": 2.0}}}, "study.decay-fit.sigma1"),
        ({"study": {"decay-fit": {"sigma": -2.0}}}, "study.decay-fit.sigma ="),
        ({"radial": {"nodes": 511}, "study": {"decay-fit": {}}}, "radial.nodes"),
        ({"study": {"initial-layer": {"samples": 49}}}, "study.initial-layer.samples"),
        ({"study": {"spectrum": {"r_min": 0.0}}}, "study.spectrum.r_min"),
        ({"study": {"spectrum": {"r_min": 10.0, "r_max": 1.0}}}, "study.spectrum.r_min"),
        ({"study": {"decay-fit": {"t_min": 0.0}}}, "study.decay-fit.t_min"),
        ({"study": {"decay-fit": {"t_min": 100.0, "t_max": 10.0}}}, "study.decay-fit.t_min"),
        ({"study": {"lyapunov": {"t_min": 0.0}}}, "study.lyapunov.t_min"),
        ({"study": {"lyapunov": {"t_min": 1000.0, "t_max": 1.0}}}, "study.lyapunov.t_min"),
        ({"study": {"lyapunov": {"t_count": -1}}}, "study.lyapunov.t_count"),
        ({"study": {"bernstein": {"sp_min": -1.0}}}, "study.bernstein.sp_min"),
        ({"study": {"bernstein": {"sp_min": 3.0}}}, "study.bernstein.sp_min"),  # sp_max = 2
        ({"study": {"bernstein": {"s_min": 1.0, "s_max": -1.0}}}, "study.bernstein.s_min"),
        ({"model": {"kind": "nsf"}, "study": {"lyapunov": {}}}, "study.lyapunov needs the relaxing system"),
        ({"model": {"kind": "nsf"}, "study": {"bernstein": {}}}, "study.bernstein needs the relaxing system"),
        ({"model": {"kind": "toy-damped"}, "study": {"evolve": {}}}, "study.evolve needs the full NSC/NSF system"),
        ({"model": {"kind": "toy-damped"}, "study": {"initial-layer": {}}}, "study.initial-layer needs the full NSC/NSF system"),
        ({"model": {"kind": "toy-damped"}, "study": {"decay-fit": {}}}, "study.decay-fit needs the full NSC/NSF system"),
        ({"model": {"kind": "toy-damped"}, "study": {"lyapunov": {}}}, "study.lyapunov needs the full NSC/NSF system"),
        ({"model": {"kind": "nsf"}, "study": {"initial-layer": {}}}, "study.initial-layer needs the relaxing system"),
        ({"thresholds": {"K": 1}}, "K must be an integer >= 2"),
        ({"thresholds": {"k": 3.0}}, "k must satisfy 0 < k <= 1"),
        ({"thresholds": {"K": 1024}}, "relax-sweep.eps_list must hold two"),
        ({"study": {"sk-check": {"directions": 0, "include_axes": False}}}, "study.sk-check.directions"),
        ({"study": {"bernstein": {"trials": 0}}}, "study.bernstein.trials"),
        ({"output": {"stride": -3}}, "output.stride"),
        ({"thresholds": {"K": 0}}, "thresholds.K must be an integer >= 2"),
        ({"thresholds": {"k": 0}}, "thresholds.k must satisfy 0 < k <= 1"),
        ({"model": {"kind": "nsf"}}, "study.relax-sweep.spec must be the relaxing system"),
        ({"model": {"kind": "toy-damped"}}, "study.relax-sweep.spec must be the relaxing system"),
        ({"model": {"alpha": 0.0}}, "study.relax-sweep.spec must be the relaxing system"),
        ({"model": {"kappa": 0.0}}, "study.relax-sweep.spec must be the relaxing system"),
        *(({"radial": {"r_max": r_max}, "study": {"decay-fit": {}}}, "radial.r_max must be finite and above the lowest radial node") for r_max in (1e-5, 0, -1)),
        *(({"study": {"lyapunov": {"r_max": r_max}}}, "study.lyapunov.r_max must be finite and above the lowest radial node") for r_max in (1e-5, 0, -1)),
        *(({"radial": {"r_max": r_max}, "study": {"decay-fit": {}}}, "radial.r_max must lie above the data's support") for r_max in (2e-4, 0.5, 1.0)),
        *(({"study": {"lyapunov": {"r_max": r_max}}}, "study.lyapunov.r_max must lie above the data's support") for r_max in (2e-4, 0.5, 1.0)),
        # layer data without a damped mode: a mean temperature alone, or nothing
        *(({"model": {"d": 2}, "grid": {"n": 16}, "study": {"initial-layer": layer}}, "study.initial-layer.ill_prepared_state is exactly well-prepared") for layer in ({"flux_amplitude": 0.0, "mode": [0, 0]}, {"flux_amplitude": 0.0, "amplitude": 0.0})),
        # the Lyapunov ODE exponent m = 2/(d/2 - 1 + sigma1) must be positive
        *(({"study": {"lyapunov": {"sigma1": sigma1}}}, "study.lyapunov.sigma1 = ") for sigma1 in (-5.0, -0.5)),
        ({"model": {"d": 1}, "study": {"lyapunov": {"sigma1": 0.5}}}, "study.lyapunov.sigma1 = 0.5 must exceed 1 - d/2"),
        ({"study": {"lyapunov": {"p": 2.0}}}, "unknown config key study.lyapunov.p"),  # the L2 proxy has no p
        ({"study": {"relax-sweep": {"amplitude": 0.0}}}, "study.relax-sweep.amplitude must be nonzero"),
        # phys sets every normalized coefficient: one given next to it would be echoed but not used
        *(({"model": {key: 0.5, "phys": {"mu": 0.3}}}, f"model.{key} cannot be given next to model.phys") for key in ("alpha", "beta", "gamma", "kappa", "eps", "visc_mu", "visc_lam")),
        ({"model": {"kind": "nsc", "d": 2, "eps": 0.001, "alpha": 5.0, "phys": {"mu": 0.3}}}, "model.alpha, model.eps cannot be given next to model.phys"),  # keys in file order
    ],
)
def test_bad_config_exits_2_before_output(tmp_path, capsys, payload, key):
    # each row runs under the study its block names, or relax-sweep without one (or with a misspelt one)
    study = next((name for name in payload.get("study", {}) if name in _STUDY_DEFAULTS), "relax-sweep")
    cfg = write_cfg(tmp_path / "c.yaml", payload)
    out = tmp_path / "out"
    assert main([study, "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_another_studys_block_is_refused_before_it_is_judged(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "c.yaml", {"study": {"bernstein": {"trials": 0}}})
    out = tmp_path / "out"
    assert main(["relax-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_VALIDATION
    assert "validation error: config study blocks ['bernstein'] do not match subcommand 'relax-sweep' alone" in capsys.readouterr().err
    assert not out.exists()


def test_yaml_exponent_literals_load_and_run(tmp_path):
    """YAML 1.1 reads 1e-2 (no dot) as a string; such values are judged by
    float() and echoed as written."""
    text = "model: {kind: nsc, d: 2, eps: 1e-2}\ngrid: {n: 8}\nstudy:\n  relax-sweep: {eps_list: [1e-1, 5e-2], T: 5e-1}\n"
    assert yaml.safe_load(text)["model"]["eps"] == "1e-2"
    cfg = tmp_path / "c.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["relax-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    echo = json.loads((out / "manifest.json").read_text())["config"]
    assert echo["model"]["eps"] == "1e-2" and echo["study"]["relax-sweep"]["eps_list"] == ["1e-1", "5e-2"]
    assert json.loads((out / "report.json").read_text())["eps_values"] == [0.1, 0.05]


def test_phys_block_builds_the_model(tmp_path):
    cfg = write_cfg(tmp_path / "c.yaml", {"model": {"kind": "nsc", "d": 2, "phys": {"mu": 0.25, "eps": 0.05}}})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["config"]["model"]["phys"] == {"mu": 0.25, "eps": 0.05}


def test_readme_config_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg = load_config(write_cfg(tmp_path / "c.yaml", yaml.safe_load(example)), "decay-fit")
    assert cfg["seed"] == 1234 and "decay-fit" in cfg["study"]


def _loaded_after(code: str, prefix) -> list:
    """The modules named prefix... (a string or a tuple of them) that a fresh
    interpreter holds once code has run; nothing loads scipy.fft, only expm
    loads scipy.linalg, only a split source transform loads
    concurrent.futures and only a study that draws loads numpy.random, and
    with it OpenSSL's _hashlib (numpy.random -> secrets -> hmac)."""
    probe = f"{code}\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _main_calls(tmp_path, runs: dict) -> str:
    calls = ["from nsclab.cli import main"]
    for study, payload in runs.items():
        cfg = write_cfg(tmp_path / f"{study}.yaml", payload)
        calls.append(f"assert main({[study, '--config', str(cfg), '--out', str(tmp_path / study)]!r}) == 0")
    return "\n".join(calls)


def test_cli_import_skips_scipy_optimize():
    loaded = set(_loaded_after("import nsclab.cli", "scipy"))
    assert "scipy.optimize" not in loaded
    assert not loaded & {"scipy.fft", "scipy.linalg", "scipy.special"}
    assert not _loaded_after("import nsclab.cli", ("concurrent", "_hashlib"))


def test_linear_and_radial_studies_skip_scipy_fft(tmp_path):
    runs = {
        "relax-sweep": {"model": {"d": 3}, "grid": {"n": 8}, "study": {"relax-sweep": {"p": 2.0, "T": 0.5, "eps_list": [0.1, 0.05]}}},
        "decay-fit": {"model": {"d": 3, "eps": 0.01}, "radial": {"nodes": 512}, "study": {"decay-fit": {"t_count": 20}}},
        "lyapunov": {"model": {"d": 3, "eps": 0.01}, "radial": {"nodes": 512}, "study": {"lyapunov": {"t_count": 20}}},
    }
    assert "scipy.fft" not in _loaded_after(_main_calls(tmp_path, runs), "scipy")


def test_nonlinear_evolve_skips_scipy_fft_and_special(tmp_path):
    # the sources' transforms are numpy.fft; scipy.fft pulled in scipy.special
    runs = {"evolve": {"model": {"d": 3}, "grid": {"n": 8}, "study": {"evolve": {"T": 0.02, "dt": 0.01, "nonlinear": True}}}}
    assert not set(_loaded_after(_main_calls(tmp_path, runs), "scipy")) & {"scipy.fft", "scipy.special"}


def test_studies_that_draw_nothing_skip_numpy_random(tmp_path):
    runs = {
        "decay-fit": {"radial": {"nodes": 512}, "study": {"decay-fit": {"t_count": 20}}},
        "lyapunov": {"radial": {"nodes": 512}},
        "spectrum": {},
        "initial-layer": {},
    }
    # nor OpenSSL: their manifests take CPython's built-in SHA-256
    assert not _loaded_after(_main_calls(tmp_path, runs), ("numpy.random", "_hashlib"))
    # the probe sees a study that draws
    assert {"numpy.random", "_hashlib"} <= set(_loaded_after(_main_calls(tmp_path, {"sk-check": {}}), ("numpy.random", "_hashlib")))


@pytest.mark.parametrize(
    "study, payload, hidden, hasher",
    [
        # a study that draws has loaded OpenSSL through numpy.random and digests with it
        ("evolve", {"model": {"d": 2, "eps": 0.1}, "grid": {"n": 8}, "study": {"evolve": {"T": 0.02, "dt": 0.01, "snapshots": True}}}, (), ("_hashlib",)),
        # as in a process that never loaded OpenSSL: CPython's built-in SHA-256
        ("decay-fit", {"radial": {"nodes": 512}, "study": {"decay-fit": {"t_count": 20}}}, ("_hashlib",), ("_sha2", "_sha256")),
        # no built-in SHA-256 either: hashlib's
        ("decay-fit", {"radial": {"nodes": 512}, "study": {"decay-fit": {"t_count": 20}}}, ("_hashlib", "_sha2", "_sha256"), ("_hashlib",)),
    ],
)
def test_manifest_holds_each_artifacts_sha256(tmp_path, monkeypatch, study, payload, hidden, hasher):
    for name in hidden:
        monkeypatch.setitem(sys.modules, name, None)
    made = []
    real = cli._sha256
    monkeypatch.setattr(cli, "_sha256", lambda: made.append(real()) or made[-1])
    out = tmp_path / "out"
    assert main([study, "--config", str(write_cfg(tmp_path / "c.yaml", payload)), "--out", str(out), "--seed", "1"]) == EXIT_OK
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert set(artifacts) == {p.name for p in out.iterdir()} - {"manifest.json"}
    assert {name: digest(out / name) for name in artifacts} == artifacts
    assert len(made) == len(artifacts) and {type(h).__module__ for h in made} <= set(hasher)


def test_every_study_has_a_schema_and_a_runner():
    assert set(_STUDY_DEFAULTS) == set(cli._RUNNERS)


def test_spectrum_shape_contract(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.yaml",
        {"model": {"kind": "nsc", "d": 3, "eps": 0.05}, "seed": 1, "study": {"spectrum": {"count": 200}}},
    )
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert len(lines) == 201  # header + 200 rows
    header = lines[0].split(",")
    n = 2 * 3 + 2
    assert len(header) == 1 + 2 * n
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"spectrum.csv", "spectrum.dat", "report.json"}


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.yaml",
        {
            "model": {"kind": "nsc", "d": 2, "eps": 0.0625},
            "grid": {"n": 16},
            "seed": 11,
            "study": {"bernstein": {"trials": 5}},
        },
    )
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["bernstein", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        outs.append(out)
    for fname in ("bernstein.csv", "report.json", "manifest.json"):
        h1, h2 = digest(outs[0] / fname), digest(outs[1] / fname)
        assert h1 == h2, fname


def test_sk_check_study(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.yaml",
        {"model": {"kind": "nsc", "d": 3, "eps": 0.05}, "seed": 2, "study": {"sk-check": {"directions": 5}}},
    )
    out = tmp_path / "out"
    assert main(["sk-check", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["all_full"] is True
    assert rep["ranks"] == [8] * 5


def test_evolve_study_snapshots(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.yaml",
        {
            "model": {"kind": "nsc", "d": 1, "eps": 0.5},
            "grid": {"n": 32},
            "thresholds": {"K": 2, "k": 1.0},
            "seed": 5,
            "output": {"stride": 5},
            "study": {"evolve": {"T": 0.1, "dt": 0.01, "nonlinear": True, "snapshots": True, "amplitude": 1e-3}},
        },
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    norms = (out / "norms.csv").read_text().splitlines()
    assert norms[0].startswith("t,mean_a,l2_a,l2_v1,l2_theta,l2_q1")
    snaps = sorted(out.glob("snapshot_*.fld"))
    assert snaps
    st = load_state(snaps[-1])
    assert st.grid.n == 32
    sidecar = json.loads((out / "run.json").read_text())
    assert sidecar["nonlinear"] is True


def test_nsf_evolve_snapshots_read_back(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.yaml",
        {"model": {"kind": "nsf", "d": 2}, "grid": {"n": 16}, "study": {"evolve": {"T": 0.05, "snapshots": True}}},
    )
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    snaps = sorted(out.glob("snapshot_*.fld"))
    assert snaps
    for path in snaps:
        st = load_state(path)
        assert not st.has_flux and st.u.shape == (4, 16, 16)


def test_decay_fit_study(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.yaml",
        {
            "model": {"kind": "nsc", "d": 3, "eps": 0.01},
            "radial": {"nodes": 1024, "r_max": 10.0},
            "seed": 1,
            "study": {"decay-fit": {"sigma": 0.0, "sigma1": 1.5, "t_count": 20}},
        },
    )
    out = tmp_path / "out"
    assert main(["decay-fit", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    fit = rep["density_velocity"]
    assert fit["r_squared"] > 0.99
    assert abs(fit["exponent_fitted"] - fit["exponent_theory"]) / 0.75 < 0.05
    assert (out / "decay.csv").exists() and (out / "decay.dat").exists()


def test_decay_fit_study_bad_sigma_exit_2(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path / "c.yaml",
        {
            "model": {"kind": "nsc", "d": 3, "eps": 0.01},
            "seed": 1,
            "study": {"decay-fit": {"sigma": -9.0, "sigma1": 1.5}},
        },
    )
    assert main(["decay-fit", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "admissible range" in capsys.readouterr().err


def test_relax_sweep_study(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.yaml",
        {
            "model": {"kind": "nsc", "d": 2, "eps": 0.01},
            "grid": {"n": 16},
            "seed": 3,
            "study": {"relax-sweep": {"eps_list": [3e-2, 1e-2], "T": 0.5, "well_prepared": True}},
        },
    )
    out = tmp_path / "out"
    assert main(["relax-sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["eps_values"] == [3e-2, 1e-2]
    assert rep["xtilde_values"][1] < rep["xtilde_values"][0]
    rows = (out / "relax.csv").read_text().splitlines()
    assert rows[0] == "eps,xtilde,xtilde_well_prepared"
    assert len(rows) == 3


def test_relax_sweep_reads_the_model_block(tmp_path):
    # a coefficient of the model block reaches the sweep: kappa changes the
    # bytes of relax.csv; mu alone does not, since the longitudinal
    # viscosity weight is 1 whenever nu > 0 and mu/nu stays 1/2 at
    # visc_lam = 0
    base = {"grid": {"n": 8}, "seed": 3, "study": {"relax-sweep": {"eps_list": [1e-1, 3e-2], "T": 1.0}}}
    digests = {}
    for name, coeffs in (("default", {}), ("kappa", {"kappa": 2.0}), ("mu", {"visc_mu": 0.1})):
        cfg = write_cfg(tmp_path / f"{name}.yaml", {**base, "model": {"kind": "nsc", "d": 3, **coeffs}})
        assert main(["relax-sweep", "--config", str(cfg), "--out", str(tmp_path / name)]) == EXIT_OK
        digests[name] = digest(tmp_path / name / "relax.csv")
    assert digests["kappa"] != digests["default"]
    assert digests["mu"] == digests["default"]


def test_lyapunov_study(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.yaml",
        {
            "model": {"kind": "nsc", "d": 3, "eps": 0.01},
            "radial": {"nodes": 1024},
            "seed": 1,
            "study": {"lyapunov": {"t_count": 20, "r_max": 64.0}},
        },
    )
    out = tmp_path / "out"
    assert main(["lyapunov", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["monotone"] is True
    assert abs(rep["tail_slope"] - rep["tail_slope_theory"]) / abs(rep["tail_slope_theory"]) < 0.1
    lines = (out / "lyapunov.csv").read_text().splitlines()
    assert lines[0] == "t,l1,envelope" and len(lines) == 21


def test_band_diagnostics_evaluate_each_series_once(tmp_path, monkeypatch):
    import nsclab.diagnostics as diagnostics
    import nsclab.evolve as evolve

    cfg = write_cfg(
        tmp_path / "c.yaml",
        {
            "model": {"kind": "nsc", "d": 2, "eps": 0.05},
            "grid": {"n": 16},
            "thresholds": {"K": 2, "k": 1.0},
            "seed": 1,
            "study": {"evolve": {"T": 0.1, "dt": 0.01, "nonlinear": False}},
        },
    )
    # the series and X are read from the state's Gram factors: one flow
    # evaluation per series and one for X, and no propagator while they run
    # (the study's own states are still stepped by one)
    calls, built, running = [], [], []

    def marked(fn):
        def run(*args):
            running.append(1)
            try:
                return fn(*args)
            finally:
                running.pop()

        return run

    for name in ("band_diagnostics", "functional_X"):
        monkeypatch.setattr(diagnostics, name, marked(getattr(diagnostics, name)))
    counted, init = diagnostics._flow_squares, evolve.LinearPropagator.__init__
    monkeypatch.setattr(diagnostics, "_flow_squares", lambda *a: calls.append(1) or counted(*a))
    monkeypatch.setattr(evolve.LinearPropagator, "__init__", lambda self, *a: built.append(bool(running)) or init(self, *a))
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = (out / "band_diagnostics.csv").read_text().splitlines()[1:]
    assert rows and len(calls) == len({tuple(row.split(",")[1:3]) for row in rows}) + 1
    assert built and not any(built)
    # every interior row carries a residual, the two ends of each band do not
    assert sum(row.endswith(",nan") for row in rows) == 2 * len({row.split(",")[1] for row in rows})


def test_unknown_study_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--dry-run"])
    assert exc.value.code == 2


def test_initial_layer_study(tmp_path):
    base = {"model": {"kind": "nsc", "d": 2, "eps": 0.1}, "grid": {"n": 16}, "seed": 1}
    cfg = write_cfg(tmp_path / "c.yaml", {**base, "study": {"initial-layer": {"mode": [1, 0]}}})
    out = tmp_path / "out"
    assert main(["initial-layer", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["layer"]["r_squared"] > 0.99
    assert abs(rep["scaling_ratio"] - rep["expected_ratio"]) / rep["expected_ratio"] < 0.05
    # without a mode the layer starts on the first axis, e_1 = (1, 0)
    default = tmp_path / "default"
    assert main(["initial-layer", "--config", str(write_cfg(tmp_path / "d.yaml", base)), "--out", str(default)]) == EXIT_OK
    assert json.loads((default / "manifest.json").read_text())["config"]["study"]["initial-layer"]["mode"] is None
    for name in ("report.json", "layer.csv", "layer.dat"):
        assert digest(default / name) == digest(out / name)


def test_initial_layer_scaling_reuses_the_configured_fit(tmp_path):
    # the coarse rate of the scaling is the layer fit at the configured window
    study = {"initial-layer": {"efolds": 3.0, "samples": 90}}
    cfg = write_cfg(tmp_path / "c.yaml", {"model": {"kind": "nsc", "d": 2, "eps": 0.1}, "grid": {"n": 16}, "study": study})
    out = tmp_path / "out"
    assert main(["initial-layer", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["scaling"]["rate_coarse"] == rep["layer"]["rate_fitted"]


def test_initial_layer_resolution_failure_exit_3(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.yaml",
        {
            "model": {"kind": "nsc", "d": 2, "eps": 0.1},
            "grid": {"n": 16},
            "seed": 1,
            "study": {"initial-layer": {"mode": [1, 0], "efolds": 40.0}},
        },
    )
    code = main(["initial-layer", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL


def test_thread_count_does_not_change_output(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.yaml",
        {"model": {"kind": "nsc", "d": 3, "eps": 0.05}, "seed": 7, "study": {"spectrum": {"count": 40}}},
    )
    outs = []
    for name, threads in (("t1", "1"), ("t4", "4")):
        out = tmp_path / name
        assert main(["spectrum", "--config", str(cfg), "--out", str(out), "--threads", threads]) == EXIT_OK
        outs.append(digest(out / "spectrum.csv"))
    assert outs[0] == outs[1]

    # the FFT workers of the batched nonlinear sources change no output bit
    cfg = write_cfg(
        tmp_path / "e.yaml",
        {
            "model": {"kind": "nsc", "d": 3, "eps": 0.05},
            "grid": {"n": 16},
            "thresholds": {"K": 4, "k": 1.0},
            "seed": 7,
            "output": {"stride": 2},
            "study": {
                "evolve": {"T": 0.06, "dt": 0.01, "nonlinear": True, "flux_init": "random", "snapshots": True, "amplitude": 0.05}
            },
        },
    )
    runs = []
    for name, threads in (("e1", "1"), ("e2", "2")):
        out = tmp_path / name
        assert main(["evolve", "--config", str(cfg), "--out", str(out), "--threads", threads]) == EXIT_OK
        runs.append({p.name: digest(p) for p in out.iterdir() if p.suffix == ".fld" or p.name == "norms.csv"})
    assert len(runs[0]) == 5  # norms.csv and snapshots at steps 0, 2, 4, 6
    assert runs[0] == runs[1]


def test_thread_count_reaches_the_source_transforms(tmp_path, monkeypatch):
    seen = []
    real = evolve._row_ranges

    def spy(rows, workers):
        ranges = real(rows, workers)
        seen.append((rows, len(ranges)))
        return ranges

    monkeypatch.setattr(evolve, "_row_ranges", spy)
    cfg = write_cfg(
        tmp_path / "e.yaml",
        {"model": {"kind": "nsc", "d": 2, "eps": 0.1}, "grid": {"n": 8}, "seed": 1, "study": {"evolve": {"T": 0.02, "dt": 0.01, "nonlinear": True}}},
    )
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "2"]) == EXIT_OK
    # the 21 fields and derivatives of d = 2 NSC go out, its 7 products come back
    assert {rows for rows, _ in seen} == {21, 7}
    assert {ranges for _, ranges in seen} == {2}

    # outside the CLI the sources run in one range
    seen.clear()
    spec = ModelSpec(kind="nsc", d=2, eps=0.1)
    imex_step(random_state(Grid(n=8, d=2), np.random.default_rng(1)), spec, 0.01)
    assert seen and {ranges for _, ranges in seen} == {1}


def test_thread_count_zero_counts_the_usable_cpus(tmp_path, monkeypatch):
    # one CPU of a 64-CPU host: one range per transform and no thread pool
    seen = []
    real = evolve._row_ranges

    def spy(rows, workers):
        seen.append(workers)
        return real(rows, workers)

    def refused(*args, **kwargs):
        raise AssertionError("the source transforms started a thread pool")

    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(evolve, "_row_ranges", spy)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refused)
    cfg = write_cfg(
        tmp_path / "e.yaml",
        {"model": {"kind": "nsc", "d": 2, "eps": 0.1}, "grid": {"n": 8}, "study": {"evolve": {"T": 0.02, "dt": 0.01, "nonlinear": True}}},
    )
    assert main(["evolve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--threads", "0"]) == EXIT_OK
    assert seen and set(seen) == {1}


def test_defaults_without_config_file():
    cfg = load_config(None, "spectrum", seed=9)
    assert cfg["seed"] == 9
    assert cfg["model"]["kind"] == "nsc"
    assert "spectrum" in cfg["study"]


def test_benchmark_tracer_hooks_resolve(monkeypatch):
    # perfbench/tracer.py wraps nsclab names at run time; a refactor that
    # removes one breaks the traced benchmark, so install it here.
    import nsclab
    import nsclab.cli

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    owners = [nsclab.besov, nsclab.cli, nsclab.diagnostics, nsclab.evolve, nsclab.spectral, nsclab.studies]
    owners += [nsclab.evolve.LinearPropagator, nsclab.evolve.RadialFlow, nsclab.spectral.SpectralField]
    before = [dict(vars(o)) for o in owners]
    runners = dict(nsclab.cli._RUNNERS)
    seminorm = nsclab.studies.besov_seminorm
    t = tracer.Tracer(0)
    try:
        tracer.install(t, nsclab)
        assert nsclab.studies.besov_seminorm is not seminorm
        assert nsclab.cli._RUNNERS != runners
    finally:
        t.uninstall()
    assert [dict(vars(o)) for o in owners] == before
    assert nsclab.cli._RUNNERS == runners
