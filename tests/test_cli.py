import hashlib
import json
from pathlib import Path

import pytest
import yaml

from nsclab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, load_config, main
from nsclab.spectral import load_state


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
    calls = []
    counted = diagnostics.lyapunov_value
    monkeypatch.setattr(diagnostics, "lyapunov_value", lambda *a, **k: calls.append(1) or counted(*a, **k))
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rows = (out / "band_diagnostics.csv").read_text().splitlines()[1:]
    assert rows and len(calls) == len(rows)
    # every interior row carries a residual, the two ends of each band do not
    assert sum(row.endswith(",nan") for row in rows) == 2 * len({row.split(",")[1] for row in rows})


def test_unknown_study_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--dry-run"])
    assert exc.value.code == 2


def test_initial_layer_study(tmp_path):
    cfg = write_cfg(
        tmp_path / "c.yaml",
        {
            "model": {"kind": "nsc", "d": 2, "eps": 0.1},
            "grid": {"n": 16},
            "seed": 1,
            "study": {"initial-layer": {"mode": [1, 0]}},
        },
    )
    out = tmp_path / "out"
    assert main(["initial-layer", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["layer"]["r_squared"] > 0.99
    assert abs(rep["scaling_ratio"] - rep["expected_ratio"]) / rep["expected_ratio"] < 0.05


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
