import json
import math
import re
import warnings

import numpy as np
import pytest

from bss.cli import CSV_BLOCK, _write_csv, main
from bss.diffusion import integrate_covariance
from bss.equilibrium import solve_equilibrium
from bss.harness import forward_equation_residual, sweep
from bss.ingestion import parse_gbfs, snapshot_histograms
from bss.meanfield import (
    builtin_measure,
    integrate,
    integrate_hetero,
    ratio_projection,
)
from bss.model import ConvergenceError, validate_params
from bss.simulator import (
    empirical_measure,
    ensemble,
    round_robin_state,
    simulate,
    stationary_average,
)


def write_config(path, **overrides):
    cfg = {
        "n_stations": 10,
        "gamma": 1.5,
        "capacity": 3,
        "mu": 1.0,
        "p": 0.5,
        "arrival": {"constant": 1.0},
        "choice": {"kind": "exponential", "theta": 1.0},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture
def base_cfg(tmp_path):
    return write_config(tmp_path / "cfg.json")


MIX = {"values": [2, 4], "fractions": [0.5, 0.5]}


# ---------------------------------------------------------------- basics

def test_version_flag_exits_zero(capsys):
    assert main(["--version"]) == 0


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_one(base_cfg, tmp_path, capsys):
    code = main(["equilibrium", "--config", base_cfg, "--bogus", "1",
                 "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert "usage" in capsys.readouterr().err


def test_invalid_p_exits_one_and_names_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "bad.json", p=2.0)
    code = main(["equilibrium", "--config", cfg,
                 "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert "p" in capsys.readouterr().err


def test_missing_config_exits_one(tmp_path, capsys):
    code = main(["equilibrium", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 1


def test_malformed_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code = main(["equilibrium", "--config", str(bad),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 1


def test_convergence_error_exits_two(base_cfg, tmp_path, monkeypatch, capsys):
    import bss.cli as climod

    def boom(par):
        raise ConvergenceError("solver did not settle")

    monkeypatch.setattr(climod, "solve_equilibrium", boom)
    code = main(["equilibrium", "--config", base_cfg,
                 "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert "settle" in capsys.readouterr().err


# ---------------------------------------------------------------- equilibrium

def test_equilibrium_csv_and_manifest(base_cfg, tmp_path):
    out = tmp_path / "eq.csv"
    assert main(["equilibrium", "--config", base_cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["capacity", "n", "mass"]
    assert len(rows) == 4
    assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-9)

    man = json.loads((tmp_path / "eq.csv.manifest.json").read_text())
    assert man["subcommand"] == "equilibrium"
    assert man["config"]["n_stations"] == 10
    assert man["config"]["fleet"] == 15
    assert man["outputs"] == [str(out)]
    assert man["version"]
    assert man["duration_seconds"] >= 0
    assert man["details"]["residual"] <= 1e-9
    stats = man["details"]["stats"]
    assert stats["route"] == "bracketed"
    assert 2 < stats["brent_evals"] <= 20
    assert stats["newton_iters"] == man["details"]["iterations"]


def test_equilibrium_at_p0_ignores_overflowing_choice(tmp_path):
    # without informed users g never enters; exp(1000 n) must not reach it
    steep = write_config(tmp_path / "steep.json", p=0.0,
                         choice={"kind": "exponential", "theta": 1000.0})
    mild = write_config(tmp_path / "mild.json", p=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["equilibrium", "--config", steep,
                     "--out", str(tmp_path / "steep.csv")]) == 0
    assert main(["equilibrium", "--config", mild,
                 "--out", str(tmp_path / "mild.csv")]) == 0
    steep_csv, mild_csv = tmp_path / "steep.csv", tmp_path / "mild.csv"
    assert steep_csv.read_bytes() == mild_csv.read_bytes()
    man = json.loads((tmp_path / "steep.csv.manifest.json").read_text())
    assert man["details"]["s"] == 1.0


def test_simulator_at_p0_ignores_overflowing_choice(tmp_path):
    # the engines, the forward check's generator and their CLI commands at
    # p = 0 take flat weights: theta = 1000 warns nowhere and gives theta =
    # 1's bytes
    runs = {}
    for name, theta in (("steep", 1000.0), ("mild", 1.0)):
        choice = {"kind": "exponential", "theta": theta}
        cfg = write_config(tmp_path / f"{name}.json", p=0.0, choice=choice)
        par = validate_params(json.loads((tmp_path / f"{name}.json").read_text()))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = simulate(par, 5.0, 0.5, seed=3)
            avg = stationary_average(par, 1.0, 5.0, seed=3)
            ens = ensemble(par, 4, 2.0, 0.5, seed=3)
            fwd = forward_equation_residual(par, 10, "coord@0", 0.5, 20, 3)
            assert main(["simulate", "--config", cfg, "--horizon", "5",
                         "--sample-dt", "0.5", "--seed", "3",
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
            assert main(["verify", "--suite", "forward", "--config", cfg,
                         "--out", str(tmp_path / f"{name}-forward.json")]) == 0
        runs[name] = [traj.y_series, traj.r_series, traj.stats, avg, ens.mean,
                      ens.cov, ens.stats, fwd.metrics,
                      (tmp_path / f"{name}.csv").read_bytes(),
                      (tmp_path / f"{name}-forward.json").read_bytes()]
    for steep, mild in zip(runs["steep"], runs["mild"]):
        if isinstance(steep, np.ndarray):
            assert steep.tobytes() == mild.tobytes()
        else:
            assert steep == mild


def test_equilibrium_capacity_mix_rows_per_class(tmp_path):
    cfg = write_config(
        tmp_path / "h.json",
        capacity={"values": [2, 4], "fractions": [0.5, 0.5]},
    )
    out = tmp_path / "eq.csv"
    assert main(["equilibrium", "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    caps = {r[0] for r in rows}
    assert caps == {"2", "4"}
    assert len(rows) == 3 + 5
    assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-9)
    # a mix reports what the solve did, as a uniform capacity does
    details = json.loads((tmp_path / "eq.csv.manifest.json").read_text())["details"]
    assert set(details) == {"residual", "iterations", "a", "s", "entropy", "stats"}
    assert details["residual"] <= 1e-10
    assert details["stats"]["newton_iters"] == details["iterations"]


# ---------------------------------------------------------------- simulate

def test_simulate_long_format_and_rerun_bytes(base_cfg, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = ["simulate", "--config", base_cfg, "--horizon", "5",
            "--sample-dt", "1", "--seed", "42"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()

    header, rows = read_csv(out_a)
    assert header == ["t", "observable", "index", "value"]
    assert {r[1] for r in rows} == {"y"}
    # 6 grid instants, 4 levels each, every block on the simplex
    assert len(rows) == 6 * 4
    by_t = {}
    for r in rows:
        by_t.setdefault(r[0], []).append(float(r[3]))
    for block in by_t.values():
        assert sum(block) == pytest.approx(1.0, abs=1e-12)

    man = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert man["seed"] == 42
    assert man["details"]["events"] > 0
    stats = man["details"]["stats"]
    assert stats["events"] == man["details"]["events"]
    assert stats["thinning_rejections"] == 0


def test_simulate_seed_changes_output(base_cfg, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["simulate", "--config", base_cfg, "--horizon", "20",
            "--sample-dt", "1"]
    assert main(base + ["--seed", "1", "--out", str(out_a)]) == 0
    assert main(base + ["--seed", "2", "--out", str(out_b)]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()


def test_simulate_capacity_mix_emits_ratio_rows(tmp_path):
    cfg = write_config(
        tmp_path / "h.json",
        capacity={"values": [2, 4], "fractions": [0.5, 0.5]},
    )
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", cfg, "--horizon", "3",
                 "--sample-dt", "1", "--seed", "0", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert {r[1] for r in rows} == {"r"}


# ---------------------------------------------------------------- meanfield

def test_meanfield_mass_initial_condition(base_cfg, tmp_path):
    out = tmp_path / "mf.csv"
    assert main(["meanfield", "--config", base_cfg, "--horizon", "2",
                 "--sample-dt", "1", "--y0", "builtin:mass@1",
                 "--out", str(out)]) == 0
    _, rows = read_csv(out)
    first = [float(r[3]) for r in rows if r[0] == "0"]
    assert first == [0.0, 1.0, 0.0, 0.0]


def test_meanfield_y0_from_file(base_cfg, tmp_path):
    y0 = tmp_path / "y0.csv"
    y0.write_text("0.4\n0.3\n0.2\n0.1\n")
    out = tmp_path / "mf.csv"
    assert main(["meanfield", "--config", base_cfg, "--horizon", "1",
                 "--sample-dt", "1", "--y0", str(y0), "--out", str(out)]) == 0
    _, rows = read_csv(out)
    first = [float(r[3]) for r in rows if r[0] == "0"]
    assert first == pytest.approx([0.4, 0.3, 0.2, 0.1])


def test_meanfield_y0_wrong_length_exits_one(base_cfg, tmp_path, capsys):
    y0 = tmp_path / "y0.csv"
    y0.write_text("0.5\n0.5\n")
    code = main(["meanfield", "--config", base_cfg, "--horizon", "1",
                 "--sample-dt", "1", "--y0", str(y0),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 1


def test_meanfield_capacity_mix_ratio_rows(tmp_path):
    cfg = write_config(
        tmp_path / "h.json",
        capacity={"values": [2, 4], "fractions": [0.5, 0.5]},
    )
    out = tmp_path / "mf.csv"
    assert main(["meanfield", "--config", cfg, "--horizon", "1",
                 "--sample-dt", "1", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert {r[1] for r in rows} == {"r"}
    first = [float(r[3]) for r in rows if r[0] == "0"]
    assert sum(first) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- diffusion

def test_diffusion_long_format_symmetric(base_cfg, tmp_path):
    out = tmp_path / "d.csv"
    assert main(["diffusion", "--config", base_cfg, "--horizon", "2",
                 "--sample-dt", "1", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "i", "j", "sigma_ij"]
    assert len(rows) == 3 * 4 * 4
    sig = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
    assert all(v == 0.0 for (t, _, _), v in sig.items() if t == "0")
    for i in range(4):
        for j in range(4):
            assert sig[("2", str(i), str(j))] == sig[("2", str(j), str(i))]
    assert sum(sig[("2", str(i), str(i))] for i in range(4)) > 0


def test_meanfield_and_diffusion_manifests_carry_stepper_stats(base_cfg, tmp_path):
    for sub in ("meanfield", "diffusion"):
        out = tmp_path / f"{sub}.csv"
        assert main([sub, "--config", base_cfg, "--horizon", "2",
                     "--sample-dt", "1", "--out", str(out)]) == 0
        man = json.loads((tmp_path / f"{sub}.csv.manifest.json").read_text())
        stats = man["details"]["stats"]
        # two unit intervals at the default step of 0.005
        assert stats["steps"] <= 400
        assert stats["halvings"] == stats["stiff_halvings"] == 0
        assert set(stats) == {"steps", "halvings", "stiff_halvings", "renormalized",
                              "renormalized_mass", "fixed_point_exits", "cycle_exits"}


# ---------------------------------------------------------------- sweep

def test_sweep_surface_schema_and_endpoints(tmp_path):
    cfg = write_config(tmp_path / "c.json", n_stations=20, gamma=10.0,
                       capacity=20, choice={"kind": "exponential", "theta": 2.0})
    out = tmp_path / "s.csv"
    assert main(["sweep", "--plane", "p-theta",
                 "--grid", "p=0:1:0.5,theta=1:2:0.5",
                 "--config", cfg, "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["x", "y", "ybar0", "ybar1", "ybarKm1", "ybarK",
                      "entropy", "converged"]
    assert len(rows) == 3 * 3
    assert {r[0] for r in rows} == {"0", "0.5", "1"}
    assert all(r[7] == "1" for r in rows)


def test_sweep_thread_count_does_not_change_bytes(tmp_path):
    cfg = write_config(tmp_path / "c.json", n_stations=20, gamma=10.0,
                       capacity=20, choice={"kind": "exponential", "theta": 2.0})
    out1 = tmp_path / "s1.csv"
    out3 = tmp_path / "s3.csv"
    argv = ["sweep", "--plane", "p-theta", "--grid", "p=0:1:0.25,theta=2",
            "--config", cfg]
    assert main(argv + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(argv + ["--threads", "3", "--out", str(out3)]) == 0
    assert out1.read_bytes() == out3.read_bytes()


def test_sweep_threads_env_fallback(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "s.csv"
    monkeypatch.setenv("BSS_THREADS", "2")
    assert main(["sweep", "--plane", "p-theta", "--grid", "p=0:1:0.5,theta=1",
                 "--config", cfg, "--out", str(out)]) == 0
    man = json.loads((tmp_path / "s.csv.manifest.json").read_text())
    assert man["details"]["threads"] == 2


def test_sweep_rejects_bad_axis_names(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    code = main(["sweep", "--plane", "p-theta", "--grid", "p=0:1:0.5,c=1:5:1",
                 "--config", cfg, "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert "theta" in capsys.readouterr().err


def test_sweep_rejects_unknown_plane(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json")
    code = main(["sweep", "--plane", "p-q", "--grid", "p=0:1:0.5,q=1",
                 "--config", cfg, "--out", str(tmp_path / "s.csv")])
    assert code == 1


@pytest.mark.parametrize("plane, grid, field", [
    ("p-theta", "p=2,theta=0:2:1", "p"),
    ("p-theta", "p=nan,theta=1", "p"),
    ("p-theta", "p=0:inf:0.5,theta=1", "p"),
    ("p-theta", "p=0:1:nan,theta=1", "p"),
    ("p-theta", "p=0:1:1e-300,theta=1", "p"),
    ("p-theta", "p=0:1:0.5,theta=0:1:1e-6", "theta"),
    ("p-theta", "p=0:1:0.5,theta=-1", "theta"),
    ("p-theta", "p=0:1:0.5,theta=1000", "theta"),
    ("p-alpha", "p=0:1:0.5,alpha=-0.5", "alpha"),
    ("p-c", "p=0:1:0.5,c=1.5", "c"),
    ("p-c", "p=0:1:0.5,c=0", "c"),
    ("p-gamma", "p=0:1:0.5,gamma=-5:0:5", "gamma"),
    ("p-gamma", "p=0:1:0.5,gamma=0", "gamma"),
])
def test_sweep_rejects_bad_nodes_before_writing(tmp_path, capsys, plane, grid,
                                                field):
    cfg = write_config(tmp_path / "c.json")
    out = tmp_path / "s.csv"
    code = main(["sweep", "--plane", plane, "--grid", grid, "--config", cfg,
                 "--out", str(out)])
    assert code == 1
    assert re.search(rf"(axis|sweep) {field}\b", capsys.readouterr().err)
    assert not out.exists()
    assert not (tmp_path / "s.csv.manifest.json").exists()


# ---------------------------------------------------------------- verify

def test_verify_insufficient_sample_exits_zero(base_cfg, tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["verify", "--suite", "fclt", "--config", base_cfg,
                 "--reps", "2", "--n", "60", "--t-check", "0.5",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "insufficient sample"
    assert report["pass"] is None
    assert "insufficient sample" in capsys.readouterr().out


def test_verify_forward_passes(base_cfg, tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["verify", "--suite", "forward", "--config", base_cfg,
                 "--n", "80", "--reps", "120", "--t", "0.5",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert report["name"] == "forward_equation"
    assert report["metrics"]["events"] >= report["metrics"]["rounds"] > 0
    man = json.loads((tmp_path / "rep.json.manifest.json").read_text())
    assert man["details"]["suite"] == "forward"
    assert man["details"]["reps"] == 120


@pytest.mark.parametrize("suite,extra", [
    ("fclt", ["--t-check", "0.5"]),
    ("forward", ["--t", "0.5"]),
])
def test_verify_manifest_copies_engine_counters(base_cfg, tmp_path, suite,
                                                extra):
    out = tmp_path / "rep.json"
    code = main(["verify", "--suite", suite, "--config", base_cfg,
                 "--n", "40", "--reps", "4", "--seed", "2", "--out", str(out),
                 *extra])
    assert code == 0
    metrics = json.loads(out.read_text())["metrics"]
    man = json.loads((tmp_path / "rep.json.manifest.json").read_text())
    assert man["details"]["stats"] == {"rounds": metrics["rounds"],
                                       "events": metrics["events"]}
    assert metrics["events"] >= metrics["rounds"] > 0


@pytest.mark.parametrize("delta", ["0", "-0.25", "nan", "inf"])
def test_verify_forward_bad_delta_exits_one(base_cfg, tmp_path, capsys, delta):
    code = main(["verify", "--suite", "forward", "--config", base_cfg,
                 "--n", "20", "--reps", "4", "--t", "0.5", "--delta", delta,
                 "--out", str(tmp_path / "rep.json")])
    assert code == 1
    assert "delta must be positive and finite" in capsys.readouterr().err


def test_verify_flln_zero_reps_exits_one(base_cfg, tmp_path, capsys):
    code = main(["verify", "--suite", "flln", "--config", base_cfg,
                 "--n-list", "100,400", "--horizon", "3", "--reps", "0",
                 "--out", str(tmp_path / "rep.json")])
    assert code == 1
    assert "reps must be >= 1" in capsys.readouterr().err


def test_verify_forward_zero_reps_exits_one(base_cfg, tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["verify", "--suite", "forward", "--config", base_cfg,
                 "--n", "20", "--reps", "0", "--t", "0.5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "reps must be >= 1" in captured.err
    written = [captured.out] + [path.read_text() for path in tmp_path.iterdir()
                                if path.name.startswith("rep.json")]
    assert not any(re.search(r"\bNaN\b|Infinity", text) for text in written)


@pytest.mark.parametrize("burn_in,horizon", [("-50", "1"), ("nan", "50"),
                                             ("5", "inf")])
def test_verify_interchange_bad_times_exits_one(base_cfg, tmp_path, capsys,
                                                burn_in, horizon):
    code = main(["verify", "--suite", "interchange", "--config", base_cfg,
                 "--n", "16", "--burn-in", burn_in, "--horizon", horizon,
                 "--out", str(tmp_path / "rep.json")])
    assert code == 1
    assert "0 <= burn_in < horizon" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.1"])
def test_verify_interchange_bad_tol_exits_one(base_cfg, tmp_path, capsys, tol):
    out = tmp_path / "rep.json"
    code = main(["verify", "--suite", "interchange", "--config", base_cfg,
                 "--n", "10", "--burn-in", "1", "--horizon", "5", "--tol", tol,
                 "--out", str(out)])
    assert code == 1
    assert "tol must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_verify_failing_suite_exits_two(base_cfg, tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["verify", "--suite", "interchange", "--config", base_cfg,
                 "--n", "16", "--burn-in", "50", "--horizon", "200",
                 "--tol", "0.0001", "--seed", "5", "--out", str(out)])
    assert code == 2
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert report["status"] == "fail"


def test_verify_flln_n_list_override(base_cfg, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["verify", "--suite", "flln", "--config", base_cfg,
                 "--n-list", "100,400", "--horizon", "3", "--reps", "3",
                 "--seed", "11", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["metrics"]["n_list"] == [100, 400]


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("suite,extra,non_finite", [
    ("flln", ["--n-list", "20,20", "--horizon", "1", "--reps", "1"], {}),
    ("fclt", ["--n", "20", "--reps", "3", "--t-check", "0.5"], {}),
    ("interchange", ["--n", "10", "--burn-in", "1", "--horizon", "5"], {}),
    # one replica has no sample spread: the standard error is infinite
    ("forward", ["--n", "10", "--reps", "1", "--t", "0.5"],
     {"standard_error": "inf"}),
])
def test_verify_writes_strict_json(base_cfg, tmp_path, suite, extra, non_finite):
    out = tmp_path / "rep.json"
    assert main(["verify", "--suite", suite, "--config", base_cfg, "--seed", "4",
                 "--out", str(out), *extra]) in (0, 2)
    report = _strict_json(out.read_text())
    _strict_json((tmp_path / "rep.json.manifest.json").read_text())
    assert report["non_finite"] == non_finite
    for key in non_finite:
        assert report["metrics"][key] is None


# ---------------------------------------------------------------- ingestion

def test_fit_arrivals_recovers_exact_model(tmp_path):
    ts = np.arange(0.0, 24.0, 1.0)
    rates = 2.0 + 0.5 * np.sin(2 * math.pi * ts / 24.0)
    csv_path = tmp_path / "rates.csv"
    lines = ["t_hours,rate"] + [f"{t},{r}" for t, r in zip(ts, rates)]
    csv_path.write_text("\n".join(lines) + "\n")

    out = tmp_path / "fit.json"
    assert main(["fit-arrivals", "--csv", str(csv_path), "--order", "1",
                 "--period", "24", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["model"]["intercept"] == pytest.approx(2.0, abs=1e-9)
    assert doc["model"]["sin"][0] == pytest.approx(0.5, abs=1e-9)
    assert doc["model"]["cos"][0] == pytest.approx(0.0, abs=1e-9)
    assert doc["r_squared"] == pytest.approx(1.0, abs=1e-12)


def test_fit_arrivals_bad_header_exits_one(tmp_path, capsys):
    csv_path = tmp_path / "rates.csv"
    csv_path.write_text("hour,lambda\n0,1.0\n")
    code = main(["fit-arrivals", "--csv", str(csv_path), "--order", "1",
                 "--out", str(tmp_path / "f.json")])
    assert code == 1
    assert "t_hours" in capsys.readouterr().err


def test_gbfs_hist_counts_and_manifest(tmp_path):
    status = {
        "last_updated": 50,
        "data": {"stations": [
            {"station_id": "a", "num_bikes_available": 3},
            {"station_id": "b", "num_bikes_available": 9},
            {"station_id": "c", "num_bikes_available": 0},
            {"station_id": "ghost", "num_bikes_available": 1},
        ]},
    }
    info = {"data": {"stations": [
        {"station_id": "a", "capacity": 6},
        {"station_id": "b", "capacity": 8},
        {"station_id": "c", "capacity": 4},
    ]}}
    sp = tmp_path / "status.json"
    ip = tmp_path / "info.json"
    sp.write_text(json.dumps(status))
    ip.write_text(json.dumps(info))
    out = tmp_path / "hist.csv"
    assert main(["gbfs-hist", "--status", str(sp), "--info", str(ip),
                 "--k-max", "8", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    counts = [float(r[2]) for r in rows if r[0] == "count"]
    ratios = [float(r[2]) for r in rows if r[0] == "ratio"]
    assert sum(counts) == pytest.approx(1.0)
    assert sum(ratios) == pytest.approx(1.0)
    man = json.loads((tmp_path / "hist.csv.manifest.json").read_text())
    assert man["details"]["stations"] == 3
    assert man["details"]["dropped"] == 1
    assert man["details"]["clamped"] == 1
    counts, ratios = snapshot_histograms(parse_gbfs(status, info), 8)
    oracle_rows = [("count", n, v) for n, v in enumerate(counts)]
    oracle_rows += [("ratio", b, v) for b, v in enumerate(ratios)]
    assert out.read_bytes() == oracle_csv(("observable", "index", "value"), oracle_rows)


def test_gbfs_hist_small_kmax_exits_one(tmp_path, capsys):
    sp = tmp_path / "status.json"
    ip = tmp_path / "info.json"
    sp.write_text(json.dumps({"data": {"stations": [
        {"station_id": "a", "num_bikes_available": 1, "last_reported": 1}]}}))
    ip.write_text(json.dumps({"data": {"stations": [
        {"station_id": "a", "capacity": 10}]}}))
    code = main(["gbfs-hist", "--status", str(sp), "--info", str(ip),
                 "--k-max", "4", "--out", str(tmp_path / "h.csv")])
    assert code == 1
    assert "k_max" in capsys.readouterr().err


# ---------------------------------------------------------------- CSV writer
# The per-value row loop the CLI wrote CSVs with before it wrote whole
# columns. It is the oracle every CSV is compared with, byte for byte.

def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return "%.17g" % float(v)


def oracle_csv(header, rows) -> bytes:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_write_csv_edge_values_match_row_oracle(tmp_path):
    floats = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
              2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
              0.1, 1.0 / 3.0, 2.0, 1.2345678901234567e17]
    n = len(floats)
    ints = (np.arange(n, dtype=np.int64) - 3) * np.int64(2**52 + 1)
    flags = np.arange(n) % 3 == 0
    names = np.array([f"s{i}%d" for i in range(n)])
    header = ("f", "lit", "i", "flag", "name", "pct")
    path = tmp_path / "edge.csv"
    _write_csv(str(path), header, floats, "50%d%s", ints, flags, names, "%")
    rows = [(f, "50%d%s", i, bool(b), str(s), "%")
            for f, i, b, s in zip(floats, ints, flags, names)]
    assert path.read_bytes() == oracle_csv(header, rows)


@pytest.mark.parametrize("n_rows", [0, 1, CSV_BLOCK - 1, CSV_BLOCK,
                                    CSV_BLOCK + 1, 2 * CSV_BLOCK + 3])
def test_write_csv_streams_every_block(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    t = rng.standard_normal(n_rows) * 10.0 ** rng.integers(-300, 300, n_rows)
    idx = rng.integers(-5, 1000, n_rows)
    path = tmp_path / "block.csv"
    _write_csv(str(path), ("t", "observable", "index"), t, "y", idx)
    rows = [(v, "y", i) for v, i in zip(t, idx)]
    assert path.read_bytes() == oracle_csv(("t", "observable", "index"), rows)


# floats whose bit patterns differ while their values compare equal (the
# zeros) or print alike (the NaNs): a writer that merged repeats by value
# would print -0.0 as "0"
_POOL = np.concatenate([
    [0.0, -0.0, math.inf, -math.inf, 5e-324, -2.5e-310, 0.1, 1.0 / 3.0],
    np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000123],
             dtype=np.uint64).view(np.float64),
])


def test_write_csv_formats_repeated_floats_by_bits(tmp_path):
    # repeats within a block and across the block boundaries, next to an
    # all-distinct column, a one-value column and float32 columns
    n = 2 * CSV_BLOCK + 17
    rng = np.random.default_rng(7)
    pooled = _POOL[rng.integers(0, _POOL.size, n)]
    distinct = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    single = np.full(n, -0.0)
    small = pooled.astype(np.float32)
    small_distinct = (rng.standard_normal(n)
                      * 10.0 ** rng.integers(-44, 38, n)).astype(np.float32)
    header = ("pooled", "distinct", "lit", "single", "f32", "f32d")
    path = tmp_path / "pool.csv"
    _write_csv(str(path), header, pooled, distinct, "y", single, small,
               small_distinct)
    rows = zip(pooled, distinct, ["y"] * n, single, small, small_distinct)
    assert path.read_bytes() == oracle_csv(header, rows)


def test_write_csv_rejects_unequal_or_unknown_columns(tmp_path):
    path = str(tmp_path / "bad.csv")
    with pytest.raises(ValueError, match="common length"):
        _write_csv(path, ("a", "b"), np.zeros(3), np.zeros(4))
    with pytest.raises(TypeError):
        _write_csv(path, ("a",), np.zeros((2, 2)))
    with pytest.raises(TypeError):
        _write_csv(path, ("a",), np.ones(2, dtype=complex))


def _grid(horizon, dt):
    # the sampling grid every site built before it had one builder
    return np.arange(int(math.floor(horizon / dt + 1e-9)) + 1) * dt


def _series_rows(times, observable, table):
    return [(t, observable, n, v)
            for t, row in zip(times, table) for n, v in enumerate(row)]


def _simulate_case(par):
    traj = simulate(par, 3.0, 0.5, 4)
    table = traj.y_series if par.is_uniform else traj.r_series
    obs = "y" if par.is_uniform else "r"
    return (["simulate", "--horizon", "3", "--sample-dt", "0.5", "--seed", "4"],
            ("t", "observable", "index", "value"),
            _series_rows(traj.times, obs, table))


def _meanfield_case(par):
    grid = _grid(2.0, 0.25)
    y0 = builtin_measure(par, "uniform")
    if par.is_uniform:
        rows = _series_rows(grid, "y", integrate(y0, par, grid, h=0.005))
    else:
        caps = par.capacity_values
        ratios = [ratio_projection(tab, caps)
                  for tab in integrate_hetero(y0, par, grid, h=0.005)]
        rows = _series_rows(grid, "r", ratios)
    return (["meanfield", "--horizon", "2", "--sample-dt", "0.25"],
            ("t", "observable", "index", "value"), rows)


def _diffusion_case(par):
    dim = par.uniform_capacity + 1
    states = integrate_covariance(builtin_measure(par, "uniform"),
                                  np.zeros((dim, dim)), par, _grid(1.0, 0.1))
    rows = [(s.t, i, j, s.sigma[i, j])
            for s in states for i in range(dim) for j in range(dim)]
    return (["diffusion", "--horizon", "1", "--sample-dt", "0.1"],
            ("t", "i", "j", "sigma_ij"), rows)


def _equilibrium_case(par):
    table = solve_equilibrium(par).table
    rows = [(k, n, table[c, n])
            for c, k in enumerate(par.capacity_values) for n in range(k + 1)]
    return ["equilibrium"], ("capacity", "n", "mass"), rows


def _sweep_case(par):
    header = ("x", "y", "ybar0", "ybar1", "ybarKm1", "ybarK", "entropy",
              "converged")
    nodes = sweep("p-theta", [0.0, 0.5, 1.0], [1.0, 2.0], par)
    return (["sweep", "--plane", "p-theta", "--grid", "p=0:1:0.5,theta=1:2:1"],
            header, [[row[h] for h in header] for row in nodes])


@pytest.mark.parametrize("case, capacity", [
    (_simulate_case, 3), (_simulate_case, MIX),
    (_meanfield_case, 3), (_meanfield_case, MIX),
    (_diffusion_case, 3),
    (_equilibrium_case, 3), (_equilibrium_case, MIX),
    (_sweep_case, 3),
], ids=["simulate", "simulate-mix", "meanfield", "meanfield-mix", "diffusion",
        "equilibrium", "equilibrium-mix", "sweep"])
def test_csv_bytes_match_row_oracle(tmp_path, case, capacity):
    cfg = write_config(tmp_path / "c.json", capacity=capacity)
    par = validate_params(json.loads((tmp_path / "c.json").read_text()))
    argv, header, rows = case(par)
    out = tmp_path / "out.csv"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
    assert out.read_bytes() == oracle_csv(header, rows)


# ---------------------------------------------------------------- time grids

def test_simulate_zero_horizon_writes_start_state(base_cfg, tmp_path):
    out = tmp_path / "z.csv"
    assert main(["simulate", "--config", base_cfg, "--horizon", "0",
                 "--seed", "3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["0"] * 4
    par = validate_params(json.loads((tmp_path / "cfg.json").read_text()))
    start = empirical_measure(round_robin_state(par))
    assert [float(r[3]) for r in rows] == start.tolist()
    man = json.loads((tmp_path / "z.csv.manifest.json").read_text())
    assert man["details"]["events"] == 0


@pytest.mark.parametrize("sub", ["simulate", "meanfield", "diffusion"])
@pytest.mark.parametrize("horizon, dt", [("-1", "1"), ("1", "0"),
                                         ("nan", "1"), ("inf", "1")])
def test_bad_horizon_or_sample_dt_exits_one(base_cfg, tmp_path, capsys, sub,
                                            horizon, dt):
    code = main([sub, "--config", base_cfg, "--horizon", horizon,
                 "--sample-dt", dt, "--out", str(tmp_path / "o.csv")])
    assert code == 1
    assert "horizon" in capsys.readouterr().err
