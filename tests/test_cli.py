"""Command-line interface: config parsing, exit codes, emitted files."""

import csv
import json

import pytest

import shearstab as ss
from shearstab.cli import main


_COUETTE = '{"family": "couette"}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_certify_couette_exit_zero(capsys):
    code, out, err = run(capsys, "certify", '{"family": "couette"}')
    assert code == 0
    assert "verdict=certified" in out
    assert err == ""


def test_certify_steep_tanh_exit_one(capsys):
    code, out, _ = run(capsys, "certify", '{"family": "tanh_shear", "K": 3.0}')
    assert code == 1
    assert "verdict=not_certified" in out


def test_certify_accepts_config_file(tmp_path, capsys):
    cfg = tmp_path / "profile.json"
    cfg.write_text(json.dumps({"family": "cubic", "a": 0.1}))
    code, out, _ = run(capsys, "certify", str(cfg))
    assert code == 0
    assert "verdict=certified" in out


@pytest.mark.parametrize(
    "config",
    [
        '{"family": "nope"}',
        '{"family": "cubic"}',
        '{"family": "cubic", "a": 0.1, "extra": 2.0}',
        '{"family": "couette", "K": 1.0}',
        "/tmp/shearstab-does-not-exist.json",
        '{"family"',
    ],
)
def test_bad_profile_config_exits_three(capsys, config):
    code, out, err = run(capsys, "certify", config)
    assert code == 3
    assert err.startswith("shearstab: error:")


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
@pytest.mark.parametrize(
    "template",
    [
        '{"family": "cubic", "a": %s}',
        '{"family": "tanh_shear", "K": %s}',
        '{"family": "polynomial", "coeffs": [0, 1, %s]}',
    ],
)
def test_non_finite_profile_parameters_exit_three(capsys, template, value):
    code, out, err = run(capsys, "certify", template % value)
    assert code == 3
    assert out == ""
    assert err.startswith("shearstab: error:") and "must be finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "config",
    [
        '{"family": "cubic", "a": 1e300}',
        '{"family": "polynomial", "coeffs": [0, 1e300]}',
        '{"family": "polynomial", "coeffs": [0, 1e-300, 0, 1]}',
        '{"family": "cubic", "a": null}',
        '{"family": "polynomial", "coeffs": 5}',
    ],
)
def test_out_of_range_profile_parameters_exit_three(capsys, config):
    code, out, err = run(capsys, "certify", config)
    assert code == 3
    assert out == ""
    assert err.startswith("shearstab: error:") and err.count("\n") == 1


def test_certify_json_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "certify", '{"family": "couette"}', "--json", str(a))
    run(capsys, "certify", '{"family": "couette"}', "--json", str(b))
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert set(payload) == {"tool", "config", "result"}
    assert payload["tool"]["name"] == "shearstab"
    assert payload["tool"]["version"] == ss.__version__
    assert payload["config"]["profile"] == {"family": "couette"}
    assert payload["result"]["verdict"] == "certified"
    assert len(payload["result"]["entries"]) == 33


def test_rayleigh_scan_exit_zero(capsys):
    code, out, _ = run(
        capsys, "rayleigh-scan", '{"family": "couette"}', "--n-list", "128,256"
    )
    assert code == 0
    assert "monotone=True" in out
    assert "persistent=0" in out


def test_rayleigh_scan_rejects_bad_n_list(capsys):
    code, _, err = run(
        capsys, "rayleigh-scan", '{"family": "couette"}', "--n-list", "256,128"
    )
    assert code == 3
    assert "error" in err


def test_sweep_schrodinger_json_and_complex_encoding(tmp_path, capsys):
    out_json = tmp_path / "sweep.json"
    code, out, _ = run(
        capsys,
        "sweep",
        "schrodinger",
        '{"family": "couette"}',
        "--betas",
        "1e3,1e4,1e5",
        "--json",
        str(out_json),
    )
    # three betas are too few for a slope fit: inconclusive
    assert code == 2
    payload = json.loads(out_json.read_text())
    assert payload["config"]["kind"] == "schrodinger"
    assert payload["config"]["lam"] == {"re": 0.0, "im": 0.0}
    rows = payload["result"]["rows"]
    assert len(rows) == 3
    assert rows[0]["lam"] == {"re": 0.0, "im": 0.0}
    assert all(r["converged"] for r in rows)


def test_sweep_csv_round_trip(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        "sweep",
        "l1-approx",
        '{"family": "couette"}',
        "--betas",
        "1e4,1e5",
        "--csv",
        str(out_csv),
    )
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert set(rows[0]) == {
        "beta",
        "alpha",
        "lam_re",
        "lam_im",
        "n_used",
        "converged",
        "metric",
        "bound_ratio",
    }
    assert float(rows[0]["beta"]) == 1e4
    assert rows[0]["converged"] == "1"
    assert float(rows[0]["bound_ratio"]) > 0


def test_sweep_plotdata(tmp_path, capsys):
    out_plot = tmp_path / "rows.dat"
    code, _, _ = run(
        capsys,
        "sweep",
        "os-lambda",
        '{"family": "couette"}',
        "--beta",
        "1e5",
        "--plot",
        str(out_plot),
    )
    assert code == 0
    lines = out_plot.read_text().splitlines()
    assert lines[0].startswith("# beta alpha lam_re lam_im")
    data = [line.split() for line in lines[1:]]
    assert len(data) == 3
    for row in data:
        floats = [float(v) for v in row]
        assert all(abs(v) < 1e12 for v in floats)


def test_sweep_trig_seed_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = (
        "sweep",
        "l1-approx",
        '{"family": "couette"}',
        "--betas",
        "1e4,1e5",
        "--data",
        "trig",
        "--seed",
        "11",
    )
    run(capsys, *args, "--json", str(a))
    run(capsys, *args, "--json", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_pseudo_exit_zero_when_measurable(tmp_path, capsys):
    out_csv = tmp_path / "pseudo.csv"
    code, out, _ = run(
        capsys,
        "pseudo",
        '{"family": "couette"}',
        "--kind",
        "schrodinger",
        "--beta",
        "1e4",
        "--mu-range",
        "-0.5",
        "-0.1",
        "2",
        "--nu-range",
        "0.05",
        "0.2",
        "2",
        "--csv",
        str(out_csv),
    )
    assert code == 0
    assert "points=4" in out
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert set(rows[0]) == {"mu", "nu", "norm_inv", "norm_d_inv", "n_used", "converged"}


def test_pseudo_exit_two_inside_numerical_range(capsys):
    # A shift deep inside the numerical range has an immeasurably large
    # resolvent: the point is flagged unconverged and the exit code says so.
    code, out, _ = run(
        capsys,
        "pseudo",
        '{"family": "couette"}',
        "--kind",
        "schrodinger",
        "--beta",
        "1e4",
        "--mu-range",
        "0.5",
        "0.5",
        "1",
        "--nu-range",
        "0.0",
        "0.0",
        "1",
    )
    assert code == 2
    assert "max_norm=inf" in out


def test_airy_selftest(capsys, tmp_path):
    out_json = tmp_path / "selftest.json"
    code, out, _ = run(capsys, "airy-selftest", "--json", str(out_json))
    assert code == 0
    assert "selftest=pass" in out
    payload = json.loads(out_json.read_text())
    result = payload["result"]
    assert result["passed"] is True
    for name, threshold in result["thresholds"].items():
        assert result["report"][name] <= threshold
    assert result["thresholds"]["search_kernel_worst"] == 1e-12
    assert "search_kernel_worst=" in out


def test_unwritable_output_exits_three(capsys):
    code, _, err = run(
        capsys,
        "certify",
        '{"family": "couette"}',
        "--json",
        "/tmp/shearstab-no-such-dir/out.json",
    )
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize(
    "argv, check",
    [
        (["schrodinger", _COUETTE, "--betas", "1e4,1e5"], "slope_in_band"),
        (["l1-approx", _COUETTE, "--betas", "1e5"], "span_under_5"),
    ],
    ids=["no-fit", "one-row"],
)
def test_sweep_that_tests_nothing_is_inconclusive(capsys, argv, check):
    code, out, _ = run(capsys, "sweep", *argv)
    assert code == 2
    assert f"('{check}', False)" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pseudo", _COUETTE, "--beta", "inf"], "must be finite"),
        (["sweep", "schrodinger", _COUETTE, "--betas", "0"], "positive"),
        (["pseudo", _COUETTE, "--mu-range", "-0.1", "0.1", "0"], "whole number"),
        (["pseudo", _COUETTE, "--mu-range", "-0.1", "0.1", "inf"], "whole number"),
        (["pseudo", _COUETTE, "--nu-range", "0", "inf", "2"], "finite"),
        (["pseudo", _COUETTE, "--alpha", "nan"], "must be finite"),
        (["--threads", "-5", "airy-selftest"], "--threads must be at least 1"),
        (["--threads", "0", "rayleigh-scan", _COUETTE], "--threads must be at least 1"),
    ],
    ids=[
        "beta-inf", "betas-zero", "count-zero", "count-inf", "bound-inf", "alpha-nan",
        "threads-negative", "threads-zero",
    ],
)
def test_hostile_numbers_exit_three_without_traceback(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert message in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("margin", ["nan", "inf"])
def test_certify_non_finite_margin_exits_three(capsys, margin):
    # rejected before any ladder runs
    code, out, err = run(capsys, "certify", _COUETTE, "--margin", margin)
    assert code == 3
    assert out == ""
    assert "margin must be finite and nonnegative" in err


def test_usage_error_exits_three(capsys):
    code, _, err = run(capsys, "sweep", "warp-drive", '{"family": "couette"}')
    assert code == 3


# sweep kind -> (cheap CLI arguments, config keys the kind records)
_SWEEP_CONFIGS = {
    "schrodinger": (["--betas", "1e3,1e4"], {"lam", "fraction", "betas"}),
    "l1-approx": (["--betas", "1e4", "--seed", "5"], {"lam", "data", "seed", "betas"}),
    "weighted": (["--betas", "1e4"], {"lam", "data", "betas"}),
    "os-boundary": (["--betas", "1e4"], {"alpha", "fraction", "betas"}),
    "os-alpha": (["--alphas", "2,4", "--beta", "1e4"], {"alphas", "beta", "fraction"}),
    "os-lambda": (["--beta", "1e4", "--lams=-10"], {"alpha", "beta", "lams"}),
}


def _sweep_config(tmp_path, capsys, kind, *extra):
    out_json = tmp_path / f"{kind}.json"
    code, _, err = run(capsys, "sweep", kind, _COUETTE, *extra, "--json", str(out_json))
    assert code in (0, 1, 2), err
    return json.loads(out_json.read_text())["config"]


@pytest.mark.parametrize("kind", sorted(_SWEEP_CONFIGS))
def test_sweep_config_records_exactly_the_flags_read(tmp_path, capsys, kind):
    extra, keys = _SWEEP_CONFIGS[kind]
    config = _sweep_config(tmp_path, capsys, kind, *extra)
    assert set(config) == {"command", "kind", "profile"} | keys
    assert (config["command"], config["kind"]) == ("sweep", kind)


def test_sweep_config_tells_apart_runs_that_differ_in_beta(tmp_path, capsys):
    a = _sweep_config(tmp_path, capsys, "os-lambda", "--beta", "1e4", "--lams=-10")
    b = _sweep_config(tmp_path, capsys, "os-lambda", "--beta", "2e4", "--lams=-10")
    assert a != b
    assert (a["beta"], b["beta"]) == (1e4, 2e4)
    assert a["lams"] == [{"re": -10.0, "im": 0.0}]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", _COUETTE],
        [
            "pseudo", _COUETTE, "--beta", "1e4",
            "--mu-range", "-0.5", "-0.1", "2", "--nu-range", "0.05", "0.2", "2",
        ],
    ],
    ids=["certify", "pseudo"],
)
def test_json_is_byte_identical_across_thread_counts(tmp_path, capsys, argv):
    paths = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.json"
        code, _, err = run(capsys, "--threads", threads, *argv, "--json", str(path))
        assert code == 0, err
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_thread_environment_variable_is_ignored(monkeypatch, capsys):
    argv = ["pseudo", _COUETTE, "--mu-range", "-0.3", "-0.3", "1",
            "--nu-range", "0.1", "0.1", "1"]
    plain = run(capsys, *argv)
    monkeypatch.setenv("SHEARSTAB_THREADS", "abc")
    assert run(capsys, *argv) == plain
    assert plain[0] == 0


def test_certify_very_steep_tanh_exits_one(capsys):
    # U'' is about 1e-24 at the walls but not zero: the inflection set is
    # the one point nu = 0, and no wall interval reaches the potential.
    code, out, err = run(capsys, "certify", '{"family": "tanh_shear", "K": 32}')
    assert code == 1
    assert "verdict=not_certified" in out and "velocities=1" in out
    assert err == ""
