"""Command-line interface: config parsing, exit codes, emitted files."""

import csv
import json
import os
import pathlib
import stat
import subprocess
import sys
import warnings

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


@pytest.mark.parametrize(
    "config",
    [
        '{"family": "polynomial", "coeffs": "01"}',
        '{"family": "polynomial", "coeffs": [0, "1"]}',
        '{"family": "cubic", "a": "0.1"}',
        '{"family": "tanh_shear", "K": "3"}',
        '{"family": "cubic", "a": true}',
    ],
)
def test_string_and_boolean_profile_parameters_exit_three(capsys, config):
    code, out, err = run(capsys, "certify", config)
    assert code == 3
    assert out == ""
    assert err.startswith("shearstab: error:") and "must be real numbers" in err
    assert err.count("\n") == 1


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


def test_rayleigh_scan_json_records_the_default_degrees(tmp_path, capsys):
    out_json = tmp_path / "scan.json"
    code, _, _ = run(capsys, "rayleigh-scan", _COUETTE, "--json", str(out_json))
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert payload["config"]["n_list"] == [64, 128, 256]
    assert payload["result"]["n_list"] == [64, 128, 256]


def test_rayleigh_scan_exit_one_on_unstable_mode(capsys):
    code, out, _ = run(capsys, "rayleigh-scan", '{"family": "tanh_shear", "K": 3}')
    assert code == 1
    assert "persistent=2" in out


def test_rayleigh_scan_exit_two_on_the_near_neutral_tanh(tmp_path, capsys):
    # tanh_shear(1.3) at alpha = 0.5 has a near-neutral mode that no degree
    # resolves: its largest distance grows 0 -> 0.0133 -> 0.0162, each step
    # by more than the off-segment distance
    out_json = tmp_path / "scan.json"
    code, _, _ = run(
        capsys, "rayleigh-scan", '{"family": "tanh_shear", "K": 1.3}', "--alpha", "0.5",
        "--json", str(out_json),
    )
    result = json.loads(out_json.read_text())["result"]
    assert code == 2
    assert not result["monotone"]
    assert result["persistent_offsets"] == []
    assert result["max_distances"] == pytest.approx([0.0, 0.013277, 0.016238], rel=1e-4)


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


@pytest.mark.parametrize(
    "argv, line",
    [(["certify", _COUETTE], "verdict=certified"), (["airy-selftest"], "selftest=pass")],
)
def test_module_entry_point_runs_in_a_fresh_interpreter(argv, line):
    # python -m shearstab.cli, as the console script runs main
    src = str(pathlib.Path(ss.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "shearstab.cli", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert line in done.stdout.split()


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


def test_sweep_at_a_subnormal_beta_fits_without_a_warning(capsys):
    # the slope fit's decade test must not divide by a subnormal beta: the
    # quotient overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(
            capsys, "sweep", "schrodinger", _COUETTE, "--betas", "5e-324,1,10,100"
        )
    assert (code, err) == (1, "")


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


@pytest.mark.parametrize(
    "kind, alpha, beta",
    # ladders from 148 to 296, and from 165 to 330
    [("schrodinger", "0", "5e4"), ("orr_sommerfeld", "1", "7e4")],
)
def test_pseudo_output_is_byte_identical_with_cold_and_warm_rung_parts(
    tmp_path, capsys, rung_caches, kind, alpha, beta
):
    # the shift-free rung parts are built cold on the first run and found
    # in their caches on the second
    from shearstab.spectral import ladder_start

    start = ladder_start(float(beta))
    for cache in rung_caches:
        cache.clear()
    outputs = []
    for tag in ("cold", "warm"):
        paths = [tmp_path / f"{tag}.{suffix}" for suffix in ("json", "csv")]
        code, _, err = run(
            capsys, "pseudo", _COUETTE, "--kind", kind, "--alpha", alpha, "--beta", beta,
            "--mu-range", "-0.2", "0.1", "2", "--nu-range", "-0.5", "0.5", "2",
            "--json", str(paths[0]), "--csv", str(paths[1]),
        )
        assert code == 0, err
        outputs.append([path.read_bytes() for path in paths])
    assert outputs[0] == outputs[1]
    used = {s["n_used"] for s in json.loads(outputs[0][0])["result"]["samples"]}
    assert used == {2 * start}


def test_outputs_get_the_mode_open_would_give(tmp_path, capsys):
    # a new file takes 0o666 less the umask, and a rewritten one keeps its
    # mode, as open(path, "w") would do; the temporary file behind the
    # atomic write is made 0o600
    old = os.umask(0o022)
    try:
        new, kept = tmp_path / "new.json", tmp_path / "kept.csv"
        kept.write_text("old\n")
        kept.chmod(0o640)
        code, _, err = run(
            capsys, "pseudo", _COUETTE, "--mu-range", "-0.3", "-0.3", "1",
            "--nu-range", "0.1", "0.1", "1", "--json", str(new), "--csv", str(kept),
        )
    finally:
        os.umask(old)
    assert code == 0, err
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert kept.read_text().startswith("mu,nu,")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv", "new.json"]


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


def test_certify_roots_on_adjacent_scan_nodes_exit_zero(capsys):
    # U'' = x (x^2 - 2^-16) is zero at the scan nodes -2^-8, 0 and 2^-8:
    # three inflection values, not a flat interval sampled where U'' != 0
    config = (
        '{"family": "polynomial", "coeffs": [0, 1, 0, -2.5431315104166665e-06, 0, 0.05]}'
    )
    code, out, err = run(capsys, "certify", config)
    assert code == 0
    assert out == (
        "verdict=certified sigma0=2.5960512154147737 margin=1e-06 velocities=3\n"
    )
    assert err == ""


def test_deeply_nested_profile_json_exits_three(capsys):
    code, out, err = run(capsys, "certify", '{"family": ' + "[" * 100_000)
    assert code == 3
    assert out == ""
    assert err == "shearstab: error: profile JSON is nested too deeply\n"


@pytest.mark.parametrize(
    "config",
    [
        '{"family": ["couette"]}',
        '{"family": {}}',
        '{"family": "tanh_shear", "K": 1e300}',
    ],
)
def test_unhashable_family_and_huge_steepness_exit_three(capsys, config):
    code, out, err = run(capsys, "rayleigh-scan", config, "--n-list", "16,32")
    assert code == 3
    assert out == ""
    assert err.startswith("shearstab: error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("rayleigh-scan", _COUETTE, "--alpha", "1e200"),
        ("pseudo", _COUETTE, "--kind", "rayleigh_shifted", "--alpha", "1e300"),
        ("pseudo", _COUETTE, "--kind", "orr_sommerfeld", "--alpha", "1e200"),
        ("sweep", "os-lambda", _COUETTE, "--alpha", "1e200"),
    ],
)
def test_wavenumber_above_ceiling_exits_three(capsys, argv):
    # one error line, no OverflowError traceback or RuntimeWarning from alpha^2
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("shearstab: error: wavenumber ")
    assert err.endswith(" exceeds 1e+06\n") and err.count("\n") == 1


@pytest.mark.parametrize("command, k", [("rayleigh-scan", 1e-320), ("certify", 5e-7)])
def test_steepness_below_floor_exits_three(capsys, command, k):
    code, out, err = run(capsys, command, '{"family": "tanh_shear", "K": %r}' % k)
    assert (code, out) == (3, "")
    expected = f"steepness K = {k!r} outside [1e-06, 1e+06]"
    assert err == f"shearstab: error: {expected}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("pseudo", _COUETTE, "--kind", "schrodinger", "--mu-range", "1e300", "1e300", "1",
          "--nu-range", "0", "0", "1"), "spectral shift (1e+300+0j) exceeds 1e+06 in modulus"),
        (("pseudo", _COUETTE, "--kind", "schrodinger", "--mu-range", "0", "0", "1",
          "--nu-range", "1e300", "1e300", "1"), "spectral shift 1e+300j exceeds 1e+06 in modulus"),
        (("pseudo", _COUETTE, "--kind", "orr_sommerfeld", "--alpha", "1", "--beta", "1e300"),
         "rescaled Reynolds number 1e+300 exceeds 1e+12"),
        (("pseudo", _COUETTE, "--kind", "orr_sommerfeld", "--alpha", "1", "--mu-range",
          "1e300", "1e300", "1", "--nu-range", "0", "0", "1"),
         "spectral shift (1e+300+0j) exceeds 1e+06 in modulus"),
        (("pseudo", _COUETTE, "--kind", "schrodinger", "--beta", "1e300"),
         "rescaled Reynolds number 1e+300 exceeds 1e+12"),
        (("pseudo", _COUETTE, "--kind", "rayleigh_shifted", "--beta", "2e12"),
         "rescaled Reynolds number 2000000000000.0 exceeds 1e+12"),
        (("sweep", "schrodinger", _COUETTE, "--betas", "1e300,1e301,1e302,1e303"),
         "beta 1e+300 exceeds 1e+12"),
        (("sweep", "os-boundary", _COUETTE, "--betas", "1e4,1e300"), "beta 1e+300 exceeds 1e+12"),
        (("sweep", "os-alpha", _COUETTE, "--alphas", "2,4", "--beta", "2e12"),
         "beta 2000000000000.0 exceeds 1e+12"),
        (("sweep", "os-lambda", _COUETTE, "--lams=-10,-2e6"),
         "spectral shift (-2000000+0j) exceeds 1e+06 in modulus"),
        (("sweep", "l1-approx", _COUETTE, "--betas", "1e4,1e300"), "beta 1e+300 exceeds 1e+12"),
        (("sweep", "weighted", _COUETTE, "--betas", "1e300"), "beta 1e+300 exceeds 1e+12"),
    ],
    ids=[
        "pseudo-schr-mu", "pseudo-schr-nu", "pseudo-os-beta", "pseudo-os-mu", "pseudo-schr-beta",
        "pseudo-rayleigh-beta", "sweep-schr", "sweep-os-boundary", "sweep-os-alpha",
        "sweep-os-lambda", "sweep-l1", "sweep-weighted",
    ],
)
def test_beta_and_shift_above_ceiling_exit_three(capsys, argv, message):
    # one error line: no ZeroDivisionError traceback, RuntimeWarning or inf
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"shearstab: error: {message}\n"


def test_pseudo_point_with_clustered_singular_values_exits_zero(capsys):
    # the top singular values cluster at this shift, and the Lanczos
    # recurrence runs past its first 60 steps until its gap bound holds;
    # the norm is about 1/1002.5
    code, out, err = run(
        capsys, "pseudo", _COUETTE, "--kind", "schrodinger", "--beta", "1",
        "--mu-range", "-1000", "-1000", "1", "--nu-range", "0", "0", "1",
    )
    assert (code, err) == (0, "")
    head, norm = out.rsplit("=", 1)
    assert head == "kind=schrodinger points=1 converged=1 max_norm"
    assert float(norm) == pytest.approx(9.9754e-4, rel=1e-4)
