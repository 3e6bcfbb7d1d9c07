"""The package's public names: one list per module, gathered once, and what a
cold import loads."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import shearstab as ss

PUBLIC = [
    "AssembledOperator", "CertificateEntry", "CertificateResult", "ChebGrid",
    "DomainError", "InflectionError", "InflectionPoint", "InflectionSet",
    "MonotonicityError", "Profile", "PseudospectrumGrid", "RayleighScan",
    "ResolventSample", "SlopeFit", "SmoothData", "SpectralParams",
    "SweepResult", "SweepRow", "TailZeroResult", "__version__", "airy_ai",
    "airy_ai_prime", "airy_tail_integral", "airy_zeros",
    "assemble_certificate_operator", "assemble_orr_sommerfeld",
    "assemble_rayleigh", "assemble_rayleigh_shifted", "assemble_schrodinger",
    "build_grid", "certificate_potential", "certify_profile", "clamped_reduce",
    "couette", "cubic", "data_preset", "eig_floor_ladder", "eigenvalues",
    "fit_slope", "inflection_values", "l1_approximation_sweep",
    "margin_constant", "min_eig_selfadjoint", "os_boundary_sweep",
    "os_large_alpha_sweep", "os_large_lambda_check", "polynomial",
    "pseudospectrum_grid", "rayleigh_spectrum_scan", "resolvent_numbers",
    "resolvent_sample", "rotation_identity_residual", "schrodinger_sweep",
    "tail_zero_margin", "tanh_shear", "weighted_data_sweep", "weighted_norm",
    "x_of_nu",
]


def test_public_names_are_pinned_unique_and_resolve():
    assert sorted(ss.__all__) == PUBLIC
    assert len(ss.__all__) == len(set(ss.__all__)) == 58
    for name in ss.__all__:
        assert getattr(ss, name) is not None


def test_names_left_out_of_all_stay_importable():
    from shearstab.chebdiff import N_MAX, N_MIN
    from shearstab.profile import monotonicity_margin

    assert (N_MIN, N_MAX) == (8, 2048)
    assert callable(monotonicity_margin)


def test_airy_is_a_leaf_module():
    # special functions and the tail-zero search only: no package import
    source = pathlib.Path(ss.__file__).with_name("airy.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported
    assert not [m for m in imported if m.startswith((".", "shearstab"))]


_FOOTPRINT = r"""
import contextlib, io, json, sys

def lazy():
    return [m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules]

seen = {"margins_cached": []}
import shearstab, shearstab.cli
from shearstab.cli import main
seen["import"] = lazy()
seen["margins_cached"].append(len(shearstab.airy._TAIL_CACHE))
with contextlib.redirect_stdout(io.StringIO()):
    seen["certify_code"] = main(["certify", '{"family": "tanh_shear", "K": 3.0}'])
    seen["certify"] = lazy()
    seen["margins_cached"].append(len(shearstab.airy._TAIL_CACHE))
    seen["pseudo_code"] = main(["pseudo", '{"family": "cubic", "a": 0.1}',
                                "--mu-range", "0", "0", "1", "--nu-range", "0.5", "0.5", "1"])
    seen["pseudo"] = lazy()
    seen["margins_cached"].append(len(shearstab.airy._TAIL_CACHE))
seen["margin"] = shearstab.margin_constant()
seen["zeros"] = len(shearstab.tail_zero_margin().zeros)
value = shearstab.airy_tail_integral(0.0)
seen["tail"] = [value.real, value.imag]
with contextlib.redirect_stdout(io.StringIO()):
    seen["selftest_code"] = main(["airy-selftest"])
seen["airy"] = lazy()
print(json.dumps(seen))
"""


def test_cold_start_loads_neither_scipy_optimize_nor_integrate():
    # A fresh interpreter: this one has imported scipy.optimize already.
    src = str(pathlib.Path(ss.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    )
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen["import"] == seen["certify"] == seen["pseudo"] == []
    assert (seen["certify_code"], seen["pseudo_code"]) == (1, 0)
    # neither command reads the Airy margin, so neither runs its search
    assert seen["margins_cached"] == [0, 0, 0]
    # the Airy margin, its re-check and the self-test load neither module
    assert seen["airy"] == []
    assert (seen["zeros"], seen["selftest_code"]) == (7, 0)
    assert abs(seen["margin"] - 0.5 * 1.0626257959756658) < 1e-9
    assert abs(complex(*seen["tail"]) - 1.0 / 3.0) < 1e-10
