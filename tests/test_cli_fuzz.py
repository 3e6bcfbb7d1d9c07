"""Hypothesis fuzz of the CLI's profile JSON and of the ``pseudo`` ranges.

Each case runs ``rayleigh-scan <json> --n-list 16,32``, which is cheap on
any valid profile.  ``main`` must return an exit code in 0-3 without
raising, and 3 with a one-line error for every config that is invalid by
construction.  A config of in-range numbers may still fail the
monotonicity check, so only its exit code range is asserted.

The ``pseudo`` cases run 1x1 maps of both banded kinds with drawn
``--alpha``, ``--beta``, ``--mu-range`` and ``--nu-range`` values, edge
values included: an exit code in 0-3, at most one stderr line, and no
``RuntimeWarning``.

The ``sweep`` cases give each kind the flags it reads, each one either a
cheap valid value (at most two betas, none above 1e3) or a hostile one:
non-finite, zero, negative, above ``MAX_BETA`` or ``MAX_SHIFT``, an empty
list or a malformed literal.  Some cases also give one flag the kind does
not read, with a value that is valid where it is read.  A case with a
hostile or an unread flag must exit 3 with one stderr line; any other case
exits 0-2.

A ``certify --interval-density`` or ``pseudo`` COUNT beyond its fixed bound
must exit 3 before anything of its size is allocated.
"""

import contextlib
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from shearstab.cli import MAX_SHIFT_COUNT, _SWEEP_FLAGS, _SWEEPS, _shift_axis, main
from shearstab.profile import MAX_INTERVAL_DENSITY

_KEYS = {
    "couette": (),
    "cubic": ("a",),
    "tanh_shear": ("K",),
    "polynomial": ("coeffs",),
}

# values no parameter accepts: non-finite, out of range, or not a number
_BAD_SCALARS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e300, -1e300, 10**400, "1", "", True, False, None]
)
_BAD_VALUES = _BAD_SCALARS | st.lists(st.floats(-1.0, 1.0), max_size=2) | st.just({})
_NUMBERS = st.floats(min_value=-1e6, max_value=1e6) | st.integers(-10, 10)


@st.composite
def _parameter(draw, key):
    """(value, invalid) for one parameter slot."""
    if not draw(st.integers(0, 3)):
        return draw(_BAD_SCALARS if key == "coeffs" else _BAD_VALUES), True
    if key != "coeffs":
        return draw(_NUMBERS), False
    coeffs = draw(st.lists(_NUMBERS, max_size=14))
    invalid = not 1 <= len(coeffs) <= 13
    if coeffs and not draw(st.integers(0, 3)):
        coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(_BAD_VALUES)
        invalid = True
    return coeffs, invalid


@st.composite
def _config(draw):
    """(profile JSON text, invalid by construction)."""
    family = draw(
        st.sampled_from(sorted(_KEYS))
        if draw(st.integers(0, 4))
        else st.text(max_size=6)
        | st.none()
        | st.integers()
        | st.lists(st.sampled_from(sorted(_KEYS)), max_size=1)
    )
    known = isinstance(family, str) and family in _KEYS
    keys = _KEYS[family] if known else ("a",)
    config, invalid = {}, not known
    if draw(st.integers(0, 9)):
        config["family"] = family
    else:
        invalid = True
    for key in keys:
        if draw(st.integers(0, 9)):
            config[key], bad = draw(_parameter(key))
            invalid = invalid or bad
        else:
            invalid = True
    stray = draw(st.sampled_from(["a", "K", "coeffs", "Re", "family2"]))
    if stray not in keys and not draw(st.integers(0, 4)):
        config[stray], invalid = 1.0, True
    return json.dumps(config), invalid


@st.composite
def _nested(draw):
    """A family nested in brackets, closed or not: always invalid."""
    depth = draw(st.sampled_from([1, 50, 100_000]))
    closing = "]" * depth + "}" if draw(st.booleans()) else ""
    return '{"family": ' + "[" * depth + closing, True


@given(case=_config() | _nested())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_rayleigh_scan_profile_fuzz(case):
    text, invalid = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["rayleigh-scan", text, "--n-list", "16,32"])
    assert code in (0, 1, 2, 3)
    if invalid:
        assert code == 3
    if code == 3:
        message = err.getvalue()
        assert message.startswith("shearstab: error:") and message.count("\n") == 1
        assert out.getvalue() == ""


# --- pseudo: wavenumber, beta and shift ranges of 1x1 maps -------------------

_EDGE_BETAS = [0.0, 5e-324, 1e-300, 1.0, 1e4, 1e12, 1.000001e12, 1e300, math.inf, math.nan, -1.0]
_EDGE_ALPHAS = [0.0, 1e-300, 1e6, 1.000001e6, 1e300, math.inf, math.nan, -1.0]
_EDGE_SHIFTS = [0.0, 1e-300, 1e6, -1e6, 1.000001e6, -1e300, math.inf, -math.inf, math.nan]


def _number(draw, edges, lo, hi):
    """An edge value, or a log-uniform magnitude in [lo, hi] with a sign."""
    if draw(st.booleans()):
        return draw(st.sampled_from(edges))
    value = 10.0 ** draw(st.floats(math.log10(lo), math.log10(hi)))
    return -value if draw(st.booleans()) else value


def _arg(value: float) -> str:
    # positional form, so argparse reads a negative value as a number
    return np.format_float_positional(value, trim="-")


@st.composite
def _pseudo_argv(draw):
    kind = draw(st.sampled_from(["schrodinger", "orr_sommerfeld"]))
    profile = draw(st.sampled_from(['{"family": "couette"}', '{"family": "cubic", "a": 0.1}']))
    beta = abs(_number(draw, _EDGE_BETAS, 1e-3, 1e12))
    alpha = abs(_number(draw, _EDGE_ALPHAS, 1e-3, 1e6))
    mu, nu = (_number(draw, _EDGE_SHIFTS, 1e-6, 1e6) for _ in range(2))
    return [
        "pseudo", profile, "--kind", kind, "--alpha", _arg(alpha), "--beta", _arg(beta),
        "--mu-range", _arg(mu), _arg(mu), "1", "--nu-range", _arg(nu), _arg(nu), "1",
    ]


@given(argv=_pseudo_argv())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_pseudo_range_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert err.getvalue().count("\n") <= 1
    if code == 3:
        assert err.getvalue().startswith("shearstab: error:") and out.getvalue() == ""


# --- sweep: every flag a sweep kind reads --------------------------------------

# flag -> (valid values, hostile values), as the text after "--flag="
_SWEEP_VALUES = {
    "betas": (
        ["1", "1e3", "10,1e3", "1e2,1e2"],
        ["", ",", "nan", "inf", "-inf", "0", "-1e3", "1e3,0", "10,nan",
         "1.000001e12", "1e300", "1e400", "1e3;1e4", "abc"],
    ),
    "beta": (
        ["1", "1e2", "1e3"],
        ["", "nan", "inf", "-inf", "0", "-5", "1.000001e12", "1e300", "abc"],
    ),
    "alpha": (
        ["0.5", "1", "5"],
        ["", "nan", "inf", "-inf", "-1", "1.000001e6", "1e300", "abc"],
    ),
    "alphas": (
        ["2", "2,4", "3,10"],
        ["", ",", "nan", "inf", "0", "-2", "1", "4,2", "2,2", "1e300", "abc"],
    ),
    # a positive real part is outside every kind's range: l1-approx and
    # weighted need Re(lam) <= 0, schrodinger Re(lam) beta^(1/3) < upsilon
    "lam": (
        ["0", "-1", "-0.1+0.2j", "0.5j"],
        ["", "nan", "inf", "-inf", "nanj", "1", "-2e6", "1e300j", "1e400",
         "1+", "j1", "(1", "1+2"],
    ),
    "lams": (
        ["-10", "-30+5j", "40j", "-10,40j"],
        ["", ",", "nan", "inf", "1", "2", "10", "-2e6", "1e300j", "1+",
         "-10,abc"],
    ),
    "fraction": (
        ["0.1", "0.5", "0.9"],
        ["", "nan", "inf", "-inf", "0", "-0.5", "0.91", "1", "abc"],
    ),
}
# the boundary sweep alone also rejects wavenumbers outside (0, 5]
_HOSTILE_ALPHA = {"os-boundary": ["0", "5.5"]}


# one value of every sweep flag that is valid where the flag is read
_VALID = {flag: values[0][0] for flag, values in _SWEEP_VALUES.items()}
_VALID.update(data="exp", seed="1")


def _hostile(kind, flag):
    bad = _SWEEP_VALUES[flag][1]
    return bad + _HOSTILE_ALPHA.get(kind, []) if flag == "alpha" else bad


@st.composite
def _sweep_argv(draw):
    """(argv of one sweep, whether a flag it reads is hostile or a flag it
    does not read is given)."""
    kind = draw(st.sampled_from(sorted(_SWEEPS)))
    profile = draw(st.sampled_from(['{"family": "couette"}', '{"family": "cubic", "a": 0.1}']))
    argv, hostile = ["sweep", kind, profile], False
    for flag in _SWEEPS[kind][0]:
        if flag not in _SWEEP_VALUES:
            continue
        if not draw(st.integers(0, 2)):
            argv.append(f"--{flag}={draw(st.sampled_from(_hostile(kind, flag)))}")
            hostile = True
        else:
            argv.append(f"--{flag}={draw(st.sampled_from(_SWEEP_VALUES[flag][0]))}")
    unread = sorted(set(_SWEEP_FLAGS) - set(_SWEEPS[kind][0]))
    if not draw(st.integers(0, 3)):
        flag = draw(st.sampled_from(unread))
        argv.insert(draw(st.integers(3, len(argv))), f"--{flag}={_VALID[flag]}")
        hostile = True
    return argv, hostile


def _run_sweep(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert err.getvalue().count("\n") <= 1, argv
    if code == 3:
        assert err.getvalue().startswith("shearstab: error:") and out.getvalue() == ""
    return code


@given(case=_sweep_argv())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_sweep_flag_fuzz(case):
    argv, hostile = case
    code = _run_sweep(argv)
    if hostile:
        assert code == 3, argv
    else:
        assert code in (0, 1, 2), argv


def test_each_hostile_sweep_flag_exits_three():
    # every hostile value of every flag, the kind's other flags valid; an
    # empty --betas= or --lams= must not fall back to the default sweep
    missed = []
    for kind, (flags, _) in sorted(_SWEEPS.items()):
        read = [f for f in flags if f in _SWEEP_VALUES]
        for flag in read:
            for value in _hostile(kind, flag):
                argv = ["sweep", kind, '{"family": "couette"}', f"--{flag}={value}"]
                argv += [f"--{f}={_SWEEP_VALUES[f][0][0]}" for f in read if f != flag]
                if _run_sweep(argv) != 3:
                    missed.append(argv)
    assert missed == []


def test_each_unread_sweep_flag_exits_three():
    # a flag the kind does not read is refused before any work, even with a
    # value that is valid where it is read: the error names it
    missed = []
    for kind, (flags, _) in sorted(_SWEEPS.items()):
        for flag in sorted(set(_SWEEP_FLAGS) - set(flags)):
            argv = ["sweep", kind, '{"family": "couette"}', f"--{flag}={_VALID[flag]}"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if (code, out.getvalue()) != (3, "") or f"--{flag}" not in err.getvalue():
                missed.append(argv)
    assert missed == []


# --- counts: refused before anything is allocated ------------------------------


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["certify", '{"family": "couette"}', "--interval-density", "1000000000000"],
         "interval density"),
        (["certify", '{"family": "tanh_shear", "K": 1}', "--interval-density",
          str(MAX_INTERVAL_DENSITY + 1)], "interval density"),
        (["pseudo", '{"family": "couette"}', "--mu-range", "0", "1", "1e12",
          "--nu-range", "0", "1", "1"], "--mu-range COUNT"),
        (["pseudo", '{"family": "couette"}', "--mu-range", "0", "1", "1",
          "--nu-range", "0", "1", "1001"], "--nu-range COUNT"),
    ],
)
def test_a_hostile_count_exits_three_before_allocating(argv, flag):
    # a linspace of 1e12 points would ask for 7.28 TiB; the refusal comes
    # from a fixed bound, so the run's traced peak stays small
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out.getvalue() == ""
    message = err.getvalue()
    assert message.startswith(f"shearstab: error: {flag} must be") and message.count("\n") == 1
    assert peak < 1 << 20


def test_shift_counts_up_to_the_bound_are_taken():
    # the benchmark's 8-point axes and the bound itself stay valid
    assert _shift_axis("--mu-range", 0.0, 1.0, 8.0).size == 8
    axis = _shift_axis("--nu-range", -1.0, 1.0, float(MAX_SHIFT_COUNT))
    assert axis.size == MAX_SHIFT_COUNT and (axis[0], axis[-1]) == (-1.0, 1.0)
    with pytest.raises(ValueError, match=f"at most {MAX_SHIFT_COUNT}"):
        _shift_axis("--nu-range", -1.0, 1.0, float(MAX_SHIFT_COUNT + 1))
