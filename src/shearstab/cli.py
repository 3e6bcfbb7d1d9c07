"""Command-line front end.

Subcommands map one-to-one onto the library drivers:

* ``certify``        positivity certificate over the inflection set
* ``rayleigh-scan``  inviscid spectrum versus resolution
* ``sweep``          scaling-law sweeps (see ``sweep --help`` for kinds)
* ``pseudo``         resolvent norm over a shift rectangle
* ``airy-selftest``  kernel identities and frozen constants

Profiles are JSON, inline or in a file: {"family": "tanh_shear", "K": 2.0}.
Unknown keys are rejected.  Exit codes: 0 success/certified, 1 violated/not
certified, 2 inconclusive/degraded, 3 usage or invalid input.  All file
output is written atomically and is byte-stable across reruns; the drivers
run on one OpenBLAS thread, so the bytes do not depend on the thread count.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import math
import os
import stat
import sys
import tempfile

import numpy as np

from . import __version__
from .airy import (
    AI_AT_ZERO,
    AI_PRIME_AT_ZERO,
    TAIL_AT_ZERO,
    _ai,
    airy_ai,
    airy_ai_prime,
    airy_tail_integral,
    airy_zeros,
    rotation_identity_residual,
)
from .certify import certify_profile, rayleigh_spectrum_scan
from .profile import Profile, couette, cubic, polynomial, tanh_shear
from .spectral import pseudospectrum_grid
from .sweeps import (
    data_preset,
    l1_approximation_sweep,
    os_boundary_sweep,
    os_large_alpha_sweep,
    os_large_lambda_check,
    schrodinger_sweep,
    weighted_data_sweep,
)

__all__ = ["main", "profile_from_config"]

MAX_SHIFT_COUNT = 1000   # most shifts on one axis of a ``pseudo`` map


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # route usage problems to exit code 3
        raise _CliError(message)


_FAMILIES = {
    "couette": ((), lambda: couette()),
    "cubic": (("a",), cubic),
    "tanh_shear": (("K",), tanh_shear),
    "polynomial": (("coeffs",), polynomial),
}


def profile_from_config(config: dict) -> Profile:
    """Build a profile from {"family": ..., <params>}, rejecting strays."""
    if not isinstance(config, dict):
        raise ValueError("profile config must be a JSON object")
    family = config.get("family")
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ValueError(
            f"unknown profile family {family!r}; expected one of {sorted(_FAMILIES)}"
        )
    keys, maker = _FAMILIES[family]
    stray = sorted(set(config) - {"family", *keys})
    if stray:
        raise ValueError(f"unknown profile keys {stray} for family {family!r}")
    missing = [k for k in keys if k not in config]
    if missing:
        raise ValueError(f"profile family {family!r} needs keys {missing}")
    return maker(*[config[k] for k in keys])


def _load_profile(source: str) -> tuple[Profile, dict]:
    text = source
    if not source.lstrip().startswith("{"):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        config = json.loads(text)
    except RecursionError:
        raise ValueError("profile JSON is nested too deeply") from None
    return profile_from_config(config), config


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {
            (k if isinstance(k, str) else repr(k)): _jsonable(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _write_atomic(path: str, text: str) -> None:
    """Write through a temporary file and ``os.replace``, with the mode that
    ``open(path, "w")`` gives: the target's own, or 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        os.umask(umask := os.umask(0o077))      # read it, then put it back
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".shearstab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.chmod(tmp, mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_json(path: str, config: dict, result) -> None:
    document = {
        "tool": {"name": "shearstab", "version": __version__},
        "config": _jsonable(config),
        "result": _jsonable(result),
    }
    _write_atomic(path, json.dumps(document, sort_keys=True, indent=2) + "\n")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_csv(path: str, header: list[str], rows: list[list]) -> None:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    _write_atomic(path, buf.getvalue())


def _emit_plotdata(path: str, header: list[str], rows: list[list[float]]) -> None:
    """Whitespace-separated numeric table with a comment header (gnuplot)."""
    if not rows:
        raise ValueError("no rows to plot")
    lines = ["# " + " ".join(header)]
    for row in rows:
        lines.append(" ".join(_format_cell(v) for v in row))
    _write_atomic(path, "\n".join(lines) + "\n")


def _sweep_table(result) -> tuple[list[str], list[list]]:
    header = [
        "beta",
        "alpha",
        "lam_re",
        "lam_im",
        "n_used",
        "converged",
        "metric",
        "bound_ratio",
    ]
    rows = [
        [
            r.beta,
            r.alpha,
            r.lam.real,
            r.lam.imag,
            r.n_used,
            r.converged,
            r.metric,
            r.bound_ratio,
        ]
        for r in result.rows
    ]
    return header, rows


def _build_parser() -> _Parser:
    parser = _Parser(prog="shearstab", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="accepted for compatibility and checked to be at least 1; it has "
        "no effect: pseudo and sweep run one worker process per CPU of the "
        "affinity mask (limit them with taskset), the rest runs serially",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cert = sub.add_parser("certify", help="positivity certificate")
    cert.add_argument("profile", help="profile JSON (inline or file path)")
    cert.add_argument("--interval-density", type=int, default=33)
    cert.add_argument("--margin", type=float, default=1e-6)
    cert.add_argument("--json", dest="json_path")
    cert.set_defaults(run=_run_certify)

    scan = sub.add_parser("rayleigh-scan", help="inviscid spectrum scan")
    scan.add_argument("profile")
    scan.add_argument("--alpha", type=float, default=1.0)
    scan.add_argument("--n-list", help="comma-separated, strictly increasing basis degrees")
    scan.add_argument("--json", dest="json_path")
    scan.set_defaults(run=_run_rayleigh_scan)

    sweep = sub.add_parser("sweep", help="scaling-law sweeps")
    sweep.add_argument("kind", choices=list(_SWEEPS))
    sweep.add_argument("profile")
    # every sweep flag defaults to None, "not given": a kind rejects a given
    # flag it does not read, and _SWEEP_FLAGS fills in the defaults
    sweep.add_argument("--betas", help="comma-separated")
    sweep.add_argument("--beta", type=float, help="default 1e5")
    sweep.add_argument("--alpha", type=float, help="default 1")
    sweep.add_argument("--alphas", help="comma-separated")
    sweep.add_argument(
        "--lam", help="complex literal, default 0; a negative one as --lam=-0.1+0.2j"
    )
    sweep.add_argument("--lams", help="comma-separated complex, e.g. --lams=-10,-20+3j")
    sweep.add_argument("--fraction", type=float, help="default 0.5")
    sweep.add_argument("--data", choices=["exp", "affine", "trig"], help="default exp")
    sweep.add_argument("--seed", type=int)
    sweep.add_argument("--json", dest="json_path")
    sweep.add_argument("--csv", dest="csv_path")
    sweep.add_argument("--plot", dest="plot_path")
    sweep.set_defaults(run=_run_sweep)

    pseudo = sub.add_parser("pseudo", help="resolvent norm over a shift grid")
    pseudo.add_argument("profile")
    pseudo.add_argument(
        "--kind",
        choices=["schrodinger", "rayleigh_shifted", "orr_sommerfeld"],
        default="schrodinger",
    )
    pseudo.add_argument("--alpha", type=float, default=0.0)
    pseudo.add_argument("--beta", type=float, default=1e4)
    pseudo.add_argument("--mu-range", nargs=3, type=float, default=[-0.2, 0.2, 5],
                        metavar=("LO", "HI", "COUNT"))
    pseudo.add_argument("--nu-range", nargs=3, type=float, default=[-1.0, 1.0, 5],
                        metavar=("LO", "HI", "COUNT"))
    pseudo.add_argument("--json", dest="json_path")
    pseudo.add_argument("--csv", dest="csv_path")
    pseudo.set_defaults(run=_run_pseudo)

    selftest = sub.add_parser("airy-selftest", help="kernel identity checks")
    selftest.add_argument("--seed", type=int, default=20260819)
    selftest.add_argument("--json", dest="json_path")
    selftest.set_defaults(run=_run_airy_selftest)
    return parser


def _parse_list(flag: str, text: str | None, cast=float) -> list | None:
    """The comma-separated values of ``flag``, None when it was not given."""
    if text is None:
        return None
    values = [cast(v) for v in text.split(",") if v.strip()]
    if not values:
        raise _CliError(f"{flag} needs at least one value, got {text!r}")
    return values


def _run_certify(args) -> int:
    profile, config = _load_profile(args.profile)
    result = certify_profile(
        profile,
        interval_density=args.interval_density,
        margin=args.margin,
    )
    print(
        f"verdict={result.verdict} sigma0={result.sigma0!r} "
        f"margin={result.margin!r} velocities={len(result.entries)}"
    )
    if args.json_path:
        _emit_json(
            args.json_path,
            {
                "command": "certify",
                "profile": config,
                "interval_density": args.interval_density,
                "margin": args.margin,
            },
            result,
        )
    return {"certified": 0, "not_certified": 1, "inconclusive": 2}[result.verdict]


def _run_rayleigh_scan(args) -> int:
    profile, config = _load_profile(args.profile)
    n_list = _parse_list("--n-list", args.n_list, int)
    degrees = {} if n_list is None else {"n_list": tuple(n_list)}
    result = rayleigh_spectrum_scan(profile, args.alpha, **degrees)
    distances = ", ".join(repr(d) for d in result.max_distances)
    print(
        f"segment=[{result.segment[0]!r}, {result.segment[1]!r}] "
        f"max_distances=[{distances}] "
        f"monotone={result.monotone} persistent={len(result.persistent_offsets)}"
    )
    if args.json_path:
        _emit_json(
            args.json_path,
            {
                "command": "rayleigh-scan",
                "profile": config,
                "alpha": args.alpha,
                "n_list": list(result.n_list),
            },
            result,
        )
    if result.persistent_offsets:
        return 1
    return 0 if result.monotone else 2


def _parse_alphas(args) -> list[float]:
    if args.alphas is None:
        raise _CliError("os-alpha needs --alphas")
    return _parse_list("--alphas", args.alphas)


def _or(value, default):
    return default if value is None else value


# sweep flag -> its parsed value, or its default when not given (None for a
# flag without one); --json records these
_SWEEP_FLAGS = {
    "alpha": lambda a: _or(a.alpha, 1.0),
    "alphas": _parse_alphas,
    "beta": lambda a: _or(a.beta, 1e5),
    "betas": lambda a: _parse_list("--betas", a.betas),
    "data": lambda a: _or(a.data, "exp"),
    "fraction": lambda a: _or(a.fraction, 0.5),
    "lam": lambda a: complex(_or(a.lam, "0")),
    "lams": lambda a: _parse_list("--lams", a.lams, complex),
    "seed": lambda a: a.seed,
}


def _with_fraction(sweep):
    return lambda p, fraction, **v: sweep(p, margin_fraction=fraction, **v)


def _with_data(sweep):
    return lambda p, data, seed=None, **v: sweep(
        p, data=data_preset(data, seed=seed), **v
    )


# sweep kind -> (flags it reads, driver call on the profile and the given
# flags; a flag left out falls back to the driver's default)
_SWEEPS = {
    "schrodinger": (("lam", "fraction", "betas"), _with_fraction(schrodinger_sweep)),
    "l1-approx": (("lam", "data", "seed", "betas"), _with_data(l1_approximation_sweep)),
    "weighted": (("lam", "data", "seed", "betas"), _with_data(weighted_data_sweep)),
    "os-boundary": (("alpha", "fraction", "betas"), _with_fraction(os_boundary_sweep)),
    "os-alpha": (("alphas", "beta", "fraction"), _with_fraction(os_large_alpha_sweep)),
    "os-lambda": (("alpha", "beta", "lams"), os_large_lambda_check),
}


def _run_sweep(args) -> int:
    flags, run = _SWEEPS[args.kind]
    given = [f for f in _SWEEP_FLAGS if getattr(args, f) is not None]
    unread = [f"--{f}" for f in given if f not in flags]
    if unread:
        raise _CliError(f"sweep {args.kind} does not read {', '.join(unread)}")
    profile, config = _load_profile(args.profile)
    values = {f: v for f in flags if (v := _SWEEP_FLAGS[f](args)) is not None}
    result = run(profile, **values)

    slope = repr(result.fit.slope) if result.fit else "n/a"
    print(
        f"kind={result.kind} rows={len(result.rows)} slope={slope} "
        f"span={result.span!r} bound_ratio_max={result.bound_ratio_max!r} "
        f"converged={result.converged_fraction!r} checks={sorted(result.checks.items())}"
    )
    header, rows = _sweep_table(result)
    if args.json_path:
        resolved = {"command": "sweep", "kind": args.kind, "profile": config}
        _emit_json(args.json_path, {**resolved, **values}, result)
    if args.csv_path:
        _emit_csv(args.csv_path, header, rows)
    if args.plot_path:
        _emit_plotdata(args.plot_path, header, rows)
    if result.degraded:
        return 2
    return 0 if all(result.checks.values()) else 1


def _shift_axis(flag: str, lo: float, hi: float, count: float) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{flag} bounds must be finite, got {lo!r} {hi!r}")
    if not (count >= 1 and float(count).is_integer()):
        raise ValueError(f"{flag} COUNT must be a whole number >= 1, got {count!r}")
    if count > MAX_SHIFT_COUNT:
        raise ValueError(f"{flag} COUNT must be at most {MAX_SHIFT_COUNT}, got {count!r}")
    return np.linspace(lo, hi, int(count))


def _run_pseudo(args) -> int:
    profile, config = _load_profile(args.profile)
    mu_values = _shift_axis("--mu-range", *args.mu_range)
    nu_values = _shift_axis("--nu-range", *args.nu_range)
    grid = pseudospectrum_grid(
        profile,
        args.kind,
        args.alpha,
        args.beta,
        mu_values,
        nu_values,
    )
    n_conv = sum(s.converged for s in grid.samples)
    print(
        f"kind={grid.kind} points={len(grid.samples)} converged={n_conv} "
        f"max_norm={float(np.max(grid.norms))!r}"
    )
    if args.json_path:
        _emit_json(
            args.json_path,
            {
                "command": "pseudo",
                "profile": config,
                "kind": args.kind,
                "alpha": args.alpha,
                "beta": args.beta,
                "mu_range": list(args.mu_range),
                "nu_range": list(args.nu_range),
            },
            grid,
        )
    if args.csv_path:
        header = ["mu", "nu", "norm_inv", "norm_d_inv", "n_used", "converged"]
        rows = [
            [s.lam.real, s.lam.imag, s.norm_inv, s.norm_d_inv, s.n_used, s.converged]
            for s in grid.samples
        ]
        _emit_csv(args.csv_path, header, rows)
    return 0 if n_conv == len(grid.samples) else 2


def _run_airy_selftest(args) -> int:
    rng = np.random.default_rng(args.seed)
    radius = 8.0 * np.sqrt(rng.random(100))
    angle = 2.0 * math.pi * rng.random(100)
    points = radius * np.exp(1j * angle)
    rotation_worst = max(rotation_identity_residual(z) for z in points)
    amos = airy_ai(points)
    kernel_gap = np.abs(_ai(points) - amos) / np.maximum(1.0, np.abs(amos))
    zeros = airy_zeros(10)
    zero_worst = float(np.max(np.abs(airy_ai(zeros))))
    report = {
        "ai_at_zero_error": abs(complex(airy_ai(0.0)) - AI_AT_ZERO),
        "ai_prime_at_zero_error": abs(complex(airy_ai_prime(0.0)) - AI_PRIME_AT_ZERO),
        "tail_at_zero_error": abs(airy_tail_integral(0.0) - TAIL_AT_ZERO),
        "rotation_identity_worst": rotation_worst,
        "search_kernel_worst": float(np.max(kernel_gap)),
        "zero_residual_worst": zero_worst,
    }
    thresholds = {
        "ai_at_zero_error": 1e-12,
        "ai_prime_at_zero_error": 1e-12,
        "tail_at_zero_error": 1e-10,
        "rotation_identity_worst": 1e-11,
        "search_kernel_worst": 1e-12,
        "zero_residual_worst": 1e-12,
    }
    passed = all(report[k] <= thresholds[k] for k in report)
    for key in sorted(report):
        print(f"{key}={report[key]!r} (tol {thresholds[key]!r})")
    print(f"selftest={'pass' if passed else 'FAIL'}")
    if args.json_path:
        _emit_json(
            args.json_path,
            {"command": "airy-selftest", "seed": args.seed},
            {"report": report, "thresholds": thresholds, "passed": passed},
        )
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.threads is not None and args.threads < 1:
            parser.error(f"--threads must be at least 1, got {args.threads}")
        return args.run(args)
    except (_CliError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"shearstab: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
