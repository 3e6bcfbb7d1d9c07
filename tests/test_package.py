"""The package's public names: one list per module, gathered once."""

import shearstab as ss

PUBLIC = [
    "AssembledOperator", "CertificateEntry", "CertificateResult", "ChebGrid",
    "DomainError", "InflectionError", "InflectionPoint", "InflectionSet",
    "MonotonicityError", "NormalizationError", "Profile", "PseudospectrumGrid",
    "Quasimode", "QuasimodeResidual", "RayleighScan", "ResolventSample", "SlopeFit",
    "SmoothData", "SpectralParams", "SweepResult", "SweepRow", "TailZeroResult",
    "__version__", "airy_ai", "airy_ai_prime", "airy_tail_integral", "airy_zeros",
    "assemble_certificate_operator", "assemble_orr_sommerfeld", "assemble_rayleigh",
    "assemble_rayleigh_shifted", "assemble_schrodinger", "build_grid",
    "certificate_potential", "certify_profile", "clamped_reduce", "couette",
    "cubic", "data_preset", "dirichlet_reduce", "eig_floor_ladder", "eigenvalues",
    "fit_slope", "inflection_values", "l1_approximation_sweep", "margin_constant",
    "min_eig_selfadjoint", "os_boundary_sweep", "os_large_alpha_sweep",
    "os_large_lambda_check", "polynomial", "pseudospectrum_grid", "quasimode",
    "quasimode_residual", "rayleigh_spectrum_scan", "resolvent_numbers",
    "resolvent_sample", "rotation_identity_residual", "schrodinger_sweep",
    "smooth_step", "tail_zero_margin", "tanh_shear", "weighted_data_sweep",
    "weighted_norm", "x_of_nu",
]


def test_public_names_are_pinned_unique_and_resolve():
    assert sorted(ss.__all__) == PUBLIC
    assert len(ss.__all__) == len(set(ss.__all__)) == 65
    for name in ss.__all__:
        assert getattr(ss, name) is not None


def test_names_left_out_of_all_stay_importable():
    from shearstab.chebdiff import N_MAX, N_MIN
    from shearstab.profile import monotonicity_margin

    assert (N_MIN, N_MAX) == (8, 2048)
    assert callable(monotonicity_margin)
