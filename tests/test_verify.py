import pytest

from georadon.quadrature import DEFAULT_QUADRATURE
from georadon.radial import ClosedFormId, TransformParams
from georadon.verify import IDENTITIES, closed_form_identity, \
    identity_suite, run_identity

#: every identity of the suite, in order, with the float.hex of its error
#: at the default quadrature (the data behind the ``verify`` line of
#: ``tools/footprint.py``)
SUITE_HEX = [
    ("transition_hyper_via_chord", "0x1.19c88fa9c2d47p-46"),
    ("transition_affine_via_elliptic", "0x1.6efd5d004d8a3p-46"),
    ("transition_hyper_via_projective", "0x1.22a5da9b04de0p-46"),
    ("dual_affine_via_inversion_map", "0x1.425166e5c9faap-36"),
    ("elliptic_orthogonality", "0x0.0p+0"),
    ("mass_duality_chord", "0x1.27ad35fd89d86p-48"),
    ("power_weight_duality_chord", "0x1.0ccc0289660a7p-48"),
    ("boundary_weight_duality_chord", "0x1.b1f5503e8548cp-43"),
    ("cap_weight_duality_dual_chord_a0.5", "0x1.d55a37e8131ebp-50"),
    ("cap_weight_duality_dual_chord_a1.0", "0x1.36eb365cc8d85p-49"),
    ("singular_weight_duality_dual_chord", "0x1.0b00803ba0a75p-47"),
    ("ball_average_duality_affine", "0x1.36eb365cc8d85p-49"),
    ("inversion_map_weighted_mass", "0x1.996ba2c7a1a04p-45"),
    ("measure_lift_affine_elliptic", "0x1.86c8157aa3526p-49"),
    ("measure_lift_ball_hyperboloid", "0x1.ae1337423cdd8p-52"),
    ("measure_lift_hyperboloid_projective", "0x1.029aff27bee8bp-47"),
    ("mass_duality_hyper", "0x1.3faa4282e86b5p-44"),
    ("weighted_mass_duality_hyper", "0x1.22bf7398e5bc4p-44"),
    ("tangent_weight_duality_hyper", "0x1.24f9147b5fa7fp-44"),
    ("cap_duality_dual_hyper", "0x1.12fad1e9a4f2cp-49"),
    ("cosh_weight_duality_dual_hyper", "0x1.1cd0713cf5f1dp-50"),
    ("tangent_weight_duality_dual_hyper", "0x1.6fcb5f827b97dp-53"),
    ("gaussian_fixed_point_right_integral", "0x1.9c00000000000p-46"),
    ("weight_op_round_trips", "0x1.0000000000000p-51"),
    ("conversion_cycle", "0x1.0000000000000p-53"),
    ("closed_form_chord_inverse_power", "0x1.7abdc0c6dc4c5p-36"),
    ("closed_form_chord_cap", "0x0.0p+0"),
    ("closed_form_dual_chord_power", "0x1.0000000000000p-52"),
    ("closed_form_dual_chord_edge", "0x1.8f5c28f5c28f8p-48"),
    ("closed_form_hyper_cap", "0x1.64cd6e6f70db0p-44"),
]


def test_every_identity_passes():
    results = identity_suite()
    assert len(results) >= 20
    failures = [(r.name, r.max_rel_err, r.tol) for r in results if not r.passed]
    assert not failures, f"identities out of tolerance: {failures}"


def test_identity_names_are_unique():
    results = identity_suite()
    names = [r.name for r in results]
    assert len(names) == len(set(names))


def test_identity_errors_are_pinned():
    """The suite's names, their order and every error, bit for bit."""
    got = [(r.name, r.max_rel_err.hex()) for r in identity_suite()]
    assert got == SUITE_HEX


@pytest.mark.parametrize("triple", [(6, 1, 3), (5, 0, 2)],
                         ids=["6-1-3", "5-0-2"])
def test_table_holds_at_other_triples(triple):
    """Every row of the table and every closed form, away from its own
    triple.

    Neither triple has n - k = 1.  There only
    ``dual_affine_via_inversion_map`` still fails, although its integral
    converges: its tail in u = r^2 - t^2 decays like u^-1.5, which the
    64 doubling octaves of ``quadrature._octaves`` cannot truncate at the
    tail tolerance.  That is a defect of the quadrature, not a limit of the
    identities, so no row excludes it.
    """
    p = TransformParams(*triple)
    results = [run_identity(row, p, DEFAULT_QUADRATURE) for row in IDENTITIES]
    results += [closed_form_identity(cf, p, DEFAULT_QUADRATURE)
                for cf in ClosedFormId]
    assert len(results) == 27
    failures = [(r.name, r.max_rel_err) for r in results if not r.passed]
    assert not failures, f"identities out of tolerance at {triple}: {failures}"


@pytest.mark.parametrize("triple", [(3, 1, 2), (4, 2, 3), (5, 0, 4), (6, 1, 5)],
                         ids=["3-1-2", "4-2-3", "5-0-4", "6-1-5"])
def test_cosh_weight_duality_at_codimension_one(triple):
    """At n - k = 1 the dual's decay r^-(n-k) = r^-1 in sinh distance is the
    rate 1 in geodesic distance, and with the weight and the measure the
    integrand decays like e^(-2 rho): the tail is certified in the
    coordinate it is integrated in."""
    row = next(r for r in IDENTITIES
               if r[0] == "cosh_weight_duality_dual_hyper")
    assert run_identity(row, TransformParams(*triple),
                        DEFAULT_QUADRATURE).passed
