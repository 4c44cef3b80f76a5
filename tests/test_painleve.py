"""Tests for the Painleve systems module."""

from __future__ import annotations

import pytest

from heunlab.algebra import const, identity_test, substitute, var
from heunlab.painleve import (
    InvalidSpec,
    PainleveKind,
    PainleveLinearSpec,
    bridge,
    build_painleve_linear,
    hamiltonian,
    kappa_constant,
    lambda_second_derivative_along_flow,
    painleve_rhs,
    verify_elimination,
    verify_p3_substitution,
)

lam, mu, t = var("lambda"), var("mu"), var("t")


def recover_hamiltonian(kind, ode, spec):
    """H taken back out of the designated pole term of the linear equation.

    Subtracts the displayed non-Hamiltonian terms of p2 and scales by the
    designated pole factor: a second, independent copy of each kind's p2
    layout, so comparing the result with ``hamiltonian(kind).H`` pins the
    structural role of each pole.
    """
    z = var("z")
    p = spec.params
    lam, mu, t = spec.lam, spec.mu, spec.t
    if kind in (PainleveKind.P6, PainleveKind.P5):
        rest = (kappa_constant(kind, p) / (z * (z - 1))
                + lam * (lam - 1) * mu / (z * (z - 1) * (z - lam)))
        if kind is PainleveKind.P6:
            return (rest - ode.p2) * z * (z - 1) * (z - t) / (t * (t - 1))
        return (rest - ode.p2) * z * (z - 1) ** 2 / t
    if kind is PainleveKind.P4:
        rest = p["thetainf"] / 2 + lam * mu / (z * (z - lam))
        return (rest - ode.p2) * 2 * z
    if kind is PainleveKind.P3P:
        rest = (p["etainf"] * (p["theta0"] + p["thetainf"]) / (2 * z)
                + lam * mu / (z * (z - lam)))
        return (rest - ode.p2) * z ** 2 / t
    rest = -(2 * p["alpha2"] + 1) * z + mu / (z - lam)
    return (rest - ode.p2) / 2


class TestHamiltonians:
    def test_h4_single_surviving_term(self):
        ham = hamiltonian(PainleveKind.P4, {"kappa0": 0, "thetainf": 1})
        value = substitute(ham.H, {"lambda": const(1), "mu": const(0), "t": const(0)})
        assert value == const(1)

    def test_h2_vanishes_at_origin(self):
        ham = hamiltonian(PainleveKind.P2)
        value = substitute(ham.H, {"lambda": const(0), "mu": const(0)})
        assert value.is_zero()

    def test_h4_mu_derivative(self):
        ham = hamiltonian(PainleveKind.P4)
        k0 = var("kappa0")
        expected = 4 * lam * mu - (lam ** 2 + 2 * t * lam + 2 * k0)
        assert identity_test(ham.dH_dmu, expected)

    def test_h2_mu_derivative_working_convention(self):
        ham = hamiltonian(PainleveKind.P2)
        assert identity_test(ham.dH_dmu, mu - lam ** 2 - t / 2)

    def test_flow_time_dependence(self):
        # dH/dt along the flow equals the explicit partial in t.
        for kind in PainleveKind:
            ham = hamiltonian(kind)
            along = (ham.H.derivative("lambda") * ham.dH_dmu
                     - ham.H.derivative("mu") * ham.dH_dlam
                     + ham.H.derivative("t"))
            assert identity_test(along, ham.H.derivative("t")), kind


class TestLinearEquations:
    def test_p2_p1_coefficient(self):
        spec = PainleveLinearSpec.of(PainleveKind.P2)
        ode = build_painleve_linear(spec)
        z = var("z")
        assert identity_test(ode.p1, -2 * z ** 2 - t - 1 / (z - lam))

    def test_p6_residues(self):
        spec = PainleveLinearSpec.of(PainleveKind.P6)
        ode = build_painleve_linear(spec)
        z = var("z")
        k0, k1, th = var("kappa0"), var("kappa1"), var("theta")
        for point, expected in [
            (const(0), 1 - k0),
            (const(1), 1 - k1),
            (t, 1 - th),
            (lam, const(-1)),
        ]:
            res = substitute(ode.p1 * (z - point), {"z": point})
            assert identity_test(res, expected)

    def test_p4_zero_state_p2_coefficient(self):
        spec = PainleveLinearSpec.of(
            PainleveKind.P4, {"kappa0": 0, "thetainf": 0}, lam=0, mu=0)
        ode = build_painleve_linear(spec)
        assert ode.p2.is_zero()

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidSpec, match="^t must avoid 0 and 1$"):
            PainleveLinearSpec.of(PainleveKind.P6, t=1).check()
        with pytest.raises(InvalidSpec, match="^t must avoid 0$"):
            PainleveLinearSpec.of(PainleveKind.P3P, t=0).check()

    @pytest.mark.parametrize("kind", list(PainleveKind))
    def test_hamiltonian_recovered_from_designated_pole(self, kind):
        spec = PainleveLinearSpec.of(kind)
        ode = build_painleve_linear(spec)
        recovered = recover_hamiltonian(kind, ode, spec)
        assert identity_test(recovered, hamiltonian(kind).H)


class TestBridge:
    def test_p4_values(self):
        br = bridge(PainleveKind.P4, {"kappa0": 0, "thetainf": 0})
        assert br["alpha4"] == const(1)
        assert br["beta4"].is_zero()

    def test_p6_kappa_at_zero_parameters(self):
        br = bridge(PainleveKind.P6,
                    {"kappa0": 0, "kappa1": 0, "theta": 0, "kappainf": 0})
        assert br["kappa"] == const(1, 4)

    def test_p3_beta(self):
        br = bridge(PainleveKind.P3P,
                    {"eta0": 1, "etainf": var("etainf"), "theta0": 0,
                     "thetainf": var("thetainf")})
        assert br["beta3"] == const(4)

    def test_sign_branch_symmetry(self):
        # kappainf -> -kappainf leaves every P6 bridge constant unchanged.
        br_plus = bridge(PainleveKind.P6)
        flipped = {k: substitute(v, {"kappainf": -var("kappainf")})
                   for k, v in br_plus.items()}
        for key in br_plus:
            assert identity_test(br_plus[key], flipped[key])


class TestRhs:
    def test_p2_at_lambda_zero(self):
        rhs = painleve_rhs(PainleveKind.P2)
        out = substitute(rhs, {"lambda": const(0), "lambdap": const(0)})
        assert out == var("alpha2")

    def test_p4_point_value(self):
        rhs = painleve_rhs(PainleveKind.P4)
        out = substitute(rhs, {"lambda": const(1), "lambdap": const(0), "t": const(0)})
        a4, b4 = var("alpha4"), var("beta4")
        br = bridge(PainleveKind.P4)
        expected = const(3, 2) - 2 * br["alpha4"] + br["beta4"]
        assert identity_test(out, expected)

    def test_p6_denominator_structure(self):
        rhs = painleve_rhs(PainleveKind.P6)
        bound = (lam * (lam - 1) * (lam - t) * t ** 2 * (t - 1) ** 2)
        assert (rhs * bound).is_polynomial()


class TestElimination:
    @pytest.mark.parametrize("kind", list(PainleveKind))
    def test_passes_for_every_kind(self, kind):
        out = verify_elimination(kind)
        assert out.passed, out.witness

    def test_p2_literal_fails_with_witness(self):
        out = verify_elimination(PainleveKind.P2, h2_literal=True)
        assert not out.passed
        assert out.witness is not None and "point" in out.witness

    def test_p5_literal_fails_with_witness(self):
        out = verify_elimination(PainleveKind.P5, p5_literal=True)
        assert not out.passed
        assert out.witness is not None

    def test_lambda_acceleration_shape_p2(self):
        ham = hamiltonian(PainleveKind.P2)
        lhs = lambda_second_derivative_along_flow(ham)
        assert identity_test(lhs, 2 * lam ** 3 + t * lam + var("alpha2"))


class TestP3Substitution:
    def test_forward(self):
        assert verify_p3_substitution().passed

    def test_perturbed_constant_fails(self):
        # Breaking delta3 on one side must break the identity.
        from heunlab.painleve import painleve_rhs_p3_standard
        s = var("t")
        w, wp, wpp = var("jw"), var("jwp"), var("jwpp")
        res3 = var("lambdapp") - painleve_rhs_p3_standard()
        moved = substitute(res3, {
            "lambda": w / s,
            "lambdap": 2 * wp - w / s ** 2,
            "lambdapp": 4 * s * wpp - 2 * wp / s + 2 * w / s ** 3})
        rhs_bad = painleve_rhs(PainleveKind.P3P) + var("delta3")
        res3p = substitute(var("lambdapp") - rhs_bad,
                           {"lambda": w, "lambdap": wp, "lambdapp": wpp, "t": s ** 2})
        assert not identity_test(moved, 4 * s * res3p)


class TestKappa:
    def test_p6_formula(self):
        k = kappa_constant(PainleveKind.P6)
        k0, k1, th, kinf = (var(n) for n in ("kappa0", "kappa1", "theta", "kappainf"))
        assert identity_test(k, ((k0 + k1 + th - 1) ** 2 - kinf ** 2) / 4)

    def test_undefined_for_p2(self):
        with pytest.raises(InvalidSpec):
            kappa_constant(PainleveKind.P2)
