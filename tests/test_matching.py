"""Tests for the reduction cases and their verifiers."""

from __future__ import annotations

import pytest

from dataclasses import replace

from heunlab.algebra import const, identity_test, substitute, var
from heunlab.heun import HeunFamily, HeunSpec, build_heun_derivative
from heunlab.matching import (
    UnknownCase,
    matching_case,
    sign_branches,
    verify_matching,
    verify_obstruction,
    verify_riccati,
)
from heunlab.ode import gauge_mobius_transform
from heunlab.painleve import PainleveKind, hamiltonian

lam, t = var("lambda"), var("t")


class TestCaseData:
    def test_unknown_branch(self):
        with pytest.raises(UnknownCase):
            matching_case(PainleveKind.P6, branch=2)

    def test_p2_parameter_map(self):
        case = matching_case(PainleveKind.P2)
        a2 = var("alpha2")
        assert case.param_map["gamma"] == -t
        assert case.param_map["delta"].is_zero()
        assert case.param_map["epsilon"] == const(-2)
        assert case.param_map["alpha"] == 1 - 2 * a2
        assert identity_test(case.param_map["q"], (1 - 2 * a2) * lam)
        assert identity_test(case.mu_constraint, 2 * lam ** 2 + t)

    def test_p4_parameter_map(self):
        case = matching_case(PainleveKind.P4)
        thinf, k0 = var("thetainf"), var("kappa0")
        assert identity_test(case.param_map["alpha"], (thinf + 1) / 2)
        assert case.param_map["epsilon"] == const(-1, 2)
        assert identity_test(case.mu_constraint, t + k0 / lam + lam / 2)

    def test_p6_alphabeta_both_branches(self):
        k0, k1, th = var("kappa0"), var("kappa1"), var("theta")
        kappa = ((k0 + k1 + th - 1) ** 2 - var("kappainf") ** 2) / 4
        for branch in (1, -1):
            case = matching_case(PainleveKind.P6, branch)
            ab = case.param_map["alpha"] * case.param_map["beta"]
            assert identity_test(ab, k0 + k1 + th + kappa)

    def test_p6_param_map_covers_family(self):
        case = matching_case(PainleveKind.P6)
        assert {"gamma", "delta", "epsilon", "alpha", "beta", "q"} <= set(case.param_map)

    def test_branch_count(self):
        assert sign_branches(PainleveKind.P6) == (1, -1)
        assert sign_branches(PainleveKind.P5) == (1, -1)
        assert sign_branches(PainleveKind.P4) == (1,)


class TestVerifyMatching:
    @pytest.mark.parametrize("kind", list(PainleveKind))
    def test_all_cases_pass(self, kind):
        for b in sign_branches(kind):
            case = matching_case(kind, b)
            out = verify_matching(case)
            assert out.passed, (case.sign_branch, out.witness)

    @pytest.mark.parametrize("case, family", [
        *((case, case.heun_family) for case in (
            matching_case(kind, b) for kind in PainleveKind for b in sign_branches(kind))),
        (matching_case(PainleveKind.P3P), HeunFamily.BI_CONFLUENT),
    ], ids=lambda v: v.value if isinstance(v, HeunFamily)
        else f"{v.painleve_kind.value}{'+' if v.sign_branch > 0 else '-'}")
    def test_mapped_spec_equals_substituted_symbolic_equation(self, case, family):
        # The equation verify_matching compares is built at the mapped
        # parameters.  It must be the one obtained by building at fully
        # symbolic parameters, gauging with a free exponent and substituting
        # the map (and the exponent) afterwards.
        built = build_heun_derivative(HeunSpec.from_params(family, case.param_map),
                                      enforce_fuchsian=False)
        reference = build_heun_derivative(HeunSpec.symbolic(family), enforce_fuchsian=False)
        bind = dict(case.param_map)
        if case.gauge is not None:
            built = gauge_mobius_transform(built, case.gauge)
            reference = gauge_mobius_transform(
                reference, replace(case.gauge, sigma=var("sigma")))
            bind["sigma"] = case.gauge.sigma
        assert built.p1 == substitute(reference.p1, bind)
        assert built.p2 == substitute(reference.p2, bind)

    def test_p6_map_satisfies_fuchsian_relation(self):
        out = verify_matching(matching_case(PainleveKind.P6))
        assert out.details["fuchsian_relation_holds"]

    def test_p2_literal_hamiltonian_breaks_matching(self):
        out = verify_matching(matching_case(PainleveKind.P2), h2_literal=True)
        assert not out.passed
        assert out.witness["coefficient"] == "p2"
        assert "point" in out.witness

    def test_p2_constant_part_of_hamiltonian_under_constraint(self):
        # Under the mu constraint the p2 Hamiltonian collapses to a multiple
        # of lambda: -2 H = (2 alpha2 + 1) lambda.
        case = matching_case(PainleveKind.P2)
        ham = hamiltonian(PainleveKind.P2)
        collapsed = substitute(ham.H, {"mu": case.mu_constraint})
        assert identity_test(-2 * collapsed, (2 * var("alpha2") + 1) * lam)

    def test_family_binding_slip(self):
        # The double-confluent reduction does not fit the bi-confluent family;
        # running it against that family must fail, which justifies the
        # double-confluent binding.
        case = matching_case(PainleveKind.P3P)
        good = verify_matching(case)
        bad = verify_matching(replace(case, heun_family=HeunFamily.BI_CONFLUENT))
        assert good.passed and not bad.passed

    def test_alpha_renaming_safety(self):
        # Renaming the deformation variables throughout both sides of the
        # comparison must not change any verdict.
        case = matching_case(PainleveKind.P2)
        ham = hamiltonian(PainleveKind.P2)
        lam_dot = substitute(ham.dH_dmu, {"mu": case.mu_constraint})
        renamed = {"lambda": var("ell"), "t": var("tau")}
        lhs = substitute(lam_dot, renamed)
        rhs = substitute(case.riccati_rhs, renamed)
        assert identity_test(lhs, rhs)
        broken = substitute(case.riccati_rhs + 1, renamed)
        assert not identity_test(lhs, broken)


class TestVerifyRiccati:
    @pytest.mark.parametrize("kind", list(PainleveKind))
    def test_all_cases_pass(self, kind):
        for b in sign_branches(kind):
            case = matching_case(kind, b)
            out = verify_riccati(case)
            assert out.passed, (case.sign_branch, out.details)
            assert out.details["substitution_identity"]
            assert out.details["defect_divisible_by_condition"]
            assert out.details["cofactor_coprime_to_condition"]

    def test_p2_defect_value(self):
        # The defect is a constant multiple of the condition: alpha2 - 1/2
        # up to a unit, so exactly the stated 2*alpha2 = 1 condition.
        case = matching_case(PainleveKind.P2)
        ham = hamiltonian(PainleveKind.P2)
        mu_c = case.mu_constraint
        lam_dot = substitute(ham.dH_dmu, {"mu": mu_c})
        assert identity_test(lam_dot, lam ** 2 + t / 2)
        defect = (mu_c.derivative("lambda") * lam_dot + mu_c.derivative("t")
                  + substitute(ham.dH_dlam, {"mu": mu_c}))
        assert identity_test(defect, (2 * var("alpha2") - 1) * const(-1, 2))

    def test_p6_printed_display_matches_flow(self):
        out = verify_riccati(matching_case(PainleveKind.P6))
        assert out.details["printed_display_matches_flow"]

    def test_p5_printed_display_has_defect(self):
        out = verify_riccati(matching_case(PainleveKind.P5))
        assert out.details["printed_display_matches_flow"] is False

    def test_p4_riccati_rhs(self):
        case = matching_case(PainleveKind.P4)
        k0 = var("kappa0")
        assert identity_test(case.riccati_rhs, lam ** 2 + 2 * t * lam + 2 * k0)


class TestVerifyObstruction:
    @pytest.mark.parametrize("kind", list(PainleveKind))
    def test_all_cases_pass(self, kind):
        for b in sign_branches(kind):
            case = matching_case(kind, b)
            out = verify_obstruction(case)
            assert out.passed, (case.sign_branch, out.details)

    def test_p2_direct(self):
        case = matching_case(PainleveKind.P2)
        al = substitute(case.param_map["alpha"], {"alpha2": const(1, 2)})
        q = substitute(case.param_map["q"], {"alpha2": const(1, 2)})
        assert al.is_zero() and q.is_zero()

    def test_p6_both_sign_choices(self):
        case = matching_case(PainleveKind.P6)
        kinf, th, k1 = var("kappainf"), var("theta"), var("kappa1")
        for sgn in (1, -1):
            bind = {"kappa0": sgn * kinf - th - k1 - 1}
            ab = substitute(case.param_map["alpha"] * case.param_map["beta"], bind)
            assert ab.is_zero()

    def test_p5_eta_branch(self):
        case = matching_case(PainleveKind.P5)
        al = substitute(case.param_map["alpha"], {"eta": const(0)})
        assert al.is_zero()
