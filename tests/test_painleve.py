"""Tests for the Painleve systems module."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from heunlab import painleve
from heunlab.algebra import as_rational, const, identity_test, substitute, var
from heunlab.matching import matching_case
from heunlab.painleve import (
    KIND_PARAMS,
    InvalidSpec,
    PainleveKind,
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


def recover_hamiltonian(kind, ode):
    """H taken back out of the designated pole term of the fully symbolic
    linear equation.

    Subtracts the displayed non-Hamiltonian terms of p2 and scales by the
    designated pole factor: a second, independent copy of each kind's p2
    layout, so comparing the result with ``hamiltonian(kind).H`` pins the
    structural role of each pole.
    """
    z = var("z")
    p = {k: var(k) for k in KIND_PARAMS[kind]}
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

    def test_missing_parameter_refused(self):
        with pytest.raises(InvalidSpec, match="^p6 needs parameter kappa0$"):
            hamiltonian(PainleveKind.P6, {})

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
        ode = build_painleve_linear(PainleveKind.P2)
        z = var("z")
        assert identity_test(ode.p1, -2 * z ** 2 - t - 1 / (z - lam))

    def test_p6_residues(self):
        ode = build_painleve_linear(PainleveKind.P6)
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
        ode = build_painleve_linear(
            PainleveKind.P4, {"kappa0": 0, "thetainf": 0}, lam=0, mu=0)
        assert ode.p2.is_zero()

    def test_invalid_spec_rejected(self):
        with pytest.raises(InvalidSpec, match="^t must avoid 0 and 1$"):
            build_painleve_linear(PainleveKind.P6, t=1)
        with pytest.raises(InvalidSpec, match="^t must avoid 0$"):
            build_painleve_linear(PainleveKind.P3P, t=0)

    @pytest.mark.parametrize("kind", list(PainleveKind))
    def test_hamiltonian_recovered_from_designated_pole(self, kind):
        ode = build_painleve_linear(kind)
        recovered = recover_hamiltonian(kind, ode)
        assert identity_test(recovered, hamiltonian(kind).H)


def term_by_term_linear(kind, params=None, *, lam=lam, mu=mu, t=t):
    """The P6, P5 or P3' linear equation summed one partial fraction at a time.

    The reference for ``build_painleve_linear``, which puts each of these
    coefficients over the product of its pole factors and divides once:
    here every term is its own canonical fraction and the sum is
    canonicalised after each addition.  H is the kind's Hamiltonian at
    ``params``, bound to the state by substitution.
    """
    z = var("z")
    p = ({k: var(k) for k in KIND_PARAMS[kind]} if params is None
         else {k: as_rational(v) for k, v in params.items()})
    H = substitute(hamiltonian(kind, params).H, {"lambda": lam, "mu": mu, "t": t})
    if kind is PainleveKind.P6:
        kap = kappa_constant(kind, params)
        k0, k1, th = p["kappa0"], p["kappa1"], p["theta"]
        p1 = ((1 - k0) / z + (1 - k1) / (z - 1) + (1 - th) / (z - t)
              - 1 / (z - lam))
        p2 = (kap / (z * (z - 1)) - t * (t - 1) * H / (z * (z - 1) * (z - t))
              + lam * (lam - 1) * mu / (z * (z - 1) * (z - lam)))
    elif kind is PainleveKind.P5:
        kap = kappa_constant(kind, params)
        k0, th, eta = p["kappa0"], p["theta"], p["eta"]
        p1 = ((1 - k0) / z + eta * t / (z - 1) ** 2 + (1 - th) / (z - 1)
              - 1 / (z - lam))
        p2 = (kap / (z * (z - 1)) - t * H / (z * (z - 1) ** 2)
              + lam * (lam - 1) * mu / (z * (z - 1) * (z - lam)))
    else:
        e0, einf, t0, tinf = p["eta0"], p["etainf"], p["theta0"], p["thetainf"]
        p1 = e0 * t / z ** 2 + (1 - t0) / z - einf - 1 / (z - lam)
        p2 = (einf * (t0 + tinf) / (2 * z) - t * H / z ** 2
              + lam * mu / (z * (z - lam)))
    return p1, p2


#: The kinds whose coefficients ``build_painleve_linear`` puts over one denominator.
ONE_DENOMINATOR = (PainleveKind.P6, PainleveKind.P5, PainleveKind.P3P)

#: Per kind, the parameter whose value 1 makes a residue of p1 vanish.
ZERO_RESIDUE = {PainleveKind.P6: "kappa0", PainleveKind.P5: "kappa0",
                PainleveKind.P3P: "theta0"}


class TestLinearOneDenominator:
    """``build_painleve_linear`` equals the partial-fraction sum term by term.

    At symbolic parameters (with cold caches, so that both sides are built
    here), and at 200 seeded rational points per kind, among them every
    lambda on the kind's fixed locus, where two poles merge, points where a
    residue of p1 is zero, and mu = 0.
    """

    @pytest.mark.parametrize("kind", ONE_DENOMINATOR)
    def test_symbolic(self, cold_constructors, kind):
        ode = build_painleve_linear(kind)
        assert (ode.p1, ode.p2) == term_by_term_linear(kind)

    @pytest.mark.parametrize("kind", ONE_DENOMINATOR)
    def test_symbolic_matching_constraint(self, cold_constructors, kind):
        mu_c = matching_case(kind).mu_constraint
        ode = build_painleve_linear(kind, mu=mu_c)
        assert (ode.p1, ode.p2) == term_by_term_linear(kind, mu=mu_c)

    @pytest.mark.parametrize("kind", ONE_DENOMINATOR)
    def test_rational_points(self, kind):
        rng = random.Random(f"one-denominator:{kind.value}")
        locus = [None, *painleve.LAMBDA_LOCUS[kind]]

        def draw():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

        for i in range(200):
            params = {k: draw() for k in KIND_PARAMS[kind]}
            if i % 3 == 0:
                params[ZERO_RESIDUE[kind]] = Fraction(1)
            t_value = draw()
            while t_value in painleve.FLOW_T_SINGULARITIES[kind]:
                t_value = draw()
            where = locus[i % len(locus)]
            lam_value = {None: draw(), "0": Fraction(0), "1": Fraction(1),
                         "t": t_value}[where]
            mu_value = Fraction(0) if i % 7 == 0 else draw()
            state = {"lam": lam_value, "mu": mu_value, "t": t_value}
            ode = build_painleve_linear(kind, params, **state)
            ref = term_by_term_linear(kind, params, **{k: const(v) for k, v in state.items()})
            assert (ode.p1, ode.p2) == ref, (params, state)


def bridge_at(kind, params):
    """The kind's bridge constants with ``params`` bound by substitution."""
    return {k: substitute(v, params) for k, v in bridge(kind).items()}


class TestBridge:
    def test_p4_values(self):
        br = bridge_at(PainleveKind.P4, {"kappa0": 0, "thetainf": 0})
        assert br["alpha4"] == const(1)
        assert br["beta4"].is_zero()

    def test_p6_kappa_at_zero_parameters(self):
        br = bridge_at(PainleveKind.P6,
                       {"kappa0": 0, "kappa1": 0, "theta": 0, "kappainf": 0})
        assert br["kappa"] == const(1, 4)

    def test_p3_beta(self):
        br = bridge_at(PainleveKind.P3P,
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


class TestConstructorCaches:
    """Symbolic constructions are kept for the process; concrete ones never are."""

    def test_import_builds_nothing(self):
        src = Path(painleve.__file__).resolve().parents[1]
        code = ("import heunlab.cli; from heunlab import matching as m, painleve as p; "
                "print([f.cache_info().currsize for f in (m.matching_case, p.hamiltonian, "
                "p.painleve_rhs, p.kappa_constant, p.build_painleve_linear)])")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert run.stdout == "[0, 0, 0, 0, 0]\n"

    def test_spellings_share_one_entry(self):
        assert hamiltonian(PainleveKind.P2) is hamiltonian(PainleveKind.P2, None,
                                                           h2_literal=False)
        assert (build_painleve_linear(PainleveKind.P6, mu=mu)
                is build_painleve_linear(PainleveKind.P6, None, mu=mu, h2_literal=False))
        assert painleve_rhs(PainleveKind.P5) is painleve_rhs(PainleveKind.P5, p5_literal=False)

    def test_concrete_calls_skip_the_caches(self, cold_constructors):
        hamiltonian(PainleveKind.P6)
        build_painleve_linear(PainleveKind.P5)
        before = [c.cache_info() for c in cold_constructors]
        rng = random.Random(25)
        for _ in range(10):
            kind = rng.choice(list(PainleveKind))
            params = {k: Fraction(rng.randint(-8, 8), rng.randint(1, 6))
                      for k in KIND_PARAMS[kind]}
            t_value = Fraction(rng.randint(2, 9), rng.randint(1, 3))
            build_painleve_linear(kind, params, lam=Fraction(1, 3), mu=2, t=t_value)
            hamiltonian(kind, params, h2_literal=rng.random() < 0.5)
        assert [c.cache_info() for c in cold_constructors] == before

    @pytest.mark.parametrize("kind", [PainleveKind.P6, PainleveKind.P5])
    def test_kappa_once_per_construction(self, monkeypatch, kind):
        calls = []
        kappa = painleve.kappa_constant

        def spy(*args, **kwargs):
            calls.append(args)
            return kappa(*args, **kwargs)

        monkeypatch.setattr(painleve, "kappa_constant", spy)
        params = {k: Fraction(i + 2, 3) for i, k in enumerate(KIND_PARAMS[kind])}
        build_painleve_linear(kind, params, t=Fraction(5, 2))
        assert len(calls) == 1
