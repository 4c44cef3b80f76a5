"""Acceptance suite: every headline claim, at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or read the
captured output) and asserts the criterion exactly:

 1. derivative closed forms equal the re-derived equations, symbolically;
 2. the four degenerations have singular set {0, 1, t, infinity} exactly;
 3. the elimination identities hold for all five kinds, and the literal
    printed second-kind Hamiltonian fails with a concrete witness;
 4. the rescaling carries the standard third equation to its modified form;
 5. all five matchings hold on every square-root branch (gauge included);
 6. all five first-order reductions hold, their consistency defects
    factoring exactly through the stated conditions;
 7. the classical-solution conditions force alpha (or alpha*beta) and q to 0;
 8. numeric derivative witnesses stay below 1e-8 relative residual;
 9. the first-order p2 trajectory meets the nonlinear equation to 1e-6 and a
    1/100 parameter perturbation is detected above 1e-4;
10. each kind has a Hamiltonian trajectory with residual at most 1e-6.
"""

from __future__ import annotations

from fractions import Fraction as F

from heunlab.algebra import var
from heunlab.heun import (
    DegenerationCase,
    HeunFamily,
    HeunSpec,
    build_heun,
    build_heun_derivative,
    degeneration_case,
    fuchsian_epsilon,
)
from heunlab.matching import matching_case, sign_branches, verify_matching, \
    verify_obstruction, verify_riccati
from heunlab.numeric import (
    IntegrationConfig,
    integrate_hamiltonian,
    integrate_riccati,
    painleve_residual,
    verify_derivative_numeric,
)
from heunlab.ode import derivative_equation, ode_equal
from heunlab.painleve import PainleveKind, verify_elimination, verify_p3_substitution

from test_numeric import DERIVATIVE_WITNESSES, HAMILTONIAN_WITNESSES


def announce(n: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {n:2d} - {text}")
    assert ok, f"criterion {n}: {text}"


def symbolic_spec(family: HeunFamily) -> HeunSpec:
    if family is HeunFamily.GENERAL:
        a, b, g, d = (var(n) for n in ("alpha", "beta", "gamma", "delta"))
        return HeunSpec.of(HeunFamily.GENERAL, alpha=a, beta=b, gamma=g, delta=d,
                           epsilon=fuchsian_epsilon(a, b, g, d),
                           q=var("q"), t=var("t"))
    return HeunSpec.symbolic(family)


def test_c01_derivative_closed_forms_exact():
    ok = True
    for family in HeunFamily:
        spec = symbolic_spec(family)
        ok = ok and ode_equal(build_heun_derivative(spec),
                              derivative_equation(build_heun(spec)))
    announce(1, ok, "closed derivative forms equal the re-derived oracle "
                    "(all 5 families, exact)")


def test_c02_degenerations_singular_set():
    base = dict(alpha=2, beta=1, gamma=1, delta=1, epsilon=2, t=2)
    runs = [
        (HeunSpec.of(HeunFamily.GENERAL, q=0, **base), DegenerationCase.Q_ZERO),
        (HeunSpec.of(HeunFamily.GENERAL, q=2, **base), DegenerationCase.Q_AB),
        (HeunSpec.of(HeunFamily.GENERAL, q=4, **base), DegenerationCase.Q_ABT),
        (HeunSpec.of(HeunFamily.GENERAL, alpha=0, epsilon=0, q=1,
                     beta=1, gamma=1, delta=1, t=2), DegenerationCase.AB_ZERO),
    ]
    ok = True
    for spec, case in runs:
        res = degeneration_case(spec, case)
        ok = ok and res.singular_set_certified
    # And with symbolic parameters for the q = 0 case.
    a, b, g, d = (var(n) for n in ("alpha", "beta", "gamma", "delta"))
    sym = HeunSpec.of(HeunFamily.GENERAL, alpha=a, beta=b, gamma=g, delta=d,
                      epsilon=fuchsian_epsilon(a, b, g, d), q=0, t=var("t"))
    ok = ok and degeneration_case(sym, DegenerationCase.Q_ZERO).singular_set_certified
    announce(2, ok, "degenerations cancel to singular set {0, 1, t, inf} exactly")


def test_c03_elimination_identities():
    ok = all(verify_elimination(kind).passed for kind in PainleveKind)
    literal = verify_elimination(PainleveKind.P2, h2_literal=True)
    ok = ok and not literal.passed and literal.witness is not None
    p5_literal = verify_elimination(PainleveKind.P5, p5_literal=True)
    ok = ok and not p5_literal.passed and p5_literal.witness is not None
    announce(3, ok, "elimination identities hold for all 5 kinds; literal "
                    "printed variants fail with concrete witnesses")


def test_c04_p3_substitution():
    announce(4, verify_p3_substitution().passed,
             "the lambda(t) -> lambda(t^2)/t rescaling carries the third "
             "equation to its modified form, exactly")


def test_c05_matchings_all_branches():
    ok = True
    for kind in PainleveKind:
        for b in sign_branches(kind):
            ok = ok and verify_matching(matching_case(kind, b)).passed
    announce(5, ok, "all five matchings hold exactly on every square-root "
                    "branch (gauge-transformed fifth case included)")


def test_c06_riccati_reductions():
    ok = True
    for kind in PainleveKind:
        for b in sign_branches(kind):
            out = verify_riccati(matching_case(kind, b))
            ok = (ok and out.passed
                  and out.details["defect_divisible_by_condition"]
                  and out.details["cofactor_coprime_to_condition"])
    announce(6, ok, "first-order reductions hold; consistency defects factor "
                    "exactly through the stated conditions")


def test_c07_obstructions():
    ok = True
    for kind in PainleveKind:
        for b in sign_branches(kind):
            ok = ok and verify_obstruction(matching_case(kind, b)).passed
    announce(7, ok, "classical-solution conditions force alpha (or "
                    "alpha*beta) = 0 and q = 0 exactly")


def test_c08_numeric_derivative_witnesses():
    ok = True
    for spec, path in DERIVATIVE_WITNESSES:
        ok = ok and path.length() >= 1.0
        ok = ok and verify_derivative_numeric(spec, path) <= 1e-8
    announce(8, ok, "numeric derivative witnesses <= 1e-8 relative residual "
                    "on unit-length singularity-avoiding paths")


def test_c09_numeric_riccati_to_nonlinear():
    cfg = IntegrationConfig(max_step=1 / 512)
    case = matching_case(PainleveKind.P2)
    traj = integrate_riccati(case, {"alpha2": F(1, 2)}, (0.0, 1.0), 0.0, cfg)
    good = painleve_residual(PainleveKind.P2, traj, {"alpha2": F(1, 2)})
    bad = painleve_residual(PainleveKind.P2, traj, {"alpha2": F(51, 100)})
    announce(9, good <= 1e-6 and bad > 1e-4,
             f"p2 reduction residual {good:.1e} <= 1e-6; perturbed parameter "
             f"raises it to {bad:.1e} > 1e-4")


def test_c10_numeric_hamiltonian_witnesses():
    cfg = IntegrationConfig(max_step=1 / 1024)
    ok = True
    worst = 0.0
    for kind in PainleveKind:
        params, init, t_range = HAMILTONIAN_WITNESSES[kind]
        traj = integrate_hamiltonian(kind, params, init, t_range, cfg)
        r = painleve_residual(kind, traj, params)
        worst = max(worst, r)
        ok = ok and r <= 1e-6
    announce(10, ok, f"Hamiltonian trajectories satisfy their nonlinear "
                     f"equations to 1e-6 (worst {worst:.1e})")
