"""Tests for the numeric laboratory."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from heunlab import numeric
from heunlab.heun import HeunFamily, HeunSpec
from heunlab.matching import matching_case
from heunlab.numeric import (
    ComplexPath,
    ConditionNotSatisfied,
    InsufficientSamples,
    IntegrationConfig,
    ODETrajectory,
    PathTooClose,
    Sample,
    integrate_hamiltonian,
    integrate_linear,
    integrate_riccati,
    ode_singularities,
    painleve_residual,
    verify_derivative_numeric,
)
from heunlab.ode import LinearODE2
from heunlab.painleve import PainleveKind
from heunlab.algebra import const, var

z = var("z")

GENERAL = HeunSpec.of(HeunFamily.GENERAL,
                      alpha=2, beta=1, gamma=1, delta=1, epsilon=2, q=1, t=2)
VERTICAL = ComplexPath.of(0.25 - 0.5j, 0.25 + 0.5j)

HAMILTONIAN_WITNESSES = {
    PainleveKind.P2: ({"alpha2": F(2)}, (0.25, 0.1), (0.0, 1.0)),
    PainleveKind.P4: ({"kappa0": F(1, 4), "thetainf": F(2, 3)}, (1.0, 0.5), (0.0, 1.0)),
    PainleveKind.P3P: ({"eta0": F(1), "etainf": F(1), "theta0": F(1, 3),
                        "thetainf": F(1, 2)}, (1.0, 1.0), (1.0, 2.0)),
    PainleveKind.P5: ({"kappa0": F(1, 3), "theta": F(1, 5), "kappainf": F(1, 2),
                       "eta": F(1)}, (2.0, 1 / 3), (1.0, 1.5)),
    PainleveKind.P6: ({"kappa0": F(1, 3), "kappa1": F(1, 5), "theta": F(1, 7),
                       "kappainf": F(1, 2)}, (0.5, 0.0), (2.0, 2.2)),
}

DERIVATIVE_WITNESSES = [
    (GENERAL, VERTICAL),
    (HeunSpec.of(HeunFamily.CONFLUENT, gamma=1, delta=1, epsilon=1, alpha=2, q=1),
     VERTICAL),
    (HeunSpec.of(HeunFamily.DOUBLE_CONFLUENT, gamma=1, delta=1, epsilon=1, alpha=1, q=1),
     ComplexPath.of(0.5 + 0.25j, 1.5 + 0.25j)),
    (HeunSpec.of(HeunFamily.BI_CONFLUENT, gamma=1, delta=1, epsilon=1, alpha=1, q=1),
     ComplexPath.of(0.5 + 0.25j, 1.5 + 0.25j)),
    (HeunSpec.of(HeunFamily.TRI_CONFLUENT, gamma=-1, delta=0, epsilon=-2, alpha=1,
                 q=F(1, 2)),
     ComplexPath.of(-1.0, 0.0)),
]

DENSE = IntegrationConfig(max_step=1 / 1024)


class TestPath:
    def test_length_and_distance(self):
        path = ComplexPath.of(0, 1, 1 + 1j)
        assert math.isclose(path.length(), 2.0)
        assert math.isclose(path.min_distance_to(2 + 1j), 1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            ComplexPath.of(1.0, 1.0)

    @pytest.mark.parametrize("waypoint", [math.nan, complex(0, math.inf)])
    def test_non_finite_waypoint_rejected(self, waypoint):
        with pytest.raises(ValueError, match="finite"):
            ComplexPath.of(0, waypoint, 1)


class TestIntegrationConfig:
    @pytest.mark.parametrize("kwargs, name", [
        ({"abs_tol": 0}, "abs_tol"),
        ({"abs_tol": -1e-12}, "abs_tol"),
        ({"abs_tol": math.nan}, "abs_tol"),
        ({"abs_tol": math.inf, "rel_tol": math.inf}, "abs_tol"),
        ({"rel_tol": -1e-10}, "rel_tol"),
        ({"rel_tol": math.nan}, "rel_tol"),
        ({"rel_tol": math.inf}, "rel_tol"),
        ({"max_step": 0.0}, "max_step"),
        ({"max_step": -0.5}, "max_step"),
        ({"max_step": math.nan}, "max_step"),
        ({"min_distance": 0.0}, "min_distance"),
        ({"min_distance": -1.0}, "min_distance"),
        ({"min_distance": math.nan}, "min_distance"),
    ], ids=["abs-tol-zero", "abs-tol-negative", "abs-tol-nan", "abs-tol-inf",
            "rel-tol-negative", "rel-tol-nan", "rel-tol-inf", "max-step-zero", "max-step-negative", "max-step-nan",
            "min-distance-zero", "min-distance-negative", "min-distance-nan"])
    def test_invalid_field_rejected(self, kwargs, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            IntegrationConfig(**kwargs)

    def test_zero_abs_tol_refused_before_integrating(self):
        # With a zero state, abs_tol = 0 used to divide by zero in the error norm.
        with pytest.raises(ValueError, match="abs_tol"):
            integrate_linear(LinearODE2(const(0), const(0)), ComplexPath.of(0, 1),
                             (0.0, 0.0), IntegrationConfig(abs_tol=0))

    def test_zero_rel_tol_accepted(self):
        traj = integrate_linear(LinearODE2(const(0), const(1)), ComplexPath.of(0, 1),
                                (0.0, 1.0), IntegrationConfig(abs_tol=1e-10, rel_tol=0))
        assert abs(traj.samples[-1].y[0] - math.sin(1)) < 1e-8


class TestStepperBuild:
    """Steppers are generated per state size on first use, never at import."""

    def test_import_builds_no_stepper(self):
        src = Path(numeric.__file__).resolve().parents[1]
        code = "import heunlab.cli, heunlab.numeric as m; print(len(m._STEPPERS))"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        assert run.stdout == "0\n"

    def test_one_build_per_state_size(self, monkeypatch):
        build = numeric._build_stepper
        built = []

        def spy(n):
            built.append(n)
            return build(n)

        monkeypatch.setattr(numeric, "_STEPPERS", {})
        monkeypatch.setattr(numeric, "_build_stepper", spy)
        ode = LinearODE2(const(0), const(1))
        first, second = (integrate_linear(ode, ComplexPath.of(0, 1), (0.0, 1.0))
                         for _ in range(2))
        assert built == [2]
        assert first.samples == second.samples
        integrate_riccati(matching_case(PainleveKind.P2), {"alpha2": F(1, 2)},
                          (0.0, 0.5), 0.0)
        assert built == [2, 1]


class TestIntegrateLinear:
    def test_harmonic_oscillator(self):
        ode = LinearODE2(const(0), const(1))
        traj = integrate_linear(ode, ComplexPath.of(0, math.pi), (0.0, 1.0))
        end = traj.samples[-1]
        assert abs(end.y[0]) < 1e-9
        assert abs(end.y[1] + 1) < 1e-9

    def test_exact_steps_grow(self):
        # v'' = 0 with v = 1: every step has error estimate 0 and must grow
        # the next one fivefold, not shrink it until the step underflows.
        traj = integrate_linear(LinearODE2(const(0), const(0)),
                                ComplexPath.of(0, 1), (1.0, 0.0))
        assert [smp.s for smp in traj.samples] == pytest.approx(
            [0.0, 0.001, 0.006, 0.031, 0.156, 0.781, 1.0])
        assert all(smp.y == (1, 0) for smp in traj.samples)

    def test_general_heun_self_residual(self):
        from heunlab.heun import build_heun
        ode = build_heun(GENERAL)
        traj = integrate_linear(ode, VERTICAL, (1.0, 0.0))
        assert traj.max_error_estimate <= 1.0
        assert len(traj.samples) > 10

    def test_path_too_close(self):
        from heunlab.heun import build_heun
        ode = build_heun(GENERAL)
        with pytest.raises(PathTooClose):
            integrate_linear(ode, ComplexPath.of(-0.5, 0.5), (1.0, 0.0))

    def test_singularity_enumeration_includes_unresolved(self):
        ode = LinearODE2(1 / (z * z - 2), const(0))
        pts = ode_singularities(ode)
        assert any(abs(p - math.sqrt(2)) < 1e-9 for p in pts)


class TestDerivativeWitness:
    @pytest.mark.parametrize("spec,path", DERIVATIVE_WITNESSES,
                             ids=[s.family.value for s, _ in DERIVATIVE_WITNESSES])
    def test_residual_below_tolerance(self, spec, path):
        assert path.length() >= 1.0
        assert verify_derivative_numeric(spec, path) <= 1e-8

    def test_near_extra_singularity_rejected(self):
        # the extra singular point sits at q/(alpha*beta) = 1/2
        with pytest.raises(PathTooClose):
            verify_derivative_numeric(GENERAL, ComplexPath.of(0.495, 0.505 + 1j))

    def test_derivative_of_solution_solves_rederived_equation(self):
        # Same witness against the re-derived (not transcribed) equation:
        # integrate u, then check u' against derivative_equation(base).
        from heunlab.heun import build_heun
        from heunlab.ode import derivative_equation
        from heunlab.numeric import compile_scalar, integrate_linear
        base = build_heun(GENERAL)
        derived = derivative_equation(base)
        traj = integrate_linear(base, VERTICAL, (1.0, 1.0))
        p1 = compile_scalar(base.p1, ("z",))
        p2 = compile_scalar(base.p2, ("z",))
        dp1 = compile_scalar(base.p1.derivative("z"), ("z",))
        dp2 = compile_scalar(base.p2.derivative("z"), ("z",))
        q1 = compile_scalar(derived.p1, ("z",))
        q2 = compile_scalar(derived.p2, ("z",))
        worst = 0.0
        for smp in traj.samples:
            u, up = smp.y
            upp = -p1(smp.x) * up - p2(smp.x) * u
            uppp = -(dp1(smp.x) * up + p1(smp.x) * upp
                     + dp2(smp.x) * u + p2(smp.x) * up)
            terms = (uppp, q1(smp.x) * upp, q2(smp.x) * up)
            scale = sum(abs(c) for c in terms) + 1e-300
            worst = max(worst, abs(sum(terms)) / scale)
        assert worst <= 1e-8

    def test_path_independence(self):
        straight = VERTICAL
        dogleg = ComplexPath.of(0.25 - 0.5j, 0.1 - 0.2j, 0.25 + 0.5j)
        from heunlab.heun import build_heun
        ode = build_heun(GENERAL)
        a = integrate_linear(ode, straight, (1.0, 0.5)).samples[-1]
        b = integrate_linear(ode, dogleg, (1.0, 0.5)).samples[-1]
        assert abs(a.y[0] - b.y[0]) < 1e-9
        assert abs(a.y[1] - b.y[1]) < 1e-9

    def test_tolerance_scaling(self):
        loose = IntegrationConfig(rel_tol=1e-10)
        tight = IntegrationConfig(rel_tol=5e-11)
        r_loose = verify_derivative_numeric(GENERAL, VERTICAL, loose)
        r_tight = verify_derivative_numeric(GENERAL, VERTICAL, tight)
        assert r_tight <= 4 * r_loose + 1e-14


class TestRiccati:
    def test_p2_standard_case(self):
        case = matching_case(PainleveKind.P2)
        cfg = IntegrationConfig(max_step=1 / 512)
        traj = integrate_riccati(case, {"alpha2": F(1, 2)}, (0.0, 1.0), 0.0, cfg)
        assert not traj.pole_truncated
        r = painleve_residual(PainleveKind.P2, traj, {"alpha2": F(1, 2)})
        assert r <= 1e-6

    def test_perturbed_condition_parameter_detected(self):
        case = matching_case(PainleveKind.P2)
        cfg = IntegrationConfig(max_step=1 / 512)
        traj = integrate_riccati(case, {"alpha2": F(1, 2)}, (0.0, 1.0), 0.0, cfg)
        r = painleve_residual(PainleveKind.P2, traj, {"alpha2": F(51, 100)})
        assert r > 1e-4

    def test_condition_enforced(self):
        case = matching_case(PainleveKind.P2)
        with pytest.raises(ConditionNotSatisfied):
            integrate_riccati(case, {"alpha2": F(1, 3)}, (0.0, 1.0), 0.0)

    def test_p4_case(self):
        # lambda0 on the contracting branch of lambda' = (lambda+t)^2 - t^2 + 1/2;
        # positive starts run into a movable pole almost immediately.
        case = matching_case(PainleveKind.P4)
        cfg = IntegrationConfig(max_step=1 / 512)
        traj = integrate_riccati(
            case, {"thetainf": F(-1), "kappa0": F(1, 4)}, (1.0, 2.0), -2.0, cfg)
        assert not traj.pole_truncated
        r = painleve_residual(PainleveKind.P4, traj,
                              {"thetainf": F(-1), "kappa0": F(1, 4)})
        assert r <= 1e-6

    def test_p6_case(self):
        # condition kappa0+kappa1+theta+kappa = 0 holds for kappainf = 1 + K
        params = {"kappa0": F(1, 4), "kappa1": F(1, 3), "theta": F(1, 5),
                  "kappainf": F(107, 60)}
        case = matching_case(PainleveKind.P6)
        cfg = IntegrationConfig(max_step=1 / 512)
        traj = integrate_riccati(case, params, (2.0, 3.0), 0.5, cfg)
        assert not traj.pole_truncated
        assert painleve_residual(PainleveKind.P6, traj, params) <= 1e-6

    def test_p3prime_case(self):
        params = {"eta0": F(1), "etainf": F(0), "theta0": F(1, 3),
                  "thetainf": F(1, 2)}
        case = matching_case(PainleveKind.P3P)
        cfg = IntegrationConfig(max_step=1 / 512)
        traj = integrate_riccati(case, params, (1.0, 2.0), 1.0, cfg)
        assert not traj.pole_truncated
        assert painleve_residual(PainleveKind.P3P, traj, params) <= 1e-6

    def test_p5_case(self):
        # condition eta*(2+kappa0+kappainf+theta) = 0 on the square-root branch
        params = {"kappa0": F(1, 4), "theta": F(1, 3), "eta": F(1),
                  "kappainf": -F(31, 12)}
        case = matching_case(PainleveKind.P5, 1)
        cfg = IntegrationConfig(max_step=1 / 512)
        traj = integrate_riccati(case, params, (1.0, 2.0), 0.5, cfg)
        assert not traj.pole_truncated
        assert painleve_residual(PainleveKind.P5, traj, params) <= 1e-6

    @pytest.mark.parametrize("lam0, message", [
        (0.0, "^initial position too close to 0$"),
        (1.005, "^initial position too close to 1$"),
        (2.5, "^initial position sits on the moving singular value t$"),
    ])
    def test_lambda0_on_the_singular_locus_refused(self, lam0, message):
        # For p6 lambda must avoid 0, 1 and t; t runs over 2..3 here.
        params = {"kappa0": F(1, 4), "kappa1": F(1, 3), "theta": F(1, 5),
                  "kappainf": F(107, 60)}
        with pytest.raises(PathTooClose, match=message):
            integrate_riccati(matching_case(PainleveKind.P6), params, (2.0, 3.0), lam0)

    def test_movable_pole_truncates_with_flag(self):
        case = matching_case(PainleveKind.P2)
        traj = integrate_riccati(case, {"alpha2": F(1, 2)}, (0.0, 1.0), 2.0)
        assert traj.pole_truncated
        assert all(abs(s.y[0]) <= 1e8 for s in traj.samples)

    def test_constant_function_is_not_a_solution(self):
        # A constant trajectory gives residual |2 c^3 + t c + alpha2| > 0,
        # confirming the meter is not identically zero.
        samples = [Sample(s, complex(s), (0.5 + 0j,))
                   for s in [i / 100 for i in range(101)]]
        traj = ODETrajectory(samples)
        r = painleve_residual(PainleveKind.P2, traj, {"alpha2": F(2)})
        assert r > 1.0

    def test_insufficient_samples(self):
        samples = [Sample(i / 3, complex(i / 3), (0j,)) for i in range(4)]
        with pytest.raises(InsufficientSamples):
            painleve_residual(PainleveKind.P2, ODETrajectory(samples), {"alpha2": F(2)})


class TestHamiltonian:
    @pytest.mark.parametrize("kind", list(PainleveKind),
                             ids=[k.value for k in PainleveKind])
    def test_lambda_component_satisfies_nonlinear_equation(self, kind):
        params, init, t_range = HAMILTONIAN_WITNESSES[kind]
        traj = integrate_hamiltonian(kind, params, init, t_range, DENSE)
        assert not traj.pole_truncated
        r = painleve_residual(kind, traj, params)
        assert r <= 1e-6, f"{kind.value}: {r:.3e}"

    def test_literal_p2_exhibits_discrepancy(self):
        params = {"alpha2": F(2)}
        traj = integrate_hamiltonian(
            PainleveKind.P2, params, (0.25, 0.1), (1.0, 2.0), DENSE,
            h2_literal=True)
        r = painleve_residual(PainleveKind.P2, traj, params)
        assert r > 1e-2

    def test_p4_accepts_lambda_zero_start(self):
        # the flow is polynomial; only declared t-singularities are rejected
        traj = integrate_hamiltonian(
            PainleveKind.P4, {"kappa0": F(1, 4), "thetainf": F(2, 3)},
            (0.0, 0.25), (0.0, 0.2), DENSE)
        assert len(traj.samples) > 5

    def test_p3prime_rejects_t_zero(self):
        with pytest.raises(PathTooClose):
            integrate_hamiltonian(
                PainleveKind.P3P,
                {"eta0": F(1), "etainf": F(1), "theta0": F(1, 3), "thetainf": F(1, 2)},
                (1.0, 1.0), (0.0, 1.0), DENSE)


class TestTrajectoryExport:
    def test_csv_and_json(self):
        ode = LinearODE2(const(0), const(1))
        traj = integrate_linear(ode, ComplexPath.of(0, 1), (0.0, 1.0))
        csv = traj.to_csv()
        assert csv.splitlines()[0] == "s,re_x,im_x,re_y0,im_y0,re_y1,im_y1"
        assert len(csv.splitlines()) == len(traj.samples) + 1
        import json
        data = json.loads(traj.to_json())
        assert data["pole_truncated"] is False
        assert len(data["samples"]) == len(traj.samples)


class TestWorkCounts:
    """Work of the integrator on the numeric suite, pinned exactly.

    Integration is deterministic, so the number of samples (accepted steps
    plus one) of every witness trajectory repeats to the unit.  A change to
    the step or the controller that moves any of them shows here even when
    wall time is too noisy to show it.
    """

    SUITE_TRAJECTORIES = [
        # (samples, pole_truncated), in the order the suite integrates them
        (104, False),   # derivative-general
        (121, False),   # derivative-confluent
        (111, False),   # derivative-doubleconfluent
        (97, False),    # derivative-biconfluent
        (78, False),    # derivative-triconfluent
        (514, False),   # riccati-p2 (shared by riccati-p2-perturbed)
        (1025, False),  # hamiltonian-p2
        (1025, False),  # hamiltonian-p3prime
        (1025, False),  # hamiltonian-p4
        (514, False),   # hamiltonian-p5
        (207, False),   # hamiltonian-p6
        (1025, False),  # hamiltonian-p2-literal
    ]

    def test_numeric_suite_trajectories(self, monkeypatch):
        from heunlab import numeric
        from heunlab.claims import run_claims
        integrate = numeric._integrate_segments
        seen = []

        def spy(*args):
            traj = integrate(*args)
            seen.append((len(traj.samples), traj.pole_truncated))
            return traj

        monkeypatch.setattr(numeric, "_integrate_segments", spy)
        run_claims("numeric", flags=frozenset({"paper_literal_h2"}))
        assert seen == self.SUITE_TRAJECTORIES
