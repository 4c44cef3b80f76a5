"""Workload inputs and the answers they are checked against.

Everything here is plain Python over ``fractions.Fraction``: no module of the
package under test is imported, so every input and every expected answer is
the benchmark's own.  A workload is a list of operations ("ops"), each a JSON
object that ``pass_main.py`` executes against the package; ``check`` turns an
op and its raw result into checked outputs.

Workloads:

* ``claims-symbolic``: the paper's claims are the inputs, so they are fixed.
* ``witnesses-numeric``: the numeric suite plus seeded perturbations of the
  same witnesses.
* ``sweep-exact``: many small exact queries at seeded rational parameters.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

WORKLOADS = ("claims-symbolic", "witnesses-numeric", "sweep-exact")

# ---------------------------------------------------------------------------
# claims-symbolic
# ---------------------------------------------------------------------------

#: The 26 records of ``verify --suite all`` at the parent of this benchmark,
#: pinned by id so that records added later do not change the work.
SUITE_ALL_CLAIMS = (
    [f"derivative/{f}" for f in
     ("general", "confluent", "doubleconfluent", "biconfluent", "triconfluent")]
    + [f"matching/{k}" for k in ("p2", "p3prime", "p4", "p5", "p6")]
    + [f"riccati/{k}" for k in ("p2", "p3prime", "p4", "p5", "p6")]
    + [f"obstruction/{k}" for k in ("p2", "p3prime", "p4", "p5", "p6")]
    + [f"elimination/{k}" for k in ("p2", "p3prime", "p4", "p5", "p6")]
    + ["elimination/p3-substitution"]
)

#: The four printed-source formulas whose failure is the claim.
PREDICTED_FAILURES = {
    "matching/p2 [h2-literal]": ["--suite", "matching", "--case", "matching/p2",
                                 "--paper-literal-h2"],
    "elimination/p2 [h2-literal]": ["--suite", "elimination", "--case",
                                    "elimination/p2", "--paper-literal-h2"],
    "elimination/p5 [p5-literal]": ["--suite", "elimination", "--case",
                                    "elimination/p5", "--paper-literal-p5"],
    # The slip record is only emitted next to matching/p3prime, so this op
    # also carries that suite claim.
    "matching/p3prime [bi-confluent slip]": ["--suite", "matching", "--case",
                                             "matching/p3prime",
                                             "--family-slip-check"],
}

#: Degeneration case -> whether a shifted general-family spec is expected.
DEGENERATION_SHIFTED = {"q=0": False, "q=ab": False, "q=abt": False, "ab=0": True}


def _claims_ops() -> list[dict]:
    ops = []
    for cid in SUITE_ALL_CLAIMS:
        if cid == "matching/p3prime":
            continue  # runs inside the slip op below
        suite = cid.split("/")[0]
        ops.append({"id": cid, "type": "cli",
                    "argv": ["verify", "--suite", suite, "--case", cid,
                             "--format", "json"],
                    "expect": {cid: "pass"}})
    for cid, args in PREDICTED_FAILURES.items():
        expect = {cid: "fail-as-predicted"}
        if "slip" in cid:
            expect["matching/p3prime"] = "pass"
        ops.append({"id": cid, "type": "cli", "argv": ["verify", *args, "--format", "json"],
                    "expect": expect})
    for case, shifted in DEGENERATION_SHIFTED.items():
        ops.append({"id": f"degeneration/{case} [symbolic]", "type": "degeneration",
                    "case": case, "params": None,
                    "expect": {"certified": True, "shifted": shifted}})
    return ops


# ---------------------------------------------------------------------------
# witnesses-numeric
# ---------------------------------------------------------------------------

#: Residual bound of each numeric claim; ``above`` claims predict a residual
#: larger than the bound.
NUMERIC_SUITE = {
    **{f"numeric/derivative-{f}": ("pass", 1e-8, False) for f in
       ("general", "confluent", "doubleconfluent", "biconfluent", "triconfluent")},
    "numeric/riccati-p2": ("pass", 1e-6, False),
    "numeric/riccati-p2-perturbed": ("pass", 1e-4, True),
    **{f"numeric/hamiltonian-{k}": ("pass", 1e-6, False) for k in
       ("p2", "p3prime", "p4", "p5", "p6")},
    "numeric/hamiltonian-p2-literal": ("fail-as-predicted", 1e-2, True),
}

HAMILTONIAN_BOUND = 1e-6
DERIVATIVE_BOUND = 1e-8
RICCATI_BOUND = 1e-6

#: Step caps of the numeric suite, used unchanged for the perturbed draws.
HAMILTONIAN_MAX_STEP = 1 / 1024
RICCATI_MAX_STEP = 1 / 512

#: The Hamiltonian witnesses of the numeric suite: params, (lambda0, mu0),
#: t-range.  Perturbed draws keep the t-range, and with it the suite's
#: distance from each flow's fixed singular t-values.
HAMILTONIAN_WITNESSES = {
    "p2": ({"alpha2": "2"}, (0.25, 0.1), (0.0, 1.0)),
    "p4": ({"kappa0": "1/4", "thetainf": "2/3"}, (1.0, 0.5), (0.0, 1.0)),
    "p3prime": ({"eta0": "1", "etainf": "1", "theta0": "1/3", "thetainf": "1/2"},
                (1.0, 1.0), (1.0, 2.0)),
    "p5": ({"kappa0": "1/3", "theta": "1/5", "kappainf": "1/2", "eta": "1"},
           (2.0, 1 / 3), (1.0, 1.5)),
    "p6": ({"kappa0": "1/3", "kappa1": "1/5", "theta": "1/7", "kappainf": "1/2"},
           (0.5, 0.0), (2.0, 2.2)),
}

_VERTICAL = ((0.25, -0.5), (0.25, 0.5))
_RIGHT = ((0.5, 0.25), (1.5, 0.25))

#: The Heun derivative witnesses of the numeric suite: params and path.
DERIVATIVE_WITNESSES = {
    "general": ({"alpha": "2", "beta": "1", "gamma": "1", "delta": "1",
                 "epsilon": "2", "q": "1", "t": "2"}, _VERTICAL),
    "confluent": ({"gamma": "1", "delta": "1", "epsilon": "1", "alpha": "2",
                   "q": "1"}, _VERTICAL),
    "doubleconfluent": ({"gamma": "1", "delta": "1", "epsilon": "1", "alpha": "1",
                         "q": "1"}, _RIGHT),
    "biconfluent": ({"gamma": "1", "delta": "1", "epsilon": "1", "alpha": "1",
                     "q": "1"}, _RIGHT),
    "triconfluent": ({"gamma": "-1", "delta": "0", "epsilon": "-2", "alpha": "1",
                      "q": "1/2"}, ((-1.0, 0.0), (0.0, 0.0))),
}

#: Meter resolution.  At the suite's step cap of 1/1024 the residual meter's
#: grid (twice the sample count) is too coarse once a perturbed p3prime or p4
#: flow grows, so such a draw can measure above the 1e-6 bound: over seeds
#: 0-119 and 90210, 104 of 484 p3prime draws and 17 of 484 p4 draws did, by
#: up to 12,500 times; no p2, p5 or p6 draw did.  Perturbed draws of these two
#: kinds therefore run at a finer step cap, where every draw of the survey in
#: README.md is within the bound, and every check is strict.  The traced run
#: measures them again at the suite's cap, untimed, and reports how many are
#: above the bound there as ``numeric.suite_step_above_bound``.
FINE_STEP_KINDS = ("p3prime", "p4")
FINE_MAX_STEP = 1 / 4096

#: Perturbation rounds per pass; each round draws every witness once.
NUMERIC_ROUNDS = 4


def _small_decimal(rng: random.Random, width: int) -> float:
    """A decimal in [-width/1000, width/1000] with three places, never zero."""
    k = 0
    while k == 0:
        k = rng.randint(-width, width)
    return k / 1000


def _numeric_ops(rng: random.Random, scratch: str) -> list[dict]:
    csv_path = os.path.join(scratch, "trajectory.csv")
    ops = [{"id": "verify --suite numeric --paper-literal-h2", "type": "cli",
            "argv": ["verify", "--suite", "numeric", "--paper-literal-h2",
                     "--format", "json"],
            "expect": {cid: v for cid, (v, _, _) in NUMERIC_SUITE.items()}}]
    for rnd in range(NUMERIC_ROUNDS):
        for kind, (params, init, t_range) in HAMILTONIAN_WITNESSES.items():
            moved = {k: str(Fraction(v) + Fraction(rng.randint(-16, 16), 128))
                     for k, v in params.items()}
            start = [init[0] + _small_decimal(rng, 100), init[1] + _small_decimal(rng, 100)]
            op = {"id": f"hamiltonian-{kind}#{rnd}", "type": "hamiltonian",
                  "kind": kind, "params": moved, "init": start,
                  "t_range": list(t_range), "max_step": HAMILTONIAN_MAX_STEP,
                  "csv": csv_path, "bound": HAMILTONIAN_BOUND}
            if kind in FINE_STEP_KINDS:
                op.update(max_step=FINE_MAX_STEP, suite_step=HAMILTONIAN_MAX_STEP)
            ops.append(op)
        for family, (params, path) in DERIVATIVE_WITNESSES.items():
            init = [[1.0 + _small_decimal(rng, 200), _small_decimal(rng, 200)],
                    [1.0 + _small_decimal(rng, 200), _small_decimal(rng, 200)]]
            ops.append({"id": f"derivative-{family}#{rnd}", "type": "derivative",
                        "family": family, "params": params,
                        "path": [list(p) for p in path], "init": init,
                        "csv": csv_path, "bound": DERIVATIVE_BOUND})
        # The reduction's condition alpha2 = 1/2 stays exact; only lambda0 moves.
        ops.append({"id": f"riccati-p2#{rnd}", "type": "riccati", "kind": "p2",
                    "params": {"alpha2": "1/2"}, "lambda0": _small_decimal(rng, 300),
                    "t_range": [0.0, 1.0], "max_step": RICCATI_MAX_STEP,
                    "csv": csv_path, "bound": RICCATI_BOUND})
    return ops


# ---------------------------------------------------------------------------
# sweep-exact
# ---------------------------------------------------------------------------

HEUN_FAMILIES = ("general", "confluent", "doubleconfluent", "biconfluent",
                 "triconfluent")
PAINLEVE_KINDS = ("p2", "p3prime", "p4", "p5", "p6")
PAINLEVE_PARAMS = {
    "p6": ("kappa0", "kappa1", "theta", "kappainf"),
    "p5": ("kappa0", "theta", "kappainf", "eta"),
    "p4": ("kappa0", "thetainf"),
    "p3prime": ("eta0", "etainf", "theta0", "thetainf"),
    "p2": ("alpha2",),
}

SWEEP_HEUN_QUERIES = 100
SWEEP_PAINLEVE_QUERIES = 100
SWEEP_DEGENERATIONS = 32

INF = "inf"


def _rational(rng: random.Random, avoid=()) -> Fraction:
    """A small nonzero rational outside ``avoid``."""
    while True:
        r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 7))
        if r not in avoid:
            return r


def heun_singular_set(family: str, p: dict[str, Fraction], derivative: bool):
    """Closed-form singular set of a Heun base or derivative equation.

    Base equations: general {0, 1, t, inf} all regular; confluent {0, 1}
    regular and inf irregular; double-confluent {0, inf} irregular;
    bi-confluent 0 regular, inf irregular; tri-confluent inf irregular.  The
    derivative equation adds the regular point q/(alpha beta) (q/alpha outside
    the general family), which merges into an existing point when it lands on
    one; the merged point keeps the existing classification.  The generator
    keeps every residue that decides these sets nonzero.
    """
    finite: dict[Fraction, str] = {}
    if family == "general":
        finite = {Fraction(0): "regular", Fraction(1): "regular", p["t"]: "regular"}
    elif family == "confluent":
        finite = {Fraction(0): "regular", Fraction(1): "regular"}
    elif family == "doubleconfluent":
        finite = {Fraction(0): "irregular"}
    elif family == "biconfluent":
        finite = {Fraction(0): "regular"}
    if derivative:
        ab = p["alpha"] * p["beta"] if family == "general" else p["alpha"]
        finite.setdefault(p["q"] / ab, "regular")
    inf_kind = "regular" if family == "general" else "irregular"
    return sorted(finite.items()) + [(INF, inf_kind)]


def painleve_singular_set(kind: str, lam: Fraction, t: Fraction):
    """Closed-form singular set of a deformation linear equation.

    The apparent singularity at lambda is regular for every kind.  p6: 0, 1, t
    and inf regular.  p5: 0 and inf regular, 1 irregular (double pole of p1).
    p4: 0 regular, inf irregular.  p3prime: 0 and inf irregular.  p2: inf
    irregular.
    """
    finite = {lam: "regular"}
    inf_kind = "regular"
    if kind == "p6":
        finite.update({Fraction(0): "regular", Fraction(1): "regular", t: "regular"})
    elif kind == "p5":
        finite.update({Fraction(0): "regular", Fraction(1): "irregular"})
    elif kind == "p4":
        finite[Fraction(0)] = "regular"
        inf_kind = "irregular"
    elif kind == "p3prime":
        finite[Fraction(0)] = "irregular"
        inf_kind = "irregular"
    else:
        inf_kind = "irregular"
    return sorted(finite.items()) + [(INF, inf_kind)]


def _heun_draw(rng: random.Random, family: str, derivative: bool) -> dict[str, Fraction]:
    """Parameters whose singular set ``heun_singular_set`` predicts.

    gamma, delta, epsilon avoid 0 and -1 so that every base and derivative
    pole survives; alpha, beta, q are nonzero; t avoids 0 and 1.  A quarter
    of the general and confluent derivative draws put the extra point
    q/(alpha beta) on 1 or t, so the sets merge.
    """
    while True:
        p = {k: _rational(rng, (Fraction(0), Fraction(-1)))
             for k in ("gamma", "delta", "epsilon", "alpha", "q")}
        if family == "general":
            p["beta"] = _rational(rng)
            p["t"] = _rational(rng, (Fraction(0), Fraction(1)))
            p["epsilon"] = 1 + p["alpha"] + p["beta"] - p["gamma"] - p["delta"]
            if p["epsilon"] in (0, -1) or p["gamma"] + p["delta"] + p["epsilon"] + 2 == 0:
                continue
        if derivative and family in ("general", "confluent") and rng.random() < 0.25:
            ab = p["alpha"] * p.get("beta", 1)
            p["q"] = ab * rng.choice((Fraction(1), p.get("t", Fraction(1))))
        return p


def _painleve_draw(rng: random.Random, kind: str) -> dict[str, Fraction]:
    """Parameters and a state (lambda, mu, t) for one deformation equation.

    t avoids 0 and 1 and lambda avoids 0, 1 and t, so no two predicted points
    merge; the exponent parameters avoid the values that would cancel a pole
    of p1 (kappa0, kappa1, theta = 1) or infinity's contribution.
    """
    while True:
        p = {k: _rational(rng, (Fraction(0), Fraction(1))) for k in PAINLEVE_PARAMS[kind]}
        p["t"] = _rational(rng, (Fraction(0), Fraction(1)))
        p["lambda"] = _rational(rng, (Fraction(0), Fraction(1), p["t"]))
        p["mu"] = _rational(rng)
        if kind == "p6" and p["kappa0"] + p["kappa1"] + p["theta"] == 2:
            continue
        if kind == "p5" and p["kappa0"] + p["theta"] == 1:
            continue
        return p


def _degeneration_draw(rng: random.Random, case: str) -> dict[str, Fraction]:
    """General-family parameters meeting one degeneration condition exactly."""
    while True:
        p = {k: _rational(rng, (Fraction(0), Fraction(-1)))
             for k in ("alpha", "beta", "gamma", "delta")}
        p["t"] = _rational(rng, (Fraction(0), Fraction(1)))
        if case == "ab=0":
            p["alpha"] = Fraction(0)
            p["q"] = _rational(rng)
        else:
            ab = p["alpha"] * p["beta"]
            p["q"] = {"q=0": Fraction(0), "q=ab": ab, "q=abt": ab * p["t"]}[case]
        p["epsilon"] = 1 + p["alpha"] + p["beta"] - p["gamma"] - p["delta"]
        if p["epsilon"] not in (0, -1):
            return p


def expected_shifted(p: dict[str, Fraction]) -> dict[str, object]:
    """The shifted general spec read back from an alpha = 0 degeneration.

    With alpha = 0 the cancelled derivative equation is the general equation
    with gamma, delta, epsilon raised by one, {alpha, beta} = {beta + 1, 2}
    and accessory parameter q + gamma + t (gamma + delta) + epsilon.
    """
    g, d, e, t = p["gamma"], p["delta"], p["epsilon"], p["t"]
    return {"gamma": g + 1, "delta": d + 1, "epsilon": e + 1, "t": t,
            "alphabeta": sorted([p["beta"] + 1, Fraction(2)]),
            "q": p["q"] + g + t * (g + d) + e}


def _params_text(p: dict[str, Fraction]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in p.items())


def _sweep_ops(rng: random.Random, scratch: str) -> list[dict]:
    pdir = os.path.join(scratch, "params")
    os.makedirs(pdir, exist_ok=True)
    queries = []
    for i in range(SWEEP_HEUN_QUERIES):
        family = HEUN_FAMILIES[i % 5]
        derivative = (i // 5) % 2 == 1
        p = _heun_draw(rng, family, derivative)
        argv = ["singularities", "--family", family]
        if derivative:
            argv.append("--derivative")
        queries.append((f"singularities/{family}{'-derivative' if derivative else ''}",
                        argv, p, heun_singular_set(family, p, derivative)))
    for i in range(SWEEP_PAINLEVE_QUERIES):
        kind = PAINLEVE_KINDS[i % 5]
        p = _painleve_draw(rng, kind)
        queries.append((f"singularities/{kind}", ["singularities", "--kind", kind], p,
                        painleve_singular_set(kind, p["lambda"], p["t"])))
    ops = []
    for n, (name, argv, p, expected) in enumerate(queries):
        path = os.path.join(pdir, f"q{n:03d}.params")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_params_text(p))
        ops.append({"id": f"{name}#{n}", "type": "cli", "argv": [*argv, "--params", path],
                    "singular_set": [[str(loc), kind] for loc, kind in expected]})
    cases = ("q=0", "q=ab", "q=abt", "ab=0")
    for n in range(SWEEP_DEGENERATIONS):
        case = cases[n % 4]
        p = _degeneration_draw(rng, case)
        expect = {"certified": True, "shifted": case == "ab=0"}
        if case == "ab=0":
            expect["shifted_params"] = {
                k: ([str(x) for x in v] if isinstance(v, list) else str(v))
                for k, v in expected_shifted(p).items()}
        ops.append({"id": f"degeneration/{case}#{n}", "type": "degeneration",
                    "case": case, "params": {k: str(v) for k, v in p.items()},
                    "expect": expect})
    # Interleave the query kinds so that slow stretches of the machine do not
    # land on one kind only.
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int, scratch: str) -> list[dict]:
    """Every input of one pass, generated before any timing starts."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "claims-symbolic":
        return _claims_ops()
    if workload == "witnesses-numeric":
        return _numeric_ops(rng, scratch)
    if workload == "sweep-exact":
        return _sweep_ops(rng, scratch)
    raise ValueError(f"unknown workload {workload}")


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

class Check:
    """One checked output: its id, whether it agreed, and its residual ratio."""

    __slots__ = ("id", "ok", "ratio")

    def __init__(self, cid: str, ok: bool, ratio: float | None = None):
        self.id, self.ok, self.ratio = cid, ok, ratio


def _ratio(residual: float, bound: float, above: bool) -> float:
    if above:
        return bound / residual if residual else float("inf")
    return residual / bound


def _parse_singularities(text: str) -> list[list[str]]:
    out = []
    for line in text.splitlines():
        loc, _, kind = line.strip().partition("  [")
        out.append([str(Fraction(loc)) if loc != INF else INF, kind.rstrip("]")])
    return out


def _check_cli(op: dict, res: dict) -> list[Check]:
    if "singular_set" in op:
        ok = res.get("rc") == 0
        if ok:
            try:
                ok = _parse_singularities(res["out"]) == op["singular_set"]
            except ValueError:
                ok = False
        return [Check(op["id"], ok)]
    records = {}
    if res.get("rc") in (0, 1):
        try:
            records = {r["case"]: r for r in json.loads(res["out"])["records"]}
        except (ValueError, KeyError, TypeError):
            records = {}
    checks = []
    for cid, verdict in op["expect"].items():
        rec = records.get(cid)
        ok = res.get("rc") == 0 and rec is not None and rec.get("verdict") == verdict
        ratio = None
        if cid in NUMERIC_SUITE:
            _, bound, above = NUMERIC_SUITE[cid]
            residual = rec.get("residual") if rec else None
            if isinstance(residual, (int, float)):
                ratio = _ratio(float(residual), bound, above)
                ok = ok and ratio <= 1.0
            else:
                ok = False
        checks.append(Check(cid, ok, ratio))
    return checks


def _check_degeneration(op: dict, res: dict) -> list[Check]:
    exp = op["expect"]
    ok = (res.get("certified") is exp["certified"]
          and (res.get("shifted") is not None) == exp["shifted"])
    if ok and "shifted_params" in exp:
        ok = res["shifted"] == exp["shifted_params"]
    return [Check(op["id"], ok)]


def _check_numeric(op: dict, res: dict) -> list[Check]:
    residual = res.get("residual")
    if not isinstance(residual, (int, float)):
        return [Check(op["id"], False)]
    ratio = _ratio(float(residual), op["bound"], False)
    csv_ok = "csv" not in op or (res.get("csv_rows") == res.get("samples")
                                 and res.get("csv_ok") is True)
    return [Check(op["id"], csv_ok and ratio <= 1.0, ratio)]


def check(op: dict, res: dict) -> list[Check]:
    """Checked outputs of one op; an op that raised fails all of them."""
    if "error" in res:
        n = len(op["expect"]) if op["type"] == "cli" and "expect" in op else 1
        return [Check(op["id"], False) for _ in range(n)]
    if op["type"] == "cli":
        return _check_cli(op, res)
    if op["type"] == "degeneration":
        return _check_degeneration(op, res)
    return _check_numeric(op, res)
