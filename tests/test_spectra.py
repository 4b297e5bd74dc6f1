"""Coefficient-matching solver: families, branches, residuals, geometry."""

import json
import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings
import hypothesis.strategies as st
from sympy import I, Rational

from nilpotent.spectra import (
    AnsatzBranch,
    AnsatzSolution,
    InconsistentSystemError,
    PotentialSpec,
    QuantumNumbers,
    SupercriticalCouplingError,
    UnsupportedPotentialError,
    _residual_magnitude,
    coulomb_levels,
    infrared_radius,
    lennard_jones_solution,
    lmin,
    match_coefficients,
    oscillator_levels,
    residual_detail,
    residual_verify,
)

QN = QuantumNumbers(Fraction(1, 2), 0)


def test_quantum_numbers_repr_names_each_field():
    assert repr(QuantumNumbers(Fraction(3, 2), 2)) == "QuantumNumbers(j=Fraction(3, 2), n_prime=2)"


def _branch_var(sol, key):
    return {sp.simplify(b.solver_vars[key]) for b in sol.branches}


# --- strong / confining family ---------------------------------------------


def strong_potential(q="2/5", sigma="1", A="3/10"):
    return PotentialSpec({1: Fraction(sigma)}, coulomb_phase=Fraction(A),
                         coupling=Fraction(q))


def test_strong_family_relations():
    V = strong_potential()
    sol = match_coefficients(V, QN)
    assert sol.family == "confining"
    q, sigma, A = Rational(2, 5), Rational(1), Rational(3, 10)
    E = sp.Symbol("E")
    assert _branch_var(sol, "b") == {I * q * sigma / 2, -I * q * sigma / 2}
    assert _branch_var(sol, "a") == {I * E, -I * E}
    assert _branch_var(sol, "gamma_plus_nu_plus_1") == {I * q * A, -I * q * A}
    # branch pairing: b = +i q sigma/2 goes with a = -iE
    for b in sol.branches:
        if sp.simplify(b.solver_vars["b"] - I * q * sigma / 2) == 0:
            assert sp.simplify(b.solver_vars["a"] + I * E) == 0


def test_strong_residual_exact_zero():
    V = strong_potential()
    sol = match_coefficients(V, QN)
    assert residual_verify(V, sol, QN) == 0.0


def test_exponent_powers_follow_potential_powers():
    sol = match_coefficients(strong_potential(), QN)
    for b in sol.branches:
        assert set(b.exp_coefficients) == {2}


# --- coulomb family ----------------------------------------------------------


def test_coulomb_relations():
    V = PotentialSpec({}, coulomb_phase=Fraction(1, 10))
    sol = match_coefficients(V, QN)
    assert sol.family == "coulomb"
    gt = _branch_var(sol, "gamma_plus_nu_plus_1")
    root = sp.sqrt(Rational(1) - Rational(1, 100))
    assert gt == {root, -root}
    assert residual_verify(V, sol, QN) == 0.0
    assert [b.decaying for b in sol.branches] == [True, False]


def test_coulomb_closed_form_example():
    val = coulomb_levels(0.1, Fraction(1, 2), 0)
    assert abs(val - (1 + 0.01 / 0.99) ** -0.5) < 1e-15
    assert abs(val - 0.994987) < 1e-6


def test_coulomb_free_limit():
    assert coulomb_levels(0.0, Fraction(1, 2), 0) == 1.0


def test_coulomb_monotone_decreasing_in_qA():
    values = [coulomb_levels(qa, Fraction(1, 2), 0) for qa in (0.05, 0.1, 0.2, 0.4, 0.8)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_coulomb_supercritical():
    with pytest.raises(SupercriticalCouplingError):
        coulomb_levels(1.0, Fraction(1, 2), 0)
    with pytest.raises(SupercriticalCouplingError):
        match_coefficients(PotentialSpec({}, coulomb_phase=2), QN)


def test_coulomb_matches_solver_to_1e12():
    for qa, j, n in ((0.1, Fraction(1, 2), 0), (0.3, Fraction(3, 2), 2), (0.05, Fraction(1, 2), 1)):
        qn = QuantumNumbers(j, n)
        V = PotentialSpec({}, coulomb_phase=Fraction(qa).limit_denominator(10**6))
        sol = match_coefficients(V, qn)
        branch = sol.branches[0]  # decaying branch
        gt = branch.solver_vars["gamma_plus_nu_plus_1"]
        m_over_e = sp.sqrt(1 + (sp.nsimplify(qa) / gt) ** 2)
        assert abs(float(1 / m_over_e) - coulomb_levels(qa, j, n)) < 1e-12


def test_coulomb_weak_coupling_series():
    qa, j, n = 1e-3, Fraction(1, 2), 0
    exact = coulomb_levels(qa, j, n)
    series = 1 - qa * qa / (2.0 * float(n + j + Fraction(1, 2)) ** 2)
    assert abs(exact - series) < 1e-11


# --- oscillator family -------------------------------------------------------


def test_oscillator_relations():
    # V = c r^2 / 2 with c = 3; phase A = i/2
    V = PotentialSpec({2: Rational(3, 2)}, coulomb_phase=I / 2)
    sol = match_coefficients(V, QN)
    assert sol.family == "oscillator"
    assert _branch_var(sol, "b") == {I / 2, -I / 2}  # +-ic/6
    assert _branch_var(sol, "one_plus_gamma") == {Rational(1, 2), -Rational(1, 2)}  # +-iA
    for b in sol.branches:
        assert sp.simplify(b.solver_vars["a"] - sp.sqrt(sp.Symbol("m") ** 2 - sp.Symbol("E") ** 2)) == 0
    assert residual_verify(V, sol, QN) == 0.0


def test_oscillator_levels_examples():
    assert oscillator_levels(1, Fraction(1, 2), 0) == Fraction(-1, 2)
    assert oscillator_levels(1, Fraction(1, 2), 1) == Fraction(-3, 2)
    assert oscillator_levels(0, Fraction(1, 2), 0) == 0


def test_oscillator_spacing():
    for j in (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)):
        spacing = {
            oscillator_levels(1, j, n) - oscillator_levels(1, j, n + 1) for n in range(4)
        }
        assert spacing == {Fraction(1, 1) / (j + Fraction(1, 2))}


def test_oscillator_needs_phase():
    with pytest.raises(InconsistentSystemError) as err:
        match_coefficients(PotentialSpec({2: 1}), QN)
    assert err.value.power == -2


# --- Lennard-Jones / inverse multipole --------------------------------------


def test_lennard_jones_opposite_signs():
    sol = lennard_jones_solution(I / 2, 1, 1, QN)
    assert sol.family == "inverse-multipole"
    pairs = {(sp.simplify(b.solver_vars["b"]), sp.simplify(b.solver_vars["c"]))
             for b in sol.branches}
    assert pairs == {(I, -I), (-I, I)}
    assert residual_verify(sol.potential, sol, QN) == 0.0


def test_lennard_jones_levels_are_oscillator():
    sol = lennard_jones_solution(I / 2, 1, 1, QN)
    assert sol.level_series.family == "oscillator"
    for j, n in ((Fraction(1, 2), 0), (Fraction(3, 2), 2)):
        assert sol.level_series.levels(j, n) == oscillator_levels(1, j, n)


@pytest.mark.parametrize("terms", [{-12: Fraction(1)}, {-6: Fraction(2)},
                                   {-3: Fraction(1)}, {-2: Fraction(5, 2)}])
def test_inverse_powers_yield_oscillator_series(terms):
    V = PotentialSpec(terms, coulomb_phase=I / 2)
    sol = match_coefficients(V, QN)
    assert sol.level_series.family == "oscillator"
    assert residual_verify(V, sol, QN) == 0.0


def test_r2_and_inverse_share_level_series():
    osc = match_coefficients(PotentialSpec({2: 1}, coulomb_phase=I / 2), QN)
    for terms in ({-12: Fraction(1)}, {-6: Fraction(1)}, {-3: Fraction(1)}):
        inv = match_coefficients(PotentialSpec(terms, coulomb_phase=I / 2), QN)
        for j, n in ((Fraction(1, 2), 0), (Fraction(3, 2), 1), (Fraction(5, 2), 3)):
            assert inv.level_series.levels(j, n) == osc.level_series.levels(j, n)


# --- residual sweep over all four families -----------------------------------


def test_residuals_exact_zero_random_rational_parameters():
    rng = random.Random(3)

    def rand_frac(lo=1, hi=9):
        return Fraction(rng.randint(lo, hi), rng.randint(1, 9))

    for _ in range(12):
        qn = QuantumNumbers(Fraction(2 * rng.randint(0, 2) + 1, 2), rng.randint(0, 3))
        families = [
            PotentialSpec({1: rand_frac()}, coulomb_phase=rand_frac(), coupling=rand_frac()),
            PotentialSpec({}, coulomb_phase=Fraction(1, rng.randint(3, 12))),
            PotentialSpec({2: rand_frac()}, coulomb_phase=I * sp.Rational(rand_frac())),
            PotentialSpec({-6: rand_frac(), -12: -rand_frac()},
                          coulomb_phase=I * sp.Rational(rand_frac())),
        ]
        for V in families:
            sol = match_coefficients(V, qn)
            assert residual_verify(V, sol, qn) == 0.0, (V, qn)


def _potential_set(seed, count=40):
    """(family, solution, qn, exact) for a seeded set of potentials: the four
    families and lennard_jones_solution in turn, exact and float in turn."""
    rng = random.Random(seed)

    def frac(hi=9):
        return Fraction(rng.randint(1, hi), rng.randint(1, 9))

    out = []
    for k in range(count):
        family = ("confining", "coulomb", "oscillator", "inverse", "lennard-jones")[k % 5]
        exact = k // 5 % 2 == 0
        num = (lambda x: x) if exact else (lambda x: round(float(x), 4))
        qn = QuantumNumbers(Fraction(2 * rng.randint(0, 2) + 1, 2), rng.randint(0, 3))
        if family == "lennard-jones":
            sol = lennard_jones_solution(I * num(frac()), num(frac()), num(frac()), qn)
        else:
            if family == "confining":
                V = PotentialSpec({1: num(frac(30))}, num(frac()), num(frac()))
            elif family == "coulomb":
                # qA below (j + 1/2) and, for j <= 5/2 and n' <= 3, off the pole
                qa, q = Fraction(rng.randint(1, 99), 100) * qn.j_plus_half, frac()
                V = PotentialSpec({}, num(qa / q), num(q))
            elif family == "oscillator":
                V = PotentialSpec({2: num(frac(30))}, I * num(frac()), num(frac()))
            else:
                powers = rng.choice(((-6, -12), (-4,), (-2,), (-3, -5)))
                V = PotentialSpec({p: num(rng.choice((1, -1)) * frac(30)) for p in powers},
                                  I * num(frac()))
            sol = match_coefficients(V, qn)
        out.append((family, sol, qn, exact))
    return out


def _reference_residual(sol):
    """The gate by subs, simplify and expand: what the xreplace gate must equal."""
    return max(
        _residual_magnitude(sp.expand(sp.simplify(rel.expr.subs(branch.subs))))
        for branch in sol.branches
        for rel in sol.relations
        if rel.matched
    )


def test_branch_values_hold_no_substituted_symbol():
    """xreplace does the job of subs only when no value holds a key of its map."""
    for _, sol, _, _ in _potential_set(5):
        for branch in sol.branches:
            keys = set(branch.subs)
            for value in branch.subs.values():
                assert not value.free_symbols & keys, (sol.potential, value)


def test_residual_gate_agrees_with_the_simplify_reference():
    cases = _potential_set(11)
    assert len({(family, exact) for family, _, _, exact in cases}) == 10
    for family, sol, qn, exact in cases:
        got, want = residual_verify(sol.potential, sol, qn), _reference_residual(sol)
        if exact:
            assert got == want == 0.0, (family, sol.potential, qn)
        else:
            assert got <= 1e-10 and want <= 1e-10, (family, sol.potential, qn, got, want)


def _inverse(*powers):
    """An inverse-power potential c_p r^p with alternating signs and phase i/2."""
    return lambda x: PotentialSpec({p: (-1) ** k * x(Fraction(k + 3, 2))
                                    for k, p in enumerate(powers)}, I * x(Fraction(1, 2)))


FAMILY_POTENTIALS = [
    pytest.param(lambda x: PotentialSpec({1: x(1)}, x(Fraction(3, 10)), x(Fraction(2, 5))),
                 id="confining"),
    pytest.param(lambda x: PotentialSpec({}, x(Fraction(1, 10))), id="coulomb"),
    pytest.param(lambda x: PotentialSpec({2: x(Fraction(3, 2))}, I * x(Fraction(1, 2))),
                 id="oscillator"),
    pytest.param(lambda x: PotentialSpec({-6: x(1), -12: -x(1)}, I * x(Fraction(1, 2))),
                 id="inverse"),
    pytest.param(_inverse(-4), id="inverse-4"),
    pytest.param(_inverse(-2), id="inverse-2"),
    pytest.param(_inverse(-3, -5), id="inverse-3-5"),
    pytest.param(_inverse(-3, -4), id="inverse-3-4"),
    pytest.param(_inverse(-2, -4), id="inverse-2-4"),
]


@pytest.mark.parametrize("make", FAMILY_POTENTIALS)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_perturbed_branch_fails_the_gate(make, exact):
    """Each branch value that a matched relation holds, moved by 1e-6 on its own,
    fails the gate: no false pass in any family, and no value left ungated where
    groups of the derivation merge on one power."""
    num, delta = (Fraction, Rational(1, 10**6)) if exact else (float, 1e-6)
    sol = match_coefficients(make(num), QN)
    assert residual_verify(sol.potential, sol, QN) <= (0.0 if exact else 1e-10)
    gated = set().union(*(rel.expr.free_symbols for rel in sol.relations if rel.matched))
    moved_keys = set()
    for bi, branch in enumerate(sol.branches):
        for key in branch.subs.keys() & gated:
            moved = {**branch.subs, key: branch.subs[key] + delta}
            branches = list(sol.branches)
            branches[bi] = branch._replace(subs=moved)
            broken = sol._replace(branches=tuple(branches))
            assert any(value != 0 for value in residual_detail(broken).values()), key
            assert residual_verify(broken.potential, broken, QN) > (0.0 if exact else 1e-10), key
            moved_keys.add(str(key))
    # every unknown but gammat, which only the unmatched tail holds outside two families
    want = {str(k) for k in sol.branches[0].subs} - (
        set() if sol.family in ("confining", "coulomb") else {"gammat"})
    assert moved_keys == want


@pytest.mark.parametrize("make", FAMILY_POTENTIALS)
def test_every_relation_has_its_own_power(make):
    """One relation per power, so residual_detail has one entry per (branch,
    relation); the inverse sets -2, -3 -4 and -2 -4 once gave two relations
    at one power."""
    sol = match_coefficients(make(Fraction), QN)
    powers = [rel.power for rel in sol.relations]
    assert len(set(powers)) == len(powers)
    assert len(residual_detail(sol, matched_only=False)) == 2 * len(sol.relations)


# --- closed-form branch values against the division-based derivation --------


def _reference_branches(sol):
    """The branch values as the division-based derivation finds them: each value
    divided out of the relation that holds the one before it."""
    _a, _b, _g0, _gt, E, m = sp.symbols("a b gamma0 gammat E m")
    V, qn = sol.potential, sol.quantum_numbers
    q, A, J, n = V.coupling, V.coulomb_phase, qn.j_plus_half, qn.n_prime
    if sol.family == "coulomb":  # the surd path, not a closed form of the sign
        return sol.branches
    out = []
    for s in (1, -1):
        if sol.family == "confining":
            sigma = V.terms[1]
            b = s * I * q * sigma / 2
            a = q * sigma * E / (2 * b)
            gt = q * A * E / a
            out.append(AnsatzBranch(
                a=a, exp_coefficients={2: -b}, gamma=sp.expand(gt - 1 - n), n_prime=n,
                solver_vars={"b": b, "a": a, "gamma_plus_nu_plus_1": gt},
                subs={_a: a, _b: b, _gt: gt}))
            continue
        qA = q * A
        if sol.family == "oscillator":
            w2 = q * V.terms[2]
            b = s * I * w2 / 3
            g0 = -w2 * qA / (3 * b)
            named, subs, exp = {"b": b}, {_b: b}, {3: b}
        else:
            powers = sorted(V.terms, reverse=True)
            c = {p: q * V.terms[p] for p in powers}
            u = {powers[-1]: s * I * c[powers[-1]]}
            for hi, lo in zip(reversed(powers[:-1]), reversed(powers[1:])):
                u[hi] = -c[hi] * c[lo] / u[lo]
            g0 = -qA * c[powers[0]] / u[powers[0]]
            named = {chr(ord("b") + k): u[p] for k, p in enumerate(powers)}
            subs = {sp.Symbol(f"u{abs(p)}"): u[p] for p in powers}
            exp = {p + 1: u[p] / (p + 1) for p in powers}
        gt, a = g0 + n, sp.sqrt(m**2 - E**2)
        out.append(AnsatzBranch(
            a=a, exp_coefficients=exp, gamma=g0 - 1, n_prime=n,
            solver_vars={**named, "one_plus_gamma": g0, "a": a, "gamma_plus_nu_plus_1": gt,
                         "E_level": -m * gt / J},
            subs={_a: a, _g0: g0, _gt: gt, **subs}))
    return tuple(out)


INVERSE_POWERS = {"inverse-6-12": (-6, -12), "inverse-3-5": (-3, -5), "inverse-4": (-4,),
                  "inverse-2": (-2,), "inverse-3-4": (-3, -4), "inverse-2-4": (-2, -4)}
CLOSED_FORM_FAMILIES = ["confining", "coulomb", "oscillator", *INVERSE_POWERS, "from_dict",
                        "lennard-jones"]


def _closed_form_cases(family, exact, count):
    """``count`` seeded solutions of one family, with exact or 4-digit float inputs."""
    rng = random.Random(f"{family} {exact}")
    num = (lambda x: x) if exact else (lambda x: round(float(x), 4))

    def frac(hi=9):
        return Fraction(rng.randint(1, hi), rng.randint(1, 9))

    out = []
    for _ in range(count):
        qn = QuantumNumbers(Fraction(2 * rng.randint(0, 4) + 1, 2), rng.randint(0, 4))
        if family == "lennard-jones":
            out.append(lennard_jones_solution(I * num(frac()), num(frac(30)), num(frac(30)), qn))
            continue
        if family == "confining":
            V = PotentialSpec({1: num(frac(30))}, num(frac(20)), num(frac(20)))
        elif family == "coulomb":  # qA below j + 1/2; this seed draws no pole
            qa = Fraction(rng.randint(1, 99), 100) * qn.j_plus_half
            V = PotentialSpec({}, num(qa / 2), num(Fraction(2)))
        elif family == "oscillator":
            V = PotentialSpec({2: num(frac(30))}, I * num(frac()), num(frac()))
        elif family == "from_dict":
            def text(x):
                return str(x) if exact else f"{float(x):.4f}"
            power = rng.choice(("1", "2", "-2", "-4", "-6"))
            V = PotentialSpec.from_dict({"terms": {power: text(frac(30))},
                                         "coulombPhase": text(frac()), "q": text(frac())})
        else:
            terms = {p: num(rng.choice((1, -1)) * frac(30)) for p in INVERSE_POWERS[family]}
            V = PotentialSpec(terms, I * num(frac()))
        out.append(match_coefficients(V, qn))
    return out


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
def test_closed_forms_equal_the_division_derivation(family):
    """Exact inputs: the same sympy objects, and so the same report, as the divisions."""
    for sol in _closed_form_cases(family, exact=True, count=40):
        ref = sol._replace(branches=_reference_branches(sol))
        assert sol.branches == ref.branches, sol.potential
        assert json.dumps(sol.to_dict()) == json.dumps(ref.to_dict())


def _numeric(expr):
    """A complex value of expr, with every free symbol set to a fixed number."""
    values = {s: sp.Float(0.3 + 0.1 * k) for k, s in enumerate(sorted(expr.free_symbols, key=str))}
    return complex(sp.N(expr.xreplace(values)))


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
def test_closed_forms_match_the_division_derivation_on_floats(family):
    """Float inputs: every value within 1e-12 of the divisions (absolute near 0),
    and the gate still passes."""
    def close(got, want):
        g, w = _numeric(got), _numeric(want)
        return abs(g - w) <= 1e-12 * max(1.0, abs(w))

    for sol in _closed_form_cases(family, exact=False, count=10):
        for got, want in zip(sol.branches, _reference_branches(sol), strict=True):
            pairs = [(got.a, want.a), (got.gamma, want.gamma)]
            pairs += [(got.solver_vars[k], v) for k, v in want.solver_vars.items()]
            pairs += [(got.exp_coefficients[k], v) for k, v in want.exp_coefficients.items()]
            assert all(close(g, w) for g, w in pairs), sol.potential
        assert residual_verify(sol.potential, sol, sol.quantum_numbers) <= 1e-10


# --- the relations are the Laurent coefficients of the pointwise condition ---


def _condition(sol, r, values):
    """W(r)^2 + u(r)^2 - m^2 - J^2/r^2 from the ansatz of the spectra docstring,
    at the point r and the symbol values given by name."""
    V, J = sol.potential, sol.quantum_numbers.j_plus_half
    q, A = V.coupling, V.coulomb_phase
    a, b, g, E, m = (values[k] for k in ("a", "b", "g", "E", "m"))
    W, u = E + q * A / r, -a + g / r
    if sol.family == "confining":  # exponent -a r + b2 r^2 with b2 = -b
        W, u = W - q * V.terms[1] * r, u + 2 * -b * r
    elif sol.family == "oscillator":  # exponent -a r + b3 r^3 with b3 = b
        W, u = W + q * V.terms[2] * r**2, u + 3 * b * r**2
    elif sol.family == "inverse-multipole":  # exponent -a r + sum_p u_p r^(p+1) / (p+1)
        for p, c in V.terms.items():
            W, u = W + q * c * r**p, u + values[f"u{abs(p)}"] * r**p
    return W**2 + u**2 - m**2 - J**2 / r**2


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_relations_sum_to_the_pointwise_condition(family, exact):
    """With gamma0 = gammat = g, sum_k expr_k r^k is the condition itself, at a
    random rational r and random values of every symbol."""
    rng = random.Random(f"{family} {exact} condition")

    def rand():
        return Rational(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))

    for sol in _closed_form_cases(family, exact, count=10):
        r = rand()
        names = ["a", "b", "g", "E", "m", *(f"u{abs(p)}" for p in sol.potential.terms)]
        values = {name: rand() for name in names}
        symbols = {sp.Symbol(name): v for name, v in values.items()}
        symbols.update({sp.Symbol("gamma0"): values["g"], sp.Symbol("gammat"): values["g"]})
        got = sum(rel.expr.xreplace(symbols) * r**rel.power for rel in sol.relations)
        want = _condition(sol, r, values)
        if exact:
            assert sp.expand(got - want) == 0, sol.potential
        else:
            assert abs(complex(got - want)) <= 1e-9 * max(1.0, abs(complex(want))), sol.potential


PINNED_RELATIONS = {
    "confining": (PotentialSpec({1: Fraction(2)}, Fraction(3, 10), Fraction(2, 5)), [
        (2, "4*b**2 + 16/25", True, ""),
        (1, "-8*E/5 + 4*a*b", True, ""),
        (-1, "6*E/25 - 2*a*gammat", True, ""),
        (0, "E**2 + a**2 - 4*b*gammat - m**2 - 24/125", False,
         "left open by the three-equation solution"),
        (-2, "gammat**2 - 2491/625", False, "left open by the three-equation solution"),
    ]),
    # q**2 * sigma**2 and -2*q**2*sigma*A, not (q*sigma)**2 and 2*(-q*sigma)*(q*A),
    # which round to ...502 and -1.42694844574622
    "confining-float": (PotentialSpec({1: 1.1131}, 0.9095, 0.8395), [
        (2, "4*b**2 + 0.873192036811503", True, ""),
        (1, "-1.8688949*E + 4*a*b", True, ""),
        (-1, "1.5270505*E - 2*a*gammat", True, ""),
        (0, "E**2 + a**2 - 4*b*gammat - m**2 - 1.42694844574623", False,
         "left open by the three-equation solution"),
        (-2, "gammat**2 - 3.41702919261244", False, "left open by the three-equation solution"),
    ]),
    "coulomb": (PotentialSpec({}, Fraction(1, 10)), [
        (-2, "gamma0**2 - 399/100", True,
         "series head, nu = 0: the indicial condition fixing gamma"),
        (-1, "E/5 - 2*a*gammat", True, "series tail, nu = n'"),
        (0, "E**2 + a**2 - m**2", True, "fixes the level through m"),
    ]),
    "oscillator": (PotentialSpec({2: Fraction(3, 2)}, I / 2), [
        (4, "9*b**2 + 9/4", True, ""),
        (1, "6*b*gamma0 + 3*I/2", True, "series head, nu = 0"),
        (0, "E**2 + a**2 - m**2", True, ""),
        (-1, "I*E - 2*a*gammat", False,
         "tail equation; with 1/r^2 it eliminates to the level formula"),
        (-2, "gammat**2 - 17/4", False,
         "tail equation; with 1/r it eliminates to the level formula"),
        (2, "3*E - 6*a*b", False, "cross term left open by the printed derivation"),
    ]),
    # the head of -3 and the cross term of -4 share r^-4, which is left open
    "inverse-3-4": (PotentialSpec({-3: Fraction(1, 2), -4: Fraction(-3)}, I / 2), [
        (-8, "u4**2 + 9", True, ""),
        (-7, "2*u3*u4 - 3", True, ""),
        (-4, "-6*E - 2*a*u4 + 2*gamma0*u3 + I/2", False,
         "series head, nu = 0 + cross term left open by the printed derivation"),
        (-5, "2*gamma0*u4 - 3*I", True, "series head, nu = 0"),
        (0, "E**2 + a**2 - m**2", True, ""),
        (-1, "I*E - 2*a*gammat", False,
         "tail equation; with 1/r^2 it eliminates to the level formula"),
        (-2, "gammat**2 - 17/4", False,
         "tail equation; with 1/r it eliminates to the level formula"),
        (-3, "E - 2*a*u3", False, "cross term left open by the printed derivation"),
        (-6, "u3**2 + 1/4", True, ""),
    ]),
    # the tail and the cross term share r^-2
    "inverse-2": (PotentialSpec({-2: Fraction(5, 2)}, I / 2), [
        (-4, "u2**2 + 25/4", True, ""),
        (-3, "2*gamma0*u2 + 5*I/2", True, "series head, nu = 0"),
        (0, "E**2 + a**2 - m**2", True, ""),
        (-1, "I*E - 2*a*gammat", False,
         "tail equation; with 1/r^2 it eliminates to the level formula"),
        (-2, "5*E - 2*a*u2 + gammat**2 - 17/4", False,
         "tail equation; with 1/r it eliminates to the level formula"
         " + cross term left open by the printed derivation"),
    ]),
}


@pytest.mark.parametrize("name", PINNED_RELATIONS)
def test_relation_text_is_pinned(name):
    V, want = PINNED_RELATIONS[name]
    sol = match_coefficients(V, QuantumNumbers(Fraction(3, 2), 1))
    assert [(r.power, str(r.expr), r.matched, r.note) for r in sol.relations] == want


def test_branch_values_are_the_closed_forms():
    E = sp.Symbol("E")
    qn = QuantumNumbers(Fraction(3, 2), 1)
    # confining, q = 2/5, sigma = 1, A = 3/10: b = +-i q sigma/2, a = -+iE, gt = +-i q A
    sol = match_coefficients(strong_potential(), qn)
    for s, branch in zip((1, -1), sol.branches):
        assert branch.solver_vars == {"b": s * I / 5, "a": -s * I * E,
                                      "gamma_plus_nu_plus_1": s * 3 * I / 25}
        assert branch.gamma == -2 + s * 3 * I / 25
    # a float sigma leaves a and gamma exact
    sol = match_coefficients(PotentialSpec({1: 1.0}, Fraction(3, 10), Fraction(2, 5)), qn)
    assert [b.a for b in sol.branches] == [-I * E, I * E]
    assert not any(b.gamma.atoms(sp.Float) for b in sol.branches)
    # oscillator, A = i/5, q = 3/10, c2 = 10: b = +-i q c2/3, 1 + gamma = +-i q A
    sol = match_coefficients(PotentialSpec({2: 10}, I / 5, Fraction(3, 10)), qn)
    assert [b.solver_vars["b"] for b in sol.branches] == [I, -I]
    assert [b.solver_vars["one_plus_gamma"] for b in sol.branches] == [Rational(-3, 50),
                                                                      Rational(3, 50)]
    # inverse with float coefficients and an exact phase: u_p = +-i c_p, gamma exact
    sol = match_coefficients(PotentialSpec({-6: 0.5, -12: -0.25}, I / 5), qn)
    assert [(b.solver_vars["b"], b.solver_vars["c"]) for b in sol.branches] == [
        (0.5 * I, -0.25 * I), (-0.5 * I, 0.25 * I)]
    assert [b.gamma for b in sol.branches] == [Rational(-6, 5), Rational(-4, 5)]
    assert not any(b.gamma.atoms(sp.Float) for b in sol.branches)


@pytest.mark.parametrize("power,key,want", [
    (1, "gamma_plus_nu_plus_1", "I*(-2/7 + 2*I/15)"),
    (2, "one_plus_gamma", "I*(2/7 + 2*I/15)"),
    (-6, "one_plus_gamma", "I*(2/7 + 2*I/15)"),
])
def test_complex_phase_prints_as_i_times_q_a(power, key, want):
    """A c_{-1} term folded into an imaginary phase makes q A complex; the
    branch values then read i q A unexpanded, equal in value to the division
    forms."""
    V = PotentialSpec({power: 2, -1: Fraction(3, 7)}, I / 5, Fraction(2, 3))
    sol = match_coefficients(V, QN)
    assert [str(b.solver_vars[key]) for b in sol.branches] == [want, "-" + want]
    assert [str(b.gamma) for b in sol.branches] == ["-1 + " + want, "-1 - " + want]
    for branch, ref in zip(sol.branches, _reference_branches(sol), strict=True):
        for got, old in [(branch.gamma, ref.gamma), (branch.a, ref.a),
                         *((branch.solver_vars[k], v) for k, v in ref.solver_vars.items())]:
            assert sp.expand(got - old) == 0
    assert residual_verify(V, sol, QN) == 0.0


def test_float_inputs_bounded_residual():
    V = PotentialSpec({1: 1.0}, coulomb_phase=0.3, coupling=0.4)
    sol = match_coefficients(V, QN)
    assert residual_verify(V, sol, QN) <= 1e-10


# --- errors and detection ----------------------------------------------------


def test_unsupported_positive_power():
    with pytest.raises(UnsupportedPotentialError):
        match_coefficients(PotentialSpec({3: 1}, coulomb_phase=1), QN)


def test_mixed_positive_powers_inconsistent():
    with pytest.raises(InconsistentSystemError) as err:
        match_coefficients(PotentialSpec({1: 1, 2: 1}, coulomb_phase=1), QN)
    assert err.value.power == 3


def test_constant_term_rejected():
    with pytest.raises(UnsupportedPotentialError):
        match_coefficients(PotentialSpec({0: 1, 1: 1}, coulomb_phase=1), QN)


def test_empty_potential_rejected():
    with pytest.raises(UnsupportedPotentialError):
        match_coefficients(PotentialSpec({}), QN)


def test_potential_json_roundtrip():
    V = strong_potential()
    assert PotentialSpec.from_dict(V.to_dict()).normalized() == V.normalized()


@pytest.mark.parametrize("text,value", [
    ("1/2i", I / 2), ("0.5j", I / 2), ("i", I), ("-3/4", Fraction(-3, 4)),
    ("2.5e-1", Fraction(1, 4)), (" 7 ", Fraction(7)), (3, Fraction(3)),
])
def test_potential_coefficient_literals_are_exact(text, value):
    assert PotentialSpec.from_dict({"terms": {"2": text}}).terms[2] == value


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", float("nan"), "1/0", "1/0i", "sqrt(2)",
                                  "pi", "x", ""])
def test_potential_coefficient_rejects_non_rational(text):
    with pytest.raises(ValueError, match="expected a rational number"):
        PotentialSpec.from_dict({"terms": {"1": text}})


@pytest.mark.parametrize("key", ["x", "1.5"])
def test_potential_power_must_be_an_integer(key):
    """int() once leaked its own message: invalid literal for int() with base 10."""
    with pytest.raises(ValueError, match=rf"^a power must be an integer, got '{key}'$"):
        PotentialSpec.from_dict({"terms": {key: "1"}})


@pytest.mark.parametrize("doc", [[], 1, "x", {"terms": []}, {"terms": "1"}])
def test_potential_document_must_be_an_object(doc):
    with pytest.raises(ValueError, match="is an object"):
        PotentialSpec.from_dict(doc)


def test_imaginary_pure_coulomb_phase_rejected():
    with pytest.raises(UnsupportedPotentialError, match="real q A"):
        match_coefficients(PotentialSpec({}, coulomb_phase=I / 2), QN)


@pytest.mark.parametrize("V", [
    PotentialSpec({1: 1}, coulomb_phase=Rational(1, 3), coupling=0),
    PotentialSpec({2: Rational(1, 2)}, coulomb_phase=I / 2, coupling=0),
    PotentialSpec({-6: 1, -12: -1}, coulomb_phase=I / 2, coupling=0),
])
def test_zero_coupling_is_rejected(V):
    with pytest.raises(UnsupportedPotentialError, match="zero coupling q"):
        match_coefficients(V, QN)


@pytest.mark.parametrize("A,q,j,n", [(3, 1, Rational(9, 2), 4), (4, 1, Rational(9, 2), 3),
                                     (1, 0, Rational(1, 2), 1)])
def test_coulomb_pole_is_rejected(A, q, j, n):
    """n' = sqrt((j+1/2)^2 - (qA)^2) zeroes gamma + n' + 1 on the second branch."""
    with pytest.raises(UnsupportedPotentialError, match="pole"):
        match_coefficients(PotentialSpec({}, coulomb_phase=A, coupling=q), QuantumNumbers(j, n))


@pytest.mark.parametrize("value", [sp.nan, sp.zoo, sp.zoo * sp.Symbol("E"),
                                   sp.Symbol("E") + sp.nan * sp.Symbol("E") ** 2])
def test_non_finite_residual_is_infinite(value):
    assert _residual_magnitude(value) == math.inf


def test_nan_branch_fails_the_residual_gate():
    """A branch holding nan (as q = 0 once gave) can no longer report residual 0."""
    sol = match_coefficients(PotentialSpec({1: 1}, coulomb_phase=Rational(1, 3)), QN)
    broken = sol._replace(branches=tuple(
        b._replace(subs={**b.subs, next(iter(b.subs)): sp.nan}) for b in sol.branches))
    assert residual_verify(sol.potential, sol, QN) == 0.0
    assert residual_verify(broken.potential, broken, QN) == math.inf


def test_explicit_inverse_first_term_folds_into_phase():
    # a c_{-1} term rides along with the phase, negatively for confining
    V = PotentialSpec.from_dict({"terms": {"1": "1", "-1": "3/10"}, "coulombPhase": "0", "q": "2/5"})
    sol = match_coefficients(V, QN)
    assert sol.family == "confining"
    assert sol.potential.coulomb_phase == -Rational(3, 10)
    assert residual_verify(V, sol, QN) == 0.0


# --- infrared radius and flux-tube geometry ----------------------------------


def test_infrared_radius_reduced_mass_reading():
    assert infrared_radius(0.75, 0.4, 1.0) == pytest.approx(3.75)


def test_infrared_radius_full_mass_reading():
    assert infrared_radius(1.5, 0.4, 1.0) == pytest.approx(7.5)


def test_infrared_radius_linear():
    assert infrared_radius(2.0, 0.5, 2.0) == 2 * infrared_radius(1.0, 0.5, 2.0)


def test_infrared_radius_positive_coupling():
    with pytest.raises(ValueError):
        infrared_radius(1.0, 0.0, 1.0)


@pytest.mark.parametrize("E", [0.0, -1.0, -0.75, float("nan")])
def test_infrared_radius_needs_a_positive_energy(E):
    """E = -1 gave the radius -2 fm, and E = 0 gave 0."""
    with pytest.raises(ValueError, match="energy E must be positive"):
        infrared_radius(E, 0.4, 1.0)


def test_lmin_equilateral():
    assert lmin(1, 1, 1) == pytest.approx(math.sqrt(3), abs=1e-14)
    # three spokes to the symmetric centre: 3 r with r = a/sqrt(3)
    assert lmin(1, 1, 1) == pytest.approx(3 * 1 / math.sqrt(3), abs=1e-14)


def test_lmin_degenerate():
    assert lmin(0, 0, 0) == 0.0
    a, b = 1.0, 2.0
    # collinear charges: the middle one is the Fermat point
    assert lmin(a, b, a + b) == pytest.approx(a + b)


def test_lmin_symmetric_and_scaling():
    import itertools
    sides = (2.0, 3.0, 4.0)
    vals = {round(lmin(*perm), 12) for perm in itertools.permutations(sides)}
    assert len(vals) == 1
    assert lmin(4.0, 6.0, 8.0) == pytest.approx(2 * lmin(2.0, 3.0, 4.0))


def _weiszfeld_minimum(a, b, c):
    """Numeric Fermat-Torricelli minimum (Weiszfeld 1937) for the triangle
    with sides a, b, c: the iteration from the centroid, compared against each
    vertex, where it stalls when an angle is 120 degrees or more."""
    x = (a * a + b * b - c * c) / (2 * a)
    pts = ((0.0, 0.0), (a, 0.0), (x, math.sqrt(max(b * b - x * x, 0.0))))

    def total(px, py):
        return sum(math.hypot(px - qx, py - qy) for qx, qy in pts)

    px, py = sum(p[0] for p in pts) / 3, sum(p[1] for p in pts) / 3
    for _ in range(2000):
        ws = [1.0 / max(math.hypot(px - qx, py - qy), 1e-300) for qx, qy in pts]
        nx = sum(w * q[0] for w, q in zip(ws, pts)) / sum(ws)
        ny = sum(w * q[1] for w, q in zip(ws, pts)) / sum(ws)
        if math.hypot(nx - px, ny - py) < 1e-15:
            break
        px, py = nx, ny
    return min([total(px, py)] + [total(qx, qy) for qx, qy in pts])


@settings(max_examples=200)
@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(1.0, 179.0))
def test_lmin_matches_weiszfeld(a, b, angle_deg):
    c = math.sqrt(a * a + b * b - 2 * a * b * math.cos(math.radians(angle_deg)))
    assert lmin(a, b, c) == pytest.approx(_weiszfeld_minimum(a, b, c), rel=1e-6)


def test_lmin_triangle_inequality():
    with pytest.raises(ValueError):
        lmin(1, 1, 3)
