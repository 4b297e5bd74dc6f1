"""Coefficient-matching solver: families, branches, residuals, geometry.

The solver builds on its own exact kernel; sympy serves here as the
reference.  A solver value is bridged to sympy by reading back its printed
text (``_sym``), and ``sympy_reference`` rebuilds each solution the way the
solver built it on sympy.
"""

import cmath
import collections
import decimal
import importlib.util
import json
import math
import random
import re
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings
import hypothesis.strategies as st
from sympy import I, Rational

import sympy_reference as reference
from nilpotent import spectra
from nilpotent.algebra import MV, Multivector, blade_name, gamma_pentad, parse_blade
from nilpotent.exact import Expr, _I, _Kernel, _MASK, _ROOT, _float_text, _lowest, _values
from nilpotent.geometry import infrared_radius, lmin
from nilpotent.spectra import (
    AnsatzBranch,
    AnsatzSolution,
    InconsistentSystemError,
    PotentialSpec,
    QuantumNumbers,
    SupercriticalCouplingError,
    UnsupportedPotentialError,
    coulomb_levels,
    lennard_jones_solution,
    match_coefficients,
    oscillator_levels,
    residual_detail,
    residual_verify,
)
from nilpotent.states import _MASS_UNIT

QN = QuantumNumbers(Fraction(1, 2), 0)


_SYMBOLS = {"E": sp.Symbol("E")}  # not Euler's number


def _sym(x):
    """A solver value as a sympy expression, read back from its printed text."""
    return sp.sympify(str(x), locals=_SYMBOLS) if isinstance(x, Expr) else sp.sympify(x)


# the relations' names of the two report keys that do not name their unknown;
# E_level names none
_UNKNOWN = {"one_plus_gamma": "gamma0", "gamma_plus_nu_plus_1": "gammat"}


def _unknowns(branch):
    """A branch's values keyed by the names of the unknowns of its relations."""
    return {_UNKNOWN.get(key, key): value for key, value in branch.solver_vars.items()
            if key != "E_level"}


def _sym_subs(branch):
    """A branch's substitution map, keyed and valued by sympy objects."""
    return {sp.Symbol(name): _sym(value) for name, value in _unknowns(branch).items()}


def _names(x):
    """The names of the symbols a solver value holds."""
    return {str(s) for s in _sym(x).free_symbols}


def test_quantum_numbers_repr_names_each_field():
    assert repr(QuantumNumbers(Fraction(3, 2), 2)) == "QuantumNumbers(j=Fraction(3, 2), n_prime=2)"


def _branch_var(sol, key):
    return {sp.simplify(_sym(b.solver_vars[key])) for b in sol.branches}


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
        if sp.simplify(_sym(b.solver_vars["b"]) - I * q * sigma / 2) == 0:
            assert sp.simplify(_sym(b.solver_vars["a"]) + I * E) == 0


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
        gt = _sym(branch.solver_vars["gamma_plus_nu_plus_1"])
        m_over_e = sp.sqrt(1 + (sp.nsimplify(qa) / gt) ** 2)
        assert abs(float(1 / m_over_e) - coulomb_levels(qa, j, n)) < 1e-12


def test_coulomb_surd_of_a_large_rational():
    """sqrt((j+1/2)^2 - (qA)^2) with a 31-digit denominator: the square part of
    a 61-digit numerator is found by bounded trial division."""
    q = 10**30 + 1
    for n in (0, 1):
        qn = QuantumNumbers(Fraction(1, 2), n)
        sol = match_coefficients(PotentialSpec({}, Fraction(1, q)), qn)
        assert residual_verify(sol.potential, sol, qn) == 0.0
        assert _sym(sol.branches[0].solver_vars["one_plus_gamma"]) == sp.sqrt(1 - Rational(1, q**2))


def _decimal_level(qa: Fraction, j, n) -> decimal.Decimal:
    """E/m = (sqrt(d) + n') / sqrt((sqrt(d) + n')^2 + q^2 A^2), d = (j+1/2)^2 - q^2 A^2,
    in 50-digit decimals from the exact q A."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        qa2 = decimal.Decimal(qa.numerator ** 2) / qa.denominator ** 2
        J = decimal.Decimal(int(2 * j + 1)) / 2
        gt = (J * J - qa2).sqrt() + n
        return gt / (gt * gt + qa2).sqrt()


@pytest.mark.parametrize("qa", ["0.99999999999999999999", "0.99999999999999994", "0.9999999",
                                "299/300", "1/10"])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_exact_coupling_keeps_its_level_up_to_the_critical_one(qa, n):
    """The level reads the branches' exact discriminant: a q A that rounds to
    the critical 1.0 as a float once refused a real level, and 1 - 6e-17 lost
    36 % of it to cancellation."""
    got = coulomb_levels(Fraction(qa), Fraction(1, 2), n)
    assert got == pytest.approx(float(_decimal_level(Fraction(qa), Fraction(1, 2), n)), rel=1e-12)


@settings(max_examples=300)
@given(st.floats(0, 12), st.integers(0, 4), st.integers(0, 4))
def test_float_coupling_keeps_the_float_formula(qa, k, n):
    """A float q A reads (j+1/2)^2 - q^2 A^2 in floats, as the level series
    always did: bit for bit, refusals included."""
    j = Fraction(2 * k + 1, 2)
    J = float(j) + 0.5
    if qa * qa >= J * J:
        with pytest.raises(SupercriticalCouplingError):
            coulomb_levels(qa, j, n)
        return
    gt = math.sqrt(J * J - qa * qa) + n
    assert coulomb_levels(qa, j, n) == (1.0 + (qa * qa) / (gt * gt)) ** -0.5


@pytest.mark.parametrize("qa", [Fraction(1), 1.0, Fraction(3, 2), Fraction(10**3000)])
def test_branches_and_levels_refuse_one_coupling_alike(qa):
    """One discriminant and one refusal, a short line for a q A of any size:
    the message once formatted q^2 A^2 whole, past the interpreter's limit for
    printing an int."""
    with pytest.raises(SupercriticalCouplingError) as levels:
        coulomb_levels(qa, Fraction(1, 2), 0)
    with pytest.raises(SupercriticalCouplingError) as branches:
        match_coefficients(PotentialSpec({}, qa), QN)
    assert str(levels.value) == str(branches.value)
    assert "supercritical" in str(levels.value) and len(str(levels.value)) < 100


def test_nan_coupling_has_no_level():
    """A nan q A once gave the level nan; the branches refused it already."""
    for solve in (lambda: coulomb_levels(math.nan, Fraction(1, 2), 0),
                  lambda: match_coefficients(PotentialSpec({}, math.nan), QN)):
        with pytest.raises(ValueError):
            solve()


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
    assert _branch_var(sol, "u2") == {3 * I / 2, -3 * I / 2}  # +-ic/2
    assert _branch_var(sol, "one_plus_gamma") == {Rational(1, 2), -Rational(1, 2)}  # +-iA
    for b in sol.branches:
        assert sp.simplify(_sym(b.solver_vars["a"]) - sp.sqrt(sp.Symbol("m") ** 2 - sp.Symbol("E") ** 2)) == 0
    assert residual_verify(V, sol, QN) == 0.0


def test_oscillator_levels_examples():
    assert oscillator_levels(1, Fraction(1, 2), 0) == Fraction(-1, 2)
    assert oscillator_levels(1, Fraction(1, 2), 1) == Fraction(-3, 2)
    assert oscillator_levels(0, Fraction(1, 2), 0) == 0


@pytest.mark.parametrize("m,j,want", [(1.0, Fraction(1, 2), -1.5), (2, 1.5, -1.5), (0.5, 0.5, -0.75),
                                       (Fraction(1, 3), Fraction(1, 2), Fraction(-1, 2))])
def test_oscillator_level_of_a_float_mass_or_j_is_a_float(m, j, want):
    """n' = 1: an exact m and j give the exact quotient, a float either a float."""
    got = oscillator_levels(m, j, 1)
    assert got == want and type(got) is type(want)


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


_FLOAT = st.floats(-10, 10, allow_subnormal=False).filter(bool)


@settings(max_examples=200)
@given(_FLOAT, _FLOAT, _FLOAT, st.integers(0, 3), st.integers(0, 4))
def test_float_oscillator_residual_is_exactly_zero(c2, q, a, k, n):
    """u2 = s i q c2 and 1 + gamma = s i q A divide nothing out of another, so
    float inputs leave no rounding in the gate."""
    qn = QuantumNumbers(Fraction(2 * k + 1, 2), n)
    V = PotentialSpec({2: c2}, I * a, q)
    assert residual_verify(V, match_coefficients(V, qn), qn) == 0.0


@settings(max_examples=200)
@given(st.floats(0.1, 10), st.floats(0.01, 3), st.floats(-5, 5), st.integers(0, 3),
       st.integers(0, 4))
def test_float_confining_residual_is_exactly_zero(sigma, q, A, k, n):
    """The r^2 relation and b = s i w/2 read the one product w = q sigma, so
    float inputs leave no rounding in the gate; q**2 * sigma**2 in the
    relation once left up to 2e-13 against (q sigma/2)**2 in b."""
    qn = QuantumNumbers(Fraction(2 * k + 1, 2), n)
    V = PotentialSpec({1: sigma}, A, q)
    assert residual_verify(V, match_coefficients(V, qn), qn) == 0.0


# --- Lennard-Jones / inverse multipole --------------------------------------


def test_lennard_jones_opposite_signs():
    sol = lennard_jones_solution(I / 2, 1, 1, QN)
    assert sol.family == "inverse-multipole"
    pairs = {(sp.simplify(_sym(b.solver_vars["u6"])), sp.simplify(_sym(b.solver_vars["u12"])))
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


# --- what the oscillator-type level series rests on ---------------------------

_m = sp.Symbol("m")
# {(n', branch): (1/r tail, 1/r^2 tail)} at E = E_level and a = sqrt(m^2 - E^2);
# without a c_{-2} term the 1/r^2 tail is n'(n' + 2 gamma0) - (j+1/2)^2 at any E
_TAILS_HALF_I = {
    (0, 0): (I * _m / 2 + sp.sqrt(3) * sp.sqrt(_m**2) / 2, -1),
    (0, 1): (-I * _m / 2 - sp.sqrt(3) * sp.sqrt(_m**2) / 2, -1),
    (1, 0): (-I * _m / 2 - sp.sqrt(3) * sp.sqrt(_m**2) / 2, -1),
    (1, 1): (-3 * I * _m / 2 - 3 * sp.sqrt(5) * sp.sqrt(-_m**2) / 2, 1),
}
LEVEL_TAILS = [
    ("oscillator, phase i/2", PotentialSpec({2: Fraction(1, 2)}, I / 2), _TAILS_HALF_I),
    ("oscillator, phase 1/3", PotentialSpec({2: Fraction(1, 2)}, Rational(1, 3)), {
        (0, 0): (2 * I * (-_m - sp.sqrt(10) * sp.sqrt(_m**2)) / 9, -1),
        (0, 1): (2 * I * (_m + sp.sqrt(10) * sp.sqrt(_m**2)) / 9, -1),
        (1, 0): (2 * (-3 - I) * (_m + sp.sqrt(_m**2 * (1 - 6 * I))) / 9, 2 * I / 3),
        (1, 1): (2 * (-3 + I) * (_m + sp.sqrt(_m**2 * (1 + 6 * I))) / 9, -2 * I / 3),
    }),
    ("inverse -6", PotentialSpec({-6: 1}, I / 2), _TAILS_HALF_I),
    ("inverse -2", PotentialSpec({-2: Fraction(5, 2)}, I / 2), {
        (0, 0): (_TAILS_HALF_I[0, 0][0], 5 * _m / 2 - 5 * sp.sqrt(3) * I * sp.sqrt(_m**2) / 2 - 1),
        (0, 1): (_TAILS_HALF_I[0, 1][0], -5 * _m / 2 + 5 * sp.sqrt(3) * I * sp.sqrt(_m**2) / 2 - 1),
        (1, 0): (_TAILS_HALF_I[1, 0][0], -5 * _m / 2 - 5 * sp.sqrt(3) * I * sp.sqrt(_m**2) / 2 - 1),
        (1, 1): (_TAILS_HALF_I[1, 1][0],
                 -15 * _m / 2 + 5 * sp.sqrt(5) * I * sp.sqrt(-_m**2) / 2 + 1),
    }),
    ("lennard-jones", PotentialSpec({-6: 1, -12: -1}, I / 2), _TAILS_HALF_I),
    ("inverse -3 -4", PotentialSpec({-3: 1, -4: 1}, I / 2), _TAILS_HALF_I),
]


@pytest.mark.parametrize("V,tails", [case[1:] for case in LEVEL_TAILS],
                         ids=[case[0] for case in LEVEL_TAILS])
def test_level_series_leaves_the_tails_nonzero(V, tails):
    """The level is the paper's elimination, not a root of the 1/r and 1/r^2
    relations: pinned at j = 1/2, n' = 0 and 1, on both branches."""
    E = sp.Symbol("E")
    for n in (0, 1):
        sol = match_coefficients(V, QuantumNumbers(Fraction(1, 2), n))
        rel = {r.power: _sym(r.expr) for r in sol.relations}
        for bi, branch in enumerate(sol.branches):
            level = {E: _sym(branch.solver_vars["E_level"])}
            for power, want in zip((-1, -2), tails[n, bi]):
                got = rel[power].xreplace(_sym_subs(branch)).xreplace(level)
                assert sp.simplify(got - want) == 0, (n, bi, power, sp.simplify(got))


@pytest.mark.parametrize("q", [1, Fraction(3, 5)])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_c_minus_2_shifts_the_centrifugal_term(q, n):
    """With a = E qA / gammat, the root of the 1/r tail, the merged 1/r^2
    relation of c_{-2}/r^2 is qA^2 + gammat^2 - J^2 + 2 c E n' / gammat, with
    c = q c_{-2}: the cross term drops out at n' = 0 only."""
    a, _, _, gt, E, _ = sp.symbols("a b gamma0 gammat E m")
    sol = match_coefficients(PotentialSpec({-2: Fraction(5, 2)}, I / 2, q),
                             QuantumNumbers(Fraction(1, 2), n))
    qA = _sym(sol.potential.coupling * sol.potential.coulomb_phase)
    c = _sym(sol.potential.coupling * sol.potential.terms[-2])
    J = _sym(sol.quantum_numbers.j_plus_half)
    rel = {r.power: _sym(r.expr) for r in sol.relations}
    for branch in sol.branches:
        g = _sym(branch.solver_vars["gamma_plus_nu_plus_1"])
        subs = {**_sym_subs(branch), a: E * qA / g}
        assert sp.expand(rel[-1].xreplace(subs)) == 0
        assert sp.expand(rel[-2].xreplace(subs) - (qA**2 + g**2 - J**2 + 2 * c * E * n / g)) == 0


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


_SET_FAMILIES = ("confining", "coulomb", "oscillator", "inverse", "lennard-jones", "from_dict")


def _potential_set(seed, count=48):
    """(family, solution, qn, exact) for a seeded set of potentials: the four
    families, lennard_jones_solution and from_dict in turn, exact and float in
    turn.  from_dict parses its 4-digit decimals exactly, so its inputs are
    all exact."""
    rng = random.Random(seed)

    def frac(hi=9):
        return Fraction(rng.randint(1, hi), rng.randint(1, 9))

    out = []
    for k in range(count):
        family = _SET_FAMILIES[k % len(_SET_FAMILIES)]
        exact = k // len(_SET_FAMILIES) % 2 == 0
        num = (lambda x: x) if exact else (lambda x: round(float(x), 4))
        qn = QuantumNumbers(Fraction(2 * rng.randint(0, 2) + 1, 2), rng.randint(0, 3))
        if family == "lennard-jones":
            sol = lennard_jones_solution(I * num(frac()), num(frac()), num(frac()), qn)
        elif family == "from_dict":
            def text(x):
                return str(x) if exact else f"{float(x):.4f}"
            V = PotentialSpec.from_dict({
                "terms": {rng.choice(("1", "2", "-2", "-4", "-6")): text(frac(30))},
                "coulombPhase": text(frac()), "q": text(frac())})
            sol, exact = match_coefficients(V, qn), True
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


def _sympy_magnitude(value):
    """The sympy gate's reading of an expanded residual: its largest Poly
    coefficient magnitude over its free symbols, or over generators found
    from it when a surd of them is left; inf if one is not finite."""
    if value == 0:
        return 0.0
    free = sorted(value.free_symbols, key=str)
    try:
        coeffs = sp.Poly(value, *free).coeffs() if free else [value]
    except sp.PolynomialError:
        coeffs = sp.Poly(value).coeffs()
    mags = [abs(complex(sp.N(c))) for c in coeffs]
    return max(mags) if all(map(math.isfinite, mags)) else math.inf


def _reference(sol):
    """``sol`` as the solver built it on sympy, for the same potential and quantum numbers."""
    return reference.match_coefficients(sol.potential, sol.quantum_numbers)


def _sympy_gate(sol):
    """The gate as sympy ran it, on the reference solution: each branch
    substituted by xreplace, each matched relation expanded once and read by
    _sympy_magnitude."""
    sol = _reference(sol)
    return max(
        _sympy_magnitude(sp.expand(rel.expr.xreplace(_sym_subs(branch))))
        for branch in sol.branches
        for rel in sol.relations
        if rel.matched
    )


def _reference_residual(sol):
    """The gate by subs, simplify and expand on the reference solution: what
    the kernel gate must equal."""
    sol = _reference(sol)
    return max(
        _sympy_magnitude(sp.expand(sp.simplify(rel.expr.subs(_sym_subs(branch)))))
        for branch in sol.branches
        for rel in sol.relations
        if rel.matched
    )


def _kernel_magnitude(build):
    """The gate's reading of the value ``build(kernel, E, m)`` on a new kernel;
    inf where the kernel refuses to build it."""
    kernel = _Kernel()
    try:
        value = build(kernel, kernel.symbol("E"), kernel.symbol("m"))
    except TypeError:
        return math.inf
    return kernel.magnitude(kernel.reading(value))


def test_branch_values_hold_no_substituted_symbol():
    """The kernel substitutes each key once, as xreplace does: right only when
    no value holds a key of its map."""
    for _, sol, _, _ in _potential_set(5):
        for branch in sol.branches:
            values = _unknowns(branch)
            keys = set(values)
            for value in values.values():
                assert not _names(value) & keys, (sol.potential, value)


def test_residual_gate_agrees_with_the_simplify_reference():
    cases = _potential_set(11)
    assert len({(family, exact) for family, _, _, exact in cases}) == 11
    for family, sol, qn, exact in cases:
        got, want = residual_verify(sol.potential, sol, qn), _reference_residual(sol)
        if exact:
            assert got == want == 0.0, (family, sol.potential, qn)
        else:
            assert got <= 1e-10 and want <= 1e-10, (family, sol.potential, qn, got, want)


@pytest.mark.parametrize("seed", [3, 17])
def test_kernel_gate_agrees_with_the_sympy_gate(seed):
    """The kernel against the xreplace/expand/Poly gate it replaced, run on the
    sympy-built reference, on every family, exact and float; no relation or
    branch value of a solution reaches the kernel's inf branch."""
    for family, sol, qn, exact in _potential_set(seed):
        got, want = residual_verify(sol.potential, sol, qn), _sympy_gate(sol)
        if exact:
            assert got == want == 0.0, (family, sol.potential, qn)
        else:
            assert got <= 1e-10 and want <= 1e-10, (family, sol.potential, qn, got, want)
        kernel = sol.relations[0].expr.kernel
        for value in [*(rel.expr for rel in sol.relations),
                      *(value for branch in sol.branches for value in branch.solver_vars.values())]:
            coefficients = _values(kernel.reading(value)).values()
            assert all(map(cmath.isfinite, map(complex, coefficients))), value
        assert all(map(math.isfinite, residual_detail(sol, matched_only=False).values()))


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
    """Each printed branch value that a matched relation holds, moved by 1e-6 on
    its own, fails the gate: no false pass in any family, and no value left
    ungated where groups of the derivation merge on one power."""
    num, delta = (Fraction, Fraction(1, 10**6)) if exact else (float, 1e-6)
    sol = match_coefficients(make(num), QN)
    assert residual_verify(sol.potential, sol, QN) <= (0.0 if exact else 1e-10)
    if exact:  # residual_detail's values are float magnitudes, 0.0 before any move
        assert not any(residual_detail(sol).values())
    gated = set().union(*(_names(rel.expr) for rel in sol.relations if rel.matched))
    moved_keys = set()
    for bi, branch in enumerate(sol.branches):
        for key, value in branch.solver_vars.items():
            if _UNKNOWN.get(key, key) not in gated:
                continue
            moved = {**branch.solver_vars, key: value + delta}
            branches = list(sol.branches)
            branches[bi] = branch._replace(solver_vars=moved)
            broken = sol._replace(branches=tuple(branches))
            assert any(value != 0 for value in residual_detail(broken).values()), key
            assert residual_verify(broken.potential, broken, QN) > (0.0 if exact else 1e-10), key
            moved_keys.add(_UNKNOWN.get(key, key))
    # every unknown but gammat, which only the unmatched tail holds outside two families
    want = set(_unknowns(sol.branches[0])) - (
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


# E and m given as a number, the four families by four kinds of number
GIVEN_VALUES = [pytest.param(2, id="int"), pytest.param(Fraction(1, 3), id="fraction"),
                pytest.param(1 + 1j, id="complex"),
                pytest.param(Rational(1, 2) + I / 3, id="sympy")]


@pytest.mark.parametrize("value", GIVEN_VALUES)
@pytest.mark.parametrize("name", ["E", "m"])
@pytest.mark.parametrize("make", FAMILY_POTENTIALS[:4])
def test_a_given_E_or_m_enters_the_solve(make, name, value):
    """A caller's E or m joins the solve's kernel as the potential's
    coefficients do: a rational m once met int - Expr, which had no __rsub__,
    and a complex E or m with two nonzero parts belonged to no solve."""
    sol = match_coefficients(make(Fraction), QN, **{name: value})
    json.dumps(sol.to_dict())
    bound = 1e-10 if isinstance(value, complex) else 0.0
    assert residual_verify(sol.potential, sol, QN) <= bound


# --- closed-form branch values against the division-based derivation --------


def _reference_branches(sol):
    """The branch values as the division-based derivation finds them on sympy:
    each value divided out of the relation that holds the one before it."""
    E, m = sp.symbols("E m")
    V, qn = reference._normalized(sol.potential), sol.quantum_numbers
    q, A, J, n = V.coupling, V.coulomb_phase, reference._j_plus_half(qn), qn.n_prime
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
                exp_coefficients={2: -b}, gamma=sp.expand(gt - 1 - n), n_prime=n,
                solver_vars={"b": b, "a": a, "gamma_plus_nu_plus_1": gt}))
            continue
        # the oscillator and the inverse multipoles: u holds u_p r^p per power
        powers = sorted(V.terms, reverse=True)
        c = {p: q * V.terms[p] for p in powers}
        u = {powers[-1]: s * I * c[powers[-1]]}
        for hi, lo in zip(reversed(powers[:-1]), reversed(powers[1:])):
            u[hi] = -c[hi] * c[lo] / u[lo]
        g0 = -q * A * c[powers[0]] / u[powers[0]]
        gt, a = g0 + n, sp.sqrt(m**2 - E**2)
        out.append(AnsatzBranch(
            exp_coefficients={p + 1: u[p] / (p + 1) for p in powers}, gamma=g0 - 1, n_prime=n,
            solver_vars={**{f"u{abs(p)}": u[p] for p in powers}, "one_plus_gamma": g0, "a": a,
                         "gamma_plus_nu_plus_1": gt, "E_level": -m * gt / J}))
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
    """Exact inputs: the same branch values as the divisions built on sympy,
    each printed value equal to sympy's in value (sympy keeps a product of a
    sum unexpanded), and the rest of the report byte for byte."""
    for sol in _closed_form_cases(family, exact=True, count=40):
        ref = sol._replace(branches=_reference_branches(sol))
        moved = _moved_leaves(sol.to_dict(), ref.to_dict())
        assert all(path.startswith(".branches.") for path in moved), (sol.potential, moved)
        for got, want in zip(sol.branches, ref.branches, strict=True):
            got, want = _sym_subs(got), _sym_subs(want)
            assert got.keys() == want.keys()
            assert all(sp.expand(got[k] - want[k]) == 0 for k in got)


def _numeric(expr):
    """A complex value of expr, with every free symbol set to a fixed number."""
    expr = _sym(expr)
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
            pairs = [(got.gamma, want.gamma)]
            pairs += [(got.solver_vars[k], v) for k, v in want.solver_vars.items()]
            pairs += [(got.exp_coefficients[k], v) for k, v in want.exp_coefficients.items()]
            assert all(close(g, w) for g, w in pairs), sol.potential
        assert residual_verify(sol.potential, sol, sol.quantum_numbers) <= 1e-10


# --- the relations are the Laurent coefficients of the pointwise condition ---


def _gaussian(z):
    """A solver value or a sympy rational as a multivector: its real part on
    the scalar blade and its imaginary part on the central i blade, a float
    as its exact Fraction (a Gaussian constant Expr holds terms in 1 and I only)."""
    if isinstance(z, Expr):
        terms = _values(z.poly)
        parts = {0: terms.get(0, 0), parse_blade("i"): terms.get(1, 0)}
    else:
        parts = {0: Fraction(int(z.p), int(z.q)) if isinstance(z, sp.Rational) else z}
    return Multivector({k: Fraction(v) for k, v in parts.items()})


def _condition(sol, r, values):
    """The pointwise condition as the algebra gives it, at the point r and the
    symbol values given by name: (X+^2 + X-^2)/2 with X+- = W g0 + (-i u +- J/r) g1
    + m qj, g0 and g1 from the pinned pentad and the states' mass unit, which is
    W^2 + u^2 - m^2 - J^2/r^2 when the three anticommute.  W and u follow the
    ansatz of the spectra docstring, each input entering exactly (a float as
    its Fraction); the blades other than 1 and i must cancel."""
    V = sol.potential
    q, A, J = map(_gaussian, (V.coupling, V.coulomb_phase, sol.quantum_numbers.j_plus_half))
    a, b, g, E, m = (_gaussian(values[k]) for k in ("a", "b", "g", "E", "m"))
    r = Fraction(int(r.p), int(r.q))
    W, u = E + q * A * (1 / r), -a + g * (1 / r)
    if sol.family == "confining":  # exponent -a r + b2 r^2 with b2 = -b
        W, u = W - q * _gaussian(V.terms[1]) * r, u - b * (2 * r)
    else:  # exponent -a r + sum_p u_p r^(p+1) / (p+1), no term for coulomb
        for p, c in V.terms.items():
            W, u = W + q * _gaussian(c) * r**p, u + _gaussian(values[f"u{abs(p)}"]) * r**p
    g0, g1 = gamma_pentad("mapping-2")[:2]
    X = [W * g0 + (-(MV("i") * u) + J * (s / r)) * g1 + m * _MASS_UNIT for s in (1, -1)]
    half = (X[0] * X[0] + X[1] * X[1]) * Fraction(1, 2)
    rest = {blade_name(k): c for k, c in half.blades().items() if k not in (0, parse_blade("i"))}
    assert not rest, (sol.potential, rest)
    re, im = half.scalar_part, half.coefficient("i")
    return Rational(re.numerator, re.denominator) + I * Rational(im.numerator, im.denominator)


@pytest.mark.parametrize("family", CLOSED_FORM_FAMILIES)
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_relations_sum_to_the_pointwise_condition(family, exact):
    """With gamma0 = gammat = g, sum_k expr_k r^k is the condition the algebra
    gives, at a random rational r and random values of every symbol."""
    rng = random.Random(f"{family} {exact} condition")

    def rand():
        return Rational(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9))

    for sol in _closed_form_cases(family, exact, count=10):
        r = rand()
        names = ["a", "b", "g", "E", "m", *(f"u{abs(p)}" for p in sol.potential.terms)]
        values = {name: rand() for name in names}
        symbols = {sp.Symbol(name): v for name, v in values.items()}
        symbols.update({sp.Symbol("gamma0"): values["g"], sp.Symbol("gammat"): values["g"]})
        got = sum(_sym(rel.expr).xreplace(symbols) * r**rel.power for rel in sol.relations)
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
    # w**2 and -2*w*qA with the products w = q*sigma and qA that b = +-i w/2 and
    # gammat = +-i qA hold, so the relations read 0.0 at the branches;
    # q**2 * sigma**2 and -2*q**2*sigma*A round to ...503 and -1.42694844574623
    "confining-float": (PotentialSpec({1: 1.1131}, 0.9095, 0.8395), [
        (2, "4*b**2 + 0.873192036811502", True, ""),
        (1, "-1.8688949*E + 4*a*b", True, ""),
        (-1, "1.5270505*E - 2*a*gammat", True, ""),
        (0, "E**2 + a**2 - 4*b*gammat - m**2 - 1.42694844574622", False,
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
        (4, "u2**2 + 9/4", True, ""),
        (1, "2*gamma0*u2 + 3*I/2", True, "series head, nu = 0"),
        (0, "E**2 + a**2 - m**2", True, ""),
        (-1, "I*E - 2*a*gammat", False,
         "tail equation; with 1/r^2 it eliminates to the level formula"),
        (-2, "gammat**2 - 17/4", False,
         "tail equation; with 1/r it eliminates to the level formula"),
        (2, "3*E - 2*a*u2", False, "cross term left open by the printed derivation"),
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
        assert {k: _sym(v) for k, v in branch.solver_vars.items()} == {
            "b": s * I / 5, "a": -s * I * E, "gamma_plus_nu_plus_1": s * 3 * I / 25}
        assert _sym(branch.gamma) == -2 + s * 3 * I / 25
    # a float sigma leaves a and gamma exact
    sol = match_coefficients(PotentialSpec({1: 1.0}, Fraction(3, 10), Fraction(2, 5)), qn)
    assert [_sym(b.solver_vars["a"]) for b in sol.branches] == [-I * E, I * E]
    assert not any(_sym(b.gamma).atoms(sp.Float) for b in sol.branches)
    # oscillator, A = i/5, q = 3/10, c2 = 10: u2 = +-i q c2, 1 + gamma = +-i q A
    sol = match_coefficients(PotentialSpec({2: 10}, I / 5, Fraction(3, 10)), qn)
    assert [_sym(b.solver_vars["u2"]) for b in sol.branches] == [3 * I, -3 * I]
    assert [b.solver_vars["one_plus_gamma"] for b in sol.branches] == [Fraction(-3, 50),
                                                                      Fraction(3, 50)]
    # inverse with float coefficients and an exact phase: u_p = +-i c_p, gamma exact
    sol = match_coefficients(PotentialSpec({-6: 0.5, -12: -0.25}, I / 5), qn)
    assert [(_sym(b.solver_vars["u6"]), _sym(b.solver_vars["u12"])) for b in sol.branches] == [
        (0.5 * I, -0.25 * I), (-0.5 * I, 0.25 * I)]
    assert [b.gamma for b in sol.branches] == [Fraction(-6, 5), Fraction(-4, 5)]
    assert not any(_sym(b.gamma).atoms(sp.Float) for b in sol.branches)


@pytest.mark.parametrize("power,key,want", [
    (1, "gamma_plus_nu_plus_1", "I*(-2/7 + 2*I/15)"),
    (2, "one_plus_gamma", "I*(2/7 + 2*I/15)"),
    (-6, "one_plus_gamma", "I*(2/7 + 2*I/15)"),
])
def test_complex_phase_prints_as_i_times_q_a(power, key, want):
    """A c_{-1} term folded into an imaginary phase makes q A complex; the
    branch values then read i q A (sympy's text ``want``) expanded, the
    number before I, equal in value to the division forms."""
    V = PotentialSpec({power: 2, -1: Fraction(3, 7)}, I / 5, Fraction(2, 3))
    sol = match_coefficients(V, QN)
    want = sp.sympify(want)
    for branch, s in zip(sol.branches, (1, -1)):
        text = str(branch.solver_vars[key])
        assert re.fullmatch(r"-?2/15 [+-] 2\*I/7", text)
        assert sp.expand(_sym(text) - s * want) == 0
        assert sp.expand(_sym(branch.gamma) - (s * want - 1)) == 0
    for branch, ref in zip(sol.branches, _reference_branches(sol), strict=True):
        for got, old in [(branch.gamma, ref.gamma),
                         *((branch.solver_vars[k], v) for k, v in ref.solver_vars.items())]:
            assert sp.expand(_sym(got) - old) == 0
    assert residual_verify(V, sol, QN) == 0.0


def test_a_sympy_phase_reads_as_its_literal():
    """A caller's sympy I*Rational(3, 4) is read by its parts, without the
    solver importing sympy: the same report as the literal "3/4i"."""
    qn = QuantumNumbers(Fraction(3, 2), 1)
    for terms in ({"2": "1/2"}, {"-6": "1", "-12": "-1"}, {"1": "2", "-1": "1/3"}):
        by_sympy = PotentialSpec({int(p): Fraction(c) for p, c in terms.items()}, I * Rational(3, 4))
        by_text = PotentialSpec.from_dict({"terms": terms, "coulombPhase": "3/4i"})
        want = match_coefficients(by_text, qn)
        got = match_coefficients(by_sympy, qn)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        assert residual_verify(by_sympy, got, qn) == residual_verify(by_text, want, qn) == 0.0


NO_SYMPY_SOLVES = """
import json, sys
sys.modules["sympy"] = None  # any import of sympy now fails
from fractions import Fraction as F
from nilpotent.exact import _I
from nilpotent.spectra import (PotentialSpec, QuantumNumbers, lennard_jones_solution,
                               match_coefficients, residual_verify)
cases = [
    (PotentialSpec({1: F(1)}, F(3, 10), F(2, 5)), True),
    (PotentialSpec({1: 1.1131}, 0.9095, 0.8395), False),
    (PotentialSpec({}, F(1, 10)), True),
    (PotentialSpec({}, 0.3, 0.7), False),
    (PotentialSpec({2: F(3, 2)}, _I / 2), True),
    (PotentialSpec({2: 0.25}, _I * 0.5, 0.75), False),
    (PotentialSpec({-6: F(1), -12: F(-1)}, _I / 2), True),
    (PotentialSpec({-3: 0.5, -5: -0.25}, _I / 5), False),
    (PotentialSpec({2: F(2), -1: F(3, 7)}, _I / 5, F(2, 3)), True),
    (PotentialSpec.from_dict({"terms": {"1": "1", "-1": "1/3"}, "coulombPhase": "1/2i"}), True),
]
for n in (0, 2):
    qn = QuantumNumbers(F(3, 2), n)
    for V, exact in cases:
        sol = match_coefficients(V, qn)
        json.dumps(sol.to_dict())
        residual = residual_verify(V, sol, qn)
        assert residual <= (0.0 if exact else 1e-10), (V, n, residual)
    sol = lennard_jones_solution(_I / 2, 1, 1, qn)
    assert residual_verify(sol.potential, sol, qn) == 0.0
assert sys.modules["sympy"] is None
"""


def test_every_family_solves_and_gates_with_sympy_unimportable():
    """With sys.modules['sympy'] = None any import of sympy fails: each family
    solves, prints and passes the gate, exact to 0.0 and float to 1e-10."""
    proc = subprocess.run([sys.executable, "-c", NO_SYMPY_SOLVES], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# --- the printer against sympy: a differential test --------------------------

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def solve_worker():
    """bench/solve_worker.py, which imports its siblings checks and mix."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("solve_worker", BENCH / "solve_worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def _leaves(report, path=""):
    """(path, value) of every leaf of a report, list indices dropped from the path."""
    if isinstance(report, dict):
        for key, value in report.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(report, list):
        for value in report:
            yield from _leaves(value, path)
    else:
        yield path, report


# the report text of a value that sympy keeps over an unrationalized surd,
# which no expansion proves equal: the Coulomb a and m at n' >= 1
COULOMB_SURD_TEXT = {".branches.a", ".branches.solverVars.a", ".branches.solverVars.m"}


def _term_coefficients(x, symbols):
    """The complex coefficient of each term of the expanded ``x``."""
    return [complex(term.as_independent(*symbols)[0]) for term in sp.Add.make_args(x)]


def _same_value(text, want, surd=False):
    """How two printed solver values read as one value, or None: "expands"
    if their difference expands to 0; with floats, printed to 15 digits,
    "rounds" if each coefficient of it is within 1e-13 of the largest of
    ``want``; and only for a ``surd`` value (the Coulomb surd class), "surd"
    if it is within 1e-40 at rational values of its symbols."""
    got, want = sp.sympify(text, locals=_SYMBOLS), sp.sympify(want, locals=_SYMBOLS)
    diff = sp.expand(got - want)
    if diff == 0:
        return "expands"
    symbols = sorted(got.free_symbols | want.free_symbols, key=str)
    if diff.atoms(sp.Float):
        scale = max(1.0, *map(abs, _term_coefficients(sp.expand(want), symbols)))
        if all(abs(c) <= 1e-13 * scale for c in _term_coefficients(diff, symbols)):
            return "rounds"
        return None
    values = {s: Rational(k + 3, 7) for k, s in enumerate(symbols)}
    if surd and abs(sp.N(diff.xreplace(values), 60)) < sp.Float(10) ** -40:
        return "surd"
    return None


def _moved_leaves(got, want, surd=frozenset()):
    """Each leaf where two reports print differently, by path, mapped to how
    the pair reads as one value (``_same_value``); only a path in ``surd``
    may read so by the numeric check of the Coulomb surd class."""
    moved = {}
    for (path, text), (want_path, want_text) in zip(_leaves(got), _leaves(want), strict=True):
        assert path == want_path
        if text != want_text:
            how = isinstance(text, str) and _same_value(text, want_text, path in surd)
            assert how, (path, text, want_text)
            moved[path] = how
    return moved


def test_complex_inputs_print_as_the_sympy_solver_printed_them():
    """Complex q, phase and coefficients, exact and float, in every family but
    Coulomb: every relation and branch value prints as a value equal to the
    one the sympy solver printed, products of complex sums expanded where
    sympy kept them whole; the potential prints byte for byte.  Sympy's cache
    returns one object for equal products, which then print as a square, so
    no two coefficients are equal."""
    rng = random.Random(12)

    def gaussian(num):
        re, im = (num(Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 9)))
                  for _ in range(2))
        return re + I * im if rng.random() < 0.6 else re

    checked = relations_moved = 0
    while checked < 120:
        num = (lambda x: round(float(x), 4)) if checked % 3 == 2 else (lambda x: x)
        powers = rng.choice(((1, -1), (2,), (2, -1), (-6, -12), (-3, -5), (-2, -4)))
        values = [gaussian(num) for _ in range(len(powers) + 2)]
        if len({str(v) for v in values}) < len(values):
            continue
        V = PotentialSpec(dict(zip(powers, values)), values[-2], values[-1])
        qn = QuantumNumbers(Fraction(2 * rng.randint(0, 2) + 1, 2), rng.randint(0, 3))
        moved = _moved_leaves(match_coefficients(V, qn).to_dict(),
                              reference.match_coefficients(V, qn).to_dict())
        assert not any(path.startswith(".potential") for path in moved), (V, qn)
        relations_moved += ".relations.expr" in moved
        checked += 1
    assert relations_moved  # the draw holds relations that sympy printed unexpanded


def test_a_number_times_one_kept_sum_prints_as_sympy_prints_it():
    """sqrt(2) times sqrt(2)*(E + I), which sympy keeps as one sum times a
    number and then multiplies into each term, prints as sympy prints it:
    every product is expanded."""
    kernel, E = _Kernel(), sp.Symbol("E")
    value = kernel.sqrt(2) * (kernel.sqrt(2) * (kernel.symbol("E") + _I))
    assert str(value) == str(sp.sqrt(2) * (sp.sqrt(2) * (E + I))) == "2*E + 2*I"


def test_floats_print_as_sympy_prints_them():
    """Random doubles of every magnitude, alone (15 digits) and inside an
    expression (trailing zeros stripped), against sympy's Float printer."""
    rng = random.Random(7)
    for k in range(3000):
        x = struct.unpack("d", struct.pack("Q", rng.getrandbits(64)))[0] if k % 2 else (
            rng.choice((1, -1)) * rng.random() * 10.0 ** rng.randint(-12, 20))
        if math.isfinite(x):
            for strip in (False, True):
                assert _float_text(x, strip) == sp.sstr(sp.Float(x), full_prec=not strip), x


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reports_print_as_the_sympy_solver_printed_them(seed, solve_worker):
    """Over the solve-sweep stream, exact and float inputs, each with a real
    or an imaginary phase: every relation prints byte for byte as the solver
    built on sympy printed it, and every branch value as a value equal to
    sympy's (which kept a product of a sum whole, and the Coulomb a and m
    over an unrationalized surd)."""
    stream, _ = solve_worker.build_stream(seed, 150, sp, spectra)
    hows = collections.Counter()
    for family, V, j, n, exact in stream:
        qn = QuantumNumbers(j, n)
        got = match_coefficients(V, qn).to_dict()
        surd = COULOMB_SURD_TEXT if got["family"] == "coulomb" and n > 0 else frozenset()
        moved = _moved_leaves(got, reference.match_coefficients(V, qn).to_dict(), surd)
        assert all(path.startswith(".branches.") for path in moved), (V, qn, moved)
        hows.update(moved.values())
    assert hows["expands"]  # the stream holds products that sympy kept whole
    assert hows["surd"]  # and the Coulomb surd class it excuses


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


@pytest.mark.parametrize("value", [
    lambda k, E, m: math.nan,  # nan, complex infinity (zoo) and zoo*E
    lambda k, E, m: math.inf * _I,
    lambda k, E, m: math.inf * _I * E,
    lambda k, E, m: E + math.nan * E**2,
    # a division by a kernel value, which the kernel refuses to build
    lambda k, E, m: 1 / E,
    lambda k, E, m: k.sqrt(2) / (m + 1),
    # oo, and values that are no kernel number or Expr (sympy's sin(E) and E**(1/3))
    lambda k, E, m: math.inf,
    lambda k, E, m: sp.sin(sp.Symbol("E")),
    lambda k, E, m: sp.Symbol("E") ** Rational(1, 3),
], ids=[f"value{k}" for k in range(9)])
def test_non_finite_residual_is_infinite(value):
    assert _kernel_magnitude(value) == math.inf


def test_exact_nonzero_residual_never_reads_zero():
    """1/10**400 rounds to 0.0 as a float; the sympy gate read it as 0.0."""
    tiny = Fraction(1, 10**400)
    assert _kernel_magnitude(lambda k, E, m: tiny) == math.ulp(0.0)
    assert _kernel_magnitude(lambda k, E, m: tiny * k.sqrt(2) - tiny * E * _I) == math.ulp(0.0)
    sol = match_coefficients(strong_potential(), QN)
    key = "b"
    for delta in (tiny, -tiny * _I):
        broken = sol._replace(branches=tuple(
            b._replace(solver_vars={**b.solver_vars, key: b.solver_vars[key] + delta})
            for b in sol.branches))
        assert residual_verify(broken.potential, broken, QN) > 0.0


def test_residual_too_large_for_a_float_is_infinite():
    huge = 10**400
    assert _kernel_magnitude(lambda k, E, m: huge) == math.inf
    assert _kernel_magnitude(lambda k, E, m: huge * E + _I) == math.inf
    sol = match_coefficients(strong_potential(), QN)
    broken = sol._replace(branches=tuple(
        b._replace(solver_vars={**b.solver_vars, "gamma_plus_nu_plus_1": huge})
        for b in sol.branches))
    assert residual_verify(broken.potential, broken, QN) == math.inf


def test_no_kernel_value_divides_by_another():
    """An Expr divides only by a number; the Coulomb a takes 1/gammat in
    closed form, so a gammat = q A E holds exactly on both surd branches."""
    kernel = _Kernel()
    E = kernel.symbol("E")
    for x in (E, kernel.sqrt(2), 1 + _I):
        for top in (1, Fraction(1, 2), 0.5, E):
            with pytest.raises(TypeError):
                top / x
    assert E / 2 == E * Fraction(1, 2) and kernel.sqrt(2) / 0.5 == 2.0 * kernel.sqrt(2)
    qA = Fraction(1, 3)
    for n in (0, 1, 2):
        sol = match_coefficients(PotentialSpec({}, qA), QuantumNumbers(Fraction(3, 2), n),
                                 E=Fraction(5, 7))
        for branch in sol.branches:
            values = branch.solver_vars
            assert isinstance(values["gamma_plus_nu_plus_1"], Expr)
            assert values["a"] * values["gamma_plus_nu_plus_1"] == qA * Fraction(5, 7)


def _collect_values(terms) -> dict:
    """The polynomial sum of (monomial, number) pairs, zeros dropped, as the
    kernel first wrote it on int, Fraction and float coefficients."""
    out = {}
    for mono, c in terms:
        if mono in out:
            out[mono] += c
        else:
            out[mono] = c
    return {mono: c for mono, c in out.items() if c}


def _reference_mul(kernel, p, q) -> dict:
    """``_Kernel.mul`` as first written, on {monomial: number} dicts: every
    pair product popped from one list, each generator squared replaced by its
    square, then one collect."""
    todo = [(m1 + m2, c1 * c2) for m1, c1 in p.items() for m2, c2 in q.items()]
    done = []
    while todo:
        mono, c = todo.pop()
        if mono & kernel.high:
            shift = next(s for s in kernel.squares if mono >> s & _ROOT)
            rest = mono - (2 << shift)
            todo.extend((rest + m, c * c2) for m, c2 in _values(kernel.squares[shift]).items())
        else:
            done.append((mono, c))
    return _collect_values(done)


def _reference_substitute(kernel, poly, values, powers) -> dict:
    """``_Kernel.substitute`` as first written, on ``_reference_mul``."""
    terms = []
    for mono, c in poly.items():
        term = {mono: c}
        for shift, value in values.items():
            e = mono >> shift & _MASK
            if e:
                if (shift, e) not in powers:
                    out = value
                    for _ in range(e - 1):
                        out = _reference_mul(kernel, out, value)
                    powers[shift, e] = out
                term = _reference_mul(kernel, {m - (e << shift): k for m, k in term.items()},
                                      powers[shift, e])
        terms.extend(term.items())
    return _collect_values(terms)


def _poly(values: dict) -> tuple:
    """The kernel's (den, terms) pair of {monomial: int, Fraction or float}:
    int numerators over the lcm of the exact denominators, in lowest terms."""
    den = math.lcm(*(Fraction(c).denominator for c in values.values() if not isinstance(c, float)))
    return _lowest(den, {mono: c if isinstance(c, float) else int(c * den)
                         for mono, c in values.items()})


def _kernel_fields():
    """A kernel with I, the numeric surd sqrt(2), the symbols E and m, the
    surd sqrt(E**2), whose square holds a symbol, and sqrt(E**2/3 + 2/3),
    whose square has a denominator; and the shift of each."""
    kernel = _Kernel()
    E, m = kernel.variable("E"), kernel.variable("m")
    root2 = kernel._root((1, {0: 2}))
    rootE = kernel._root((1, {2 << E: 1}))
    root3 = kernel._root((3, {2 << E: 1, 0: 2}))
    return kernel, {"I": 0, "sqrt2": root2, "E": E, "m": m, "sqrtE2": rootE, "sqrt3": root3}


_KERNEL, _SHIFTS = _kernel_fields()
_coefficients = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.fractions(-3, 3, max_denominator=7).filter(bool),
    st.floats(-10, 10, allow_nan=False).filter(bool),
    st.sampled_from([1, -1, 1e-200, 0.1, 1 / 3]))
_monomials = st.builds(
    lambda i, r2, rE, r3, e, m: i + (r2 << _SHIFTS["sqrt2"]) + (rE << _SHIFTS["sqrtE2"])
    + (r3 << _SHIFTS["sqrt3"]) + (e << _SHIFTS["E"]) + (m << _SHIFTS["m"]),
    *[st.integers(0, 1)] * 4, *[st.integers(0, 3)] * 2)
_polys = st.dictionaries(_monomials, _coefficients, max_size=5)


def _items(values: dict):
    """The items of a {monomial: number} dict in order, each exact coefficient
    as its Fraction and each float by its repr."""
    return [(mono, float, repr(c)) if isinstance(c, float) else (mono, Fraction, Fraction(c))
            for mono, c in values.items()]


def _negated_in(poly, shift):
    """``poly`` with the sign of each term that holds the field ``shift`` flipped."""
    return {mono: -c if mono >> shift & 1 else c for mono, c in poly.items()}


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, st.booleans())
def test_kernel_mul_keeps_the_order_and_types_of_the_first_loop(p, q, conjugate):
    """The one-term and I**2 shortcuts of ``mul``, its int numerators and the
    denominator a square brings in return the reference's items: the same
    monomials in the same order, the same exact values, each float summed and
    rounded in the same order, and a result in lowest terms."""
    if conjugate:
        q = _negated_in(p, _SHIFTS["sqrtE2"])
    got = _KERNEL.mul(_poly(p), _poly(q))
    assert _items(_values(got)) == _items(_reference_mul(_KERNEL, p, q))
    assert got == _lowest(*got)


def test_kernel_mul_cancels_to_nothing():
    """(sqrt(E**2) - E)(sqrt(E**2) + E) = E**2 - E**2 is the empty polynomial."""
    g, E = 1 << _SHIFTS["sqrtE2"], 1 << _SHIFTS["E"]
    for p, q in (({g: 1, E: -1}, {g: 1, E: 1}), ({g: 1}, {g: 1, 2 * E: -1}), ({1: 2}, {1: 0.5, 0: 1})):
        assert _values(_KERNEL.mul(_poly(p), _poly(q))) == _reference_mul(_KERNEL, p, q)
    assert _KERNEL.mul(_poly({g: 1, E: -1}), _poly({g: 1, E: 1})) == (1, {})
    assert _KERNEL.mul((1, {1: 1e-200}), (1, {1: 1e-200})) == (1, {})
    assert _reference_mul(_KERNEL, {1: 1e-200}, {1: 1e-200}) == {}


@settings(max_examples=200, deadline=None)
@given(_polys, _polys, _polys, st.booleans())
def test_kernel_substitute_keeps_the_order_and_types_of_the_first_loop(poly, e_value, m_value, cancel):
    """``substitute`` passes a term that holds no substituted field through
    untouched and otherwise returns the reference's items."""
    values = {_SHIFTS["E"]: e_value, _SHIFTS["m"]: m_value}
    if cancel:  # E - m with m := E is the empty polynomial
        poly = {**poly, 1 << _SHIFTS["E"]: 1, 1 << _SHIFTS["m"]: -1}
        values[_SHIFTS["m"]] = e_value
    new = _KERNEL.substitute(_poly(poly), {s: _poly(v) for s, v in values.items()}, {})
    assert _items(_values(new)) == _items(_reference_substitute(_KERNEL, poly, values, {}))
    assert new == _lowest(*new)
    if cancel and not poly.keys() - {1 << _SHIFTS["E"], 1 << _SHIFTS["m"]}:
        assert new == (1, {})


def test_nan_branch_fails_the_residual_gate():
    """A branch holding nan (as q = 0 once gave) can no longer report residual 0."""
    sol = match_coefficients(PotentialSpec({1: 1}, coulomb_phase=Rational(1, 3)), QN)
    broken = sol._replace(branches=tuple(
        b._replace(solver_vars={**b.solver_vars, next(iter(b.solver_vars)): math.nan})
        for b in sol.branches))
    assert residual_verify(sol.potential, sol, QN) == 0.0
    assert residual_verify(broken.potential, broken, QN) == math.inf


def test_explicit_inverse_first_term_folds_into_phase():
    # a c_{-1} term rides along with the phase, negatively for confining
    V = PotentialSpec.from_dict({"terms": {"1": "1", "-1": "3/10"}, "coulombPhase": "0", "q": "2/5"})
    sol = match_coefficients(V, QN)
    assert sol.family == "confining"
    assert sol.potential.coulomb_phase == Fraction(-3, 10)
    assert residual_verify(V, sol, QN) == 0.0


@pytest.mark.parametrize("other", [
    # folds to -3/10; folded with the other sign it would give the solution's 1/10
    PotentialSpec({1: 1, -1: Fraction(1, 5)}, coulomb_phase=Fraction(-1, 10)),
    PotentialSpec({1: 2}, coulomb_phase=Fraction(1, 10)),
    PotentialSpec({1: 1}, coulomb_phase=Fraction(1, 10), coupling=2),
    PotentialSpec({2: 1}, coulomb_phase=Fraction(1, 10)),
])
def test_residual_of_another_potential_is_refused(other):
    V = PotentialSpec({1: 1, -1: Fraction(1, 5)}, coulomb_phase=Fraction(3, 10))  # folds to 1/10
    sol = match_coefficients(V, QN)
    assert residual_verify(V, sol, QN) == 0.0
    assert residual_verify(PotentialSpec({1: 1}, coulomb_phase=Fraction(1, 10)), sol, QN) == 0.0
    with pytest.raises(ValueError, match="matched for the potential"):
        residual_verify(other, sol, QN)


@pytest.mark.parametrize("qn", [QuantumNumbers(Fraction(1, 2), 1), QuantumNumbers(Fraction(3, 2))])
def test_residual_for_other_quantum_numbers_is_refused(qn):
    V = PotentialSpec({-2: Fraction(5, 2)}, coulomb_phase=I / 2)
    sol = match_coefficients(V, QN)
    with pytest.raises(ValueError, match="matched for QuantumNumbers"):
        residual_verify(V, sol, qn)


def test_residual_refuses_a_potential_edited_after_the_solve():
    """The gate reads the potential its solution was just matched from once;
    an edit in place to either one's terms is read again, and refused."""
    V = PotentialSpec({1: Fraction(1)}, coulomb_phase=Fraction(3, 10), coupling=Fraction(2, 5))
    sol = match_coefficients(V, QN)
    V.terms[1] = Fraction(2)
    with pytest.raises(ValueError, match="matched for the potential"):
        residual_verify(V, sol, QN)
    V.terms[1] = Fraction(1)
    assert residual_verify(V, sol, QN) == 0.0
    sol.potential.terms[1] = Fraction(2)
    with pytest.raises(ValueError, match="matched for the potential"):
        residual_verify(V, sol, QN)


@pytest.mark.parametrize("twin", [
    PotentialSpec({"2": Rational(3, 2)}, I / 2),
    PotentialSpec({2: 1.5, -1: 0}, Fraction(1, 2) * _I),
    PotentialSpec.from_dict({"terms": {"2": "3/2"}, "coulombPhase": "1/2i"}),
])
def test_residual_accepts_another_object_of_the_same_potential(twin):
    V = PotentialSpec({2: Fraction(3, 2)}, I / 2)
    sol = match_coefficients(V, QN)
    assert residual_verify(twin, sol, QN) == 0.0
    assert residual_verify(V, sol, QN) == 0.0


# --- scale covariance --------------------------------------------------------
#
# Under r -> lam r with E -> lam E, m -> lam m and each c_k -> lam**(k+1) c_k
# (the phase A, k = -1, stays), W(r) and u(r) become lam W(lam r) and
# lam u(lam r).  So the relation at r^p scales by lam**(p+2), a and m by lam,
# b_s by lam**s, u_p by lam**(p+1) and E_level by lam, while gamma and every
# level E/m stay.  The solver's own arithmetic does not see this symmetry, so
# it tests the kernel from outside: exactly for exact input, and bit for bit
# for float input at lam = 2**k, where every scaled product rounds alike.  With
# E and m left as symbols (the CLI's path) a scaled value in (E, m) is lam**w
# times the unscaled one at (E/lam, m/lam): E, m and a root of their squares
# weigh 1 like the unknowns.


def _terms(x):
    """A solver value as {((atom text, exponent), ...): coefficient}, free of
    the field layout of its kernel."""
    if not isinstance(x, Expr):
        return {(): x} if x else {}
    kernel = x.kernel or _Kernel()
    return {tuple((kernel.atom(s)[1], mono >> s & _MASK) for s in kernel.atoms
                  if mono >> s & _MASK): c for mono, c in _values(x.poly).items()}


def _scaled(x, lam, weight, weights):
    """``_terms(x)`` as the scaled solve must hold it: each term times lam to
    the ``weight`` less the weights of the unknowns it holds."""
    return {key: c * lam ** (weight - sum(weights.get(name, 0) * e for name, e in key))
            for key, c in _terms(x).items()}


def _assert_scale_covariant(V, qn, E, m, lam):
    """E and m are numbers, or both None for symbols."""
    scaled_V = PotentialSpec({k: c * lam ** (k + 1) for k, c in V.terms.items()},
                             V.coulomb_phase, V.coupling)
    sol = match_coefficients(V, qn, E, m)
    scaled = match_coefficients(scaled_V, qn, *((None, None) if E is None else (lam * E, lam * m)))
    u_weights = {f"u{abs(p)}": p + 1 for p in V.terms}
    weights = {"E": 1, "m": 1, "a": 1, "b": 2, "sqrt(E**2)": 1, "sqrt(-E**2 + m**2)": 1,
               **u_weights}
    assert [r.power for r in scaled.relations] == [r.power for r in sol.relations]
    for rel, got in zip(sol.relations, scaled.relations):
        assert _terms(got.expr) == _scaled(rel.expr, lam, rel.power + 2, weights), rel
    values = {"E_level": 1, "m": 1, "a": 1, "b": 2, **u_weights}
    for branch, got in zip(sol.branches, scaled.branches, strict=True):
        assert got.solver_vars.keys() == branch.solver_vars.keys()
        for key, v in branch.solver_vars.items():
            assert _terms(got.solver_vars[key]) == _scaled(v, lam, values.get(key, 0), weights), key
        assert _terms(got.gamma) == _terms(branch.gamma)
        for power, v in branch.exp_coefficients.items():
            assert _terms(got.exp_coefficients[power]) == _scaled(v, lam, power, weights), power
    if sol.level_series:
        js, n_primes = [qn.j, Fraction(5, 2)], [0, 1, 4]
        assert scaled.level_series.table(js, n_primes) == sol.level_series.table(js, n_primes)


_EXACT_SCALE_CASES = {
    "confining": PotentialSpec({1: Fraction(5, 3)}, Fraction(3, 10), Fraction(2, 5)),
    "coulomb": PotentialSpec({}, Fraction(3, 10), Fraction(2, 5)),
    "oscillator": PotentialSpec({2: Fraction(3, 2)}, I / 2, Fraction(4, 9)),
    "inverse-6-12": PotentialSpec({-6: Fraction(1, 7), -12: Fraction(-3, 11)}, I * Rational(2, 3)),
    "inverse-3-4": PotentialSpec({-3: Fraction(1, 2), -4: Fraction(-3)}, I / 2),
    "inverse-2": PotentialSpec({-2: Fraction(5, 2)}, I / 3, Fraction(3, 7)),
}


@pytest.mark.parametrize("E,m", [(Fraction(7, 4), Fraction(9, 5)), (None, None)])
@pytest.mark.parametrize("lam", [Fraction(3, 2), Fraction(2, 7), Fraction(4)])
@pytest.mark.parametrize("name", _EXACT_SCALE_CASES)
def test_exact_solve_is_scale_covariant(name, lam, E, m):
    _assert_scale_covariant(_EXACT_SCALE_CASES[name], QuantumNumbers(Fraction(3, 2), 1), E, m, lam)


# magnitudes that keep every product of the solve a normal float: a subnormal
# one has fewer bits, so a power of two does not scale it exactly
_SCALE_FLOAT = st.floats(0.1, 10)
_SIGNED = st.builds(lambda x, s: s * x, st.floats(0.01, 5), st.sampled_from((1, -1)))
_float_potentials = st.one_of(
    st.builds(lambda sigma, A, q: PotentialSpec({1: sigma}, A, q),
              _SCALE_FLOAT, _SIGNED, st.floats(0.01, 3)),
    st.builds(lambda A, q: PotentialSpec({}, A, q), st.floats(0.01, 0.9), st.floats(0.5, 1)),
    st.builds(lambda c, a, q: PotentialSpec({2: c}, I * a, q),
              _SCALE_FLOAT, _SIGNED, st.floats(0.01, 3)),
    st.builds(lambda c6, c12, a: PotentialSpec({-6: c6, -12: -c12}, I * a),
              _SCALE_FLOAT, _SCALE_FLOAT, _SIGNED),
)


@settings(max_examples=200, deadline=None)
@given(_float_potentials, st.one_of(st.tuples(_SCALE_FLOAT, _SCALE_FLOAT), st.just((None, None))),
       st.integers(0, 3), st.integers(0, 3), st.integers(-3, 3))
def test_float_solve_is_scale_covariant_bit_for_bit(V, E_m, j, n, k):
    _assert_scale_covariant(V, QuantumNumbers(Fraction(2 * j + 1, 2), n), *E_m, 2.0 ** k)


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


@settings(max_examples=200)
@given(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(1.0, 179.0), st.integers(-8, 8))
def test_lmin_scales_as_a_length_bit_for_bit(a, b, angle_deg, k):
    """L_min is homogeneous of degree one in the sides; at lam = 2**k every
    sum, product and root of the formula scales exactly."""
    c = math.sqrt(a * a + b * b - 2 * a * b * math.cos(math.radians(angle_deg)))
    lam = 2.0 ** k
    assert lmin(lam * a, lam * b, lam * c) == lam * lmin(a, b, c)


@settings(max_examples=200)
@given(st.floats(0.1, 10.0), st.floats(0.01, 3.0), st.floats(0.1, 10.0), st.integers(-8, 8))
def test_infrared_radius_scales_as_a_length_bit_for_bit(E, q, sigma, k):
    """Under r -> lam r, E -> lam E and sigma = c_1 -> lam**2 sigma, so the
    radius 2E/(q sigma) -> radius/lam."""
    lam = 2.0 ** k
    assert infrared_radius(lam * E, q, lam * lam * sigma) == infrared_radius(E, q, sigma) / lam


def test_lmin_triangle_inequality():
    with pytest.raises(ValueError):
        lmin(1, 1, 3)
