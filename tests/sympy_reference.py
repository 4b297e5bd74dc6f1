"""The solver as it was built on sympy, kept as the reference of the solver's
differential test (W. M. McKeeman, "Differential Testing for Software",
Digital Technical Journal 10, 1998): the same relations and branch values
built as sympy expressions, so ``str`` of each is sympy's own text.  The
tests compare the solver's printed values with these by value; sympy keeps
a product of a sum whole where the solver's printer expands it.

``match_coefficients`` returns a ``spectra.AnsatzSolution`` whose fields hold
sympy objects, so its ``to_dict`` is the report text the solver printed when
it built on sympy; it has no level series, which that text does not hold.
"""

import functools
import operator
from fractions import Fraction

import sympy as sp

from nilpotent.spectra import (
    AnsatzBranch,
    AnsatzSolution,
    InconsistentSystemError,
    PotentialSpec,
    QuantumNumbers,
    Relation,
    SupercriticalCouplingError,
    UnsupportedPotentialError,
    _detect_family,
)


@functools.cache
def _symbols():
    return sp.symbols("a b gamma0 gammat E m")


def _num(x):
    """An exact sympy number; a solver Expr is read back from its exact text."""
    if isinstance(x, Fraction):
        return sp.Rational(x.numerator, x.denominator)
    if isinstance(x, int):
        return sp.Integer(x)
    if isinstance(x, float):
        return sp.Float(x)
    if isinstance(x, sp.Basic):
        return x
    return sp.sympify(str(x))


def _normalized(V):
    terms = {int(n): v for n, c in V.terms.items() if (v := _num(c)) != 0}
    return PotentialSpec(terms, _num(V.coulomb_phase), _num(V.coupling))


def _j_plus_half(qn):
    return _num(qn.j) + sp.Rational(1, 2)


def _product(factors):
    """The product from the left, numbers first, with a factor object that
    recurs raised to its count: q, sigma, q, A give q**2 * sigma * A, so a
    float rounds as the derivation's q**2 does."""
    counts = {}
    for f in factors:
        counts[id(f)] = (f, counts.get(id(f), (f, 0))[1] + 1)
    powers = [f if k == 1 else f**k for f, k in counts.values()]
    return functools.reduce(operator.mul, sorted(
        powers, key=lambda f: not isinstance(f, (int, sp.Number))))


def _laurent_relations(W, u, head, J, m, groups):
    """The Laurent coefficients of W(r)^2 + u(r)^2 - m^2 - J^2/r^2 as relations.

    ``W`` and ``u`` list (power, factors) terms; the factor None is the g of
    u's g/r, gamma0 at the ``head`` powers and gammat elsewhere.  Each pair of
    terms is multiplied once and each power summed into one Add.  ``groups``
    lists (power, matched, note) in print order; a power listed twice is
    matched only if both groups are, and joins their notes with " + ".
    """
    _, _, g0, gt, _, _ = _symbols()
    sums = {}
    for terms in (W, u):
        for i, (p, f) in enumerate(terms):
            for k, (p2, f2) in enumerate(terms[i:]):
                g = g0 if p + p2 in head else gt
                factors = (*f, *f2) if k == 0 else (2, *f, *f2)
                sums.setdefault(p + p2, []).append(_product(g if x is None else x for x in factors))
    sums[0].append(-m**2)
    sums[-2].append(-J**2)
    merged = {}
    for power, matched, note in groups:
        was_matched, was_note = merged.get(power, (True, ""))
        merged[power] = (was_matched and matched, " + ".join(filter(None, (was_note, note))))
    assert merged.keys() == sums.keys(), "every power of the expansion is printed once"
    return tuple(Relation(p, sp.Add(*sums[p]), ok, note) for p, (ok, note) in merged.items())


_HEAD = "series head, nu = 0"
_TAILS = ((-1, False, "tail equation; with 1/r^2 it eliminates to the level formula"),
          (-2, False, "tail equation; with 1/r it eliminates to the level formula"))
_CROSS = "cross term left open by the printed derivation"


def _solve_confining(V, qn, E, m):
    q, A = V.coupling, V.coulomb_phase
    sigma = V.terms[1]
    _a, _b, _, _gt, _, _ = _symbols()
    n = qn.n_prime
    # exponent b2 r^2 with b2 = -b, so u holds 2 b2 r = -2 b r
    open_note = "left open by the three-equation solution"
    relations = _laurent_relations(
        [(1, (-1, q, sigma)), (-1, (q, A)), (0, (E,))],
        [(1, (-2, _b)), (-1, (None,)), (0, (-1, _a))], (), _j_plus_half(qn), m,
        [(2, True, ""), (1, True, ""), (-1, True, ""), (0, False, open_note),
         (-2, False, open_note)])
    branches = []
    for s in (1, -1):
        # the r^2, r and 1/r relations in closed form
        b = s * sp.I * (q * sigma / 2)
        a = -s * sp.I * E
        gt = s * sp.I * (q * A)
        branches.append(AnsatzBranch(
            exp_coefficients={2: -b}, gamma=sp.Add(gt, -1 - n), n_prime=n,
            solver_vars={"b": b, "a": a, "gamma_plus_nu_plus_1": gt}))
    return "confining", tuple(branches), relations


def _coulomb_gamma_t(qA, J):
    if qA.is_real is False:
        raise UnsupportedPotentialError(f"a pure Coulomb potential needs a real q A, got {qA}")
    disc = J**2 - qA**2
    if disc.is_number and not disc.is_positive:
        raise SupercriticalCouplingError(
            f"q^2 A^2 = {qA**2} reaches (j+1/2)^2 = {J**2}: no subcritical solution"
        )
    return sp.sqrt(disc)


def _solve_coulomb(V, qn, E, m):
    qA = V.coupling * V.coulomb_phase
    _a, _, _g0, _gt, _, m_sym = _symbols()
    J = _j_plus_half(qn)
    n = qn.n_prime
    relations = _laurent_relations(
        [(-1, (qA,)), (0, (E,))], [(-1, (None,)), (0, (-1, _a))], (-2,), J, m_sym,
        [(-2, True, _HEAD + ": the indicial condition fixing gamma"),
         (-1, True, "series tail, nu = n'"), (0, True, "fixes the level through m")])
    g0_root = _coulomb_gamma_t(qA, J)
    branches = []
    for s in (1, -1):
        g0 = s * g0_root          # gamma + 1
        gt = g0 + n               # gamma + nu + 1 at termination
        if gt == 0:
            raise UnsupportedPotentialError(
                f"n' = {n} equals sqrt((j+1/2)^2 - (qA)^2), the pole of the second branch "
                "(a = qA E / (gamma + n' + 1))"
            )
        a = qA * E / gt
        m_expr = sp.sqrt(E**2 + a**2)
        branches.append(AnsatzBranch(
            exp_coefficients={}, gamma=g0 - 1, n_prime=n,
            solver_vars={"a": a, "one_plus_gamma": g0, "gamma_plus_nu_plus_1": gt, "m": m_expr},
            decaying=(s == 1)))
    return "coulomb", tuple(branches), relations


def _solve_power(V, qn, E, m):
    """The power laws c_p r^p: the oscillator (p = 2), up to two inverse powers (p <= -2)."""
    q, A = V.coupling, V.coulomb_phase
    if A == 0:
        raise InconsistentSystemError(-2, "spherical symmetry forces a nonzero Coulomb phase term")
    qA = q * A
    J = _j_plus_half(qn)
    n = qn.n_prime
    powers = sorted(V.terms, reverse=True)  # closest to zero first
    if len(powers) > 2:
        raise UnsupportedPotentialError("at most two inverse-power terms are supported")
    coeffs = {p: q * V.terms[p] for p in powers}
    _a, _, _g0, _gt, _, _ = _symbols()
    u_syms = {p: sp.Symbol(f"u{abs(p)}") for p in powers}
    # exponent u_p r^(p+1) / (p+1), so u holds u_p r^p
    relations = _laurent_relations(
        [*((p, (coeffs[p],)) for p in powers), (-1, (qA,)), (0, (E,))],
        [*((p, (u_syms[p],)) for p in powers), (-1, (None,)), (0, (-1, _a))],
        {p - 1 for p in powers}, J, m,
        [(2 * powers[-1], True, ""), *((hi + lo, True, "") for hi, lo in zip(powers, powers[1:])),
         *((p - 1, True, _HEAD) for p in powers), (0, True, ""), *_TAILS,
         *((p, False, _CROSS) for p in powers), *((2 * p, True, "") for p in powers[:-1])])
    branches = []
    for s in (1, -1):
        # the extreme, cross and head relations in closed form
        u_vals = {p: s * sp.I * coeffs[p] for p in powers}
        g0 = s * sp.I * qA
        gt = g0 + n
        a = sp.sqrt(m**2 - E**2)
        branches.append(AnsatzBranch(
            exp_coefficients={p + 1: u_vals[p] / (p + 1) for p in powers}, gamma=g0 - 1,
            n_prime=n,
            solver_vars={**{str(u_syms[p]): u_vals[p] for p in powers}, "one_plus_gamma": g0,
                         "a": a, "gamma_plus_nu_plus_1": gt, "E_level": -m * gt / J}))
    family = "oscillator" if powers == [2] else "inverse-multipole"
    return family, tuple(branches), relations


_FAMILY_SOLVERS = {
    "confining": _solve_confining,
    "coulomb": _solve_coulomb,
    "oscillator": _solve_power,
    "inverse": _solve_power,
}


def _folded(V: PotentialSpec) -> tuple[str, PotentialSpec]:
    """The family of ``V`` and ``V`` as its solver reads it: normalized, with
    c_{-1} folded into the phase as ``match_coefficients`` says."""
    Vn = _normalized(V)
    c_m1 = Vn.terms.pop(-1, sp.Integer(0))
    if c_m1 != 0:
        # the terms alone fix the family, so a pure c_{-1}/r is Coulomb
        confining = set(Vn.terms) == {1}
        Vn = PotentialSpec(Vn.terms, Vn.coulomb_phase + (-c_m1 if confining else c_m1), Vn.coupling)
    return _detect_family(Vn), Vn


def match_coefficients(V: PotentialSpec, qn: QuantumNumbers, E=None, m=None) -> AnsatzSolution:
    """Solve the coefficient relations for a supported potential family.

    E and m default to symbols; families that pin one of them (the Coulomb
    series pins m through E, the oscillator-type families pin E through m)
    return the pinned expression inside each branch.  An explicit c_{-1}
    term folds into the phase with the family's bracket sign (negatively
    for the confining family, where potential terms enter as -qV).
    """
    family, Vn = _folded(V)
    if Vn.terms and Vn.coupling == 0:
        raise UnsupportedPotentialError(
            f"zero coupling q: the {family} relations divide by q times the potential terms"
        )
    *_, E_sym, m_sym = _symbols()
    E = E_sym if E is None else _num(E)
    m = m_sym if m is None else _num(m)
    name, branches, relations = _FAMILY_SOLVERS[family](Vn, qn, E, m)
    return AnsatzSolution(name, Vn, qn, branches, tuple(relations))
