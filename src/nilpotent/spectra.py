"""Coefficient-matching solver for spherically symmetric bound states.

For a radial bracket W(r) = E + (potential terms) + A/r and a trial state

    psi = exp(-a r + sum_s b_s r^s) r^gamma sum_nu a_nu r^nu,

the four-solution square of the state vector imposes the pointwise condition

    W(r)^2 = m^2 - u(r)^2 + (j + 1/2)^2 / r^2,

with u = -a + sum_s s b_s r^{s-1} + (gamma + nu + 1)/r, the +-i(j+1/2)/r
cross terms having cancelled over the four sign choices.  The relations are
the Laurent coefficients of W^2 + u^2 - m^2 - (j+1/2)^2/r^2, one per power of
r, from one expansion of W's and u's terms; gamma + nu + 1 reads gamma0 =
gamma + 1 at the series-head powers and gammat = gamma + n' + 1 elsewhere.
Each family matches the groups of products its derivation solves (extreme
powers fix the exponent coefficients, the potential-Coulomb cross fixes gamma
at the series head, the constant/1/r/1/r^2 trio at the tail fixes a and the
energy): confining r^2, r and 1/r; coulomb the 1/r^2 head, the 1/r tail and
r^0; power laws (oscillator p = 2, inverse p <= -2) each r^{2p}, the r^{p+p'}
cross, each r^{p-1} head and r^0.  The rest is reported unmatched.  Groups on
one power make its one relation, matched only if each group is: with c3/r^3 +
c4/r^4 the r^-3 head shares r^-4 with an open cross term.  Four families:

* confining: V = sigma r (+ constant), bracket E - q sigma r + q A / r
* coulomb:   bracket E + q A / r, hydrogen-like level series
* oscillator: bracket E + c2 r^2 + A / r, levels E = -m (1/2 + n') / (j + 1/2)
* inverse multipole (Lennard-Jones, dipolar, ...): powers <= -2, oscillator levels

The oscillator-type level E = -m gammat / (j + 1/2) is the paper's printed
elimination, which takes q^2 A^2 + gammat^2 = (j + 1/2)^2 in place of the
1/r^2 tail; it does not follow from the printed relations.  At that E, with
a = sqrt(m^2 - E^2), the 1/r and 1/r^2 tails are nonzero: with no c_{-2}
term the 1/r^2 tail reads n' (n' + 2 gamma0) - (j + 1/2)^2, so -(j + 1/2)^2
at n' = 0.  With c_{-2}/r^2, and a = E q A / gammat from the 1/r tail, the
1/r^2 relation reads q^2 A^2 + gammat^2 - (j + 1/2)^2 + 2 q c_{-2} E n' /
gammat, a term the printed level does not see.

Outside the Coulomb family, whose branches go through a surd, every branch
value is a closed form on the sign s = +-1: b = s i w/2 with w = q sigma,
a = -s i E and gamma + nu + 1 = s i q A (confining); u_p = s i q c_p per
power and 1 + gamma = s i q A (oscillator p = 2, inverse p <= -2).  The
relations read the same products w, q c_p and q A that the branches hold,
so a real float input leaves a residual of 0 (short of a subnormal w).  No
value is divided out of another, so a float potential coefficient leaks no
rounding into gamma or a; a Coulomb a = q A E / gammat takes 1/gammat as
(gamma0 - n')/(gamma0^2 - n'^2) for a surd gamma0.  A branch holds each
value once, named as in the relations (u2, u6); the report prints the values
the gate substitutes, the levels the branches' exact discriminant.  A solve
reads its potential and builds the values free of s once; the gate strips
each term of its unknowns once, then multiplies their powers in unknown order.

The relations and branch values are ``Expr`` values of the exact kernel in
``nilpotent.exact``, which also prints them, every product expanded and the
terms in one exact order, and holds the two input records, ``PotentialSpec``
and ``QuantumNumbers``; one ``_Kernel`` per solve, and the residual gate
substitutes and expands its polynomials.  The flux-tube geometry (the
infrared radius and L_min) is ``nilpotent.geometry``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, NamedTuple

from . import _echo
from .exact import (Expr, PotentialSpec, QuantumNumbers, _HALF, _I, _Kernel, _add,
                    _common_kernel, _constant_poly, _format, _lowest, _mul, _num, _pow,
                    _reciprocal, _scaled, _value)

__all__ = [
    "PotentialSpec",
    "QuantumNumbers",
    "Relation",
    "AnsatzBranch",
    "AnsatzSolution",
    "LevelSeries",
    "UnsupportedPotentialError",
    "InconsistentSystemError",
    "SupercriticalCouplingError",
    "match_coefficients",
    "coulomb_levels",
    "oscillator_levels",
    "lennard_jones_solution",
    "residual_verify",
    "residual_detail",
]


class UnsupportedPotentialError(ValueError):
    """Potential outside the four solvable families."""


class InconsistentSystemError(ValueError):
    def __init__(self, power: int, message: str):
        self.power = power
        super().__init__(f"{message} (offending power r^{power})")


class SupercriticalCouplingError(ValueError):
    """q^2 A^2 >= (j + 1/2)^2: no real Coulomb-type level."""


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


class Relation(NamedTuple):
    """The Laurent coefficient of the pointwise condition at one power of r,
    as the relation expr == 0; each power has one relation, so ``power`` is a
    key.  ``matched`` holds when every group of the derivation at that power
    is one the family solves, and ``note`` names the groups.  ``expr`` is an
    Expr (or a plain number), printed by ``str`` expanded."""

    power: int
    expr: object
    matched: bool
    note: str = ""


class AnsatzBranch(NamedTuple):
    """One sign branch of the solved trial state.

    ``exp_coefficients`` are the literal exponent-polynomial coefficients
    (exponent = -a r + sum_s b_s r^s); ``solver_vars``, which the report
    prints and the gate substitutes, keys each value by its unknown in the
    relations (a, b, u6, m; gamma0 and gammat as one_plus_gamma and
    gamma_plus_nu_plus_1), E_level only printed.  Every value is an Expr or
    a plain int, Fraction or float.
    """

    exp_coefficients: dict
    gamma: object
    n_prime: int
    solver_vars: dict
    decaying: "bool | None" = None

    def to_dict(self) -> dict:
        return {
            "a": _format(self.solver_vars["a"]),
            "expCoefficients": {str(k): _format(v) for k, v in self.exp_coefficients.items()},
            "gamma": _format(self.gamma),
            "nPrime": self.n_prime,
            "solverVars": {k: _format(v) for k, v in self.solver_vars.items()},
            "decaying": self.decaying,
        }


class LevelSeries(NamedTuple):
    family: str  # coulomb | confining | oscillator
    levels: Callable  # (j, n_prime) -> E/m

    def table(self, js, n_primes) -> list[dict]:
        return [
            {"j": str(j), "nPrime": n, "E_over_m": float(self.levels(j, n))}
            for j in js
            for n in n_primes
        ]


class AnsatzSolution(NamedTuple):
    family: str
    potential: PotentialSpec
    quantum_numbers: QuantumNumbers
    branches: tuple[AnsatzBranch, ...]
    relations: tuple[Relation, ...]
    level_series: "LevelSeries | None" = None

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "potential": self.potential.to_dict(),
            "j": str(self.quantum_numbers.j),
            "nPrime": self.quantum_numbers.n_prime,
            "branches": [b.to_dict() for b in self.branches],
            "relations": [
                {"power": r.power, "expr": _format(r.expr), "matched": r.matched, "note": r.note}
                for r in self.relations
            ],
        }


def _detect_family(V: PotentialSpec) -> str:
    powers = sorted(V.terms)
    positive = [n for n in powers if n > 0]
    negative = [n for n in powers if n < 0]
    if 0 in powers:
        raise UnsupportedPotentialError(
            "constant offsets must be absorbed into E before solving (E' = E - qC)"
        )
    if not powers:
        if V.coulomb_phase == 0:
            raise UnsupportedPotentialError("potential has no terms and no Coulomb phase")
        return "coulomb"
    if positive == [1] and not negative:
        return "confining"
    if positive == [2] and not negative:
        return "oscillator"
    if not positive and all(n <= -2 for n in negative):
        return "inverse"
    if positive == [1, 2]:
        raise InconsistentSystemError(3, "r and r^2 terms cannot be matched together")
    raise UnsupportedPotentialError(f"unsupported potential powers {_echo(str(powers))}; "
                                    "supported: r, r^2, A/r, inverse powers <= -2")


def _product(factors, g) -> tuple:
    """The product from the left, numbers first, with a factor object that
    recurs raised to its count: q, sigma, q, A give q**2 * sigma * A, so a
    float rounds as the derivation's q**2 does.  The factor None reads g.
    Returned as a kernel polynomial; the numbers multiply as one int ratio
    until a float meets it, which then rounds as a Fraction times a float."""
    counts = {}
    for f in factors:
        if f is None:
            f = g
        seen = counts.get(id(f))
        counts[id(f)] = (f, 1) if seen is None else (f, seen[1] + 1)
    n = d = 1
    x = None  # the float product, from the first float on
    exprs = []
    for f, k in counts.values():
        if type(f) is Expr:
            if k > 1:  # a Gaussian constant's power may be real
                f, k = f**k, 1
            if type(f) is Expr:
                exprs.append(f)
                continue
        if type(f) is float:
            x = (n / d if x is None else x) * _pow(f, k)
        elif x is None:
            n, d = n * f.numerator**k, d * f.denominator**k
        else:
            x *= f.numerator**k / f.denominator**k
    if not exprs:
        return _lowest(d, {0: n}) if x is None else (1, {0: x} if x else {})
    out = exprs[0].poly
    if x is not None or n != d:  # the numbers times each term of the first Expr
        out = _scaled(out, *((n, d) if x is None else (x, 1)))
    if len(exprs) == 1:
        return out
    out = _value(exprs[0].kernel, out)
    for f in exprs[1:]:
        out = _mul(out, f)
    return out.poly if isinstance(out, Expr) else _constant_poly(out) if out else (1, {})


def _laurent_relations(kernel, W, u, head, J, m, groups):
    """The Laurent coefficients of W(r)^2 + u(r)^2 - m^2 - J^2/r^2 as relations.

    ``W`` and ``u`` list (power, factors) terms; the factor None is the g of
    u's g/r, gamma0 at the ``head`` powers and gammat elsewhere.  Each pair of
    terms is multiplied once and each power summed into one polynomial.
    ``groups`` lists (power, matched, note) in print order; a power listed
    twice is matched only if both groups are, and joins their notes with " + ".
    """
    g0, gt = kernel.symbol("gamma0"), kernel.symbol("gammat")
    sums = {}
    for terms in (W, u):
        for i, (p, f) in enumerate(terms):
            for k, (p2, f2) in enumerate(terms[i:]):
                g = g0 if p + p2 in head else gt
                factors = (*f, *f2) if k == 0 else (2, *f, *f2)
                sums.setdefault(p + p2, []).append(_product(factors, g))
    sums[0].append(_product((-1, m, m), None))
    sums[-2].append(_product((-1, J, J), None))
    merged = {}
    for power, matched, note in groups:
        was_matched, was_note = merged.get(power, (True, ""))
        merged[power] = (was_matched and matched, " + ".join(filter(None, (was_note, note))))
    assert merged.keys() == sums.keys(), "every power of the expansion is printed once"
    return tuple(Relation(p, _value(kernel, _add(sums[p])), ok, note)
                 for p, (ok, note) in merged.items())


_HEAD = "series head, nu = 0"
_TAILS = ((-1, False, "tail equation; with 1/r^2 it eliminates to the level formula"),
          (-2, False, "tail equation; with 1/r it eliminates to the level formula"))
_CROSS = "cross term left open by the printed derivation"
_OSCILLATOR_SERIES = LevelSeries("oscillator", lambda j, n_prime: oscillator_levels(1, j, n_prime))


def _solve_confining(kernel, V, qn, E, m):
    q, A, sigma = V.coupling, V.coulomb_phase, V.terms[1]
    # w = q sigma and q A are each one product for the relations and the
    # branches, as the power laws' q c_p and q A, so a float residual is 0.  A
    # Gaussian q, sigma or A still keeps its own factors in the relations (the
    # printed text is the same with w and qA), so a complex float residual may
    # read a rounding, such as 7.1e-15 for sigma = 1.2i, q = -6.0, A = -1.6 at
    # j = 9/2, where w reads 0.0 (ROADMAP item 20)
    w, qA = q * sigma, q * A
    W = ([(1, (-1, q, sigma)), (-1, (q, A))] if any(isinstance(x, Expr) for x in (q, sigma, A))
         else [(1, (-1, w)), (-1, (qA,))])
    _a, _b = kernel.symbol("a"), kernel.symbol("b")
    n = qn.n_prime
    # exponent b2 r^2 with b2 = -b, so u holds 2 b2 r = -2 b r
    open_note = "left open by the three-equation solution"
    relations = _laurent_relations(
        kernel, [*W, (0, (E,))],
        [(1, (-2, _b)), (-1, (None,)), (0, (-1, _a))], (), qn.j_plus_half, m,
        [(2, True, ""), (1, True, ""), (-1, True, ""), (0, False, open_note),
         (-2, False, open_note)])
    # the r^2, r and 1/r relations in closed form at s = 1; s = -1 negates them
    b, a, gt = _I * (w / 2), -_I * E, _I * qA
    branches = []
    for _ in (1, -1):
        branches.append(AnsatzBranch(
            exp_coefficients={2: -b}, gamma=gt + (-1 - n), n_prime=n,
            solver_vars={"b": b, "a": a, "gamma_plus_nu_plus_1": gt}))
        b, a, gt = -b, -a, -gt
    return "confining", tuple(branches), relations, None


def _coulomb_root(sqrt, qA, J):
    """``sqrt`` of (j + 1/2)^2 - (q A)^2, for the branches and the level series:
    exact for an exact q A, each square a float rounded once for a float."""
    if isinstance(qA, Expr):
        raise UnsupportedPotentialError(f"a pure Coulomb potential needs a real q A, got {qA}")
    disc = _pow(J, 2) - _pow(qA, 2)
    if not disc > 0:
        raise SupercriticalCouplingError("q^2 A^2 reaches (j+1/2)^2: supercritical coupling")
    return sqrt(disc)


def _solve_coulomb(kernel, V, qn, E, m):
    qA = V.coupling * V.coulomb_phase
    _a, m_sym = kernel.symbol("a"), kernel.symbol("m")
    J = qn.j_plus_half
    n = qn.n_prime
    relations = _laurent_relations(
        kernel, [(-1, (qA,)), (0, (E,))], [(-1, (None,)), (0, (-1, _a))], (-2,), J, m_sym,
        [(-2, True, _HEAD + ": the indicial condition fixing gamma"),
         (-1, True, "series tail, nu = n'"), (0, True, "fixes the level through m")])
    g0_root = _coulomb_root(kernel.sqrt, qA, J)
    root_E2 = kernel.sqrt(_pow(E, 2))
    branches = []
    for s in (1, -1):
        g0 = s * g0_root          # gamma + 1
        gt = g0 + n               # gamma + nu + 1 at termination
        if gt == 0:
            raise UnsupportedPotentialError(
                f"n' = {n} equals sqrt((j+1/2)^2 - (qA)^2), the pole of the second branch "
                "(a = qA E / (gamma + n' + 1))"
            )
        # a = c E with c = qA / gt in Q(sqrt(f)), and m = sqrt(E^2) sqrt(1 + c^2); for a
        # surd g0, 1/gt = (g0 - n')/(g0^2 - n'^2), whose denominator is a nonzero rational
        c = qA * ((g0 - n) / (g0 * g0 - n * n) if isinstance(gt, Expr) else _reciprocal(gt))
        a = c * E
        c2 = _value(kernel, kernel.mul(c.poly, c.poly)) if isinstance(c, Expr) else c * c
        m_expr = root_E2 * kernel.sqrt(1 + c2)
        branches.append(AnsatzBranch(
            exp_coefficients={}, gamma=g0 - 1, n_prime=n,
            solver_vars={"a": a, "one_plus_gamma": g0, "gamma_plus_nu_plus_1": gt, "m": m_expr},
            decaying=(s == 1)))
    series = LevelSeries("coulomb", functools.partial(coulomb_levels, qA))
    return "coulomb", tuple(branches), relations, series


def _solve_power(kernel, V, qn, E, m):
    """The power laws c_p r^p: the oscillator (p = 2), up to two inverse powers (p <= -2)."""
    q, A = V.coupling, V.coulomb_phase
    if A == 0:
        raise InconsistentSystemError(-2, "spherical symmetry forces a nonzero Coulomb phase term")
    qA = q * A
    J = qn.j_plus_half
    n = qn.n_prime
    powers = sorted(V.terms, reverse=True)  # closest to zero first
    if len(powers) > 2:
        raise UnsupportedPotentialError("at most two inverse-power terms are supported")
    coeffs = {p: q * V.terms[p] for p in powers}
    _a = kernel.symbol("a")
    u_names = {p: f"u{abs(p)}" for p in powers}
    u_syms = {p: kernel.symbol(name) for p, name in u_names.items()}
    # exponent u_p r^(p+1) / (p+1), so u holds u_p r^p
    relations = _laurent_relations(
        kernel, [*((p, (coeffs[p],)) for p in powers), (-1, (qA,)), (0, (E,))],
        [*((p, (u_syms[p],)) for p in powers), (-1, (None,)), (0, (-1, _a))],
        {p - 1 for p in powers}, J, m,
        [(2 * powers[-1], True, ""), *((hi + lo, True, "") for hi, lo in zip(powers, powers[1:])),
         *((p - 1, True, _HEAD) for p in powers), (0, True, ""), *_TAILS,
         *((p, False, _CROSS) for p in powers), *((2 * p, True, "") for p in powers[:-1])])
    a = kernel.sqrt(_pow(m, 2) - _pow(E, 2))
    # the extreme, cross and head relations in closed form at s = 1; s = -1 negates them
    u_vals, g0 = {p: _I * coeffs[p] for p in powers}, _I * qA
    branches = []
    for _ in (1, -1):
        gt = g0 + n
        branches.append(AnsatzBranch(
            exp_coefficients={p + 1: u_vals[p] / (p + 1) for p in powers}, gamma=g0 - 1,
            n_prime=n,
            solver_vars={**{u_names[p]: u_vals[p] for p in powers}, "one_plus_gamma": g0, "a": a,
                         "gamma_plus_nu_plus_1": gt, "E_level": -m * gt / J}))
        u_vals, g0 = {p: -u for p, u in u_vals.items()}, -g0
    family = "oscillator" if powers == [2] else "inverse-multipole"
    return family, tuple(branches), relations, _OSCILLATOR_SERIES


_FAMILY_SOLVERS = {
    "confining": _solve_confining,
    "coulomb": _solve_coulomb,
    "oscillator": _solve_power,
    "inverse": _solve_power,
}


_last_fold = None  # (V, its fields as read, family, fold) of the last call


def _folded(V: PotentialSpec) -> tuple[str, PotentialSpec]:
    """The family of ``V`` and ``V`` as its solver reads it: normalized, with
    c_{-1} folded into the phase as ``match_coefficients`` says; read once for
    the same ``V`` with the same fields, and copied for each call."""
    global _last_fold
    last, fields = _last_fold, (tuple(V.terms.items()), V.coulomb_phase, V.coupling)
    if last is None or last[0] is not V or last[1] != fields:
        Vn = V.normalized()
        c_m1 = Vn.terms.pop(-1, 0)
        if c_m1 != 0:
            # the terms alone fix the family, so a pure c_{-1}/r is Coulomb
            confining = set(Vn.terms) == {1}
            Vn = Vn._replace(coulomb_phase=Vn.coulomb_phase + (-c_m1 if confining else c_m1))
        last = _last_fold = (V, fields, _detect_family(Vn), Vn)
    return last[2], last[3]._replace(terms=dict(last[3].terms))


def match_coefficients(V: PotentialSpec, qn: QuantumNumbers, E=None, m=None) -> AnsatzSolution:
    """Solve the coefficient relations for a supported potential family.

    E and m default to symbols; a number given for either joins the solve's
    kernel as the potential's coefficients do.  Families that pin one of
    them (the Coulomb series pins m through E, the oscillator-type families
    pin E through m) return the pinned expression inside each branch.  An
    explicit c_{-1} term folds into the phase with the family's bracket sign
    (negatively for the confining family, where potential terms enter as
    -qV).  Every relation and branch value is an Expr of one new ``_Kernel``.
    """
    family, Vn = _folded(V)
    if Vn.terms and Vn.coupling == 0:
        raise UnsupportedPotentialError(
            f"zero coupling q: the {family} relations divide by q times the potential terms"
        )
    kernel = _Kernel()
    E = kernel.symbol("E") if E is None else kernel.adopt(_num(E))
    m = kernel.symbol("m") if m is None else kernel.adopt(_num(m))
    Vk = PotentialSpec({p: kernel.adopt(c) for p, c in Vn.terms.items()},
                       kernel.adopt(Vn.coulomb_phase), kernel.adopt(Vn.coupling))
    name, branches, relations, series = _FAMILY_SOLVERS[family](kernel, Vk, qn, E, m)
    return AnsatzSolution(name, Vn, qn, branches, tuple(relations), series)


# the relations' names of the two report keys that do not name their unknown
_UNKNOWNS = {"one_plus_gamma": "gamma0", "gamma_plus_nu_plus_1": "gammat"}


def residual_detail(sol: AnsatzSolution, matched_only: bool = True) -> dict:
    """Per-(branch, power) residual magnitudes of the coefficient relations:
    one entry per branch and relation, each power having one relation.

    The relations and branch values are polynomials of the solution's own
    ``_Kernel``; each branch's ``solver_vars`` (E_level aside) are substituted
    into each relation and expanded exactly, with no simplification.  An
    entry reads 0.0 only when its residual is the zero polynomial: a true
    zero left unreduced can only fail the gate, and a nonzero value never
    passes it.  A value the kernel does not read (a nan, or an object that
    is no number or Expr of the solution) reads inf.
    """
    kernel = _common_kernel(*(rel.expr for rel in sol.relations)) or _Kernel()
    relations = [(rel.power, kernel.reading(rel.expr))
                 for rel in sol.relations if rel.matched or not matched_only]
    out = {}
    for bi, branch in enumerate(sol.branches):
        values = {kernel.symbols[name]: kernel.reading(v) for key, v in branch.solver_vars.items()
                  if (name := _UNKNOWNS.get(key, key)) in kernel.symbols}
        powers = {}
        for power, poly in relations:
            out[(bi, power)] = kernel.magnitude(kernel.substitute(poly, values, powers))
    return out


def residual_verify(V: PotentialSpec, sol: AnsatzSolution, qn: QuantumNumbers) -> float:
    """Largest absolute residual coefficient over the matched relations.

    Exact zero for rational inputs; bounded by 1e-10 for float inputs.
    Unsolved symbols (the free E and m of families that leave them open)
    and surds of them are treated as polynomial variables, the residual
    being the largest coefficient magnitude (``_Kernel.magnitude``).  A
    ``sol`` matched for another potential or other quantum numbers than
    ``V`` and ``qn`` raises ValueError.
    """
    if sol.potential != _folded(V)[1]:
        raise ValueError(f"the solution was matched for the potential {sol.potential.to_dict()}, "
                         f"not {V.to_dict()}")
    if sol.quantum_numbers != qn:
        raise ValueError(f"the solution was matched for {sol.quantum_numbers}, not {qn}")
    return max(residual_detail(sol, matched_only=True).values(), default=0.0)


# ---------------------------------------------------------------------------
# closed-form level series
# ---------------------------------------------------------------------------


def coulomb_levels(qA, j, n_prime: int) -> float:
    """E/m = (1 + q^2 A^2 / (sqrt((j+1/2)^2 - q^2 A^2) + n')^2)^(-1/2), from the
    branches' discriminant: exact up to its root for an exact q A."""
    gt = _coulomb_root(math.sqrt, qA, _num(j) + _HALF) + n_prime
    return (1.0 + _pow(qA, 2) / (gt * gt)) ** -0.5


def oscillator_levels(m, j, n_prime: int):
    """E = -m (1/2 + n') / (j + 1/2); equally spaced with spacing m/(j+1/2)."""
    if isinstance(m, (int, Fraction)) and isinstance(j, (int, Fraction)):
        return Fraction(-m * (2 * n_prime + 1) * j.denominator, 2 * j.numerator + j.denominator)
    return -float(m) * (0.5 + n_prime) / (float(j) + 0.5)


def lennard_jones_solution(A, B, C, qn: QuantumNumbers) -> AnsatzSolution:
    """Inverse 6-12 potential B/r^6 - C/r^12 with Coulomb phase A.

    The two eigenvalue coefficients come out imaginary with opposite signs
    (u12 = +-iC against u6 = -+iB) and the level series is the oscillator one.
    """
    V = PotentialSpec({-6: B, -12: -_num(C)}, coulomb_phase=A)
    return match_coefficients(V, qn)
