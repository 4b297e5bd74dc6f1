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
r^0; oscillator r^4, the r head and r^0; inverse each r^{2p}, the r^{p+p'}
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
value is a closed form on the sign s = +-1: b = s i q sigma/2, a = -s i E and
gamma + nu + 1 = s i q A (confining); b = s i w2/3 and 1 + gamma = s i q A
(oscillator); u_p = s i q c_p per power and 1 + gamma = s i q A (inverse).
No value is divided out of another, so a float potential coefficient leaks
no rounding into gamma or a.

The solver builds its relations and branch values as exact sympy
expressions (Gaussian rationals and surds); floats only when the caller
passes floats.  The residual gate reads those same expressions on a small
exact kernel (``_Kernel``): int, Fraction or float coefficients over
monomials in the symbols, with I and each surd a generator that reduces by
its square, so it does its substitution and expansion without sympy
arithmetic.  Sympy loads on the first exact solve, not at import: the
confinement geometry, the closed-form level series, rational coefficient
parsing and a Fraction j never need it.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from fractions import Fraction
from typing import Callable, NamedTuple

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
    "infrared_radius",
    "lmin",
]


class UnsupportedPotentialError(ValueError):
    """Potential outside the four solvable families."""


class InconsistentSystemError(ValueError):
    def __init__(self, power: int, message: str):
        self.power = power
        super().__init__(f"{message} (offending power r^{power})")


class SupercriticalCouplingError(ValueError):
    """q^2 A^2 >= (j + 1/2)^2: no real Coulomb-type level."""


class _DeferredSympy:
    """Stands in for the sympy module until exact work first reads from it.

    That first attribute read imports sympy and rebinds this module's ``sp``
    to it, so every later ``sp.<name>`` is a plain module attribute with no
    check in front of it.
    """

    def __getattr__(self, name):
        global sp
        import sympy as sp

        return getattr(sp, name)


sp = _DeferredSympy()


@functools.cache
def _symbols():
    """The solver unknowns a, b, gamma0 (= gamma + 1) and gammat (= gamma +
    nu + 1), then the free E and m."""
    return sp.symbols("a b gamma0 gammat E m")


def _num(x):
    """Coerce to an exact sympy number when possible, else keep the float."""
    if isinstance(x, Fraction):
        return sp.Rational(x.numerator, x.denominator)
    if isinstance(x, (int, sp.Rational)):
        return sp.Integer(x) if isinstance(x, int) else x
    if isinstance(x, sp.Expr):
        return x
    if isinstance(x, float):
        return sp.Float(x)
    return sp.sympify(x)


class PotentialSpec(NamedTuple):
    """Laurent-polynomial potential with its Coulomb phase tracked separately.

    ``terms`` maps integer powers n to coefficients c_n of c_n r^n; the
    mandatory spherical-symmetry phase A/r lives in ``coulomb_phase`` rather
    than in terms[-1], and ``coupling`` is the charge strength q
    (q = sqrt(alpha_s) for the strong family, 1 where not applicable).
    """

    terms: dict
    coulomb_phase: object = 0
    coupling: object = 1

    def normalized(self) -> "PotentialSpec":
        terms = {int(n): v for n, c in self.terms.items() if (v := _num(c)) != 0}
        return PotentialSpec(terms, _num(self.coulomb_phase), _num(self.coupling))

    def to_dict(self) -> dict:
        return {
            "terms": {str(n): str(c) for n, c in self.terms.items()},
            "coulombPhase": str(self.coulomb_phase),
            "q": str(self.coupling),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PotentialSpec":
        """Exact coefficients from decimal, exponent or p/q literals; a trailing
        i, I or j makes one imaginary ('1/2i' is i/2).  Anything else, nan and
        inf included, raises ValueError."""
        def parse(v):
            s = str(v).strip()
            imaginary = s.endswith(("i", "I", "j"))
            body = (s[:-1] or "1") if imaginary else s
            try:
                value = Fraction(body)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"expected a rational number, got {s!r}") from None
            return sp.I * _num(value) if imaginary else value

        def power(k):
            try:
                return int(str(k))
            except ValueError:
                raise ValueError(f"a power must be an integer, got {k!r}") from None

        terms = d.get("terms", {}) if isinstance(d, dict) else None
        if not isinstance(terms, dict):
            raise ValueError("a potential is an object whose 'terms' is an object of powers")
        return cls(
            {power(k): parse(v) for k, v in terms.items()},
            parse(d.get("coulombPhase", 0)),
            parse(d.get("q", 1)),
        )


# a NamedTuple body may not define __new__, so the checks sit in a subclass
class _QuantumFields(NamedTuple):
    j: object  # half-integer total angular momentum
    n_prime: int = 0


class QuantumNumbers(_QuantumFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # a Fraction or int j is checked without sympy
        j = self.j if isinstance(self.j, (int, Fraction)) else _num(self.j)
        if j < Fraction(1, 2):
            raise ValueError("j must be at least 1/2")
        if float((2 * j) % 2) != 1:
            raise ValueError(f"j must be a half-integer (2j odd), got {self.j}")
        if self.n_prime < 0:
            raise ValueError("n' must be nonnegative")
        return self

    @property
    def j_plus_half(self):
        return _num(self.j) + sp.Rational(1, 2)


class Relation(NamedTuple):
    """The Laurent coefficient of the pointwise condition at one power of r,
    as the relation expr == 0; each power has one relation, so ``power`` is a
    key.  ``matched`` holds when every group of the derivation at that power
    is one the family solves, and ``note`` names the groups."""

    power: int
    expr: sp.Expr
    matched: bool
    note: str = ""


class AnsatzBranch(NamedTuple):
    """One sign branch of the solved trial state.

    ``exp_coefficients`` are the literal exponent-polynomial coefficients
    (exponent = -a r + sum_s b_s r^s); ``solver_vars`` carries the family's
    own variable names (b, c, ...) as they appear in the derivations.
    """

    a: sp.Expr
    exp_coefficients: dict
    gamma: sp.Expr
    n_prime: int
    solver_vars: dict
    subs: dict
    decaying: "bool | None" = None

    def to_dict(self) -> dict:
        return {
            "a": str(self.a),
            "expCoefficients": {str(k): str(v) for k, v in self.exp_coefficients.items()},
            "gamma": str(self.gamma),
            "nPrime": self.n_prime,
            "solverVars": {k: str(v) for k, v in self.solver_vars.items()},
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
                {"power": r.power, "expr": str(r.expr), "matched": r.matched, "note": r.note}
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
    raise UnsupportedPotentialError(
        f"unsupported potential powers {powers}; supported: r, r^2, A/r, inverse powers <= -2"
    )


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
_OSCILLATOR_SERIES = LevelSeries("oscillator", lambda j, n_prime: oscillator_levels(1, j, n_prime))


def _solve_confining(V, qn, E, m):
    q, A = V.coupling, V.coulomb_phase
    sigma = V.terms[1]
    _a, _b, _, _gt, _, _ = _symbols()
    n = qn.n_prime
    # exponent b2 r^2 with b2 = -b, so u holds 2 b2 r = -2 b r
    open_note = "left open by the three-equation solution"
    relations = _laurent_relations(
        [(1, (-1, q, sigma)), (-1, (q, A)), (0, (E,))],
        [(1, (-2, _b)), (-1, (None,)), (0, (-1, _a))], (), qn.j_plus_half, m,
        [(2, True, ""), (1, True, ""), (-1, True, ""), (0, False, open_note),
         (-2, False, open_note)])
    branches = []
    for s in (1, -1):
        # the r^2, r and 1/r relations in closed form
        b = s * sp.I * (q * sigma / 2)
        a = -s * sp.I * E
        gt = s * sp.I * (q * A)
        branches.append(AnsatzBranch(
            a=a, exp_coefficients={2: -b}, gamma=sp.Add(gt, -1 - n), n_prime=n,
            solver_vars={"b": b, "a": a, "gamma_plus_nu_plus_1": gt},
            subs={_a: a, _b: b, _gt: gt}))
    return "confining", tuple(branches), relations, None


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
    J = qn.j_plus_half
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
            a=a, exp_coefficients={}, gamma=g0 - 1, n_prime=n,
            solver_vars={"a": a, "one_plus_gamma": g0, "gamma_plus_nu_plus_1": gt, "m": m_expr},
            subs={_a: a, _g0: g0, _gt: gt, m_sym: m_expr}, decaying=(s == 1)))
    series = LevelSeries("coulomb", functools.partial(coulomb_levels, float(qA)))
    return "coulomb", tuple(branches), relations, series


def _solve_oscillator(V, qn, E, m):
    q, A = V.coupling, V.coulomb_phase
    if A == 0:
        raise InconsistentSystemError(-2, "spherical symmetry forces a nonzero Coulomb phase term")
    w2 = q * V.terms[2]
    _a, _b, _g0, _gt, _, _ = _symbols()
    qA = q * A
    J = qn.j_plus_half
    n = qn.n_prime
    # exponent b r^3, so u holds 3 b r^2
    relations = _laurent_relations(
        [(2, (w2,)), (-1, (qA,)), (0, (E,))], [(2, (3, _b)), (-1, (None,)), (0, (-1, _a))],
        (1,), J, m,
        [(4, True, ""), (1, True, _HEAD), (0, True, ""), *_TAILS, (2, False, _CROSS)])
    branches = []
    for s in (1, -1):
        b = s * sp.I * (w2 / 3)
        g0 = s * sp.I * qA  # 1 + gamma = +- i q A
        gt = g0 + n
        a = sp.sqrt(m**2 - E**2)
        # tail elimination: m^2 gt^2 / E^2 = J^2, the level series
        branches.append(AnsatzBranch(
            a=a, exp_coefficients={3: b}, gamma=g0 - 1, n_prime=n,
            solver_vars={"b": b, "one_plus_gamma": g0, "a": a, "gamma_plus_nu_plus_1": gt,
                         "E_level": -m * gt / J},
            subs={_a: a, _b: b, _g0: g0, _gt: gt}))
    return "oscillator", tuple(branches), relations, _OSCILLATOR_SERIES


def _solve_inverse(V, qn, E, m):
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
        named = {chr(ord("b") + k): u_vals[p] for k, p in enumerate(powers)}
        branches.append(AnsatzBranch(
            a=a, exp_coefficients={p + 1: u_vals[p] / (p + 1) for p in powers}, gamma=g0 - 1,
            n_prime=n,
            solver_vars={**named, "one_plus_gamma": g0, "a": a, "gamma_plus_nu_plus_1": gt,
                         "E_level": -m * gt / J},
            subs={_a: a, _g0: g0, _gt: gt, **{u_syms[p]: u_vals[p] for p in powers}}))
    return "inverse-multipole", tuple(branches), relations, _OSCILLATOR_SERIES


_FAMILY_SOLVERS = {
    "confining": _solve_confining,
    "coulomb": _solve_coulomb,
    "oscillator": _solve_oscillator,
    "inverse": _solve_inverse,
}


def _folded(V: PotentialSpec) -> tuple[str, PotentialSpec]:
    """The family of ``V`` and ``V`` as its solver reads it: normalized, with
    c_{-1} folded into the phase as ``match_coefficients`` says."""
    Vn = V.normalized()
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
    name, branches, relations, series = _FAMILY_SOLVERS[family](Vn, qn, E, m)
    return AnsatzSolution(name, Vn, qn, branches, tuple(relations), series)


class _NotPolynomial(Exception):
    """A node the gate's kernel does not read: nan, zoo, oo, a zero or symbolic
    denominator, or anything but a sum, product, power, symbol or number."""


# bits per variable in a packed monomial: an exponent of 2**16 would carry into
# the next field, and a residual of that degree takes the kernel far too long
_FIELD = 16
_ROOT = (1 << _FIELD) - 2  # a generator field's bits above exponent 1
_TINY = math.ulp(0.0)  # the reading of an exact nonzero coefficient that rounds to 0.0


def _collect(terms) -> dict:
    """The polynomial sum of (monomial, coefficient) pairs, zeros dropped."""
    out = {}
    for mono, c in terms:
        if mono in out:
            out[mono] += c
        else:
            out[mono] = c
    return {mono: c for mono, c in out.items() if c}


class _Kernel:
    """Exact polynomial arithmetic for one run of the residual gate.

    A polynomial is a dict from monomials to nonzero int, Fraction or float
    coefficients.  A monomial packs one exponent per variable into _FIELD-bit
    fields of an int, so multiplying monomials adds them.  The variables are
    the symbols met and the generators: I, and sqrt(x) for each radicand x
    met in x**(k/2).  A generator reduces by its square (I**2 = -1,
    sqrt(x)**2 = x), so no generator exponent exceeds 1 in a result.  One
    whose square holds a symbol (sqrt(m**2 - E**2), the Coulomb m) is one
    more variable of the residual, as Poly would take it; the others (I,
    sqrt(11)) are numbers, read as complex values only by ``magnitude``.
    """

    def __init__(self):
        self.symbols = {}  # Symbol -> the shift of its field
        self.roots = {}  # radicand -> the shift of its generator's field
        self.squares = {0: {0: -1}}  # generator shift -> its square, oldest first; I is 0
        self.fields = 1
        self.symbolic = 0  # the fields of symbols and of generators whose square holds one
        self.high = _ROOT  # the generator fields' bits above exponent 1

    def _field(self):
        shift, self.fields = self.fields * _FIELD, self.fields + 1
        return shift

    def variable(self, symbol) -> int:
        """The shift of ``symbol``'s field."""
        shift = self.symbols.get(symbol)
        if shift is None:
            shift = self.symbols[symbol] = self._field()
            self.symbolic |= (1 << _FIELD) - 1 << shift
        return shift

    def _root(self, radicand) -> int:
        shift = self.roots.get(radicand)
        if shift is None:
            square = self._poly(radicand)  # registers the generators it holds first
            shift = self.roots[radicand] = self._field()
            self.squares[shift] = square
            self.high |= _ROOT << shift
            if any(mono & self.symbolic for mono in square):
                self.symbolic |= (1 << _FIELD) - 1 << shift
        return shift

    def poly(self, expr) -> dict:
        """``expr`` as a reduced polynomial; {0: nan} if the kernel cannot read it."""
        try:
            return self._poly(expr)
        except _NotPolynomial:
            return {0: math.nan}

    def _poly(self, expr) -> dict:
        if expr.is_Symbol:
            return {1 << self.variable(expr): 1}
        if expr.is_Rational:
            return {0: expr.p if expr.q == 1 else Fraction(expr.p, expr.q)} if expr.p else {}
        if expr.is_Mul:
            factors = iter(expr.args)
            out = self._poly(next(factors))
            for factor in factors:
                out = self.mul(out, self._poly(factor))
            return out
        if expr.is_Add:
            return _collect(t for term in expr.args for t in self._poly(term).items())
        if expr.is_Pow:
            base, e = expr.args
            if not e.is_Rational or e.q > 2:
                raise _NotPolynomial(expr)
            if e.q == 1:
                if base.is_Symbol and e.p > 0:
                    return {e.p << self.variable(base): 1}
                p = self._poly(base)
                return self.power(p if e.p > 0 else self._inverse(p), abs(e.p))
            shift = self._root(base)
            out = self.power({1 << shift: 1}, abs(e.p))
            if e.p < 0:  # x**(-k/2) = x**(k/2) / x**k
                out = self.mul(out, self.power(self._inverse(self.squares[shift]), -e.p))
            return out
        if expr.is_Float:
            return {0: float(expr)} if expr else {}
        if expr is sp.I:
            return {1: 1}
        raise _NotPolynomial(expr)

    def mul(self, p, q) -> dict:
        """The product, each generator squared replaced by its square until none is."""
        todo = [(m1 + m2, c1 * c2) for m1, c1 in p.items() for m2, c2 in q.items()]
        done = []
        while todo:
            mono, c = todo.pop()
            if mono & self.high:
                shift = next(s for s in self.squares if mono >> s & _ROOT)
                rest = mono - (2 << shift)
                todo.extend((rest + m, c * c2) for m, c2 in self.squares[shift].items())
            else:
                done.append((mono, c))
        return _collect(done)

    def power(self, p, k: int) -> dict:
        out = p
        for _ in range(k - 1):
            out = self.mul(out, p)
        return out

    def _inverse(self, p) -> dict:
        """1/p for a nonzero p free of symbols, by conjugates: p = P + Q g times
        P - Q g is free of the generator g, newest generator first, since a
        square holds only generators older than its own."""
        if any(mono & self.symbolic for mono in p):
            raise _NotPolynomial("a denominator that holds a symbol")
        num = {0: 1}
        for shift in reversed(self.squares):
            bit = 1 << shift
            if any(mono & bit for mono in p):
                conj = {mono: -c if mono & bit else c for mono, c in p.items()}
                num, p = self.mul(num, conj), self.mul(p, conj)
        if p.keys() != {0}:  # zero, or float leftovers of a generator
            raise _NotPolynomial("a denominator that reduces to no nonzero number")
        d = p[0]
        inv = 1 / d if isinstance(d, float) else Fraction(1) / d
        return {mono: c * inv for mono, c in num.items()}

    def substitute(self, poly, values: dict, powers: dict) -> dict:
        """``poly`` with each symbol field in ``values`` (shift -> polynomial)
        replaced by its value; ``powers`` keeps the value powers of one branch."""
        terms = []
        for mono, c in poly.items():
            term = {mono: c}
            for shift, value in values.items():
                e = mono >> shift & (1 << _FIELD) - 1
                if e:
                    if (shift, e) not in powers:
                        powers[shift, e] = self.power(value, e)
                    term = self.mul({m - (e << shift): k for m, k in term.items()}, powers[shift, e])
            terms.extend(term.items())
        return _collect(terms)

    def _value(self, atoms) -> complex:
        """The complex value of a monomial in numeric generators."""
        value = 1
        for shift, square in self.squares.items():
            if atoms >> shift & 1:
                value *= cmath.sqrt(sum(complex(c) * self._value(m) for m, c in square.items()))
        return value

    def magnitude(self, poly) -> float:
        """The largest abs(complex) over the coefficients of ``poly`` in its
        symbolic variables; inf if one is not finite or too large for a float.
        A coefficient with only exact terms is a true nonzero, so it reads at
        least _TINY even where its float rounds to 0.0."""
        groups = {}
        try:
            for mono, c in poly.items():
                key = mono & self.symbolic
                total, exact = groups.get(key, (0, True))
                groups[key] = (total + complex(c) * self._value(mono ^ key),
                               exact and not isinstance(c, float))
            mags = [abs(total) or (_TINY if exact else 0.0) for total, exact in groups.values()]
        except OverflowError:
            return math.inf
        return max(mags, default=0.0) if all(map(math.isfinite, mags)) else math.inf


def residual_detail(sol: AnsatzSolution, matched_only: bool = True) -> dict:
    """Per-(branch, power) residual magnitudes of the coefficient relations:
    one entry per branch and relation, each power having one relation.

    One ``_Kernel`` serves the call: each relation is converted once, each
    branch's values once per branch, and every substitution and expansion is
    exact polynomial arithmetic with no simplification.  An entry reads 0.0
    only when its residual is the zero polynomial: a true zero left unreduced
    can only fail the gate, and a nonzero value never passes it.
    """
    kernel = _Kernel()
    relations = [(rel.power, kernel.poly(rel.expr))
                 for rel in sol.relations if rel.matched or not matched_only]
    out = {}
    for bi, branch in enumerate(sol.branches):
        values = {kernel.variable(key): kernel.poly(value) for key, value in branch.subs.items()}
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


def coulomb_levels(qA: float, j, n_prime: int) -> float:
    """E/m = (1 + q^2 A^2 / (sqrt((j+1/2)^2 - q^2 A^2) + n')^2)^(-1/2)."""
    J = float(j) + 0.5
    if qA * qA >= J * J:
        raise SupercriticalCouplingError(f"q^2 A^2 = {qA*qA} >= (j+1/2)^2 = {J*J}")
    gt = math.sqrt(J * J - qA * qA) + n_prime
    return (1.0 + (qA * qA) / (gt * gt)) ** -0.5


def oscillator_levels(m, j, n_prime: int):
    """E = -m (1/2 + n') / (j + 1/2); equally spaced with spacing m/(j+1/2)."""
    if isinstance(m, (int, Fraction)) and isinstance(j, (int, Fraction)):
        return -Fraction(m) * (Fraction(1, 2) + n_prime) / (Fraction(j) + Fraction(1, 2))
    return -float(m) * (0.5 + n_prime) / (float(j) + 0.5)


def lennard_jones_solution(A, B, C, qn: QuantumNumbers) -> AnsatzSolution:
    """Inverse 6-12 potential B/r^6 - C/r^12 with Coulomb phase A.

    The two eigenvalue coefficients come out imaginary with opposite signs
    (c = +-iC against b = -+iB) and the level series is the oscillator one.
    """
    V = PotentialSpec({-6: B, -12: -_num(C)}, coulomb_phase=A)
    return match_coefficients(V, qn)


# ---------------------------------------------------------------------------
# confinement geometry
# ---------------------------------------------------------------------------


def infrared_radius(E: float, q: float, sigma: float) -> float:
    """Confinement radius r = 2E/(q sigma) where the running phase stalls.

    With E the (reduced) constituent energy in GeV, q the colour charge and
    sigma the string tension in GeV/fm, the result is in fm.  E = 1.5 GeV
    would give 7.5 fm; the quoted ~4 fm corresponds to the reduced-mass
    reading E ~ 0.75 GeV.  Both readings use this same formula.
    """
    if not E > 0:
        raise ValueError(f"the energy E must be positive, got {E}")
    if q <= 0 or sigma <= 0:
        raise ValueError("coupling and string tension must be positive")
    if q * sigma == 0:
        raise ValueError(f"q * sigma underflows to 0 for q = {q}, sigma = {sigma}")
    return 2.0 * E / (q * sigma)


def lmin(a: float, b: float, c: float) -> float:
    """Minimal total flux-tube length for three charges on a triangle a,b,c.

    L_min = sqrt((a^2+b^2+c^2)/2 + (sqrt(3)/2) sqrt((a+b+c)(-a+b+c)(a-b+c)(a+b-c))).
    For a = b = c this is 3 times the circumradius distance a/sqrt(3).  When an
    angle is 120 degrees or more, the Fermat point is that vertex and L_min is
    the sum of the two shorter sides.
    """
    if min(a, b, c) < 0:
        raise ValueError("side lengths must be nonnegative")
    heron = (a + b + c) * (-a + b + c) * (a - b + c) * (a + b - c)
    if heron < 0:
        raise ValueError(f"triangle inequality violated for sides {(a, b, c)}")
    short, mid, long = sorted((a, b, c))
    if long * long >= short * short + mid * mid + short * mid:  # angle >= 120 degrees
        return short + mid
    return math.sqrt((a * a + b * b + c * c) / 2.0 + math.sqrt(3.0) / 2.0 * math.sqrt(heron))
