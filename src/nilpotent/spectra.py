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
rounding into gamma or a.  A branch holds each value once, named as in the
relations (u2, u6), and the report prints the values the gate substitutes;
the Coulomb levels read the branches' exact discriminant.  Each solve reads
its potential once, builds the values free of s once, and the gate strips
each term of its unknowns once, then multiplies their powers in the order
of one unknown at a time.

The solver builds its relations and branch values on a small exact kernel
(``_Kernel``), with no computer-algebra library: each is an ``Expr``, a
polynomial with int, Fraction or float coefficients over packed monomials in
the symbols, I and each surd a generator that reduces by its square; floats
only when the caller passes floats.  A Coulomb branch lives in Q(sqrt(d)):
a = E (alpha + beta sqrt(d)) and m = sqrt(E^2) sqrt(rho0 + rho1 sqrt(d)).  The
residual gate substitutes and expands those same polynomials.  ``str`` of an
Expr prints it as sympy's ``str`` prints the expression sympy would build
(terms in sympy's order, Floats to 15 digits), which is the report text; only
a Coulomb a and m at n' >= 1 with an irrational root print rationalized where
sympy kept the surd in a denominator.  A caller's sympy number is read exactly
by its parts (``as_real_imag``, ``p``/``q``) without importing sympy.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import Callable, NamedTuple

__all__ = [
    "Expr",
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


class _NotPolynomial(ValueError):
    """A value the kernel does not build: a denominator that holds a symbol or
    reduces to no nonzero number."""


# bits per variable in a packed monomial: an exponent of 2**16 would carry into
# the next field, and a residual of that degree takes the kernel far too long
_FIELD = 16
_MASK = (1 << _FIELD) - 1
_ROOT = _MASK - 1  # a generator field's bits above exponent 1
_HALF = Fraction(1, 2)
_TINY = math.ulp(0.0)  # the reading of an exact nonzero coefficient that rounds to 0.0
# (sort key, text) of I, field 0: sympy sorts the factors of a product as
# numbers (sqrt(11)), then I, then symbols by name, then sums (and roots of
# sums) by their terms, then powers
_I_ATOM = ((2, 0, "I"), "I")


def _collect(terms) -> dict:
    """The polynomial sum of (monomial, coefficient) pairs, zeros dropped."""
    out = {}
    for mono, c in terms:
        if mono in out:
            out[mono] += c
        else:
            out[mono] = c
    return {mono: c for mono, c in out.items() if c}


def _pow(x, k: int):
    """x**k, a float rounded once from the exact power."""
    return float(Fraction(x) ** k) if isinstance(x, float) else x**k


def _square_part(n: int) -> tuple[int, int]:
    """(r, f) with n = r**2 f, as sympy's sqrt of an integer finds them: trial
    division by the primes below 2**15 (and below the cube root of what is
    left, past which the rest has at most two prime factors), then the rest
    taken whole if it is a square.  So f is squarefree unless a prime above
    2**15 divides n twice and another prime above 2**15 divides it too."""
    r, f, p = 1, 1, 2
    while p * p * p <= n and p < 1 << 15:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            r, f = r * p ** (k // 2), f * p ** (k % 2)
        p += 1 if p == 2 else 2
    s = math.isqrt(n)
    return (r * s, f) if s * s == n else (r, f * n)


class _Kernel:
    """Exact polynomial arithmetic for one solve and its residual gate.

    A polynomial is a dict from monomials to nonzero int, Fraction or float
    coefficients.  A monomial packs one exponent per variable into _FIELD-bit
    fields of an int, so multiplying monomials adds them.  The variables are
    the symbols, the generators and the sums kept whole.  The generators are
    I (field 0 in every kernel, so a Gaussian constant reads alike in all)
    and sqrt(x) for each radicand x met; each reduces by its square
    (I**2 = -1, sqrt(x)**2 = x), so no generator exponent exceeds 1 in a
    result.  A generator whose square holds a symbol (sqrt(m**2 - E**2),
    sqrt(E**2)) is one more variable of a residual; the others (I, sqrt(11))
    are numbers, read as complex values only by ``magnitude`` and the
    printer.  A sum kept whole is a product's factor that sympy leaves
    unexpanded, I*(2/7 + I/5) or m*(1 + I/3); ``expanded`` replaces it by its
    terms, so the gate reads only symbols and generators.
    """

    def __init__(self):
        self.symbols = {}  # name -> the shift of its field
        self.keys = {}  # ("sqrt" | "sum", frozen terms) -> shift
        self.squares = {0: {0: -1}}  # generator shift -> its square, oldest first; I is 0
        self.sums = {}  # shift of a sum kept whole -> its terms
        self.atoms = {0: _I_ATOM}  # shift -> (sort key, text), None until ``atom`` makes it
        self.fields = 1
        self.symbolic = 0  # the fields of symbols and of the variables whose value holds one
        self.high = _ROOT  # the generator fields' bits above exponent 1

    def _field(self, atom, symbolic) -> int:
        shift, self.fields = self.fields * _FIELD, self.fields + 1
        self.atoms[shift] = atom
        if symbolic:
            self.symbolic |= _MASK << shift
        return shift

    def variable(self, name: str) -> int:
        """The shift of the field of the symbol ``name``."""
        shift = self.symbols.get(name)
        if shift is None:
            shift = self.symbols[name] = self._field(((2, 1, name), name), True)
        return shift

    def symbol(self, name: str) -> "Expr":
        return Expr(self, {1 << self.variable(name): 1})

    def adopt(self, x):
        """``x`` with this kernel, if it is a constant of none."""
        return Expr(self, x.terms) if isinstance(x, Expr) and x.kernel is None else x

    def _holds_symbol(self, terms) -> bool:
        return any(mono & self.symbolic for mono in terms)

    def _root(self, square: dict) -> int:
        """The shift of the generator whose square is ``square``."""
        key = ("sqrt", frozenset(square.items()))
        shift = self.keys.get(key)
        if shift is None:
            shift = self.keys[key] = self._field(None, self._holds_symbol(square))
            self.squares[shift] = square
            self.high |= _ROOT << shift
        return shift

    def _sum(self, terms: dict) -> int:
        """The shift of the variable that keeps the sum ``terms`` whole."""
        key = ("sum", frozenset(terms.items()))
        shift = self.keys.get(key)
        if shift is None:
            shift = self.keys[key] = self._field(None, self._holds_symbol(self.expanded(terms)))
            self.sums[shift] = terms
        return shift

    def atom(self, shift) -> tuple:
        """(sort key, text) of the variable at ``shift``, made at its first print:
        the fields it reads are all older than its own, so the text is the one
        it would have had when the variable was made."""
        atom = self.atoms[shift]
        if atom is None:
            if shift in self.squares:
                square = self.squares[shift]
                text = f"sqrt({_print(self, square)})"
                # a squarefree integer sorts among the numbers, a sum before a power
                atom = ((1, 0, str(square[0])) if square.keys() == {0} else
                        (3, 1, (0, text)) if len(square) > 1 else (3, 2, text)), text
            else:
                terms = self.sums[shift]
                atom = (3, 1, (len(terms), tuple(map(functools.partial(_term_key, self),
                                                     _ordered(self, list(terms.items())))))
                        ), f"({_print(self, terms)})"
            self.atoms[shift] = atom
        return atom

    def sqrt(self, x):
        """The principal square root of ``x``, as sympy's sqrt evaluates it for
        a number: r*sqrt(f) with f squarefree for a rational, a float for a
        float, times I for a negative one; any other value is a generator."""
        if isinstance(x, Expr):
            return Expr(self, {1 << self._root(self.expanded(x.terms)): 1})
        if x < 0:
            return _I * self.sqrt(-x)
        if isinstance(x, float):
            return math.sqrt(x)
        x = Fraction(x)
        (rp, fp), (rq, fq) = _square_part(x.numerator), _square_part(x.denominator)
        c = Fraction(rp * rq, x.denominator)  # sqrt(p/q) = sqrt(p q)/q
        return c if fp * fq == 1 else Expr(self, {1 << self._root({0: fp * fq}): c})

    def mul(self, p, q) -> dict:
        """The product, each generator squared replaced by its square until none is."""
        if len(p) == 1 and len(q) == 1:
            (m1, c1), = p.items()
            (m2, c2), = q.items()
            # the same value and type as c1 * c2: an int 1 taken as it is, and
            # a Fraction on the left, whose own product is the quicker one
            mono, c = m1 + m2, c1 * c2 if type(c1) is not int else c2 if c1 == 1 else c2 * c1
            high = mono & self.high
            if not high:
                return {mono: c} if c else {}
            if high == 2:  # I**2 = -1, and no other generator squared
                return {mono - 2: -c} if c else {}
            todo = [(mono, c)]
        else:
            todo = [(m1 + m2, c1 * c2) for m1, c1 in p.items() for m2, c2 in q.items()]
        out = {}
        while todo:
            mono, c = todo.pop()
            if mono & self.high:
                shift = next(s for s in self.squares if mono >> s & _ROOT)
                rest = mono - (2 << shift)
                todo.extend((rest + m, c * c2) for m, c2 in self.squares[shift].items())
            elif mono in out:
                out[mono] += c
            else:
                out[mono] = c
        return {mono: c for mono, c in out.items() if c}

    def power(self, p, k: int) -> dict:
        return p if k == 1 else functools.reduce(self.mul, [p] * k)

    def inverse(self, p) -> dict:
        """1/p for a nonzero p free of symbols, by conjugates: p = P + Q g times
        P - Q g is free of the generator g, newest generator first, since a
        square holds only generators older than its own."""
        if self._holds_symbol(p):
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
        """``poly`` with each variable field in ``values`` (shift -> polynomial)
        replaced by its value; ``powers`` keeps the value powers of one branch.
        Each term loses its substituted exponents at once, then takes their powers in
        ``values`` order, which rounds a float as substituting one field at a time."""
        terms = []
        for mono, c in poly.items():
            factors = []
            for shift, value in values.items():
                e = mono >> shift & _MASK
                if e:
                    mono -= e << shift
                    if (shift, e) not in powers:
                        powers[shift, e] = self.power(value, e)
                    factors.append(powers[shift, e])
            term = {mono: c}
            for factor in factors:
                term = self.mul(term, factor)
            terms.extend(term.items())
        return _collect(terms)

    def expanded(self, terms: dict) -> dict:
        """``terms`` with every sum kept whole replaced by its own terms."""
        values = {shift: self.expanded(value) for shift, value in self.sums.items()
                  if any(mono >> shift & _MASK for mono in terms)}
        return self.substitute(terms, values, {}) if values else terms

    def reading(self, x) -> dict:
        """The gate's polynomial of a relation or branch value: a number, or an
        Expr of this kernel or of none; {0: nan} for anything else."""
        if isinstance(x, (int, Fraction, float)):
            return {0: x} if x else {}
        if isinstance(x, Expr) and (x.kernel in (self, None) or _constant(x.terms)):
            return self.expanded(x.terms)
        return {0: math.nan}

    def value(self, atoms) -> complex:
        """The complex value of a monomial in numeric variables."""
        value = 1
        for shift, square in self.squares.items():
            if atoms >> shift & 1:
                value *= cmath.sqrt(sum(complex(c) * self.value(m) for m, c in square.items()))
        for shift, terms in self.sums.items():
            e = atoms >> shift & _MASK
            if e:
                value *= sum(complex(c) * self.value(m) for m, c in terms.items()) ** e
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
                groups[key] = (total + complex(c) * self.value(mono ^ key),
                               exact and not isinstance(c, float))
            mags = [abs(total) or (_TINY if exact else 0.0) for total, exact in groups.values()]
        except OverflowError:
            return math.inf
        return max(mags, default=0.0) if all(map(math.isfinite, mags)) else math.inf


def _constant(terms) -> bool:
    """True if ``terms`` hold no variable but I, so they read alike in every kernel."""
    return all(mono <= 1 for mono in terms)


class Expr:
    """An exact value of the solver: a polynomial of one ``_Kernel``, or of
    none for a Gaussian constant (terms in 1 and I only).

    Arithmetic follows sympy's automatic evaluation for the solver's values:
    a number times a sum multiplies each term, while a product of a sum with
    anything else keeps the sum whole as one factor, I*(2/7 + I/5).  Float
    coefficients round as sympy's Floats do: each product and quotient once,
    x/n as x*(1/n).  A result free of every variable is returned as a plain
    int, Fraction or float, so an Expr is never a real constant.  ``str``
    prints as sympy's ``str`` prints the same expression.
    """

    __slots__ = ("kernel", "terms")

    def __init__(self, kernel, terms: dict):
        self.kernel, self.terms = kernel, terms

    def __str__(self):
        return _print(self.kernel, self.terms)

    __repr__ = __str__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        try:
            kernel = _common_kernel(self, other) or _CONSTANTS
        except ValueError:
            return False
        return kernel.reading(self) == kernel.reading(other)

    def __neg__(self):
        return Expr(self.kernel, {mono: -c for mono, c in self.terms.items()})

    def __add__(self, other):
        return _sum((self, other)) if isinstance(other, _VALUES) else NotImplemented

    def __radd__(self, other):
        return _sum((other, self)) if isinstance(other, _VALUES) else NotImplemented

    def __sub__(self, other):
        return _sum((self, -other)) if isinstance(other, _VALUES) else NotImplemented

    def __rsub__(self, other):
        return _sum((other, -self)) if isinstance(other, _VALUES) else NotImplemented

    def __mul__(self, other):
        return _mul(self, other) if isinstance(other, _VALUES) else NotImplemented

    def __rmul__(self, other):
        return _mul(other, self) if isinstance(other, _VALUES) else NotImplemented

    def __truediv__(self, other):
        return _mul(self, _reciprocal(other)) if isinstance(other, _VALUES) else NotImplemented

    def __rtruediv__(self, other):
        return _mul(other, _reciprocal(self)) if isinstance(other, _VALUES) else NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 1:
            return NotImplemented
        if k == 1:
            return self
        kernel = self.kernel or _Kernel()
        if len(self.terms) > 1:  # sympy leaves a power of a sum unexpanded
            return Expr(kernel, {k << kernel._sum(self.terms): 1})
        (mono, c), = self.terms.items()
        if not mono * k & kernel.high:  # no generator to reduce: the exponents multiply
            return _value(kernel, {mono * k: _pow(c, k)})
        return _value(kernel, {m: v * _pow(c, k) for m, v in kernel.power({mono: 1}, k).items()})


def _value(kernel, terms: dict):
    """The Expr of ``terms``, or the plain number when no variable is left."""
    if not terms:
        return 0
    if len(terms) == 1 and 0 in terms:
        return terms[0]
    return Expr(kernel, terms)


_VALUES = (int, Fraction, float, Expr)  # the operands of Expr arithmetic


def _coerce(x):
    """``x`` as a solver value for a comparison, or NotImplemented."""
    try:
        return _num(x)
    except (TypeError, ValueError):
        return NotImplemented


def _common_kernel(*values):
    """The kernel whose variables ``values`` hold, or None if they are numbers
    and Gaussian constants only, which read alike in every kernel.  Values
    with variables of two different kernels raise ValueError."""
    if len(values) == 2:
        x, y = values
        if isinstance(x, Expr) and isinstance(y, Expr) and x.kernel is y.kernel:
            return x.kernel
    found, fixed = None, False
    for x in values:
        if not isinstance(x, Expr) or x.kernel is None or x.kernel is found:
            continue
        if _constant(x.terms):
            found = found or x.kernel
        elif fixed:
            raise ValueError("the values belong to two different solves")
        else:
            found, fixed = x.kernel, True
    return found


def _sum(values):
    """The sum of numbers and Exprs, like terms combined in order."""
    terms = []
    for x in values:
        if isinstance(x, Expr):
            terms.extend(x.terms.items())
        elif x:
            terms.append((0, x))
    return _value(_common_kernel(*values), _collect(terms))


def _mul(x, y):
    """x*y as sympy's Mul evaluates it for the solver's values."""
    if not isinstance(y, Expr):
        x, y = y, x
    if not isinstance(y, Expr):
        return x * y
    if not isinstance(x, Expr):  # a number times each term
        if len(y.terms) == 1:
            (mono, c), = y.terms.items()
            c = c * x if type(c) is not int else x if c == 1 else x * c  # as in _Kernel.mul
            return _value(y.kernel, {mono: c} if c else {})
        return _value(y.kernel, _collect((mono, c * x) for mono, c in y.terms.items()))
    kernel = _common_kernel(x, y) or _Kernel()
    xt, yt = x.terms, y.terms
    terms = kernel.mul(xt if len(xt) == 1 else {1 << kernel._sum(xt): 1},
                       yt if len(yt) == 1 else {1 << kernel._sum(yt): 1})
    if len(terms) == 1 and kernel.sums:
        (mono, c), = terms.items()
        shift = next((s for s in kernel.sums if mono == 1 << s), None)
        if shift is not None:  # a number times one sum: sympy multiplies each of its terms
            terms = _collect((m, c * v) for m, v in kernel.sums[shift].items())
    return _value(kernel, terms)


def _reciprocal(x):
    """1/x: exact for a rational, 1.0/x for a float, by conjugates for a constant Expr."""
    if isinstance(x, Expr):
        kernel = x.kernel or _Kernel()
        return _value(kernel, kernel.inverse(kernel.expanded(x.terms)))
    return 1.0 / x if isinstance(x, float) else Fraction(1) / x


_I = Expr(None, {1: 1})
_CONSTANTS = _Kernel()  # reads Gaussian constants, which hold no variable but I


def _num(x):
    """``x`` as a solver value: an int, Fraction or float, or a constant Expr
    when it is not real.  A number of another library (sympy's I*Rational(3, 4),
    say) is read exactly by its real and imaginary parts, each with integer
    ``p`` and ``q`` or a float value, without importing that library."""
    if isinstance(x, _VALUES):
        return x
    if isinstance(x, complex):
        re, im = x.real, x.imag
    else:
        try:
            re, im = map(_real, x.as_real_imag())
        except AttributeError:
            raise TypeError(f"not a number: {x!r}") from None
    return re + _I * im if im else re


def _real(x):
    """A real number of another library: a rational with ``p``/``q``, or a float."""
    if hasattr(x, "p") and hasattr(x, "q"):
        return Fraction(int(x.p), int(x.q))
    if getattr(x, "is_Float", False):
        return float(x)
    raise ValueError(f"not a rational or float number: {x}")


# ---------------------------------------------------------------------------
# the printer: sympy's str of the solver's values
# ---------------------------------------------------------------------------


def _float_text(x: float, strip: bool) -> str:
    """``x`` as sympy prints a Float of 53 bits: 15 significant digits, the
    16th of the exact expansion rounding half up; fixed point for a leading
    digit at 10**-4 to 10**14, else an exponent.  ``strip`` drops trailing
    zeros, as sympy does for a Float inside a larger expression."""
    if not math.isfinite(x) or x == 0:
        return {math.inf: "inf", -math.inf: "-inf"}.get(x, "0.0" if x == 0 else "nan")
    n, d = abs(x).as_integer_ratio()
    e = len(str(n)) - len(str(d))  # the exponent of the leading digit, or one more
    if (n * 10**-e if e < 0 else n) < (d if e < 0 else d * 10**e):
        e -= 1
    digits, last = divmod(n * 10 ** (15 - e) // d if e <= 15 else n // (d * 10 ** (e - 15)), 10)
    if last >= 5:
        digits += 1
        if digits == 10**15:
            digits, e = 10**14, e + 1
    text = str(digits)
    fixed = -5 < e < 15
    if fixed and e < 0:
        text = "0" * -e + text
    split = e + 1 if fixed and e >= 0 else 1
    text = text[:split] + "." + text[split:]
    if strip:
        text = text.rstrip("0")
        text += "0" if text.endswith(".") else ""
    sign = "-" if x < 0 else ""
    return sign + text if fixed else f"{sign}{text}e{'+' if e >= 0 else ''}{e}"


def _format(x) -> str:
    """A solver value as sympy's ``str`` prints it.  Sympy's float arithmetic
    returns an exact 0 where the result is zero, so a computed 0.0 prints 0."""
    if isinstance(x, float):
        return _float_text(x, strip=False) if x else "0"
    return str(x)


def _literal(x) -> str:
    """A coefficient the caller gave, printed as sympy prints its Float (0.0 too)."""
    return _float_text(x, strip=False) if isinstance(x, float) else str(x)


def _term_key(kernel, term) -> tuple:
    """sympy's sort key of one term of a sum, as far as it orders sums: a
    number by its value before a product, products by their factors, then by
    coefficient."""
    mono, c = term
    factors = _factors(kernel, mono)
    if not factors:
        return (1,), c
    if len(factors) == 1 and factors[0][1] == 1:
        return factors[0][0], c
    return (3, 0, tuple(key[:2] for key in factors)), c


def _factors(kernel, mono) -> list:
    """(sort key, exponent, text) of each variable of ``mono``, in sympy's Mul order."""
    atom = kernel.atom if kernel else {0: _I_ATOM}.get
    out = []
    for s in kernel.atoms if kernel else (0,):
        e = mono >> s & _MASK
        if e:
            key, text = atom(s)
            out.append((key, e, text))
    return sorted(out)


def _ordered(kernel, items) -> list:
    """The terms of a sum in the order sympy's str prints them: by exponents
    of the symbolic factors, highest first (lex), then by the complex value
    of the numeric rest, real before imaginary."""
    if len(items) == 2:
        # sympy keeps a positive number before a negative number times one factor
        number, other = sorted(items, key=lambda item: item[0] != 0)
        if (number[0] == 0 and number[1] > 0 and other[1] < 0
                and len(_factors(kernel, other[0])) == 1):
            return [number, other]
    symbolic = kernel.symbolic if kernel else 0
    gens = sorted((kernel.atom(s)[0], s) for s in kernel.atoms
                  if any((mono & symbolic) >> s & _MASK for mono, _ in items)) if symbolic else []

    def key(item):
        mono, c = item
        value = complex(c) * (kernel.value(mono & ~symbolic) if kernel else 1j ** mono)
        return (tuple(-(mono >> s & _MASK) for _, s in gens),
                ((value.imag != 0, value.imag), (value.real, value.imag)))

    return sorted(items, key=key)


def _print_term(kernel, mono, c) -> str:
    """One product as sympy's str prints a Mul: sign, coefficient numerator and
    factors joined by *, then /denominator."""
    if mono == 0:
        return _float_text(c, strip=True) if isinstance(c, float) else str(c)
    sign = "-" if c < 0 else ""
    c = -c if c < 0 else c
    num, den = [], ""
    if isinstance(c, float):
        num.append(_float_text(c, strip=True))
    else:
        c = Fraction(c)
        if c.numerator != 1:
            num.append(str(c.numerator))
        if c.denominator != 1:
            den = f"/{c.denominator}"
    num += [text if e == 1 else f"{text}**{e}" for _, e, text in _factors(kernel, mono)]
    return sign + "*".join(num) + den


def _print(kernel, terms) -> str:
    """``terms`` as sympy's str prints the same sum of products."""
    out = ""
    for mono, c in _ordered(kernel, list(terms.items())) if len(terms) > 1 else terms.items():
        text = _print_term(kernel, mono, c)
        if out:
            text = f" - {text[1:]}" if text.startswith("-") else f" + {text}"
        out += text
    return out or "0"


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


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
            "terms": {str(n): _literal(c) for n, c in self.terms.items()},
            "coulombPhase": _literal(self.coulomb_phase),
            "q": _literal(self.coupling),
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
                from .datafiles import _echo  # a refusal alone reads it
                raise ValueError(f"expected a rational number, got {_echo(repr(s))}") from None
            return _I * value if imaginary else value

        def power(k):
            try:
                return int(str(k))
            except ValueError:
                from .datafiles import _echo
                raise ValueError(f"a power must be an integer, got {_echo(repr(k))}") from None

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
        j = _num(self.j)
        if j < _HALF:
            raise ValueError("j must be at least 1/2")
        if j * 2 % 2 != 1:
            raise ValueError(f"j must be a half-integer (2j odd), got {self.j}")
        if self.n_prime < 0:
            raise ValueError("n' must be nonnegative")
        return self

    @property
    def j_plus_half(self):
        return _num(self.j) + _HALF


class Relation(NamedTuple):
    """The Laurent coefficient of the pointwise condition at one power of r,
    as the relation expr == 0; each power has one relation, so ``power`` is a
    key.  ``matched`` holds when every group of the derivation at that power
    is one the family solves, and ``note`` names the groups.  ``expr`` is an
    Expr (or a plain number), printed by ``str`` as sympy prints it."""

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
    from .datafiles import _echo  # a refusal alone reads it
    raise UnsupportedPotentialError(f"unsupported potential powers {_echo(str(powers))}; "
                                    "supported: r, r^2, A/r, inverse powers <= -2")


def _product(factors, g):
    """The product from the left, numbers first, with a factor object that
    recurs raised to its count: q, sigma, q, A give q**2 * sigma * A, so a
    float rounds as the derivation's q**2 does.  The factor None reads g."""
    counts = {}
    for f in factors:
        f = g if f is None else f
        counts[id(f)] = (f, counts[id(f)][1] + 1 if id(f) in counts else 1)
    numbers, exprs = [], []
    for f, k in counts.values():
        f = f if k == 1 else _pow(f, k)
        (exprs if isinstance(f, Expr) else numbers).append(f)
    out, *rest = numbers + exprs
    for f in rest:
        out = _mul(out, f)
    return out


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
    sums[0].append(-_pow(m, 2))
    sums[-2].append(-_pow(J, 2))
    merged = {}
    for power, matched, note in groups:
        was_matched, was_note = merged.get(power, (True, ""))
        merged[power] = (was_matched and matched, " + ".join(filter(None, (was_note, note))))
    assert merged.keys() == sums.keys(), "every power of the expansion is printed once"
    return tuple(Relation(p, _sum(sums[p]), ok, note) for p, (ok, note) in merged.items())


_HEAD = "series head, nu = 0"
_TAILS = ((-1, False, "tail equation; with 1/r^2 it eliminates to the level formula"),
          (-2, False, "tail equation; with 1/r it eliminates to the level formula"))
_CROSS = "cross term left open by the printed derivation"
_OSCILLATOR_SERIES = LevelSeries("oscillator", lambda j, n_prime: oscillator_levels(1, j, n_prime))


def _solve_confining(kernel, V, qn, E, m):
    q, A, sigma = V.coupling, V.coulomb_phase, V.terms[1]
    # w = q sigma and q A are each one product for the relations and the
    # branches, as the power laws' q c_p and q A, so a float residual is 0; a
    # Gaussian q, sigma or A keeps its own factors, whose squares sympy prints
    # apart
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
        # a = c E with c = qA / gt in Q(sqrt(f)), and m = sqrt(E^2) sqrt(1 + c^2)
        c = qA * _reciprocal(gt)
        a = c * E
        c2 = _value(kernel, kernel.mul(c.terms, c.terms)) if isinstance(c, Expr) else c * c
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
