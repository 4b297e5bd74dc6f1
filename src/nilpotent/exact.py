"""Exact values of a solve: the polynomial kernel, its printer, and the inputs.

The solver builds its relations and branch values on a small exact kernel
(``_Kernel``), no computer-algebra library: each is an ``Expr``, a polynomial
over packed monomials in the symbols, I and each surd, a generator that
reduces by its square.  Its exact coefficients are int numerators over one
denominator per polynomial, in lowest terms, and its float coefficients (only
from the caller's floats) stay floats, each rounded as Fraction arithmetic
rounds it; so a solve runs on ints, and a Fraction is made only where a
coefficient is read: the printer, a constant result, an equality.  The kernel
is a ring with square roots: an Expr divides only by a number.  A Coulomb
branch lives in Q(sqrt(d)): a = E (alpha + beta sqrt(d)) and
m = sqrt(E^2) sqrt(rho0 + rho1 sqrt(d)), which the residual gate substitutes
and expands.  A caller's sympy number is read exactly by its
parts (``as_real_imag``, ``p``/``q``) without importing sympy.

The printing contract: ``str`` of an Expr prints its polynomial, every
product expanded, which is the report text.  Terms go by the exponents of
the symbols (by name) and of their roots, highest first, then by those of
the numbers (I, sqrt(2)), lowest first; a term's factors go as numbers,
symbols by name, roots of symbols, after its coefficient, a Float to 15
digits.  No order reads a float value.  ``tests/sympy_reference.py`` checks
every printed value against sympy's by value.

The two input records, ``PotentialSpec`` and ``QuantumNumbers``, read and
check a request's numbers here, so a request that is refused before it is
matched never compiles the solver.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction
from typing import NamedTuple

from . import _echo, _printable

__all__ = ["Expr", "PotentialSpec", "QuantumNumbers"]


# bits per variable in a packed monomial: an exponent of 2**16 would carry into
# the next field, and a residual of that degree takes the kernel far too long
_FIELD = 16
_MASK = (1 << _FIELD) - 1
_ROOT = _MASK - 1  # a generator field's bits above exponent 1
_HALF = Fraction(1, 2)
_TINY = math.ulp(0.0)  # the reading of an exact nonzero coefficient that rounds to 0.0


def _lowest(den: int, terms: dict) -> tuple:
    """The polynomial of int numerators (and floats) ``terms`` over ``den`` > 0,
    in lowest terms: gcd(den, every int numerator) = 1, so equal exact
    polynomials are equal pairs."""
    g = den
    for c in terms.values():
        if g == 1:
            return den, terms
        if type(c) is int:
            g = math.gcd(g, c)
    # with no int numerator g is den itself: a polynomial of floats is over 1
    return (den, terms) if g == 1 else (
        den // g, {mono: c // g if type(c) is int else c for mono, c in terms.items()})


def _times(c1, d1: int, c2, d2: int) -> float:
    """The product of two coefficients, over ``d1`` and ``d2``, one a float: the
    int numerator rounded once to its value's float, as ``float(Fraction)``."""
    return (c1 / d1 if type(c1) is int else c1) * (c2 / d2 if type(c2) is int else c2)


def _plus(c1, c2, den: int) -> float:
    """The sum of two coefficients over ``den``, one a float, as ``_times`` rounds."""
    return (c1 / den if type(c1) is int else c1) + (c2 / den if type(c2) is int else c2)


def _add(polys) -> tuple:
    """The polynomial sum, like terms combined in order, zeros dropped: each
    exact term over the lcm of the denominators, a float met as itself."""
    den = 1
    for d, _ in polys:
        if den % d:
            den = den // math.gcd(den, d) * d
    out, cancelled = {}, False
    for d, terms in polys:
        k = den // d
        for mono, c in terms.items():
            if k != 1 and type(c) is int:
                c *= k
            if mono in out:
                a = out[mono]
                out[mono] = c = a + c if type(a) is int is type(c) else _plus(a, c, den)
                cancelled = cancelled or not c
            else:
                out[mono] = c
    return _lowest(den, {mono: c for mono, c in out.items() if c} if cancelled else out)


def _scaled(poly, k, kd: int) -> tuple:
    """``poly`` times the number ``k``/``kd`` (``k`` an int, or a float and
    ``kd`` 1), zeros dropped."""
    den, terms = poly
    out = {}
    for mono, c in terms.items():
        c = c * k if type(c) is int is type(k) else _times(c, den, k, kd)
        if c:
            out[mono] = c
    return _lowest(den * kd, out)


def _read(c, den: int):
    """The coefficient ``c`` of a polynomial over ``den`` as a number: a float
    as it is, an int numerator as a Fraction, the type exact arithmetic on
    the solver's Fraction inputs returns."""
    return c if type(c) is not int else Fraction(c, den)


def _values(poly) -> dict:
    """{monomial: Fraction or float coefficient} of ``poly``."""
    den, terms = poly
    return {mono: _read(c, den) for mono, c in terms.items()}


def _complex(c, den: int) -> complex:
    """The coefficient ``c`` of a polynomial over ``den`` as a complex value;
    OverflowError past the float range."""
    return complex(c if den == 1 or type(c) is not int else c / den)


def _square(x):
    """x*x, a float rounded once from the exact square, so past the float
    range it raises OverflowError rather than reading inf."""
    if isinstance(x, float):
        n, d = x.as_integer_ratio()
        return n * n / (d * d)
    return x * x


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

    A polynomial is a pair (den, terms): ``terms`` maps monomials to nonzero
    coefficients, each an int numerator over the positive int ``den`` or a
    float, in lowest terms (gcd(den, every numerator) = 1), as ``Multivector``
    holds its blades; so the arithmetic runs on ints, and a Fraction is made
    only where a coefficient is read.  A monomial packs one exponent per
    variable into _FIELD-bit fields of an int, so multiplying monomials adds
    them.  The variables are the symbols and the generators: I (field 0 in
    every kernel, so a Gaussian constant reads alike in all) and sqrt(x) for
    each radicand x met.  Each generator reduces by its square (I**2 = -1,
    sqrt(x)**2 = x), so no generator exponent exceeds 1 in a result.  A
    generator whose square holds a symbol (sqrt(m**2 - E**2), sqrt(E**2)) is
    one more variable of a residual; the others (I, sqrt(11)) are numbers,
    read as complex values only by ``magnitude``.
    """

    def __init__(self):
        self.symbols = {}  # name -> the shift of its field
        self.roots = {}  # (den, frozen terms) of a square -> the shift of its generator
        self.squares = {0: (1, {0: -1})}  # generator shift -> its square, oldest first; I is 0
        self.atoms = {0: (0, "I")}  # shift -> (rank, text), None until ``atom`` makes it
        self.fields = 1
        self.symbolic = 0  # the fields of symbols and of the roots whose square holds one
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
            shift = self.symbols[name] = self._field((1, name), True)
        return shift

    def symbol(self, name: str) -> "Expr":
        return Expr(self, (1, {1 << self.variable(name): 1}))

    def adopt(self, x):
        """``x`` with this kernel, if it is a constant of none."""
        return Expr(self, x.poly) if isinstance(x, Expr) and x.kernel is None else x

    def _root(self, square) -> int:
        """The shift of the generator whose square is the polynomial ``square``."""
        key = square[0], frozenset(square[1].items())
        shift = self.roots.get(key)
        if shift is None:
            shift = self.roots[key] = self._field(
                None, any(mono & self.symbolic for mono in square[1]))
            self.squares[shift] = square
            self.high |= _ROOT << shift
        return shift

    def atom(self, shift) -> tuple:
        """(rank, text) of the variable at ``shift``: rank 0 for a number (I,
        sqrt(2)), 1 for a symbol, 2 for a root of a symbol.  A root's is made
        at its first print; the fields its square reads are all older than
        its own, so the text is the one it would have had when it was made."""
        atom = self.atoms[shift]
        if atom is None:
            text = f"sqrt({_print(self, _values(self.squares[shift]))})"
            atom = self.atoms[shift] = (2 if self.symbolic >> shift & 1 else 0), text
        return atom

    def sqrt(self, x):
        """The principal square root of ``x``: r*sqrt(f) with f squarefree for
        a rational, a float for a float, times I for a negative one; any other
        value is a generator."""
        if isinstance(x, Expr):
            return Expr(self, (1, {1 << self._root(x.poly): 1}))
        if x < 0:
            return _I * self.sqrt(-x)
        if isinstance(x, float):
            return math.sqrt(x)
        (rp, fp), (rq, fq) = _square_part(x.numerator), _square_part(x.denominator)
        # sqrt(p/q) = sqrt(p q)/q
        if fp * fq == 1:
            return Fraction(rp * rq, x.denominator)
        return Expr(self, _lowest(x.denominator, {1 << self._root((1, {0: fp * fq})): rp * rq}))

    def mul(self, p, q) -> tuple:
        """The product, each generator squared replaced by its square until none
        is; a square over a denominator multiplies it into every numerator."""
        (d1, t1), (d2, t2) = p, q
        den = d1 * d2
        if len(t1) == 1 == len(t2):
            (m1, c1), = t1.items()
            (m2, c2), = t2.items()
            mono = m1 + m2
            if type(c1) is int is type(c2):
                c = c1 * c2
                g = math.gcd(c, den)
                c, den = (c, den) if g == 1 else (c // g, den // g)
            else:
                c, den = _times(c1, d1, c2, d2), 1
                if not c:
                    return 1, {}
            high = mono & self.high
            if not high:
                return den, {mono: c}
            if high == 2:  # I**2 = -1, and no other generator squared
                return den, {mono - 2: -c}
            todo = [(mono, c)]
        else:
            todo = [(m1 + m2, c1 * c2 if type(c1) is int is type(c2) else _times(c1, d1, c2, d2))
                    for m1, c1 in t1.items() for m2, c2 in t2.items()]
        out = {}
        while todo:
            mono, c = todo.pop()
            if mono & self.high:
                shift = next(s for s in self.squares if mono >> s & _ROOT)
                rest = mono - (2 << shift)
                sd, square = self.squares[shift]
                cd = den
                if sd != 1:
                    den *= sd
                    todo = [(m, k * sd if type(k) is int else k) for m, k in todo]
                    out = {m: k * sd if type(k) is int else k for m, k in out.items()}
                todo.extend((rest + m, c * c2 if type(c) is int is type(c2)
                             else _times(c, cd, c2, sd)) for m, c2 in square.items())
            elif mono in out:
                a = out[mono]
                out[mono] = a + c if type(a) is int is type(c) else _plus(a, c, den)
            else:
                out[mono] = c
        return _lowest(den, {mono: c for mono, c in out.items() if c})

    def power(self, p, k: int) -> tuple:
        return p if k == 1 else functools.reduce(self.mul, [p] * k)

    def substitute(self, poly, values: dict, powers: dict) -> tuple:
        """``poly`` with each variable field in ``values`` (shift -> polynomial)
        replaced by its value; ``powers`` keeps the value powers of one branch.
        Each term loses its substituted exponents at once, then takes their powers in
        ``values`` order, which rounds a float as substituting one field at a time."""
        den, terms = poly
        out = []
        for mono, c in terms.items():
            factors = []
            for shift, value in values.items():
                e = mono >> shift & _MASK
                if e:
                    mono -= e << shift
                    factor = powers.get((shift, e))
                    if factor is None:
                        factor = powers[shift, e] = self.power(value, e)
                    factors.append(factor)
            term = den, {mono: c}
            for factor in factors:
                term = self.mul(term, factor)
            out.append(term)
        return _add(out)

    def reading(self, x) -> tuple:
        """The gate's polynomial of a relation or branch value: a number, or an
        Expr of this kernel or of none; a nan coefficient for anything else."""
        if isinstance(x, Expr):
            if x.kernel in (self, None) or _constant(x.poly[1]):
                return x.poly
        elif isinstance(x, (int, Fraction, float)):
            return _constant_poly(x) if x else (1, {})
        return 1, {0: math.nan}

    def value(self, atoms) -> complex:
        """The complex value of a monomial in numeric variables."""
        if not atoms:
            return 1
        value = 1
        for shift, (den, square) in self.squares.items():
            if atoms >> shift & 1:
                value *= cmath.sqrt(sum(_complex(c, den) * self.value(m)
                                        for m, c in square.items()))
        return value

    def magnitude(self, poly) -> float:
        """The largest abs(complex) over the coefficients of ``poly`` in its
        symbolic variables; inf if one is not finite or too large for a float.
        A coefficient with only exact terms is a true nonzero, so it reads at
        least _TINY even where its float rounds to 0.0."""
        den, terms = poly
        groups = {}
        try:
            for mono, c in terms.items():
                key = mono & self.symbolic
                total, exact = groups.get(key, (0, True))
                groups[key] = (total + _complex(c, den) * self.value(mono ^ key),
                               exact and type(c) is int)
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

    Every product is expanded.  Float coefficients round as sympy's Floats
    do: each product and quotient once, x/n as x*(1/n).  A result free of
    every variable is returned as a plain int, Fraction or float, so an Expr
    is never a real constant.  ``str`` prints the polynomial in the
    printer's one order.  ``poly`` is the kernel's (den, terms) pair;
    ``_values`` reads its coefficients.
    """

    __slots__ = ("kernel", "poly")

    def __init__(self, kernel, poly: tuple):
        self.kernel, self.poly = kernel, poly

    def __str__(self):
        return _print(self.kernel, _values(self.poly))

    __repr__ = __str__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        try:
            kernel = _common_kernel(self, other) or _CONSTANTS
        except ValueError:
            return False
        return _values(kernel.reading(self)) == _values(kernel.reading(other))

    def __neg__(self):
        den, terms = self.poly
        return Expr(self.kernel, (den, {mono: -c for mono, c in terms.items()}))

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
        if isinstance(other, float):
            return _mul(self, 1.0 / other)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        n, d = other.numerator, other.denominator
        if not n:
            raise ZeroDivisionError("division by zero")
        return _value(self.kernel, _scaled(self.poly, d if n > 0 else -d, abs(n)))


def _value(kernel, poly: tuple):
    """The Expr of ``poly``, or the plain number when no variable is left."""
    den, terms = poly
    if not terms:
        return 0
    if len(terms) == 1 and 0 in terms:
        return _read(terms[0], den)
    return Expr(kernel, poly)


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
    found = first = None  # the kernel found, and the first Expr of it met
    for x in values:
        if not isinstance(x, Expr) or x.kernel is None or x.kernel is found:
            continue
        if found is None:
            found, first = x.kernel, x
        elif _constant(x.poly[1]):
            continue
        elif not _constant(first.poly[1]):
            raise ValueError("the values belong to two different solves")
        else:
            found, first = x.kernel, x
    return found


def _constant_poly(x) -> tuple:
    """The polynomial of the nonzero number ``x``."""
    return (1, {0: x}) if isinstance(x, float) else (x.denominator, {0: x.numerator})


def _sum(values):
    """The sum of numbers and Exprs, like terms combined in order."""
    polys = [x.poly if isinstance(x, Expr) else _constant_poly(x) for x in values if x]
    return _value(_common_kernel(*values), _add(polys))


def _mul(x, y):
    """x*y, every product expanded: a number times each term."""
    if not isinstance(y, Expr):
        if not isinstance(x, Expr):
            return x * y
        x, y = y, x
    if not isinstance(x, Expr):
        poly = _scaled(y.poly, x, 1) if isinstance(x, float) else \
            _scaled(y.poly, x.numerator, x.denominator)
        return _value(y.kernel, poly)
    kernel = _common_kernel(x, y)
    return _value(kernel, (kernel or _CONSTANTS).mul(x.poly, y.poly))


def _reciprocal(x):
    """1/x: exact for a rational, 1.0/x for a float."""
    return 1.0 / x if isinstance(x, float) else Fraction(1) / x


_I = Expr(None, (1, {1: 1}))
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
# the printer
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
    """A solver value as the report prints it, a Float as sympy prints one.
    Sympy's float arithmetic returns an exact 0 where the result is zero, so
    a computed 0.0 prints 0; an int past the limit for printing one is
    refused by its digit count."""
    if isinstance(x, float):
        return _float_text(x, strip=False) if x else "0"
    return _print_term((), 0, x) if isinstance(x, (int, Fraction)) else str(x)


def _literal(x) -> str:
    """A coefficient the caller gave, printed as sympy prints its Float (0.0 too)."""
    return _float_text(x, strip=False) if isinstance(x, float) else str(x)


def _print_term(atoms, mono, c) -> str:
    """One product: sign, coefficient numerator and the factors of ``atoms``
    ((rank, text), shift) that ``mono`` holds, joined by *, then
    /denominator.  An int past the limit for printing one is refused by its
    digit count."""
    sign = "-" if c < 0 else ""
    if isinstance(c, float):
        num, den = [_float_text(abs(c), strip=True)], ""
    else:
        n, d = abs(c.numerator), c.denominator
        try:
            num = [str(n)] if n != 1 or not mono else []
            den = f"/{d}" if d != 1 else ""
        except ValueError:  # past sys.get_int_max_str_digits
            raise ValueError(f"a value of the report is {_echo(c)}") from None
    num += [text if e == 1 else f"{text}**{e}" for (_, text), s in atoms
            if (e := mono >> s & _MASK)]
    return sign + "*".join(num) + den


def _print(kernel, terms) -> str:
    """``terms`` as a sum of products: terms by the exponents of the symbols
    and of their roots, highest first, then of the numbers, lowest first;
    each product's factors as numbers, symbols by name, roots of symbols."""
    kernel = kernel or _CONSTANTS
    held = 0
    for mono in terms:
        held |= mono
    atoms = sorted((kernel.atom(s), s) for s in kernel.atoms if held >> s & _MASK)
    symbolic = [s for (rank, _), s in atoms if rank]
    numeric = [s for (rank, _), s in atoms if not rank]
    out = ""
    for mono, c in sorted(terms.items(), key=lambda term: (
            [-(term[0] >> s & _MASK) for s in symbolic], [term[0] >> s & _MASK for s in numeric])):
        text = _print_term(atoms, mono, c)
        if out:
            text = f" - {text[1:]}" if text.startswith("-") else f" + {text}"
        out += text
    return out or "0"


# ---------------------------------------------------------------------------
# the solve's inputs
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
        def parse(v, name):
            s = str(v).strip()
            imaginary = s.endswith(("i", "I", "j"))
            body = (s[:-1] or "1") if imaginary else s
            try:
                value = Fraction(body)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"expected a rational number, got {_echo(repr(s))}") from None
            value = _printable(value, name)
            return _I * value if imaginary else value

        def power(k):
            try:
                return int(str(k))
            except ValueError:
                raise ValueError(f"a power must be an integer, got {_echo(repr(k))}") from None

        terms = d.get("terms", {}) if isinstance(d, dict) else None
        if not isinstance(terms, dict):
            raise ValueError("a potential is an object whose 'terms' is an object of powers")
        parsed = {}
        for k, v in terms.items():
            n = power(k)
            parsed[n] = parse(v, f"the r^{_echo(str(n))} term")
        return cls(parsed, parse(d.get("coulombPhase", 0), "coulombPhase"),
                   parse(d.get("q", 1), "q"))


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
            raise ValueError(f"j must be a half-integer (2j odd), got {_echo(self.j)}")
        if self.n_prime < 0:
            raise ValueError("n' must be nonnegative")
        return self

    @property
    def j_plus_half(self):
        return _num(self.j) + _HALF
