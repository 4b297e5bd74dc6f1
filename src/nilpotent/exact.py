"""Exact values of a solve: the polynomial kernel, its printer, and the inputs.

The solver builds its relations and branch values on a small exact kernel
(``_Kernel``), no computer-algebra library: each is an ``Expr``, a polynomial
with int, Fraction or float coefficients (floats only from the caller's) over
packed monomials in the symbols, I and each surd, a generator that reduces by
its square.  So the kernel is a ring with square roots: an Expr divides only
by a number.  A Coulomb branch lives in Q(sqrt(d)): a = E (alpha + beta
sqrt(d)) and m = sqrt(E^2) sqrt(rho0 + rho1 sqrt(d)), which the residual gate
substitutes and expands.  A caller's sympy number is read exactly by its
parts (``as_real_imag``, ``p``/``q``) without importing sympy.

The printing contract, which ``tests/sympy_reference.py`` pins: ``str`` of an
Expr prints it as sympy's ``str`` prints the expression sympy would build
(terms in sympy's order, Floats to 15 digits), which is the report text; only
a Coulomb a and m at n' >= 1 with an irrational root print rationalized where
sympy kept the surd in a denominator.

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

from . import _echo

__all__ = ["Expr", "PotentialSpec", "QuantumNumbers"]


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
        return (_mul(self, _reciprocal(other)) if isinstance(other, (int, Fraction, float))
                else NotImplemented)

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
    """1/x: exact for a rational, 1.0/x for a float."""
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
        def parse(v):
            s = str(v).strip()
            imaginary = s.endswith(("i", "I", "j"))
            body = (s[:-1] or "1") if imaginary else s
            try:
                value = Fraction(body)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"expected a rational number, got {_echo(repr(s))}") from None
            return _I * value if imaginary else value

        def power(k):
            try:
                return int(str(k))
            except ValueError:
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
            raise ValueError(f"j must be a half-integer (2j odd), got {_echo(self.j)}")
        if self.n_prime < 0:
            raise ValueError("n' must be nonnegative")
        return self

    @property
    def j_plus_half(self):
        return _num(self.j) + _HALF
