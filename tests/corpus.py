"""A fixed corpus of solve inputs, and one sha256 per group over what each
input reports: byte identity of the solver as a test.

    python tests/corpus.py           # print the digest of each group
    python tests/corpus.py --write   # rewrite tests/golden/corpus_digest.json
    python tests/corpus.py --dump    # print one record per line, for a diff
    python tests/corpus.py --diff REV   # per group, what moved since git revision REV

Every input is drawn from ``random.Random(seed).getrandbits`` alone, so the
corpus is the same on every Python; no sympy is imported.  For each input the
record holds the report (``to_dict``), ``residual_verify``, the full
``residual_detail`` and the level table, or the refusal's type and text.
Groups:

* ``solve``: the four families and ``PotentialSpec.from_dict``, exact and
  float, Gaussian phases and couplings among them, some with a numeric E and m;
* ``coulomb``: an exact Coulomb grid over j, n' and q A = f (j + 1/2) with
  rational roots (f from Pythagorean triples), irrational roots, the second
  branch's poles and couplings next to the critical one.

``tests/test_corpus.py`` compares the digests with the committed file.  A
change meant to move a report rewrites the file in the same commit and says
which group moved; ``--diff`` counts the moved records of each group against
a revision, which it extracts with ``git archive`` into a temporary directory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from nilpotent.spectra import (PotentialSpec, QuantumNumbers, match_coefficients,
                               residual_detail, residual_verify)

ROOT = Path(__file__).resolve().parent.parent
DIGEST = ROOT / "tests" / "golden" / "corpus_digest.json"
SOLVE_INPUTS = 2400
SEED = 20261022


def _below(rng, n: int) -> int:
    return rng.getrandbits(32) % n


def _rational(rng, top: int, den: int = 12) -> Fraction:
    """A nonzero rational in [-top, top] with denominator at most ``den``."""
    value = Fraction(1 + _below(rng, top), 1 + _below(rng, den))
    return -value if rng.getrandbits(1) else value


def _number(rng, exact: bool, top: int, den: int = 12):
    """An exact rational, or its float rounded to 4 decimals; a quarter are
    imaginary (a Gaussian constant, or a complex float)."""
    x = _rational(rng, top, den)
    imaginary = _below(rng, 4) == 0
    if exact:
        return PotentialSpec.from_dict({"q": f"{x}i"}).coupling if imaginary else x
    x = round(float(x), 4)
    return complex(0, x) if imaginary else x


def _text(rng, exact: bool, top: int) -> str:
    x = _rational(rng, top)
    text = str(x) if exact else f"{float(x):.4f}"
    return text + "i" if _below(rng, 4) == 0 else text


def _solve_input(rng):
    """(label, PotentialSpec, j, n', E, m) of one input of the ``solve`` group."""
    exact = _below(rng, 10) < 7
    j, n = Fraction(2 * _below(rng, 5) + 1, 2), _below(rng, 5)
    E = m = None
    if _below(rng, 8) == 0:  # a numeric energy and mass, exact or float
        E, m = (_rational(rng, 9), abs(_rational(rng, 9)) + 1)
        E, m = (E, m) if exact else (float(E), float(m))
    family = _below(rng, 5)
    if family == 0:
        V = PotentialSpec({1: _number(rng, exact, 30)}, _number(rng, exact, 20),
                          _number(rng, exact, 20))
    elif family == 1:
        qA = Fraction(1 + _below(rng, 110), 100) * (j + Fraction(1, 2))
        q = _rational(rng, 9, 9)
        V = PotentialSpec({}, qA / q if exact else float(qA / q), q if exact else float(q))
    elif family == 2:
        V = PotentialSpec({2: _number(rng, exact, 30)}, _number(rng, exact, 9, 9),
                          _number(rng, exact, 9, 9))
    elif family == 3:
        powers = ((-6, -12), (-4,), (-2,), (-3, -5), (-2, -3), (-3, -4, -5))[_below(rng, 6)]
        phase = 0 if _below(rng, 20) == 0 else _number(rng, exact, 9, 9)
        V = PotentialSpec({p: _number(rng, exact, 30) for p in powers}, phase)
    else:
        powers = (("1",), ("2",), ("-2",), ("-4",), ("-6",), ("-6", "-12"), ("1", "-1"), ("-1",),
                  ("0",), ("3",), ("1", "2"), ("-3", "-5"))[_below(rng, 12)]
        V = PotentialSpec.from_dict({
            "terms": {p: _text(rng, exact, 30) for p in powers},
            "coulombPhase": _text(rng, exact, 9), "q": _text(rng, exact, 9)})
    return f"solve {'exact' if exact else 'float'}", V, j, n, E, m


_TRIPLES = [Fraction(a, c) for a, b, c in ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25),
                                            (20, 21, 29))] + [Fraction(b, c) for a, b, c in
                                                              ((3, 4, 5), (5, 12, 13))]


def _coulomb_inputs():
    """The exact Coulomb grid: rational and irrational roots, poles, near-critical q A."""
    for twice_j in (1, 3, 5, 7, 9):
        j = Fraction(twice_j, 2)
        J = j + Fraction(1, 2)
        fractions = [*_TRIPLES, Fraction(1, 10), Fraction(1, 3), Fraction(2, 3), Fraction(99, 100),
                     1 - Fraction(1, 10**6), 1 - Fraction(1, 10**20), Fraction(1), Fraction(11, 10)]
        for f in fractions:
            for n in range(4):
                for q in (1, Fraction(2, 5)):
                    yield "coulomb", PotentialSpec({}, f * J / q, q), j, n, None, None
        # a root equal to n' puts the second branch on its pole
        for n in range(1, 4):
            if n < J:
                yield "coulomb pole", PotentialSpec({}, _pole(J, n)), j, n, None, None
        yield "coulomb E", PotentialSpec({}, Fraction(3, 5) * J), j, 1, Fraction(5, 7), Fraction(3)


def _pole(J, n):
    """q A with sqrt(J^2 - (q A)^2) = n where that is rational, else the
    30-decimal rational just below it (a near-pole)."""
    square = J * J - n * n
    root = Fraction(math.isqrt(square.numerator), math.isqrt(square.denominator))
    if root * root == square:
        return root
    return Fraction(math.isqrt(square.numerator * 10**60 // square.denominator), 10**30)


def inputs():
    """Every input as (group, label, PotentialSpec, j, n', E, m)."""
    rng = random.Random(SEED)
    for _ in range(SOLVE_INPUTS):
        yield ("solve", *_solve_input(rng))
    for item in _coulomb_inputs():
        yield ("coulomb", *item)


def record(V, j, n, E, m) -> str:
    """What one input reports, as one line of JSON."""
    try:
        qn = QuantumNumbers(j, n)
        sol = match_coefficients(V, qn, E, m)
        detail = residual_detail(sol, matched_only=False)
        out = {
            "report": sol.to_dict(),
            "residual": residual_verify(V, sol, qn),
            "detail": [[bi, power, value] for (bi, power), value in detail.items()],
            "levels": sol.level_series.table([j], list(range(n, n + 3)))
            if sol.level_series else None,
        }
    except (ArithmeticError, ValueError) as exc:
        out = {"refused": type(exc).__name__, "text": str(exc)}
    return json.dumps(out, sort_keys=True)


def digests() -> dict:
    """{group: sha256 of its records in order} and the count of each group."""
    hashes, counts = {}, {}
    for group, _, V, j, n, E, m in inputs():
        hashes.setdefault(group, hashlib.sha256()).update(record(V, j, n, E, m).encode() + b"\n")
        counts[group] = counts.get(group, 0) + 1
    return {group: {"inputs": counts[group], "sha256": h.hexdigest()}
            for group, h in hashes.items()}


def _dump(root: Path) -> list[str]:
    """The ``--dump`` lines of the checkout at ``root``, run on its own source."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, str(root / "tests" / "corpus.py"), "--dump"], env=env,
                          check=True, capture_output=True, text=True).stdout.splitlines()


def diff(rev: str) -> None:
    """Print each group's count of records that differ between ``rev`` and
    this checkout, and the input of its first differing record."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        old = _dump(Path(tmp))
    new = _dump(ROOT)
    if len(old) != len(new):
        print(f"{rev} has {len(old)} records, this checkout {len(new)}")
    groups = {}
    for before, after in zip(old, new):
        group, _, case, _ = after.split(" | ", 3)
        moved, total, first = groups.get(group, (0, 0, None))
        if before != after:
            moved, first = moved + 1, first or case
        groups[group] = (moved, total + 1, first)
    for group, (moved, total, first) in groups.items():
        print(f"{group}: {moved} of {total} moved" + (f"; first: {first}" if first else ""))


def main(argv) -> int:
    if "--dump" in argv:
        for group, label, V, j, n, E, m in inputs():
            print(f"{group} | {label} | {V} j={j} n'={n} E={E} m={m} | {record(V, j, n, E, m)}")
        return 0
    if "--diff" in argv:
        diff(argv[argv.index("--diff") + 1])
        return 0
    found = digests()
    if "--write" in argv:
        DIGEST.write_text(json.dumps(found, indent=2, sort_keys=True) + "\n")
    print(json.dumps(found, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
