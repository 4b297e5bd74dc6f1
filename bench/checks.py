"""Fail-closed output checks and the benchmark's own reference formulas.

Every check returns ``None`` when the output is right and a one-line reason
when it is not.  Nothing here imports the nilpotent package: the closed forms,
the blade-product table and the Fermat-Torricelli minimum are computed
independently of the code under test.
"""

import csv
import io
import json
import math
import re
from fractions import Fraction
from pathlib import Path

_NONFINITE = re.compile(r"(?i)\b(nan|zoo|oo|inf|infinity)\b")


class Reference:
    """The schemas and golden reports of the checkout, loaded once."""

    def __init__(self, root: Path):
        from jsonschema import Draft202012Validator

        self.schemas = {
            p.name.split(".")[0]: Draft202012Validator(json.loads(p.read_text()))
            for p in sorted((root / "docs" / "schemas").glob("*.schema.json"))
        }
        self.goldens = {p.name: p.read_bytes() for p in (root / "tests" / "golden").iterdir()}

    def schema_error(self, name, obj):
        err = next(iter(self.schemas[name].iter_errors(obj)), None)
        return None if err is None else f"{name} schema: {err.message[:120]}"


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def strict_json(text):
    """Parse JSON, rejecting NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def nonfinite(value):
    """First non-finite number in a parsed report (floats or number strings)."""
    if isinstance(value, float):
        return None if math.isfinite(value) else repr(value)
    if isinstance(value, str):
        m = _NONFINITE.search(value)
        return m.group(0) if m else None
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for v in value:
            bad = nonfinite(v)
            if bad:
                return bad
    return None


def check_cli_output(fmt, code, out, err, ref, schema=None, report_check=None):
    """A request that must succeed: exit 0, silent stderr, well-formed, finite output."""
    if "Traceback" in err:
        return "traceback: " + err.strip().splitlines()[-1][:120]
    if code != 0:
        return f"exit {code}: {err.strip()[:120]}"
    if err:
        return f"unexpected stderr: {err.strip()[:120]}"
    if fmt == "json":
        try:
            report = strict_json(out)
        except ValueError as exc:
            return f"bad JSON: {exc}"
        bad = nonfinite(report)
        if bad:
            return f"non-finite value {bad}"
        if schema:
            problem = ref.schema_error(schema, report)
            if problem:
                return problem
        return report_check(report) if report_check else None
    bad = _NONFINITE.search(out)
    if bad:
        return f"non-finite value {bad.group(0)}"
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        if not rows or rows[0] != ["key", "value"] or any(len(r) != 2 for r in rows):
            return "malformed CSV"
        return None
    lines = out.splitlines()
    if not lines or any(not line or line[0].isspace() for line in lines):
        return "malformed text report"
    return None


def check_golden(code, out, err, expected):
    if code != 0 or err:
        return f"exit {code}: {err.strip()[-120:]}"
    return None if out.encode() == expected else "differs from the golden report"


def check_rejected(code, out, err, expected_code):
    """A malformed request: a documented exit code and a one-line message."""
    if "Traceback" in err:
        return "traceback: " + err.strip().splitlines()[-1][:120]
    if code != expected_code:
        return f"exit {code}, expected {expected_code}"
    if len(err.strip().splitlines()) != 1:
        return "stderr is not a single line"
    if out:
        return "output printed for a rejected request"
    return None


# --- reference formulas -------------------------------------------------------

def coulomb_e_over_m(qa, j, n_prime):
    """E/m = (1 + (qA)^2 / (sqrt((j+1/2)^2 - (qA)^2) + n')^2)^(-1/2)."""
    big_j = float(j) + 0.5
    gt = math.sqrt(big_j * big_j - qa * qa) + n_prime
    return (1.0 + qa * qa / (gt * gt)) ** -0.5


def coulomb_pole(qa, j, n_prime):
    """True at, or within float rounding of, a pole of the second Coulomb branch.

    That branch divides by gamma + nu + 1 = n' - sqrt((j+1/2)^2 - (qA)^2).
    Where that is exactly 0 the solver reports complex infinity; for a float
    qA within 0.01 of the pole, the residual exceeds its 1e-10 bound.
    """
    big_j = Fraction(j) + Fraction(1, 2)
    if isinstance(qa, Fraction):
        return big_j * big_j - qa * qa == n_prime * n_prime
    return abs(math.sqrt(float(big_j) ** 2 - qa * qa) - n_prime) < 1e-2


def oscillator_e(m, j, n_prime):
    """E = -m (1/2 + n') / (j + 1/2)."""
    return -float(m) * (0.5 + n_prime) / (float(j) + 0.5)


def close(a, b, rel=1e-9):
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


def largest_angle_deg(a, b, c):
    a, b, c = sorted((a, b, c))
    cos = (a * a + b * b - c * c) / (2 * a * b)
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))


def fermat_torricelli(a, b, c):
    """Shortest total distance from one point to the corners of triangle a,b,c.

    Weiszfeld iteration from the centroid, compared against every corner,
    which is the minimum when an angle is 120 degrees or more.
    """
    x = (a * a + b * b - c * c) / (2 * a)
    pts = ((0.0, 0.0), (a, 0.0), (x, math.sqrt(max(b * b - x * x, 0.0))))

    def total(px, py):
        return sum(math.hypot(px - qx, py - qy) for qx, qy in pts)

    px, py = sum(p[0] for p in pts) / 3, sum(p[1] for p in pts) / 3
    for _ in range(500):
        ws = [1.0 / max(math.hypot(px - qx, py - qy), 1e-300) for qx, qy in pts]
        nx = sum(w * q[0] for w, q in zip(ws, pts)) / sum(ws)
        ny = sum(w * q[1] for w, q in zip(ws, pts)) / sum(ws)
        if math.hypot(nx - px, ny - py) < 1e-15:
            break
        px, py = nx, ny
    return min([total(px, py)] + [total(qx, qy) for qx, qy in pts])


# --- blade products ----------------------------------------------------------

_Q = ("", "qi", "qj", "qk")
_V = ("", "vi", "vj", "vk")


def _parse_signed_blade(text):
    sign, name = (-1, text[1:]) if text.startswith("-") else (1, text)
    e = q = v = 0
    if name != "1":
        for part in name.split("."):
            if part == "i":
                e = 1
            elif part in _Q:
                q = _Q.index(part)
            else:
                v = _V.index(part)
    return sign, e, q, v


def _cyclic(a, b):
    """(+1, c) for a cyclic pair of distinct units 1..3, (-1, c) otherwise."""
    c = 6 - a - b
    return (1 if (a, b) in ((1, 2), (2, 3), (3, 1)) else -1), c


def blade_product(a_text, b_text):
    """Signed product of two signed blades as ``(product_name, blades_dict)``.

    i is central with i^2 = -1; the q units multiply as quaternions; the v
    units as Pauli matrices (v_a v_b = i v_c cyclically, v^2 = 1); q and v
    commute.
    """
    sa, ea, qa, va = _parse_signed_blade(a_text)
    sb, eb, qb, vb = _parse_signed_blade(b_text)
    sign, i_pow = sa * sb, ea + eb
    if qa and qb:
        if qa == qb:
            sign, q = -sign, 0
        else:
            s, q = _cyclic(qa, qb)
            sign *= s
    else:
        q = qa or qb
    if va and vb:
        if va == vb:
            v = 0
        else:
            s, v = _cyclic(va, vb)
            i_pow += 1 if s > 0 else 3
    else:
        v = va or vb
    if i_pow % 4 >= 2:
        sign = -sign
    parts = [p for p in ("i" if i_pow % 2 else "", _Q[q], _V[v]) if p]
    name = ".".join(parts) or "1"
    return ("-" if sign < 0 else "") + name, {name: str(sign)}
