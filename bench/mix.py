"""Seeded request streams for the cold-process workloads.

A request is the argv of one ``nilpotent`` invocation together with the
check its output must pass.  The measured streams hold only requests the
program answers correctly today.  Each open correctness defect (the list is
in README.md) is exercised instead by a request of ``Mix.defect_probes``,
which runs once per traced cli-mix run and is reported beside the result, never
counted as an operation: a measured operation that fails is a regression.
"""

import ast
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import checks

GOLDEN_ARGV = {  # the golden reports pinned by the test suite
    "gut_defaults.json": ("--format", "json", "gut"),
    "gut_legacy_su5.json": ("--format", "json", "gut", "--legacy-su5"),
    "mass_all.json": ("--format", "json", "mass", "--all"),
    "mass_ckm.json": ("--format", "json", "mass", "--ckm"),
    "solve_coulomb.json": ("--format", "json", "solve", "--family", "coulomb",
                           "--qA", "1/10", "--j", "1/2", "--nprime", "0"),
    "baryon_bgr.json": ("--format", "json", "algebra", "baryon", "--phase", "BGR",
                        "--E", "5", "--p", "0,0,4", "--m", "3"),
    "gut_defaults.csv": ("--format", "csv", "gut"),
}

VERIFY_IDENTITIES = 87  # identity count of the suite when the benchmark was defined

# Requests the CLI must reject with a documented exit code and a one-line
# message: (argv, expected exit code).
MALFORMED = (
    (("solve", "--family", "nope"), 1),
    (("solve", "--family", "coulomb"), 1),
    (("solve", "--family", "coulomb", "--qA", "3"), 1),
    (("algebra", "multiply", "--a", "qx", "--b", "qi"), 1),
    (("algebra", "dual", "--order", "3"), 1),
    (("--data-dir", "bench/no-such-dataset", "mass", "--bosons"), 3),
)
# Malformed requests that hit an open defect: (argv, expected exit code, defect).
MALFORMED_DEFECTS = (
    (("gut", "--alpha3", "0"), 1, "traceback"),
    (("solve", "--potential", "[]"), 1, "traceback"),
    (("solve", "--family", "oscillator", "--c", "0"), 1, "traceback"),
    (("--format", "json", "gut", "--sin2", "nan"), 1, "nan-input"),
    (("--format", "json", "solve", "--family", "strong", "--q", "0"), 1, "nan-residual"),
)
MALFORMED_PER_BLOCK = 2  # with one request of each light kind: about one in ten malformed

BLADES = tuple(
    ".".join(p for p in (e, q, v) if p) or "1"
    for e in ("", "i") for q in ("", "qi", "qj", "qk") for v in ("", "vi", "vj", "vk")
)
MASS_SECTIONS = ("decuplet", "octet", "mesons", "bosons", "generations", "ckm", "ratios",
                 "regge", "zeros")
CPT_OPS = ("P", "T", "C", "CP", "PT", "TC", "TCP", "PTC", "CC", "TT")


@dataclass
class Request:
    kind: str
    argv: tuple
    check: Callable  # (code, stdout, stderr, ref) -> reason or None
    known_defect: Optional[str] = None


def on_shell_quadruples(verify_py):
    """``verify.ON_SHELL_QUADRUPLES`` read from source, without importing the package."""
    for node in ast.parse(verify_py.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "ON_SHELL_QUADRUPLES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError("ON_SHELL_QUADRUPLES not found")


def verify_request(seed):
    def check(code, out, err, ref):
        def report_check(r):
            if r["status"] != "OK" or r["failures"]:
                return f"verify status {r['status']}: {r['failures'][:2]}"
            if r["identities"] != VERIFY_IDENTITIES:
                return f"{r['identities']} identities, expected {VERIFY_IDENTITIES}"
            return None
        return checks.check_cli_output("json", code, out, err, ref, "algebra_verify", report_check)

    return Request("verify", ("--format", "json", "--seed", str(seed), "algebra", "verify"), check)


def _ok(kind, fmt, argv, schema=None, report_check=None, known_defect=None):
    def check(code, out, err, ref):
        return checks.check_cli_output(fmt, code, out, err, ref, schema, report_check)

    return Request(kind, ("--format", fmt) + tuple(argv), check, known_defect)


def _rejected(code):
    return lambda c, o, e, ref: checks.check_rejected(c, o, e, code)


def rational(rng, lo, hi, den=12):
    """A seeded rational with numerator in [lo, hi] and denominator in [1, den]."""
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


class Mix:
    """Generator of the cli-mix request stream for one workload seed."""

    def __init__(self, seed, quadruples):
        self.rng = random.Random(seed)
        self.quads = quadruples
        self.light = [getattr(self, n) for n in sorted(dir(self)) if n.startswith("req_")]

    def stream(self, n):
        """n requests in blocks that each hold every light kind once and two
        malformed requests, in a seeded order, so every seed runs the same mix."""
        out = []
        while len(out) < n:
            block = self.light + [self.malformed] * MALFORMED_PER_BLOCK
            self.rng.shuffle(block)
            out.extend(make() for make in block)
        return out[:n]

    def coverage(self):
        """One request of every kind for the traced pass, in forms that reach every layer."""
        pinned = (self.req_dual, self.req_mass)
        return ([make() for make in self.light if make not in pinned]
                + [self.req_dual(64), self.req_mass(everything=True)]
                + [self.malformed(i) for i in range(len(MALFORMED))])

    def defect_probes(self):
        """One request per open defect; each fails its check while the defect is open."""
        probes = [Request("malformed", argv, _rejected(code), defect)
                  for argv, code, defect in MALFORMED_DEFECTS]
        # JSON, the format whose values are checked against the closed forms
        probes.append(self._coulomb(Fraction(3), Fraction(9, 2), 4, "json"))  # on the pole
        probes.append(self._lmin(Fraction(7), Fraction(9), math.radians(150.0), "json"))
        return probes

    # -- helpers ---------------------------------------------------------------
    def _fmt(self):
        return self.rng.choice(("json", "text", "csv"))

    def _state(self, massive=None):
        """An exact on-shell (E, p, m) from the quadruples: scaled, permuted, sign-flipped."""
        quads = [q for q in self.quads if massive is None or bool(q[3]) == massive]
        px, py, pz, m, e = self.rng.choice(quads)
        s = rational(self.rng, 1, 12)
        comps = [c * s for c in (px, py, pz)]
        self.rng.shuffle(comps)
        comps = [c if self.rng.random() < 0.5 else -c for c in comps]
        return e * s, comps, m * s

    def _state_argv(self, state):
        e, p, m = state
        return (f"--E={e}", "--p=" + ",".join(str(c) for c in p), f"--m={m}")

    def malformed(self, index=None):
        argv, code = MALFORMED[self.rng.randrange(len(MALFORMED)) if index is None else index]
        return Request("malformed", argv, _rejected(code))

    # -- algebra ---------------------------------------------------------------
    def req_multiply(self):
        a = self.rng.choice(("", "-")) + self.rng.choice(BLADES)
        b = self.rng.choice(("", "-")) + self.rng.choice(BLADES)
        product, blades = checks.blade_product(a, b)

        def report_check(r):
            if (r["product"], r["blades"]) != (product, blades):
                return f"{a} * {b} gave {r['product']}, expected {product}"
            return None

        return _ok("multiply", self._fmt(), ("algebra", "multiply", f"--a={a}", f"--b={b}"),
                   None, report_check)

    def req_cpt(self):
        op = self.rng.choice(CPT_OPS)

        def report_check(r):
            if r["sandwich_matches"] is not True:
                return f"{op}: sandwich product differs from the sign flip"
            if op == "TCP" and r["input"] != r["output"]:
                return "TCP is not the identity"
            return None

        return _ok("cpt", self._fmt(),
                   ("algebra", "cpt", "--op", op) + self._state_argv(self._state()),
                   None, report_check)

    def req_spinor(self):
        argv = ["algebra", "spinor", "--kind", self.rng.choice(("fermion", "antifermion"))]
        pairing = self.rng.choice((None, "spin1", "spin0", "pauli", "vacuum-k", "vacuum-j",
                                   "vacuum-i"))
        if pairing:
            argv += ["--pairing", pairing]

        def report_check(r):
            return None if len(r["components"]) == 4 else "spinor without four components"

        return _ok("spinor", self._fmt(), tuple(argv) + self._state_argv(self._state()),
                   None, report_check)

    def req_baryon(self):
        phase = self.rng.choice(("BGR", "-BRG", "RBG", "GRB", "-GBR", "-RGB"))
        s = rational(self.rng, 1, 12)
        axis = self.rng.randrange(3)
        p = [Fraction(0)] * 3
        p[axis] = 4 * s * self.rng.choice((1, -1))
        state = (5 * s, p, 3 * s)

        def report_check(r):
            if Fraction(r["scalar_factor"]) != p[axis] ** 2:
                return f"scalar factor {r['scalar_factor']} != p^2 = {p[axis] ** 2}"
            return None

        return _ok("baryon", self._fmt(),
                   ("algebra", "baryon", f"--phase={phase}") + self._state_argv(state),
                   None, report_check)

    def req_vacuum(self):
        charge = self.rng.choice(("k", "j", "i"))
        state = self._state()

        def report_check(r):
            if charge == "k":
                lam = r["per_step_factor"]
                if Fraction(lam["re"]) != 0 or abs(Fraction(lam["im"])) != 2 * abs(state[0]):
                    return f"vacuum factor {lam} is not +-2E i"
            return None

        argv = ("algebra", "vacuum", "--charge", charge, "--n", str(self.rng.randint(1, 4)))
        return _ok("vacuum", self._fmt(), argv + self._state_argv(state), None, report_check)

    def req_vertex(self):
        vertex = self.rng.choice("abcd")
        massive = self.rng.random() < 0.5
        state = self._state(massive)

        def report_check(r):
            if not massive and r["sum"]:
                return f"massless vertex {vertex} sum does not vanish"
            if massive and vertex != "d" and not r["sum"]:
                return f"massive vertex {vertex} sum vanishes"
            return None

        return _ok("vertex", self._fmt(),
                   ("algebra", "vertex", "--vertex", vertex) + self._state_argv(state),
                   None, report_check)

    def req_dual(self, order=None):
        order = order or self.rng.choice((2, 4, 8, 16, 32, 64))

        def report_check(r):
            if r["element_count"] != order or sum(r["order_census"].values()) != order:
                return f"dual order {order} has {r['element_count']} elements"
            if order == 64 and r.get("isomorphic_to_dirac_group") is not True:
                return "dual order 64 is not the Dirac group"
            return None

        return _ok("dual", self._fmt(), ("algebra", "dual", "--order", str(order)), None,
                   report_check)

    # -- solve -----------------------------------------------------------------
    def _jn(self):
        return Fraction(2 * self.rng.randint(0, 4) + 1, 2), self.rng.randint(0, 4)

    def _solved(self, kind, argv, extra=None, fmt=None):
        def report_check(r):
            if r["residual"] != 0.0:
                return f"residual {r['residual']} for exact input"
            return extra(r) if extra else None

        return _ok(kind, fmt or self._fmt(), argv, "solve_report", report_check)

    def req_solve_strong(self):
        j, n = self._jn()
        argv = ["solve", "--family", "strong", "--q", str(rational(self.rng, 1, 20)),
                "--sigma", str(rational(self.rng, 1, 30)), "--j", str(j), "--nprime", str(n)]
        if self.rng.random() < 0.7:
            argv += ["--qA", str(rational(self.rng, 1, 20))]
        return self._solved("solve-strong", argv)

    def req_solve_coulomb(self):
        """Coupling below the critical j + 1/2, redrawn on a pole (see ``defect_probes``)."""
        while True:
            j, n = self._jn()
            qa = Fraction(self.rng.randint(1, 99), 100) * (j + Fraction(1, 2))
            if not checks.coulomb_pole(qa, j, n):
                return self._coulomb(qa, j, n)

    def _coulomb(self, qa, j, n, fmt=None):
        def extra(r):
            want = checks.coulomb_e_over_m(float(qa), j, n)
            if not checks.close(r["E_over_m"], want):
                return f"E/m {r['E_over_m']} != closed form {want}"
            for row in r["levels"]:
                want = checks.coulomb_e_over_m(float(qa), Fraction(row["j"]), row["nPrime"])
                if not checks.close(row["E_over_m"], want):
                    return f"level {row} != closed form {want}"
            return None

        request = self._solved("solve-coulomb", ("solve", "--family", "coulomb", "--qA", str(qa),
                                                 "--j", str(j), "--nprime", str(n)), extra, fmt)
        if checks.coulomb_pole(qa, j, n):
            request.known_defect = "coulomb-pole"
        return request

    def req_solve_oscillator(self):
        j, n = self._jn()
        m = rational(self.rng, 1, 20)

        def extra(r):
            want = checks.oscillator_e(m, j, n)
            return None if checks.close(r["E"], want) else f"E {r['E']} != closed form {want}"

        return self._solved("solve-oscillator", (
            "solve", "--family", "oscillator", "--c", str(rational(self.rng, 1, 30)),
            "--m", str(m), "--j", str(j), "--nprime", str(n)), extra)

    def req_solve_lj(self):
        j, n = self._jn()
        return self._solved("solve-lennard-jones", (
            "solve", "--family", "lennard-jones", "--B", str(rational(self.rng, 1, 30)),
            "--C", str(rational(self.rng, 1, 30)), "--j", str(j), "--nprime", str(n)))

    def req_solve_potential(self):
        power = self.rng.choice(("1", "2", "-2", "-4", "-6"))
        spec = {"terms": {power: str(rational(self.rng, 1, 30))},
                "coulombPhase": str(rational(self.rng, 1, 9, 9)), "q": str(rational(self.rng, 1, 9, 9))}
        return self._solved("solve-potential", ("solve", "--potential", json.dumps(spec)))

    def req_solve_radius(self):
        """--radius reads --q and --sigma as decimals and --E as a rational."""
        e = rational(self.rng, 1, 30)
        q, sigma = (f"{self.rng.uniform(0.05, 3):.4f}" for _ in range(2))

        def report_check(r):
            want = 2 * float(e) / (float(q) * float(sigma))
            if not checks.close(r["infrared_radius_fm"], want):
                return f"radius {r['infrared_radius_fm']} != 2E/(q sigma) = {want}"
            return None

        return _ok("solve-radius", self._fmt(), (
            "solve", "--family", "strong", "--radius", "--E", str(e), "--q", str(q),
            "--sigma", str(sigma)), None, report_check)

    def req_solve_lmin(self):
        """A triangle from two sides and the angle between them, redrawn while an
        angle is 120 degrees or more (that domain is in ``defect_probes``)."""
        while True:
            a, b = rational(self.rng, 1, 30), rational(self.rng, 1, 30)
            request = self._lmin(a, b, math.radians(self.rng.uniform(5.0, 175.0)))
            if not request.known_defect:
                return request

    def _lmin(self, a, b, angle, fmt=None):
        c = f"{math.sqrt(float(a * a + b * b) - 2 * float(a * b) * math.cos(angle)):.6f}"
        sides = (float(a), float(b), float(Fraction(c)))
        want = checks.fermat_torricelli(*sides)
        obtuse = checks.largest_angle_deg(*sides) >= 120.0

        def report_check(r):
            if not checks.close(r["L_min"], want, rel=1e-6):
                return f"L_min{sides} = {r['L_min']}, Fermat-Torricelli minimum {want}"
            return None

        return _ok("solve-lmin", fmt or self._fmt(), ("solve", "--lmin", f"{a},{b},{c}"), None,
                   report_check, "lmin-obtuse" if obtuse else None)

    # -- gut and mass ----------------------------------------------------------
    def req_gut(self):
        form = self.rng.choice(("default", "mu", "grid", "legacy"))
        argv, check = ["gut"], None
        if form == "mu":
            argv += ["--mu", f"{10 ** self.rng.uniform(0, 4):.4f}"]
        elif form == "grid":
            grid = [f"{10 ** self.rng.uniform(0, 16):.6g}" for _ in range(self.rng.randint(2, 6))]
            argv += ["--grid", ",".join(grid)]

            def check(r):
                ok = len(r["coupling_table"]) == len(grid)
                return None if ok else "coupling table length differs from the grid"
        elif form == "legacy":
            argv += ["--legacy-su5"]
        return _ok(f"gut-{form}", self._fmt(), argv, None if form == "legacy" else "gut_report",
                   check)

    def req_mass(self, everything=False):
        if everything or self.rng.random() < 0.4:
            argv = ["mass", "--all"]
        else:
            sections = self.rng.sample(MASS_SECTIONS, self.rng.randint(1, 2))
            argv = ["mass"] + [f"--{s}" for s in sections]
        return _ok("mass", self._fmt(), argv, "mass_report")

    def req_golden(self):
        name = self.rng.choice(sorted(GOLDEN_ARGV))
        return Request("golden", GOLDEN_ARGV[name],
                       lambda c, o, e, ref: checks.check_golden(c, o, e, ref.goldens[name]))
