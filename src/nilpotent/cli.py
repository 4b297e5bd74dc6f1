"""Command-line interface: every subsystem behind one verb-style binary.

    nilpotent algebra verify            identity suite (exit 2 on failure)
    nilpotent algebra multiply ...      blade / multivector products
    nilpotent algebra cpt|spinor|baryon|vacuum|vertex|dual ...
    nilpotent solve --family ...        bound-state coefficient matching
    nilpotent gut ...                   running couplings and the M_X solve
    nilpotent mass ...                  multiplet tables and boson block

Exit codes: 0 success, 1 usage error, 2 verification failure, 3 missing or
invalid data, 141 standard output closed before the report was written (as a
shell reports a process ended by SIGPIPE).
Output formats: text (default), json, csv; JSON and CSV are deterministic
for fixed flags, dataset and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from . import algebra, charges, datafiles, masses, spectra, states, unification, verify

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_DATA = 3
EXIT_PIPE = 141


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -3/4, -3,0,4 or the signed blade -i.qk after a space
        # is a value, not a flag
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(i|[qv][ijk])(\.|$))")

    def error(self, message):
        raise UsageError(message)


class RunConfig(NamedTuple):
    output_format: str = "text"
    data_dir: "str | None" = None
    seed: int = 0


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _flatten(prefix: str, value):
    """(dotted key, leaf value) pairs of a report, keys sorted."""
    if isinstance(value, dict):
        for k, v in sorted(value.items(), key=lambda kv: str(kv[0])):
            yield from _flatten(f"{prefix}.{k}" if prefix else str(k), v)
    elif isinstance(value, (list, tuple)):
        for idx, v in enumerate(value):
            yield from _flatten(f"{prefix}[{idx}]", v)
    else:
        yield prefix, value


def _render_text(report: dict, out) -> None:
    rows = list(_flatten("", report))
    width = max((len(k) for k, _ in rows), default=0)
    for key, value in rows:
        out.write(f"{key:<{width}}  {value}\n")


def _render_csv(report: dict, out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(_flatten("", report))


def emit(report: dict, config: RunConfig, out=None) -> None:
    """Write the report; one holding a non-finite number is refused before any output."""
    for key, value in _flatten("", report):
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} is {value}: the inputs are outside the formula's range")
    out = out or sys.stdout
    if config.output_format == "json":
        json.dump(report, out, indent=2, sort_keys=True, allow_nan=False)
        out.write("\n")
    elif config.output_format == "csv":
        _render_csv(report, out)
    else:
        _render_text(report, out)


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _parse_fraction(text: str) -> Fraction:
    """A decimal, exponent or p/q literal, exactly; anything else is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"expected a rational number, got {text!r}") from exc


def _parse_float(text: str) -> float:
    """A rational literal for a float computation; it must be finite as a float."""
    try:
        return float(_parse_fraction(text))
    except OverflowError as exc:
        raise UsageError(f"{text!r} is too large") from exc


def _float_between(low: float, high: float):
    """An argparse type for a float strictly between ``low`` and ``high``."""
    def parse(text: str) -> float:
        value = _parse_float(text)
        if not low < value < high:
            raise argparse.ArgumentTypeError(
                f"must lie strictly between {low} and {high}, got {text!r}")
        return value
    return parse


def _parse_triple(text: str) -> tuple[Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected px,py,pz, got {text!r}")
    return tuple(_parse_fraction(p) for p in parts)


def _state_args(parser: _Parser):
    parser.add_argument("--E", required=True, help="energy eigenvalue (rational)")
    parser.add_argument("--p", required=True, help="momentum px,py,pz (rationals)")
    parser.add_argument("--m", required=True, help="rest mass (rational)")


def _make_state(args) -> states.NilpotentVector:
    return states.make_nilpotent(
        _parse_fraction(args.E), _parse_triple(args.p), _parse_fraction(args.m),
        getattr(args, "sign_e", 1), getattr(args, "sign_p", 1),
    )


def _gcd_of_power(base: int, k: int, other: int) -> int:
    """gcd(base**k, other) without forming base**k."""
    g = 1
    for _ in range(k):  # each pass divides other by at least 2, so it stops early
        d = math.gcd(base, other)
        if d == 1:
            break
        g, other = g * d, other // d
    return g


def _off_shell_chain_largest(x: states.NilpotentVector, n: int) -> int:
    """The largest numerator or denominator, in lowest terms, of the chain X (kX)^n.

    X k X = lam X - delta k, with delta the mass-shell defect, so the chain is
    alpha X + beta k: alpha = 1 and beta = 0 at n = 0, and each step takes
    them to lam alpha - beta and -delta alpha.  With lam = i l, the two run as
    Gaussian integers (re, im) scaled by d^n, d the lcm of the denominators of
    l and delta, so a step multiplies by the ints l d and delta d only.
    """
    ln, ld = (-2 * x.sign_e * x.E).as_integer_ratio()
    dn, dd = x.mass_shell_defect.as_integer_ratio()
    d = math.lcm(ld, dd)
    l_d, delta_d = ln * (d // ld), dn * (d // dd)
    ar, ai, br, bi = 1, 0, 0, 0
    for _ in range(n):
        ar, ai, br, bi = -l_d * ai - d * br, l_d * ar - d * bi, -delta_d * ar, -delta_d * ai
    scale = d ** n
    alpha = algebra.MV("1", Fraction(ar, scale)) + algebra.MV("i", Fraction(ai, scale))
    beta = algebra.MV("1", Fraction(br, scale)) + algebra.MV("i", Fraction(bi, scale))
    chain = alpha * x.realized + beta * algebra.MV("qk")
    return max((max(abs(c.numerator), c.denominator) for c in chain.blades().values()),
               default=0)


def _digit_count(v: int) -> int:
    """Decimal digits of v > 0, without str(), which refuses a long int."""
    k = int(math.log10(v))  # off by at most one next to a power of ten
    k -= v < 10 ** k
    k += v >= 10 ** (k + 1)
    return k + 1


def _check_chain_prints(x: states.NilpotentVector, n: int) -> None:
    """Refuse an ``--n`` whose vacuum chain holds an int too long to print.

    On shell the chain is lam^n X with |lam| = 2|E| = a/b in lowest terms, so
    a coefficient u/v of X (E, a momentum component or m) becomes
    a^n u / (b^n v), reduced by gcd(a^n, v) gcd(u, b^n).  Off shell the
    chain's coefficients come exactly from two scalar recurrences, which cost
    far less than the chain.  An int of 10^L or more does not print under the
    interpreter's limit of L digits.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    if not x.on_shell:
        largest = _off_shell_chain_largest(x, n)
        if largest >= 10 ** limit:
            raise UsageError(f"--n {n} gives chain coefficients of at least "
                             f"{_digit_count(largest)} digits, over the {limit}-digit "
                             f"limit for printing an int")
        return
    if not x.E:
        return
    a, b = abs(2 * x.E).as_integer_ratio()
    coefficients = [abs(c).as_integer_ratio() for c in (x.E, *x.p, x.m) if c]
    # past 4L steps beyond the bits of u and v, a or b >= 2 outgrows 10^L all the same
    k = min(n, 4 * limit + max(max(uv).bit_length() for uv in coefficients))
    digits = 0.0
    for u, v in coefficients:
        common = math.log10(_gcd_of_power(a, k, v) * _gcd_of_power(b, k, u))
        digits = max(digits, k * math.log10(a) + math.log10(u) - common,
                     k * math.log10(b) + math.log10(v) - common)
    if digits >= limit:
        raise UsageError(f"--n {n} gives chain coefficients of at least {int(digits) + 1} "
                         f"digits, over the {limit}-digit limit for printing an int")


# ---------------------------------------------------------------------------
# algebra subcommands
# ---------------------------------------------------------------------------


def _cmd_algebra(args, config: RunConfig) -> int:
    action = args.subaction
    if action == "verify":
        checks = verify.run_identity_suite(
            oracle_pairs=args.pairs, state_samples=args.samples, seed=config.seed
        )
        failures = [c for c in checks if not c.passed]
        report = {
            "group_elements": 64,
            "identities": len(checks),
            "failures": [{"name": c.name, "detail": c.detail} for c in failures],
            "status": "OK" if not failures else "FAIL",
        }
        if config.output_format == "text":
            status = "OK" if not failures else f"{len(failures)} FAILED"
            sys.stdout.write(f"64 group elements, {len(checks)} identities {status}\n")
            for c in failures:
                sys.stdout.write(f"FAIL {c.name} {c.detail}\n")
        else:
            emit(report, config)
        return EXIT_OK if not failures else EXIT_VERIFY

    if action == "multiply":
        def parse_operand(text):
            sign, name = (-1, text[1:]) if text.startswith("-") else (1, text)
            return algebra.MV(name.strip(), sign)

        product = parse_operand(args.a) * parse_operand(args.b)
        emit({"a": args.a, "b": args.b, "product": str(product),
              "blades": product.to_dict()}, config)
        return EXIT_OK

    if action == "cpt":
        x = _make_state(args)
        image = states.conjugate(x, args.op)
        sandwich = states.conjugate_realized(x, args.op)
        emit({
            "op": args.op,
            "input": x.to_dict(),
            "output": image.to_dict(),
            "sandwich_matches": sandwich == image.realized,
            "multivector": image.realized.to_dict(),
        }, config)
        return EXIT_OK

    if action == "spinor":
        spinor = states.make_spinor(
            _parse_fraction(args.E), _parse_triple(args.p), _parse_fraction(args.m), args.kind
        )
        partner = states.make_spinor(spinor.E, spinor.p, spinor.m, "antifermion")
        report = {
            "kind": spinor.kind,
            "components": [c.to_dict() for c in spinor.components],
        }
        if args.pairing:
            total = states.spinor_pair_sum(spinor, partner, args.pairing)
            report["pairing"] = args.pairing
            report["pair_sum"] = states.product_report(total)
        emit(report, config)
        return EXIT_OK

    if action == "baryon":
        factor, survivor = states.baryon_product(
            args.phase, _parse_fraction(args.E), _parse_triple(args.p), _parse_fraction(args.m)
        )
        emit({
            "phase": args.phase,
            "scalar_factor": str(factor),
            "survivor": survivor.to_dict(),
        }, config)
        return EXIT_OK

    if action == "vacuum":
        x = _make_state(args)
        image = states.vacuum_reflect(x, args.charge)
        report = {"charge": args.charge, "input": x.to_dict(), "image": image.to_dict()}
        if args.charge == "k":
            _check_chain_prints(x, args.n)
            mv, lam = states.vacuum_chain(x, args.n)
            report["chain_reflections"] = args.n
            report["per_step_factor"] = {"re": str(lam.scalar_part),
                                         "im": str(lam.coefficient("i"))}
            report["chain"] = states.product_report(mv)
        emit(report, config)
        return EXIT_OK

    if action == "vertex":
        emit(states.vertex_report(
            args.vertex, _parse_fraction(args.E), _parse_triple(args.p), _parse_fraction(args.m)
        ), config)
        return EXIT_OK

    if action == "dual":
        elements = algebra.dual_generate(args.order)
        census = algebra.element_order_census(elements, algebra.dual_mul)
        report = {
            "order": args.order,
            "element_count": len(elements),
            "history": [{"order": o, "step": s} for o, s, _ in algebra.DUAL_STEPS
                        if o <= args.order],
            "order_census": {str(k): v for k, v in sorted(census.items())},
        }
        if args.order == 64:
            group = algebra.generate_group()
            image = {algebra.dual_element_image(e) for e in elements}
            report["isomorphic_to_dirac_group"] = (
                image == group
                and census == algebra.element_order_census(group, algebra.group_mul)
            )
        emit(report, config)
        return EXIT_OK

    raise UsageError(f"unknown algebra action {action!r}")


# ---------------------------------------------------------------------------
# solve subcommand
# ---------------------------------------------------------------------------


def _build_potential(args) -> spectra.PotentialSpec:
    """The family flags as the ``{terms, coulombPhase, q}`` mapping ``--potential`` takes."""
    if args.potential:
        return spectra.PotentialSpec.from_dict(json.loads(args.potential))
    family = args.family
    if family == "strong":
        spec = {"terms": {1: _parse_fraction(args.sigma)}, "q": _parse_fraction(args.q),
                "coulombPhase": args.A or _parse_fraction(args.qA or "0")}
    elif family == "coulomb":
        if args.qA is None:
            raise UsageError("coulomb family needs --qA")
        spec = {"coulombPhase": _parse_fraction(args.qA)}
    elif family == "oscillator":
        c = _parse_fraction(args.c)
        if not c:
            raise UsageError("the oscillator family needs a nonzero --c")
        spec = {"terms": {2: c / 2}, "coulombPhase": args.A or "1/2i"}
    elif family == "lennard-jones":
        B, C = _parse_fraction(args.B), _parse_fraction(args.C)
        if not (B or C):
            raise UsageError("the lennard-jones family needs a nonzero --B or --C")
        spec = {"terms": {-6: B, -12: -C}, "coulombPhase": args.A or "1/2i"}
    else:
        raise UsageError(f"unknown family {family!r}")
    return spectra.PotentialSpec.from_dict(spec)


def _cmd_solve(args, config: RunConfig) -> int:
    qn = spectra.QuantumNumbers(_parse_fraction(args.j), args.nprime)
    m = _parse_fraction(args.m) if args.m else 1

    if args.family == "strong" and args.radius:
        if args.E is None:
            raise UsageError("--radius needs --E (the constituent or reduced energy)")
        r = spectra.infrared_radius(_parse_float(args.E), _parse_float(args.q),
                                    _parse_float(args.sigma))
        emit({"family": "strong", "E": args.E, "q": args.q, "sigma": args.sigma,
              "infrared_radius_fm": r}, config)
        return EXIT_OK

    if args.lmin:
        a, b, c = (_parse_float(x) for x in args.lmin.split(","))
        emit({"sides": [a, b, c], "L_min": spectra.lmin(a, b, c)}, config)
        return EXIT_OK

    V = _build_potential(args)
    sol = spectra.match_coefficients(V, qn)
    report = sol.to_dict()
    report["residual"] = spectra.residual_verify(V, sol, qn)
    if sol.level_series is not None:
        report["level_family"] = sol.level_series.family
        report["levels"] = sol.level_series.table(
            [qn.j], list(range(args.nprime, args.nprime + 3))
        )
        if sol.level_series.family == "coulomb":
            report["E_over_m"] = spectra.coulomb_levels(
                float(V.coupling * V.coulomb_phase), qn.j, args.nprime
            )
        else:
            report["E"] = float(spectra.oscillator_levels(m, qn.j, args.nprime))
    emit(report, config)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gut subcommand
# ---------------------------------------------------------------------------


def _cmd_gut(args, config: RunConfig) -> int:
    constants = masses.load_constants(config.data_dir)
    mu = args.mu if args.mu is not None else constants["m_z_gev"]
    inv_alpha = args.inv_alpha if args.inv_alpha is not None else constants["inv_alpha_mz"]
    alpha3 = args.alpha3 if args.alpha3 is not None else constants["alpha3_mz"]
    sin2 = args.sin2 if args.sin2 is not None else constants["sin2_theta_w_ideal"]
    planck = args.planck if args.planck is not None else constants["planck_mass_gev"]

    if args.legacy_su5:
        rep = unification.solve_legacy_su5(inv_alpha, 1.0 / alpha3, mu)
        emit({"legacy_su5": rep.to_dict()}, config)
        return EXIT_OK

    m_z = constants["m_z_gev"]
    alpha_g = unification.alphaG_at(alpha3, planck, m_z)
    report = {
        "inputs": {
            "mu": mu,
            "inv_alpha": inv_alpha,
            "alpha3": alpha3,
            "sin2_theta_w": sin2,
            "M_X_assumed": planck,
        },
        "solved_M_X": unification.solve_MX(1.0 / inv_alpha, alpha3, sin2, mu),
        "inv_alpha_G": 1.0 / alpha_g,
        "couplings_at_mu": {
            "inv_alpha2": unification.run_alpha2(alpha_g, planck, mu),
            "inv_alpha3": unification.run_alpha3(alpha_g, planck, mu),
            "inv_alpha_em": unification.run_alpha_em(alpha_g, planck, mu),
        },
        "inv_alpha_at_14TeV": unification.run_alpha_em(alpha_g, planck, 14000.0),
        "mu_where_alpha3_is_1": unification.mu_for_alpha3(1.0, alpha_g, planck),
        "sin2_exact": {
            "phenomenological": str(unification.sin2_from_content(unification.phenomenological_content())),
            "lepton_like": str(unification.sin2_from_content(unification.lepton_like_content())),
        },
        "vacuum_polarization_over_pi": {
            "conventional": str(unification.b1_coefficient(unification.B1_CONVENTIONAL)),
            "lepton_like": str(unification.b1_coefficient(unification.B1_LEPTON_LIKE)),
        },
    }
    if args.grid:
        mus = [_parse_float(x) for x in args.grid.split(",")]
        report["coupling_table"] = unification.coupling_table(alpha_g, planck, mus)
    emit(report, config)
    return EXIT_OK


# ---------------------------------------------------------------------------
# mass subcommand
# ---------------------------------------------------------------------------


def _cmd_mass(args, config: RunConfig) -> int:
    constants = masses.load_constants(config.data_dir)
    unit = masses.MassUnit.from_constants(constants)
    report: dict = {"unit_gev": unit.unit_gev}
    want_all = args.all or not any(
        (args.decuplet, args.octet, args.mesons, args.bosons, args.generations,
         args.ckm, args.ratios, args.regge, args.zeros)
    )

    if args.decuplet or want_all:
        report["decuplet"] = masses.decuplet_table(unit, config.data_dir)
    if args.octet or want_all:
        rows = masses.octet_table(unit, config.data_dir)
        report["octet"] = rows
        vals = {r["name"]: r["measured_units"] for r in rows}
        m_n = next(r["predicted_units"] for r in rows if r["name"] == "N")
        report["gmo_octet_residual_units"] = masses.gmo_octet_residual(
            m_n, vals["Lambda"], vals["Sigma"], vals["Xi"]
        )
    if args.mesons or want_all:
        rows = masses.meson_table(unit, config.data_dir)
        report["mesons"] = rows
        vals = {r["name"]: r["measured_units"] for r in rows}
        m_pi = next(r["predicted_units"] for r in rows if r["name"] == "pi")
        report["gmo_meson_K_units"] = masses.gmo_meson_k(m_pi, vals["eta"])
    if args.bosons or want_all:
        block = masses.electroweak_bosons(
            constants["m_z_gev"],
            constants["sin2_theta_w_ideal"],
            constants["m_w_measured_gev"],
            constants["higgs_vev_empirical_gev"],
            unit,
        )
        report["bosons"] = block.to_dict()
        report["bosons"]["higgs_zero_count"] = masses.higgs_zero_count()
        report["bosons"]["z_zero_count"] = masses.z_zero_count()
        report["bosons"]["coupling_sum_over_g"] = masses.fermion_coupling_sum(1.0)
    if args.generations or want_all:
        g1, g2, g3 = masses.generation_partition(
            constants["fermion_mass_total_gev"], 1.0 / constants["inv_alpha_low_energy"]
        )
        report["generations_gev"] = [g1, g2, g3]
    if args.ckm or want_all:
        rotated = masses.ckm_apply(
            (constants["m_e_lepton_gev"], constants["m_mu_gev"], constants["m_tau_gev"]),
            constants["cabibbo_lambda"],
        )
        report["ckm"] = {
            "lambda": constants["cabibbo_lambda"],
            "rotated_gev": list(rotated["rotated"]),
            "mu_over_e": rotated["mu_over_e"],
            "tau_over_mu": rotated["tau_over_mu"],
        }
    if args.ratios or want_all:
        rfi = constants["ratio_formula_inputs"]
        rb = masses.mb_over_mtau(
            rfi["alpha3_mu"], rfi["alpha3_mt"], rfi["alpha3_mx"], rfi["alpha_ratio_term"]
        )
        rs = masses.ms_over_mmu(
            rfi["alpha3_mu"], 1.0 / rfi["inv_alpha3_mc"], rfi["alpha3_mx"], rfi["alpha_ratio_term"]
        )
        report["ratios"] = {
            "mb_over_mtau": rb,
            "m_b_gev": rb * constants["m_tau_gev"],
            "ms_over_mmu": rs,
            "m_s_gev": rs * constants["m_mu_gev"],
        }
    if args.regge or want_all:
        slope = constants["regge_two_pi_kappa_gev2"]
        report["regge"] = {
            "two_pi_kappa_gev2": slope,
            "mass_at_J1_gev": masses.regge_mass_squared(1.0, slope) ** 0.5,
        }
    if args.zeros or want_all:
        tables = charges.build_tables()
        first = {}  # content -> the first baryon row holding it
        for m in masses.load_multiplets(config.data_dir):
            if m.family in ("decuplet", "octet"):
                first.setdefault(m.contents, m.name)
        report["zero_counts"] = {
            name: list(charges.multiplet_zero_candidates(contents, "A", tables))
            for contents, name in first.items()
        }
    emit(report, config)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _global_flags(parser, defaults: dict) -> None:
    parser.add_argument("--format", choices=("text", "json", "csv"), default=defaults["format"])
    parser.add_argument("--data-dir", default=defaults["data_dir"],
                        help="override the dataset directory (or set NILPOTENT_DATA_DIR)")
    parser.add_argument("--seed", type=int, default=defaults["seed"],
                        help="seed for randomized sweeps")


def build_parser() -> _Parser:
    parser = _Parser(prog="nilpotent", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    _global_flags(parser, {"format": "text", "data_dir": None, "seed": 0})
    # after the verb too; a suppressed default keeps a value given before it
    common = argparse.ArgumentParser(add_help=False)
    _global_flags(common, dict.fromkeys(("format", "data_dir", "seed"), argparse.SUPPRESS))
    sub = parser.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("algebra", help="group algebra and state-vector checks")
    alg_sub = alg.add_subparsers(dest="subaction", required=True)

    p = alg_sub.add_parser("verify", help="run the full identity suite", parents=[common])
    p.add_argument("--pairs", type=int, default=1000, help="oracle pairs")
    p.add_argument("--samples", type=int, default=1000, help="on-shell state samples")

    p = alg_sub.add_parser("multiply", help="multiply two signed blades", parents=[common])
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = alg_sub.add_parser("cpt", help="apply a conjugation string such as TCP", parents=[common])
    p.add_argument("--op", required=True)
    _state_args(p)

    p = alg_sub.add_parser("spinor", help="4-component spinor and pair sums", parents=[common])
    p.add_argument("--kind", choices=("fermion", "antifermion"), default="fermion")
    p.add_argument("--pairing", choices=states.PAIRING_KINDS, default=None)
    _state_args(p)

    p = alg_sub.add_parser("baryon", help="three-bracket phase product", parents=[common])
    p.add_argument("--phase", required=True, choices=sorted(states.BARYON_PHASES))
    _state_args(p)

    p = alg_sub.add_parser("vacuum", help="vacuum reflections and chains", parents=[common])
    p.add_argument("--charge", choices=("k", "j", "i"), default="k")
    p.add_argument("--n", type=int, default=1)
    _state_args(p)

    p = alg_sub.add_parser("vertex", help="electroweak vertex sums", parents=[common])
    p.add_argument("--vertex", required=True, choices=("a", "b", "c", "d"))
    _state_args(p)

    p = alg_sub.add_parser("dual", help="iterative dualling generation", parents=[common])
    p.add_argument("--order", type=int, default=64)

    p = sub.add_parser("solve", help="bound-state coefficient matching", parents=[common])
    p.add_argument("--family", choices=("strong", "coulomb", "oscillator", "lennard-jones"))
    p.add_argument("--potential", help="potential as JSON {terms:{}, coulombPhase, q}")
    p.add_argument("--q", default="1", help="coupling strength (rational)")
    p.add_argument("--sigma", default="1", help="linear coefficient, strong family (rational)")
    p.add_argument("--qA", default=None, help="Coulomb product qA")
    p.add_argument("--A", default=None, help="Coulomb phase (append i for imaginary)")
    p.add_argument("--c", default="1", help="oscillator constant, V = c r^2 / 2 (rational)")
    p.add_argument("--B", default="1", help="inverse sixth-power coefficient (rational)")
    p.add_argument("--C", default="1", help="inverse twelfth-power coefficient (rational)")
    p.add_argument("--j", default="1/2", help="total angular momentum")
    p.add_argument("--nprime", type=int, default=0, help="series termination")
    p.add_argument("--E", default=None, help="energy for the infrared radius")
    p.add_argument("--m", default=None, help="mass scale for oscillator levels")
    p.add_argument("--radius", action="store_true", help="infrared radius 2E/(q sigma)")
    p.add_argument("--lmin", default=None, help="flux-tube length for sides a,b,c")

    p = sub.add_parser("gut", help="running couplings and unification", parents=[common])
    positive = _float_between(0, math.inf)
    p.add_argument("--mu", type=positive, default=None)
    p.add_argument("--inv-alpha", type=positive, default=None, dest="inv_alpha")
    p.add_argument("--alpha3", type=positive, default=None)
    p.add_argument("--sin2", type=_float_between(0, 1), default=None)
    p.add_argument("--planck", type=positive, default=None, help="assumed M_X")
    p.add_argument("--legacy-su5", action="store_true", dest="legacy_su5")
    p.add_argument("--grid", default=None, help="comma-separated mu grid")

    p = sub.add_parser("mass", help="multiplet, boson and fermion mass reports", parents=[common])
    for flag in ("decuplet", "octet", "mesons", "bosons", "generations",
                 "ckm", "ratios", "regge", "zeros", "all"):
        p.add_argument(f"--{flag}", action="store_true")

    return parser


_COMMANDS = {
    "algebra": _cmd_algebra,
    "solve": _cmd_solve,
    "gut": _cmd_gut,
    "mass": _cmd_mass,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = RunConfig(args.format, args.data_dir, args.seed)
        code = _COMMANDS[args.command](args, config)
        sys.stdout.flush()  # a reader that has gone shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the Python docs' recipe: send what is left to devnull, so the flush
        # at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (FileNotFoundError, datafiles.MissingDataError) as exc:
        sys.stderr.write(f"missing data: {exc}\n")
        return EXIT_DATA
    except datafiles.InvalidDataError as exc:
        sys.stderr.write(f"invalid data: {exc}\n")
        return EXIT_DATA
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OverflowError as exc:
        sys.stderr.write(f"error: the result overflows a float ({exc})\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
