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
import importlib.util
import json
import math
import os
import re
import sys
from fractions import Fraction
from typing import NamedTuple

from . import InvalidDataError, MissingDataError, _digit_count, _echo, _printable


def _lazy(name: str):
    """The package module ``name``, compiled and run only when one of its
    attributes is first read, so a cold process pays only for the modules
    its verb uses; one already imported is returned as it is."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    # as an import would; `from . import name` then finds it without reading it
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


# cli reads nothing of datafiles, but a profiler that wraps the modules in
# sys.modules when cli loads finds it registered, before masses imports it
algebra, charges, datafiles, exact, geometry, masses, spectra, states, unification, verify = map(
    _lazy, ("algebra", "charges", "datafiles", "exact", "geometry", "masses", "spectra", "states",
            "unification", "verify"))

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
        # a value such as -3/4, -3,0,4, the signed blade -i.qk or the baryon
        # phase -RGB after a space is a value, not a flag
        self._negative_number_matcher = re.compile(
            r"^-(\.?\d|(i|[qv][ijk])(\.|$)|(BRG|GBR|RGB)$)")

    def error(self, message):
        # each refused value, quoted or bare, repeated by the one 60-character
        # rule; argparse lists every unrecognized argument, and the list is one value
        stray = "unrecognized arguments: "
        if message.startswith(stray):
            raise UsageError(stray + _echo(message[len(stray):]))
        raise UsageError(re.sub(r"'[^']*'|\S+", lambda m: _echo(m[0]), message))


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


def _checked(report: dict, config: RunConfig, witness: str) -> int:
    """Write the report; exit 2 after it, with one stderr line naming the
    ``witness``, when the answer failed its own check."""
    emit(report, config)
    return _refuse(f"verification failure: {witness}", EXIT_VERIFY) if witness else EXIT_OK


# ---------------------------------------------------------------------------
# argument helpers
# ---------------------------------------------------------------------------


def _parse_fraction(text: str) -> Fraction:
    """A decimal, exponent or p/q literal, exactly; anything else is a usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"expected a rational number, got {_echo(repr(text))}") from exc


def _parse_value(text: str, flag: str) -> Fraction:
    """``_parse_fraction`` of a value the report repeats, refused by ``flag``
    if it holds an int too long to print."""
    try:
        return _printable(_parse_fraction(text), flag)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_float(text: str) -> float:
    """A rational literal for a float computation; it must be finite as a float."""
    try:
        return float(_parse_fraction(text))
    except OverflowError as exc:
        raise UsageError(f"{_echo(repr(text))} is too large") from exc


def _float_between(low: float, high: float):
    """An argparse type for a float strictly between ``low`` and ``high``."""
    def parse(text: str) -> float:
        value = _parse_float(text)
        if not low < value < high:
            raise argparse.ArgumentTypeError(
                f"must lie strictly between {low} and {high}, got {_echo(repr(text))}")
        return value
    return parse


def _parse_triple(text: str, what: str = "px,py,pz",
                  parse=lambda part: _parse_value(part, "--p")) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise UsageError(f"expected {what}, got {_echo(repr(text))}")
    return tuple(parse(p) for p in parts)


def _state_args(parser: _Parser):
    parser.add_argument("--E", required=True, help="energy eigenvalue (rational)")
    parser.add_argument("--p", required=True, help="momentum px,py,pz (rationals)")
    parser.add_argument("--m", required=True, help="rest mass (rational)")


def _make_state(args) -> states.NilpotentVector:
    return states.make_nilpotent(
        _parse_value(args.E, "--E"), _parse_triple(args.p), _parse_value(args.m, "--m"),
        getattr(args, "sign_e", 1), getattr(args, "sign_p", 1),
    )


def _printable_chain(x: states.NilpotentVector, n: int):
    """The vacuum chain of ``--n`` reflections and its factor, refused if it
    holds an int of more digits than the interpreter's limit for printing one.

    On shell with |2E| = a/b in lowest terms, the energy coefficient of the
    chain lam^n X is at least max(a, b)^(n+1) / 2, which refuses an enormous
    ``--n`` before the chain is built.
    """
    limit = sys.get_int_max_str_digits() or math.inf
    digits = 0
    if x.on_shell:
        a, b = abs(2 * x.E).as_integer_ratio()
        # an n past 2^53 counts as 2^53, which a float still holds
        bound = (min(n, 2 ** 53) + 1) * math.log10(max(a, b)) - math.log10(2)
        digits = int(bound - abs(bound) * 1e-15) + 1  # less the float rounding: a lower bound
    if digits <= limit:
        chain, lam = states.vacuum_chain(x, n)
        digits = _digit_count(max((max(abs(c.numerator), c.denominator)
                                   for c in chain.blades().values()), default=1))
    if digits > limit:
        # an n too long to repeat whole is past 2^53, so its count is that of 2^53:
        # the line leaves it out to stay short
        shown = _echo(str(n))
        count = f"of at least {digits} digits, " if shown == str(n) else ""
        raise UsageError(f"--n {shown} gives chain coefficients {count}"
                         f"over the {limit}-digit limit for printing an int")
    return chain, lam


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
        matches = states.conjugate_realized(x, args.op) == image.realized
        return _checked({
            "op": args.op,
            "input": x.to_dict(),
            "output": image.to_dict(),
            "sandwich_matches": matches,
            "multivector": image.realized.to_dict(),
        }, config, "" if matches else
            f"the sandwich product of --op {_echo(args.op)} differs from its sign flip")

    if action == "spinor":
        spinor = states.make_spinor(
            _parse_value(args.E, "--E"), _parse_triple(args.p),
            _parse_value(args.m, "--m"), args.kind
        )
        partner = states.make_spinor(spinor.E, spinor.p, spinor.m, "antifermion")
        report = {
            "kind": spinor.kind,
            "components": [c.to_dict() for c in spinor.components],
        }
        if args.pairing is not None:
            total = states.spinor_pair_sum(spinor, partner, args.pairing)
            report["pairing"] = args.pairing
            report["pair_sum"] = states.product_report(total)
        emit(report, config)
        return EXIT_OK

    if action == "baryon":
        try:
            factor, survivor = states.baryon_product(
                args.phase, _parse_value(args.E, "--E"), _parse_triple(args.p),
                _parse_value(args.m, "--m")
            )
        except AssertionError as exc:  # the product did not collapse: no report to print
            return _refuse(f"verification failure: phase {args.phase}: {exc}", EXIT_VERIFY)
        emit({
            "phase": args.phase,
            "scalar_factor": str(factor),
            "survivor": survivor.to_dict(),
        }, config)
        return EXIT_OK

    if action == "vacuum":
        x = _make_state(args)
        image = states.vacuum_reflect(x, args.charge)
        if args.n < 1:
            raise ValueError("need at least one reflection")
        report = {"charge": args.charge, "input": x.to_dict(), "image": image.to_dict()}
        witness = ""
        if args.charge == "k":
            n = args.n
            mv, lam = _printable_chain(x, n)
            report["chain_reflections"] = n
            report["per_step_factor"] = {"re": str(lam.scalar_part),
                                         "im": str(lam.coefficient("i"))}
            report["chain"] = states.product_report(mv)
            # on shell the chain is lam^n X, lam = -2iE signE: i^n (-2E signE)^n X
            if x.on_shell and mv != algebra.MV(
                    "1i"[n % 2], (-1) ** (n // 2) * (-2 * x.sign_e * x.E) ** n) * x.realized:
                witness = f"the on-shell chain of --n {n} reflections is not lam^n X"
        return _checked(report, config, witness)

    if action == "vertex":
        E, p, m = _parse_value(args.E, "--E"), _parse_triple(args.p), _parse_value(args.m, "--m")
        report = states.vertex_report(args.vertex, E, p, m)
        witness = ""
        if states.make_nilpotent(E, p, m).on_shell:
            if not report["is_scalar"]:
                witness = f"the on-shell sum of vertex {args.vertex} is not a pure scalar"
            elif not m and report["sum"]:
                witness = f"the all-massless sum of vertex {args.vertex} is not zero"
        return _checked(report, config, witness)

    # dual, the last action argparse admits
    elements = algebra.dual_generate(args.order)
    census = algebra.element_order_census(elements, algebra.dual_mul)
    report = {
        "order": args.order,
        "element_count": len(elements),
        "history": [{"order": o, "step": s} for o, s, _ in algebra.DUAL_STEPS
                    if o <= args.order],
        "order_census": {str(k): v for k, v in sorted(census.items())},
    }
    witness = ""
    if args.order == 64:
        group = algebra.generate_group()
        group_census = algebra.element_order_census(group, algebra.group_mul)
        if {algebra.dual_element_image(e) for e in elements} != group:
            witness = "the generator map's image is not the Dirac group"
        elif census != group_census:
            witness = (f"the order census {report['order_census']} differs from the Dirac "
                       f"group's {({str(k): v for k, v in sorted(group_census.items())})}")
        else:
            witness = algebra.dual_homomorphism_witness(elements)
        report["isomorphic_to_dirac_group"] = not witness
    return _checked(report, config, witness)


# ---------------------------------------------------------------------------
# solve subcommand
# ---------------------------------------------------------------------------


def _build_potential(args) -> exact.PotentialSpec:
    """The family flags as the ``{terms, coulombPhase, q}`` mapping ``--potential`` takes."""
    if args.potential:
        return exact.PotentialSpec.from_dict(json.loads(args.potential))
    family = args.family
    if family == "strong":
        spec = {"terms": {1: _parse_value(args.sigma, "--sigma")},
                "q": _parse_value(args.q, "--q"),
                "coulombPhase": args.A or _parse_value(args.qA or "0", "--qA")}
    elif family == "coulomb":
        if args.qA is None:
            raise UsageError("coulomb family needs --qA")
        spec = {"coulombPhase": _parse_value(args.qA, "--qA")}
    elif family == "oscillator":
        c = _parse_value(args.c, "--c")
        if not c:
            raise UsageError("the oscillator family needs a nonzero --c")
        spec = {"terms": {2: c / 2}, "coulombPhase": args.A or "1/2i"}
    elif family == "lennard-jones":
        B, C = _parse_value(args.B, "--B"), _parse_value(args.C, "--C")
        if not (B or C):
            raise UsageError("the lennard-jones family needs a nonzero --B or --C")
        spec = {"terms": {-6: B, -12: -C}, "coulombPhase": args.A or "1/2i"}
    else:  # argparse admits no other family
        raise UsageError("solve needs --family or --potential")
    return exact.PotentialSpec.from_dict(spec)


def _cmd_solve(args, config: RunConfig) -> int:
    qn = exact.QuantumNumbers(_parse_fraction(args.j), args.nprime)
    m = _parse_value(args.m, "--m") if args.m else 1

    if args.family == "strong" and args.radius:
        if args.E is None:
            raise UsageError("--radius needs --E (the constituent or reduced energy)")
        r = geometry.infrared_radius(_parse_float(args.E), _parse_float(args.q),
                                     _parse_float(args.sigma))
        emit({"family": "strong", "E": args.E, "q": args.q, "sigma": args.sigma,
              "infrared_radius_fm": r}, config)
        return EXIT_OK

    if args.lmin:
        a, b, c = _parse_triple(args.lmin, "three sides a,b,c for --lmin", _parse_float)
        emit({"sides": [a, b, c], "L_min": geometry.lmin(a, b, c)}, config)
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
        level = sol.level_series.levels(qn.j, args.nprime)
        if sol.level_series.family == "coulomb":
            report["E_over_m"] = level
        else:
            report["E"] = float(m * level)
    # every number is read exactly, so a matched solve leaves a residual of 0
    witness = ""
    if report["residual"]:
        detail = spectra.residual_detail(sol)
        branch, power = max(detail, key=detail.get)
        witness = f"residual {detail[branch, power]!r} at branch {branch}, power r^{power}"
    return _checked(report, config, witness)


# ---------------------------------------------------------------------------
# gut subcommand
# ---------------------------------------------------------------------------


_GUT_OVERRIDES = ("mu", "inv_alpha", "alpha3", "sin2", "planck", "grid")


def _cmd_gut(args, config: RunConfig) -> int:
    constants = masses.load_constants(config.data_dir)
    try:
        report = _gut_report(args, constants)
    except ValueError as exc:
        if any(getattr(args, flag) is not None for flag in _GUT_OVERRIDES):
            raise
        # every input is the dataset's, so it is the dataset the solve refuses
        raise InvalidDataError(f"{constants.source}: {exc}") from None
    emit(report, config)
    return EXIT_OK


def _gut_report(args, constants) -> dict:
    mu = args.mu if args.mu is not None else constants["m_z_gev"]
    inv_alpha = args.inv_alpha if args.inv_alpha is not None else constants["inv_alpha_mz"]
    alpha3 = args.alpha3 if args.alpha3 is not None else constants["alpha3_mz"]
    sin2 = args.sin2 if args.sin2 is not None else constants["sin2_theta_w_ideal"]
    planck = args.planck if args.planck is not None else constants["planck_mass_gev"]

    if args.legacy_su5:
        return {"legacy_su5": unification.solve_legacy_su5(inv_alpha, 1.0 / alpha3, mu).to_dict()}

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
        "inv_alpha_at_14TeV": unification.run_alpha_em(alpha_g, planck,
                                                       constants["collider_scale_gev"]),
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
    return report


# ---------------------------------------------------------------------------
# mass subcommand
# ---------------------------------------------------------------------------


_MASS_SECTIONS = ("decuplet", "octet", "mesons", "bosons", "generations", "ckm", "ratios",
                  "regge", "zeros")


def _cmd_mass(args, config: RunConfig) -> int:
    constants = masses.load_constants(config.data_dir)
    unit = masses.MassUnit.from_constants(constants)
    report: dict = {"unit_gev": unit.unit_gev}
    asked = {s for s in _MASS_SECTIONS if args.all or getattr(args, s)} or set(_MASS_SECTIONS)
    if asked & {"decuplet", "octet", "mesons", "zeros"}:
        multiplets = masses.load_multiplets(config.data_dir)

    if "decuplet" in asked:
        report["decuplet"] = masses.family_table(multiplets, "decuplet", unit)
    if "octet" in asked:
        report["octet"] = masses.family_table(multiplets, "octet", unit)
        report["gmo_octet_residual_units"] = masses.gmo_octet_residual(
            *multiplets.gmo_inputs("octet", "N", "Lambda", "Sigma", "Xi"))
    if "mesons" in asked:
        report["mesons"] = masses.family_table(multiplets, "meson", unit)
        report["gmo_meson_K_units"] = masses.gmo_meson_k(*multiplets.gmo_inputs("meson", "pi", "eta"))
    if "bosons" in asked:
        sin2 = constants["sin2_theta_w_ideal"]
        block = masses.electroweak_bosons(constants["m_z_gev"], sin2, constants["m_w_measured_gev"],
                                          constants["higgs_vev_empirical_gev"], unit)
        report["bosons"] = block.to_dict()
        report["bosons"]["higgs_zero_count"] = masses.higgs_zero_count()
        report["bosons"]["z_zero_count"] = masses.z_zero_count()
        report["bosons"]["coupling_sum_over_g"] = masses.fermion_coupling_sum(1.0, sin2)
    if "generations" in asked:
        g1, g2, g3 = masses.generation_partition(
            constants["fermion_mass_total_gev"], 1.0 / constants["inv_alpha_low_energy"]
        )
        report["generations_gev"] = [g1, g2, g3]
    if "ckm" in asked:
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
    if "ratios" in asked:
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
    if "regge" in asked:
        slope = constants["regge_two_pi_kappa_gev2"]
        report["regge"] = {
            "two_pi_kappa_gev2": slope,
            "mass_at_J1_gev": masses.regge_mass_squared(1.0, slope) ** 0.5,
        }
    if "zeros" in asked:
        report["zero_counts"] = masses.zero_counts(multiplets)
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
    p.add_argument("--pairing", default=None, help="pairing kind, such as spin0")
    _state_args(p)

    p = alg_sub.add_parser("baryon", help="three-bracket phase product", parents=[common])
    p.add_argument("--phase", required=True, help="colour phase, such as BGR or -RGB")
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
    for flag in (*_MASS_SECTIONS, "all"):
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
        return _refuse(f"usage error: {exc}", EXIT_USAGE)
    except (FileNotFoundError, MissingDataError) as exc:
        return _refuse(f"missing data: {exc}", EXIT_DATA)
    except InvalidDataError as exc:
        return _refuse(f"invalid data: {exc}", EXIT_DATA)
    except ValueError as exc:
        return _refuse(f"error: {exc}", EXIT_USAGE)
    except OverflowError as exc:
        return _refuse(f"error: the result overflows a float ({exc})", EXIT_USAGE)


def _refuse(message: str, code: int) -> int:
    """Write ``message`` as one stderr line, each character that is not
    printable (a line break in a quoted path or name) escaped as repr escapes it."""
    if not message.isprintable():
        message = "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)
    sys.stderr.write(message + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
