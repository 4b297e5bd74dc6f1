"""CLI: subcommands, formats, exit codes, schemas, golden reports."""

import argparse
import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from jsonschema import Draft202012Validator

import nilpotent
from nilpotent import algebra, charges, cli, exact, masses, spectra, states, unification, verify
from nilpotent.algebra import MV
from nilpotent.datafiles import data_path

REPO = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
SCHEMAS = REPO / "docs" / "schemas"


def run_cli(*argv):
    """Invoke main() in-process, capturing stdout."""
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = cli.main(list(argv))
    finally:
        sys.stdout = old
    return code, out.getvalue()


def load_schema(name):
    with open(SCHEMAS / name) as fh:
        return Draft202012Validator(json.load(fh))


def test_verify_passes():
    code, out = run_cli("algebra", "verify", "--pairs", "50", "--samples", "50")
    assert code == 0
    assert "identities OK" in out
    assert out.startswith("64 group elements")


def test_verify_json_schema():
    code, out = run_cli("--format", "json", "algebra", "verify", "--pairs", "20", "--samples", "20")
    assert code == 0
    report = json.loads(out)
    load_schema("algebra_verify.schema.json").validate(report)
    assert report["status"] == "OK"


def test_multiply_example():
    code, out = run_cli("--format", "json", "algebra", "multiply", "--a", "qi", "--b", "qj")
    assert code == 0
    report = json.loads(out)
    assert report["product"] == "qk"
    load_schema("multivector.schema.json").validate(report["blades"])


def test_multiply_signed_operand():
    code, out = run_cli("--format", "json", "algebra", "multiply", "--a=-qi", "--b", "qj")
    assert json.loads(out)["product"] == "-qk"


@pytest.mark.parametrize("a", ["", ".vj", "qi.", "qi..vj", "-"])
def test_multiply_refuses_an_empty_factor(a, capsys):
    assert run_cli("algebra", "multiply", f"--a={a}", "--b=qi") == (cli.EXIT_USAGE, "")
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "empty factor" in err


def test_cpt_identity_echo():
    code, out = run_cli("--format", "json", "algebra", "cpt", "--op", "TCP",
                        "--E", "5", "--p", "0,0,4", "--m", "3")
    assert code == 0
    report = json.loads(out)
    assert report["input"] == report["output"]
    assert report["sandwich_matches"] is True
    load_schema("nilpotent_state.schema.json").validate(report["output"])


def test_spinor_pairing():
    code, out = run_cli("--format", "json", "algebra", "spinor", "--E", "5",
                        "--p", "0,0,4", "--m", "3", "--pairing", "spin0")
    report = json.loads(out)
    assert report["pair_sum"]["scalar"] == "-72"
    for comp in report["components"]:
        load_schema("nilpotent_state.schema.json").validate(comp)


def test_baryon_subcommand():
    code, out = run_cli("--format", "json", "algebra", "baryon", "--phase", "BGR",
                        "--E", "5", "--p", "0,0,4", "--m", "3")
    report = json.loads(out)
    assert report["scalar_factor"] == "16"
    assert report["survivor"]["signP"] == 1


def test_vacuum_subcommand():
    code, out = run_cli("--format", "json", "algebra", "vacuum", "--charge", "k",
                        "--n", "2", "--E", "5", "--p", "0,0,4", "--m", "3")
    report = json.loads(out)
    assert report["image"]["signE"] == -1
    assert report["per_step_factor"] == {"re": "0", "im": "-10"}


def test_vacuum_chain_too_long_to_print_is_rejected(capsys):
    argv = ["algebra", "vacuum", "--E", "5", "--p", "0,0,4", "--m", "3", "--n", "6000"]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("usage error: --n 6000 gives chain coefficients of at least 6001 digits")


def test_vacuum_chain_that_prints_is_kept():
    code, out = run_cli("--format", "json", "algebra", "vacuum", "--E", "5", "--p", "0,0,4",
                        "--m", "3", "--n", "2000")
    assert code == 0
    # (-10i)^2000 X = 10^2000 X
    assert json.loads(out)["chain"]["blades"]["i.qk"] == str(5 * 10 ** 2000)


@pytest.fixture
def digit_limit_640():
    """The interpreter's smallest int-printing limit, so the boundary is near."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("E,p,m", [
    # the energy coefficient is the largest
    ("5", "0,0,4", "3"), ("9/2", "0,0,0", "9/2"), ("1/20", "0,0,1/20", "0"),
    ("13/7", "3/7,4/7,12/7", "0"), ("-15/2", "9/2,0,-6", "0"),
    # a momentum or mass coefficient is the largest
    ("10", "10/3,20/3,20/3", "0"), ("1", "1/3,-2/3,2/3", "0"),
    ("-35/2", "-245/22,105/11,105/11", "0"), ("-39/4", "13/10,-13/2,0", "143/20"),
    # the 3 of each denominator cancels against 2E = 240, shortening the chain coefficients
    ("-120", "296/3,-128/3,0", "160/3"),
    # off shell, where the chain does not grow as (2E)^n: it may shrink, and at
    # (1/3, 2/3) it keeps its size while its denominators grow
    ("5/3", "1,0,0", "1/7"), ("2", "1,0,0", "0"), ("0", "3/2,0,0", "0"), ("1/3", "1/5,0,0", "0"),
    ("1/3", "2/3,0,0", "0"), ("-7/2", "1/2,-1/3,0", "5/4"),
])
def test_vacuum_n_is_rejected_from_the_first_chain_that_cannot_print(E, p, m, digit_limit_640,
                                                                     capsys):
    """The bound covers every coefficient of X, so it is exact whichever is the largest."""
    argv = ["algebra", "vacuum", f"--E={E}", f"--p={p}", f"--m={m}"]
    x = cli._make_state(cli.build_parser().parse_args(argv))
    chain, n = x.realized, 0
    while True:
        chain, n = chain * MV("qk") * x.realized, n + 1
        try:
            states.product_report(chain)
        except ValueError:
            break
    assert run_cli(*argv, "--n", str(n - 1))[0] == cli.EXIT_OK
    assert run_cli(*argv, "--n", str(n))[0] == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"usage error: --n {n} gives chain coefficients")


def test_off_shell_vacuum_chain_that_never_grows_is_kept(digit_limit_640):
    """With X = i.qk, kX = -i and the chain is (-i)^n X, although the
    recurrence's alpha and beta grow as n on their own."""
    code, out = run_cli("--format", "json", "algebra", "vacuum", "--E", "1", "--p", "0,0,0",
                        "--m", "0", "--n", "2999")
    assert code == cli.EXIT_OK
    assert json.loads(out)["chain"]["blades"] == {"qk": "-1"}  # (-i)^2999 = i, i i.qk = -qk


def test_off_shell_vacuum_chain_past_the_print_limit_is_refused(capsys):
    argv = ["algebra", "vacuum", "--E", "5/3", "--p", "1,0,0", "--m", "1/7", "--n", "3000"]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == ("usage error: --n 3000 gives chain coefficients of at least "
                                 "5251 digits, over the 4300-digit limit for printing an int\n")


def test_enormous_on_shell_vacuum_n_is_refused_before_the_chain_is_built(capsys):
    """(-10i)^n 5 = 5 10^n has n + 1 digits; the bound max(a, b)^(n+1) / 2 with
    |2E| = 10/1 finds all of them, where a capped horizon found 17204."""
    argv = ["algebra", "vacuum", "--E", "5", "--p", "0,0,4", "--m", "3", "--n", "1000000000"]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == ("usage error: --n 1000000000 gives chain coefficients of at "
                                 "least 1000000001 digits, over the 4300-digit limit for "
                                 "printing an int\n")


@pytest.mark.parametrize("n", ["0", "-5"])
@pytest.mark.parametrize("charge", ["k", "j", "i"])
def test_vacuum_needs_at_least_one_reflection_for_every_charge(charge, n, capsys):
    argv = ["algebra", "vacuum", "--charge", charge, "--n", n, "--E", "5", "--p", "0,0,4",
            "--m", "3"]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == "error: need at least one reflection\n"


def test_digit_count_is_exact_next_to_a_power_of_ten():
    """log10 rounds 10^k - 1 up to k (k >= 15) and 10^512 down below 512."""
    for k in (1, 15, 512, 1024, 4300):
        assert cli._digit_count(10 ** k - 1) == k
        assert cli._digit_count(10 ** k) == cli._digit_count(10 ** k + 1) == k + 1


def test_vertex_subcommand():
    code, out = run_cli("--format", "json", "algebra", "vertex", "--vertex", "b",
                        "--E", "5", "--p", "0,0,4", "--m", "3")
    assert json.loads(out)["scalar"] == "-72"


def test_dual_subcommand():
    code, out = run_cli("--format", "json", "algebra", "dual", "--order", "64")
    report = json.loads(out)
    assert report["element_count"] == 64
    assert report["isomorphic_to_dirac_group"] is True


def test_dual_isomorphism_needs_a_homomorphism(monkeypatch):
    """i1 -> +qi.vi keeps the image the whole group and the order census, but
    the map no longer carries products: the report reads false, as verify's
    homomorphism check fails."""
    monkeypatch.setitem(algebra._DUAL_TO_DIRAC, "i1", algebra.parse_blade("qi.vi"))
    code, out = run_cli("--format", "json", "algebra", "dual", "--order", "64")
    assert code == 0 and json.loads(out)["isomorphic_to_dirac_group"] is False
    checks = {c.name: c.passed for c in verify.run_identity_suite(oracle_pairs=0, state_samples=0)}
    assert checks["dual order 64 image bijective"] and checks["dual order 64 census matches"]
    assert not checks["dual order 64 generator map is a homomorphism"]


def test_solve_without_a_family_or_potential_names_both_flags(capsys):
    assert cli.main(["solve", "--j", "3/2"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == "usage error: solve needs --family or --potential\n"


def test_solve_report_schema():
    code, out = run_cli("--format", "json", "solve", "--family", "coulomb",
                        "--qA", "1/10", "--j", "1/2", "--nprime", "0")
    assert code == 0
    report = json.loads(out)
    load_schema("solve_report.schema.json").validate(report)
    assert report["E_over_m"] == pytest.approx(0.994987, abs=1e-6)
    assert report["residual"] == 0.0


def test_solve_strong_radius():
    code, out = run_cli("--format", "json", "solve", "--family", "strong",
                        "--q", "0.4", "--sigma", "1", "--E", "0.75", "--radius")
    assert json.loads(out)["infrared_radius_fm"] == pytest.approx(3.75)


def test_solve_oscillator():
    code, out = run_cli("--format", "json", "solve", "--family", "oscillator",
                        "--m", "1", "--j", "1/2", "--nprime", "0")
    report = json.loads(out)
    assert report["E"] == -0.5
    load_schema("solve_report.schema.json").validate(report)


def test_solve_lennard_jones():
    code, out = run_cli("--format", "json", "solve", "--family", "lennard-jones",
                        "--B", "1", "--C", "1")
    report = json.loads(out)
    assert report["family"] == "inverse-multipole"
    assert report["level_family"] == "oscillator"


@pytest.mark.parametrize("sides", ["1,2", "1,2,3,4"])
def test_lmin_without_three_sides_names_the_flag(sides, capsys):
    """Two sides exited 1 with 'not enough values to unpack (expected 3, got 2)'."""
    assert cli.main(["solve", "--lmin", sides]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"usage error: expected three sides a,b,c for --lmin, got {sides!r}\n"


def test_solve_potential_json():
    potential = json.dumps({"terms": {"1": "1"}, "coulombPhase": "3/10", "q": "2/5"})
    code, out = run_cli("--format", "json", "solve", "--potential", potential)
    report = json.loads(out)
    assert report["family"] == "confining"
    assert report["residual"] == 0.0


@pytest.mark.parametrize("argv,key,scale", [
    (("--potential", '{"terms": {"-1": "1/3"}, "coulombPhase": "1/6"}'), "E_over_m", 1),
    (("--family", "coulomb", "--qA", "1/2", "--nprime", "1"), "E_over_m", 1),
    (("--family", "oscillator", "--c", "1", "--m", "2"), "E", 2),
])
def test_solve_headline_level_is_the_first_of_its_level_table(argv, key, scale):
    """Both read the solved level series, so a c_{-1} term folded into the
    Coulomb phase moves the headline as it moves the table."""
    code, out = run_cli("--format", "json", "solve", *argv)
    report = json.loads(out)
    assert code == cli.EXIT_OK
    assert report[key] == scale * report["levels"][0]["E_over_m"]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_a_pure_inverse_r_term_solves_as_a_coulomb_phase(fmt):
    folded = run_cli("--format", fmt, "solve", "--potential", '{"terms": {"-1": "1/3"}}')
    assert folded[0] == cli.EXIT_OK
    assert folded == run_cli("--format", fmt, "solve", "--potential", '{"coulombPhase": "1/3"}')


def test_an_inverse_r_term_that_cancels_the_phase_is_refused(capsys):
    potential = '{"terms": {"-1": "1/3"}, "coulombPhase": "-1/3"}'
    assert cli.main(["solve", "--potential", potential]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == "error: potential has no terms and no Coulomb phase\n"


def test_gut_report_schema():
    code, out = run_cli("--format", "json", "gut")
    report = json.loads(out)
    load_schema("gut_report.schema.json").validate(report)
    assert report["solved_M_X"] == pytest.approx(2.9e19, rel=0.05)


def test_gut_mu_flag():
    code, out = run_cli("--format", "json", "gut", "--mu", "0.112")
    report = json.loads(out)
    assert report["couplings_at_mu"]["inv_alpha3"] == pytest.approx(1.0, abs=0.1)


def test_gut_legacy_su5():
    code, out = run_cli("--format", "json", "gut", "--legacy-su5")
    report = json.loads(out)
    legacy = report["legacy_su5"]
    assert 1e14 < legacy["M_X"] < 1e16
    assert legacy["sin2_recomputed_at_MX"] == pytest.approx(0.6, abs=0.05)


def test_gut_grid_csv():
    code, out = run_cli("--format", "csv", "gut", "--grid", "91.1867,14000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any("coupling_table[1].inv_alpha_em" in line for line in lines)


def test_mass_report_schema():
    code, out = run_cli("--format", "json", "mass", "--all")
    report = json.loads(out)
    load_schema("mass_report.schema.json").validate(report)
    assert report["bosons"]["higgs_zero_count"] == 2592


def test_mass_decuplet_block():
    code, out = run_cli("--format", "json", "mass", "--decuplet")
    report = json.loads(out)
    assert [r["predicted_units"] for r in report["decuplet"]] == [20.0, 20.0, 22.0, 24.0]
    assert "bosons" not in report


def test_exit_code_usage_error():
    assert run_cli("nonsense")[0] == cli.EXIT_USAGE
    assert run_cli("solve", "--family", "nope")[0] == cli.EXIT_USAGE
    assert run_cli("solve", "--family", "coulomb")[0] == cli.EXIT_USAGE  # missing --qA


# every numeric flag, in a command that reads it; X stands for the value under test
NUMERIC_FLAGS = {
    "state --E": ("algebra", "cpt", "--op", "TCP", "--E=X", "--p=0,0,4", "--m=3"),
    "state --p": ("algebra", "cpt", "--op", "TCP", "--E=5", "--p=0,X,4", "--m=3"),
    "state --m": ("algebra", "cpt", "--op", "TCP", "--E=5", "--p=0,0,4", "--m=X"),
    "--j": ("solve", "--family", "coulomb", "--qA=1/10", "--j=X"),
    "--q": ("solve", "--family", "strong", "--q=X"),
    "--sigma": ("solve", "--family", "strong", "--sigma=X"),
    "--qA strong": ("solve", "--family", "strong", "--qA=X"),
    "--qA coulomb": ("solve", "--family", "coulomb", "--qA=X"),
    "--A": ("solve", "--family", "strong", "--A=X"),
    "--c": ("solve", "--family", "oscillator", "--c=X"),
    "--B": ("solve", "--family", "lennard-jones", "--B=X"),
    "--C": ("solve", "--family", "lennard-jones", "--C=X"),
    "--m": ("solve", "--family", "oscillator", "--m=X"),
    "radius --E": ("solve", "--family", "strong", "--radius", "--E=X"),
    "radius --q": ("solve", "--family", "strong", "--radius", "--E=1", "--q=X"),
    "radius --sigma": ("solve", "--family", "strong", "--radius", "--E=1", "--sigma=X"),
    "--lmin a": ("solve", "--lmin=X,4,5"),
    "--lmin b": ("solve", "--lmin=3,X,5"),
    "--lmin c": ("solve", "--lmin=3,4,X"),
    "potential term": ("solve", '--potential={"terms": {"1": "X"}}'),
    "potential coulombPhase": ("solve", '--potential={"terms": {"1": "1"}, "coulombPhase": "X"}'),
    "potential q": ("solve", '--potential={"terms": {"1": "1"}, "q": "X"}'),
    "gut --mu": ("gut", "--mu=X"),
    "gut --inv-alpha": ("gut", "--inv-alpha=X"),
    "gut --alpha3": ("gut", "--alpha3=X"),
    "gut --sin2": ("gut", "--sin2=X"),
    "gut --planck": ("gut", "--planck=X"),
    "gut --grid": ("gut", "--grid=91.1876,X"),
}


def assert_rejected(argv, capsys):
    """Exit 1, nothing on stdout and a one-line message of at most 200
    characters, however long the value it refuses."""
    assert cli.main(list(argv)) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    assert len(err) <= 200, err[:300]
    return err


# a refused value past the 60 characters a message repeats, and one past the
# interpreter's 4300-digit limit for reading an int
LONG_VALUES = [pytest.param("x" * 5000, id="5000 x"), pytest.param("1" + "0" * 5000, id="5001 digits")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1/0", "sqrt(2)", "x", *LONG_VALUES])
@pytest.mark.parametrize("flag", sorted(NUMERIC_FLAGS))
def test_non_finite_or_symbolic_number_is_a_usage_error(flag, value, capsys):
    argv = [arg.replace("X", value) for arg in NUMERIC_FLAGS[flag]]
    assert_rejected(["--format", "json"] + argv, capsys)


def test_numeric_flags_accept_every_literal_form():
    code, out = run_cli("--format", "json", "solve", "--family", "strong", "--radius",
                        "--E=3/4", "--q=4e-1", "--sigma=1.0")
    assert code == 0
    assert json.loads(out)["infrared_radius_fm"] == pytest.approx(3.75)
    code, out = run_cli("--format", "json", "gut", "--mu=1/8", "--grid=1e2,91.1876")
    assert code == 0
    assert json.loads(out)["inputs"]["mu"] == 0.125


def test_too_large_float_input_is_a_usage_error(capsys):
    assert_rejected(["gut", "--mu=1e400"], capsys)


@pytest.mark.parametrize("flag,value", [
    ("--mu", "0"), ("--mu", "-91"), ("--mu", "1e-400"), ("--inv-alpha", "0"),
    ("--alpha3", "0"), ("--alpha3", "-1/8"), ("--planck", "0"),
    ("--sin2", "0"), ("--sin2", "1"), ("--sin2", "2"), ("--sin2", "-1/4"),
])
def test_gut_input_outside_its_domain_is_a_usage_error(flag, value, capsys):
    assert_rejected(["gut", f"{flag}={value}"], capsys)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_report_with_a_non_finite_number_is_refused(fmt, capsys):
    # M_X / mu overflows at mu = 1e-300, so the running couplings are infinite
    assert cli.main(["--format", fmt, "gut", "--mu=1e-300"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: couplings_at_mu.inv_alpha2 is -inf") and err.count("\n") == 1


def test_emit_refuses_non_finite_floats_by_key():
    for value in (float("nan"), float("inf"), -float("inf")):
        for fmt in ("text", "json", "csv"):
            out = io.StringIO()
            with pytest.raises(ValueError, match=r"^a\.b\[1\] is "):
                cli.emit({"a": {"b": [1.0, value]}}, cli.RunConfig(fmt), out)
            assert out.getvalue() == ""


def test_float_overflow_is_a_one_line_error(capsys):
    assert_rejected(["gut", "--inv-alpha=1e6"], capsys)  # exp() of the M_X solve overflows


def test_cli_does_not_know_sympy():
    modules = [v.__name__ for v in vars(cli).values() if isinstance(v, types.ModuleType)]
    assert modules and not any(name.split(".")[0] == "sympy" for name in modules)


RECORD_TYPES = [
    "charges.FermionChargeSpec", "charges.ChargeEntry", "charges.ChargeRow",
    "charges.ChargeTable", "charges.WeakChargeResult", "charges.SU5Grid",
    "exact.PotentialSpec", "exact.QuantumNumbers", "spectra.Relation",
    "spectra.AnsatzBranch", "spectra.LevelSeries", "spectra.AnsatzSolution",
    "masses.MassUnit", "masses.Multiplet", "masses.BosonBlock",
    "states.NilpotentVector", "states.Spinor4",
    "unification.ChargeContent", "unification.LegacySU5Report",
    "verify.Check", "cli.RunConfig",
]


@pytest.fixture(scope="module")
def one_record_of_each_type():
    """{module.name: instance} for every public record type, built as the program builds it."""
    tables = charges.build_tables()
    sol = spectra.match_coefficients(spectra.PotentialSpec({}, Fraction(1, 10)),
                                     spectra.QuantumNumbers(Fraction(1, 2)))
    unit = masses.MassUnit.from_constants(masses.load_constants())
    records = [
        charges.fermion_spec("u")[0], tables["A"].entry("u", "e", "B"), tables["A"].rows[("u", "e")],
        tables["A"], charges.composite_weak_charge("uud"), charges.su5_grid(),
        sol.potential, sol.quantum_numbers, sol.relations[0], sol.branches[0], sol.level_series,
        sol, unit, masses.load_multiplets()[0],
        masses.electroweak_bosons(91.1876, 0.2312, 80.45, 246.0, unit),
        states.make_nilpotent(5, (0, 0, 4), 3), states.make_spinor(5, (0, 0, 4), 3),
        unification.phenomenological_content(), unification.solve_legacy_su5(128.0, 8.5, 91.1876),
        verify.Check("x", True), cli.RunConfig(),
    ]
    return {f"{type(r).__module__.rsplit('.', 1)[1]}.{type(r).__name__}": r for r in records}


def test_record_types_are_every_public_record():
    modules = (charges, exact, spectra, masses, states, unification, verify, cli)
    found = {f"{m.__name__.rsplit('.', 1)[1]}.{name}" for m in modules
             for name, value in vars(m).items()
             if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
             and not name.startswith("_") and value.__module__ == m.__name__}
    assert found == set(RECORD_TYPES)


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_records_are_read_only(name, one_record_of_each_type):
    record = one_record_of_each_type[name]
    field = record._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before
    if name != "states.NilpotentVector":  # its __dict__ caches ``realized``
        with pytest.raises(AttributeError):
            record.other = None


def test_potential_json_equals_family_flags():
    potential = json.dumps({"terms": {"2": "1/2"}, "coulombPhase": "1/2i"})
    assert (run_cli("--format", "json", "solve", "--potential", potential)
            == run_cli("--format", "json", "solve", "--family", "oscillator", "--c", "1"))


@pytest.mark.parametrize("potential", [
    "[]", "1", '{"terms": []}', '{"terms": {"x": "1"}}',
    '{"terms": {"-6": "1"}}',  # an inverse power with no Coulomb phase
    '{"terms": {"-2": "1", "-4": "1", "-6": "1"}, "coulombPhase": "1/2i"}',
    *(pytest.param(json.dumps(doc), id=f"{long.id} {where}") for long in LONG_VALUES
      for where, doc in (("value", {"terms": {"1": long.values[0]}}),
                         ("power", {"terms": {long.values[0]: "1"}}))),
    # an integer power the family rules refuse, under the 4300-digit limit
    pytest.param(json.dumps({"terms": {"1" + "0" * 3000: "1"}}), id="3001-digit power"),
])
def test_malformed_potential_document_is_rejected(potential, capsys):
    assert_rejected(["solve", "--potential", potential], capsys)


# a request per refusal that repeats a name or choice, X standing for the value
REFUSED_NAMES = {
    "cpt --op": ("algebra", "cpt", "--op", "TX", "--E", "5", "--p", "0,0,4", "--m", "3"),
    "multiply --a": ("algebra", "multiply", "--a", "qi.X", "--b", "qj"),
    "spinor --pairing": ("algebra", "spinor", "--pairing", "X", "--E", "5", "--p", "0,0,4",
                         "--m", "3"),
    "baryon --phase": ("algebra", "baryon", "--phase", "X", "--E", "5", "--p", "0,0,4", "--m", "3"),
    "solve --family": ("solve", "--family", "X"),
    "verb": ("X",),
    "--format": ("--format", "X", "gut"),
    "--nprime": ("solve", "--family", "coulomb", "--qA", "1/10", "--nprime", "X"),
    "unknown flag": ("gut", "--X"),
}


@pytest.mark.parametrize("value", LONG_VALUES)
@pytest.mark.parametrize("request_", sorted(REFUSED_NAMES))
def test_a_refused_name_or_choice_is_repeated_short(request_, value, capsys):
    assert_rejected([arg.replace("X", value) for arg in REFUSED_NAMES[request_]], capsys)


def test_many_unrecognized_arguments_are_repeated_short(capsys):
    """argparse lists every stray argument in one message, which the 60-character
    rule bounds as one value: 2500 of them once made a 12537-byte line."""
    assert_rejected(["gut", *["--zz"] * 2500], capsys)


NINES = "9" * 400  # an int under the 4300-digit limit for reading one, far past 60 characters


@pytest.mark.parametrize("argv,start", [
    (("solve", "--j", "1e400", "--family", "coulomb", "--qA", "1/3"),
     "error: j must be a half-integer (2j odd), got 1000"),
    (("algebra", "verify", "--pairs", f"-{NINES}"), "error: oracle_pairs must be nonnegative"),
    (("algebra", "verify", "--pairs", "0", "--samples", f"-{NINES}"),
     "error: state_samples must be nonnegative"),
    (("algebra", "dual", "--order", NINES), "error: target order must be one of"),
    (("algebra", "vacuum", "--n", NINES, "--E", "5", "--p", "0,0,4", "--m", "3"),
     "usage error: --n 9999"),
    (("solve", "--j", "1e5000", "--family", "coulomb", "--qA", "1/3"),
     "error: j must be a half-integer (2j odd), got a number too long to print "
     "(an int of 5001 digits)\n"),
], ids=["j", "pairs", "samples", "order", "vacuum n", "j past the limit for printing an int"])
def test_a_long_int_is_repeated_short(argv, start, capsys):
    """Each refusal repeated the whole int: one line of 446 to 525 characters;
    a j whose str is refused gave the interpreter's line, naming no flag."""
    assert assert_rejected(argv, capsys).startswith(start)


def test_a_number_too_long_to_print_is_repeated_by_its_digits():
    for value in (10**5000, Fraction(1, 10**5000), Fraction(-(10**5000), 3)):
        assert nilpotent._echo(value) == "a number too long to print (an int of 5001 digits)"
    assert nilpotent._echo(Fraction(3, 7)) == "3/7"


@pytest.mark.parametrize("key", ["x", "1.5"])
def test_potential_power_that_is_not_an_integer_is_named(key, capsys):
    assert cli.main(["solve", "--potential", json.dumps({"terms": {key: 1}})]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: a power must be an integer, got '{key}'\n"


@pytest.mark.parametrize("argv", [
    ("solve", "--family", "strong", "--sigma", "0", "--A", "1/2i"),
    ("solve", "--family", "oscillator", "--c", "0"),
    ("solve", "--potential", '{"coulombPhase": "1/2i"}'),
])
def test_imaginary_pure_coulomb_phase_is_rejected(argv, capsys):
    assert_rejected(argv, capsys)


@pytest.mark.parametrize("argv", [
    ("solve", "--family", "strong", "--q", "0"),
    ("solve", "--family", "coulomb", "--qA", "3", "--j", "9/2", "--nprime", "4"),
    ("solve", "--family", "strong", "--radius", "--E", "1", "--q", "1e-200", "--sigma", "1e-200"),
])
def test_solve_that_divides_by_zero_is_rejected(argv, capsys):
    """Zero coupling gave nan and the Coulomb pole zoo, each with residual 0.0;
    an underflowing q * sigma in the infrared radius was a ZeroDivisionError."""
    assert_rejected(["--format", "json", *argv], capsys)


@pytest.mark.parametrize("qA,want", [("0.99999999999999999999", 1.4142135623730950e-10),
                                     ("0.99999999999999994", 1.0954451150103322e-08)])
def test_near_critical_coulomb_level_is_the_exact_one(qA, want):
    """The first exited 1 as supercritical once q A was rounded to 1.0, and the
    second printed 1.4901161193847656e-08: both against 50-digit values."""
    code, out = run_cli("--format", "json", "solve", "--family", "coulomb", "--qA", qA, "--j", "1/2")
    assert code == 0
    report = json.loads(out)
    assert report["residual"] == 0.0
    assert report["E_over_m"] == pytest.approx(want, rel=1e-12)
    assert report["levels"][0]["E_over_m"] == report["E_over_m"]


@pytest.mark.parametrize("qA", ["1", "3/2", "1" + "0" * 3000])
def test_supercritical_coupling_is_one_short_line(qA, capsys):
    """A q A of 3001 digits once failed the message itself, on the
    interpreter's limit for printing an int."""
    assert_rejected(["solve", "--family", "coulomb", "--qA", qA], capsys)
    assert cli.main(["solve", "--family", "coulomb", "--qA", qA]) == cli.EXIT_USAGE
    assert "supercritical coupling" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("solve", "--family", "coulomb", "--qA", "1/2", "--j", "1"),
    ("solve", "--family", "coulomb", "--qA", "1/2", "--j", "3/4"),
    ("solve", "--family", "strong", "--j", "2/3"),
    ("solve", "--potential", '{"terms": {"2": "1"}, "coulombPhase": "1/2i"}', "--j", "2"),
])
def test_solve_rejects_a_j_that_is_not_a_half_integer(argv, capsys):
    """j = 1, 3/4 and 2/3 each gave a full report with exit 0."""
    assert cli.main(list(argv)) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: j must be a half-integer (2j odd), got {argv[-1]}\n"


@pytest.mark.parametrize("E", ["-1", "0", "-3/4"])
def test_radius_rejects_a_nonpositive_energy(E, capsys):
    """--E -1 printed infrared_radius_fm -2.0, and --E 0 printed 0.0."""
    argv = ["solve", "--family", "strong", "--radius", f"--E={E}", "--q", "1", "--sigma", "1"]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: the energy E must be positive")


def test_oscillator_without_a_spring_constant_names_the_flag(capsys):
    """--c 0, and a Lennard-Jones --B 0 --C 0, were refused as 'a pure Coulomb
    potential needs a real q A, got I/2'."""
    for argv, message in (
            ("solve --family oscillator --c 0", "the oscillator family needs a nonzero --c"),
            ("solve --family lennard-jones --B 0 --C 0",
             "the lennard-jones family needs a nonzero --B or --C")):
        assert cli.main(argv.split()) == cli.EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err == f"usage error: {message}\n"


@pytest.mark.parametrize("argv,flag", [
    ("solve --family strong --radius --E -3/4 --q 1 --sigma 1", "--E"),
    ("solve --family strong --j -1/2", "--j"),
    ("algebra vacuum --E -5/2 --p 3/2,0,2 --m 0", "--E"),
    ("algebra vacuum --E 5 --p -3,0,4 --m 0", "--p"),
    ("algebra multiply --a -qi --b qj", "--a"),
    ("algebra multiply --a qj --b -i.qk", "--b"),
])
def test_negative_value_after_a_space_reads_as_a_value(argv, flag):
    """Each spaced form exited 1 with 'argument --E: expected one argument'."""
    def run(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
        return code, out.getvalue(), err.getvalue()

    spaced = argv.split()
    joined = list(spaced)
    at = joined.index(flag)
    joined[at:at + 2] = [f"{flag}={joined[at + 1]}"]
    result = run(spaced)
    assert "expected one argument" not in result[2]
    assert result == run(joined)


@pytest.mark.parametrize("phase", sorted(states.BARYON_PHASES))
def test_every_baryon_phase_reads_the_same_spaced_and_joined(phase):
    """-BRG, -GBR and -RGB after a space exited 1 with 'argument --phase:
    expected one argument'."""
    tail = ("--E", "5", "--p", "0,0,4", "--m", "3")
    spaced = run_cli("--format", "json", "algebra", "baryon", "--phase", phase, *tail)
    joined = run_cli("--format", "json", "algebra", "baryon", f"--phase={phase}", *tail)
    assert spaced == joined
    assert spaced[0] == 0 and json.loads(spaced[1])["phase"] == phase


def _parsers(parser):
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                yield from _parsers(child)


def test_no_flag_reads_as_a_negative_value():
    """If a flag matched the value pattern, argparse would read every such value as a flag."""
    for parser in _parsers(cli.build_parser()):
        flags = [s for action in parser._actions for s in action.option_strings]
        assert flags and not [s for s in flags if parser._negative_number_matcher.match(s)]
        assert not parser._has_negative_number_optionals


def test_closed_stdout_ends_without_a_traceback():
    """mass --all | head -1 often ended in a BrokenPipeError traceback and exit 1.

    The child waits on its stdin until the read end of its stdout is closed,
    so its first write always meets a pipe with no reader."""
    script = ("import sys; sys.stdin.read(); from nilpotent import cli; "
              "sys.exit(cli.main(sys.argv[1:]))")
    with subprocess.Popen([sys.executable, "-c", script, "mass", "--all"],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        proc.stdin.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == cli.EXIT_PIPE
    assert "Traceback" not in err and err == "", err


@pytest.mark.parametrize("counts", [("-1", "30"), ("30", "-3"), ("-1", "-3")])
def test_negative_verify_counts_are_rejected(counts, capsys):
    """--pairs -1 --samples -3 once passed as 'matrix oracle on -1 random pairs'."""
    pairs, samples = counts
    assert_rejected(["algebra", "verify", "--pairs", pairs, "--samples", samples], capsys)


@pytest.mark.parametrize("argv", [
    ("algebra", "verify", "--pairs", "30", "--samples", "30"),
    ("gut",),
    ("algebra", "dual", "--order", "8"),
])
@pytest.mark.parametrize("flags", [("--seed", "7", "--format", "json"), ("--format", "csv")])
def test_global_flags_before_or_after_the_verb(argv, flags):
    before = run_cli(*flags, *argv)
    assert before[0] == 0
    assert run_cli(*argv, *flags) == before


def test_global_flag_before_the_verb_is_kept():
    parser = cli.build_parser()
    assert parser.parse_args(["--seed", "7", "algebra", "verify"]).seed == 7
    assert parser.parse_args(["algebra", "verify", "--seed", "7"]).seed == 7
    args = parser.parse_args(["--data-dir", "d", "mass", "--format", "csv"])
    assert (args.data_dir, args.format, args.seed) == ("d", "csv", 0)


def test_gmo_inputs_come_from_the_dataset(tmp_path):
    for name in ("constants.json", "multiplets.csv", "charge_tables.csv"):
        shutil.copy(data_path(name), tmp_path / name)
    rows = (tmp_path / "multiplets.csv").read_text()
    # N ground 9 -> 11 (predicted 33/2 units); pi ground 2 -> 4
    rows = rows.replace("octet,N,udd|uud,,", "octet,N,udd|ddd,,")
    rows = rows.replace("meson,pi,u dbar|d ubar,2|6|8", "meson,pi,u dbar|d ubar,4|6|8")
    (tmp_path / "multiplets.csv").write_text(rows)
    shipped = json.loads(run_cli("--format", "json", "mass", "--octet", "--mesons")[1])
    code, out = run_cli("--format", "json", "--data-dir", str(tmp_path),
                        "mass", "--octet", "--mesons")
    assert code == 0
    doctored = json.loads(out)
    assert (doctored["gmo_octet_residual_units"] - shipped["gmo_octet_residual_units"]
            == pytest.approx(0.5 * (16.5 - 13.5)))
    eta = next(r["measured_units"] for r in shipped["mesons"] if r["name"] == "eta")
    assert doctored["gmo_meson_K_units"] == pytest.approx((4.0 + 0.75 * eta * eta) ** 0.5)


def test_zero_counts_come_from_the_dataset(tmp_path):
    for name in ("constants.json", "multiplets.csv", "charge_tables.csv"):
        shutil.copy(data_path(name), tmp_path / name)
    rows = (tmp_path / "multiplets.csv").read_text()
    rows = rows.replace("decuplet,Omega,sss,,", "decuplet,Omega,uss|sss,,")
    rows += "octet,Extra,uuu,,1,3,1,1,\n"
    (tmp_path / "multiplets.csv").write_text(rows)
    shipped = json.loads(run_cli("--format", "json", "mass", "--zeros")[1])["zero_counts"]
    code, out = run_cli("--format", "json", "--data-dir", str(tmp_path), "mass", "--zeros")
    assert code == 0
    doctored = json.loads(out)["zero_counts"]
    # the octet Sigma and Xi repeat the content of Sigma* and Xi*, so they are skipped
    assert sorted(shipped) == ["Delta", "Lambda", "N", "Omega", "Sigma*", "Xi*"]
    assert sorted(doctored) == sorted([*shipped, "Extra"])
    assert doctored["Extra"] == list(charges.multiplet_zero_candidates(["uuu"]))
    assert doctored["Omega"] == list(charges.multiplet_zero_candidates(["uss", "sss"]))
    assert doctored["Omega"] != shipped["Omega"]


def test_a_filled_baryon_zero_count_is_invalid_data(tmp_path, capsys):
    """The charge tables are the only source of a baryon's n0 candidates."""
    for name in ("constants.json", "multiplets.csv", "charge_tables.csv"):
        shutil.copy(data_path(name), tmp_path / name)
    rows = (tmp_path / "multiplets.csv").read_text()
    rows = rows.replace("octet,N,udd|uud,,", "octet,N,udd|uud,9|11|13,")
    (tmp_path / "multiplets.csv").write_text(rows)
    assert cli.main(["--data-dir", str(tmp_path), "mass", "--octet"]) == cli.EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and err == (f"invalid data: {tmp_path / 'multiplets.csv'}: the octet row N "
                                 "fills n0_candidates with '9|11|13', which the charge tables "
                                 "give\n")
    # a request with no multiplet section never reads the file
    assert cli.main(["--data-dir", str(tmp_path), "mass", "--bosons"]) == cli.EXIT_OK


@pytest.mark.parametrize("flags,loads", [
    (("--all",), 1), ((), 1), (("--decuplet", "--octet", "--mesons", "--zeros"), 1),
    (("--bosons",), 0), (("--ckm", "--regge"), 0),
])
def test_mass_reads_the_multiplets_once_and_only_when_asked(flags, loads, monkeypatch):
    calls = []
    load = masses.load_multiplets
    monkeypatch.setattr(masses, "load_multiplets", lambda *a: calls.append(a) or load(*a))
    assert run_cli("mass", *flags)[0] == cli.EXIT_OK
    assert len(calls) == loads


def test_exit_code_missing_data():
    assert run_cli("--data-dir", "/nonexistent", "mass", "--bosons")[0] == cli.EXIT_DATA


def doctor_constants(tmp_path, path, *value):
    """Copy the dataset into tmp_path, then set the constants.json entry at
    ``path`` to ``value``, or delete it when no value is given."""
    for name in ("constants.json", "multiplets.csv", "charge_tables.csv"):
        shutil.copy(data_path(name), tmp_path / name)
    constants = json.loads((tmp_path / "constants.json").read_text())
    parent = constants
    for key in path[:-1]:
        parent = parent[key]
    if value:
        parent[path[-1]] = value[0]
    else:
        del parent[path[-1]]
    (tmp_path / "constants.json").write_text(json.dumps(constants))


@pytest.mark.parametrize("argv,path", [
    (("gut",), ("m_z_gev",)),
    (("gut",), ("collider_scale_gev",)),
    (("mass", "--bosons"), ("m_z_gev",)),
    (("mass", "--ratios"), ("ratio_formula_inputs", "alpha3_mu")),
])
def test_missing_dataset_key_exits_3(argv, path, tmp_path, capsys):
    doctor_constants(tmp_path, path)
    assert cli.main(["--data-dir", str(tmp_path), *argv]) == cli.EXIT_DATA
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"missing data: {tmp_path / 'constants.json'} has no key {path[-1]!r}\n"


@pytest.mark.parametrize("argv", [("gut",), ("mass", "--all")])
@pytest.mark.parametrize("path,value", [
    (("alpha3_mz",), 0),
    (("m_z_gev",), "91"),
    (("m_z_gev",), True),
    (("m_z_gev",), float("nan")),
    (("m_z_gev",), -1),
    (("ratio_formula_inputs", "alpha3_mx"), 0),
    (("sin2_theta_w_ideal",), 1.5),
    (("cabibbo_lambda",), 2.5),
    (("ratio_formula_inputs",), 2.5),
    (("m_z_gev",), {"value": 91.1867}),
])
def test_invalid_dataset_value_exits_3(argv, path, value, tmp_path, capsys):
    doctor_constants(tmp_path, path, value)
    assert cli.main(["--data-dir", str(tmp_path), *argv]) == cli.EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"invalid data: {tmp_path / 'constants.json'}: "
                          f"{'.'.join(path)} is {json.dumps(value)}, expected "), err


def doctor_multiplets(tmp_path, row=None, column=None, value=None):
    """Write a copy of multiplets.csv into tmp_path with the cell (row, column)
    set to value, or with the row or the column named alone dropped."""
    with open(data_path("multiplets.csv"), newline="") as fh:
        reader = csv.DictReader(fh)
        columns, rows = reader.fieldnames, list(reader)
    if value is not None:
        next(r for r in rows if r["name"] == row)[column] = value
    elif row is not None:
        rows = [r for r in rows if r["name"] != row]
    else:
        columns = [c for c in columns if c != column]
    with open(tmp_path / "multiplets.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, columns, extrasaction="ignore", lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def dataset_contract_breach(argv, path, capsys):
    """None when ``argv`` exits 0 with strict, finite JSON, or exits 3 with one
    line on stderr naming ``path``; else what it did instead."""
    code = cli.main(["--format", "json", "--data-dir", str(path.parent), *argv])
    out, err = capsys.readouterr()
    if code == cli.EXIT_OK:
        try:
            json.loads(out, parse_constant=lambda c: 1 / 0)
            return None if err == "" else f"exit 0 with stderr {err!r}"
        except (ValueError, ZeroDivisionError):
            return f"exit 0 with JSON that is not strict and finite: {out[:80]!r}"
    if code == cli.EXIT_DATA and out == "" and err.count("\n") == 1 and str(path) in err:
        return None
    return f"exit {code}: {err!r}"


def _line_break_case(case, tmp_path):
    """(argv, the refused value as its one-line message escapes it) of a data
    directory, a multiplet name or a constants key that holds a line break."""
    if case == "data dir":
        return ["--data-dir", str(tmp_path / "a\nb"), "gut"], "a\\nb"
    for name in ("constants.json", "multiplets.csv", "charge_tables.csv"):
        shutil.copy(data_path(name), tmp_path / name)
    if case == "multiplet name":
        doctor_multiplets(tmp_path, "Delta", "M", "0")
        path = tmp_path / "multiplets.csv"
        path.write_text(path.read_text().replace(",Delta,", ',"Del\nta",', 1))
        return ["--data-dir", str(tmp_path), "mass", "--decuplet"], "Del\\nta"
    constants = json.loads((tmp_path / "constants.json").read_text())
    (tmp_path / "constants.json").write_text(json.dumps({**constants, "m_z_gev\nX": -1}))
    return ["--data-dir", str(tmp_path), "gut"], "m_z_gev\\nX"


@pytest.mark.parametrize("case", ["data dir", "multiplet name", "constants key"])
def test_a_line_break_in_a_refused_value_is_escaped(case, tmp_path, capsys):
    """The refusal stays one line: each character that is not printable is
    escaped as repr escapes it (each once split the message over two lines)."""
    argv, shown = _line_break_case(case, tmp_path)
    assert cli.main(argv) == cli.EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and shown in err, err


FUZZ_CELLS = ("", "x", "nan", "inf", "0", "-1", "1e400", "2.5")
MULTIPLET_COLUMNS = Path(data_path("multiplets.csv")).read_text().splitlines()[0].split(",")
MULTIPLET_SECTIONS = ("--decuplet", "--octet", "--mesons", "--zeros")


@pytest.fixture
def one_parser(monkeypatch):
    """cli.main with its parser built once: the fuzz varies only the dataset."""
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)


@pytest.mark.parametrize("row", ["Delta", "N", "Lambda", "pi", "eta", "ccc", None])
def test_every_doctored_multiplet_row_exits_0_or_3(row, one_parser, tmp_path, capsys):
    """Each cell of the row but name and note set to each value of the pool, or
    (for no row) each column and each GMO input row dropped, under every
    multiplet section of mass."""
    shutil.copy(data_path("constants.json"), tmp_path / "constants.json")
    if row is None:
        cases = [(None, column, None) for column in MULTIPLET_COLUMNS]
        cases += [(name, None, None) for name in ("N", "Lambda", "Sigma", "Xi", "pi", "eta")]
    else:
        cases = [(row, column, value) for column in MULTIPLET_COLUMNS
                 if column not in ("name", "note") for value in FUZZ_CELLS]
    breaches = []
    for case in cases:
        doctor_multiplets(tmp_path, *case)
        for section in MULTIPLET_SECTIONS:
            breach = dataset_contract_breach(["mass", section], tmp_path / "multiplets.csv", capsys)
            if breach:
                breaches.append(f"{case} mass {section}: {breach}")
    assert not breaches, "\n".join(breaches)


def _malformed(text):
    """The shipped multiplets.csv text made malformed in one way each."""
    delta = text.splitlines()[1]
    return {
        "a Latin-1 byte in a note": text.replace("rest value", "rest val\xe9e").encode("latin-1"),
        "a row longer than the header": text.replace(delta, delta + ",extra"),
        "a second octet N row": text + next(r for r in text.splitlines() if r.startswith("octet,N,")),
        "a 5001-digit M": text.replace(delta, delta.replace(",,4,4,", ",,4" + "0" * 5000 + ",4,")),
        "a 401-digit M0": text.replace(delta, delta.replace(",,4,4,", ",,4,4" + "0" * 400 + ",")),
        "an M past 2^53": text.replace(delta, delta.replace(",,4,4,", f",,{2**53 + 1},4,")),
        "a 17-digit n0 candidate": text.replace("2|6|8|", "2|60000000000000000|8|"),
    }


MALFORMED_MULTIPLETS = _malformed(Path(data_path("multiplets.csv")).read_text())


@pytest.mark.parametrize("case", MALFORMED_MULTIPLETS)
def test_every_malformed_multiplet_file_exits_3(case, one_parser, tmp_path, capsys):
    """A byte that is not UTF-8, a cell past the header, a duplicate
    (family, name) row or an integer cell past 2^53, under every multiplet
    section of mass: exit 3 with one line naming the file."""
    shutil.copy(data_path("constants.json"), tmp_path / "constants.json")
    text = MALFORMED_MULTIPLETS[case]
    path = tmp_path / "multiplets.csv"
    path.write_bytes(text) if isinstance(text, bytes) else path.write_text(text)
    for section in MULTIPLET_SECTIONS:
        code = cli.main(["--format", "json", "--data-dir", str(tmp_path), "mass", section])
        out, err = capsys.readouterr()
        assert (code, out, err.count("\n")) == (cli.EXIT_DATA, "", 1), (section, err[:200])
        assert err.startswith(f"invalid data: {path}: "), err[:200]
        assert len(err) < len(str(path)) + 250, err[:200]


def _malformed_constants(text):
    """The shipped constants.json text made malformed in one way each."""
    first = next(iter(json.loads(text)))
    value = json.dumps(json.loads(text)[first])
    return {
        "truncated after the first value": text[:text.index(value) + len(value) + 1],
        "a 5001-digit integer": text.replace(value, "1" + "0" * 5000, 1),
        "a 5000-character string": text.replace(value, json.dumps("x" * 5000), 1),
        "a 5000-character key of -1": text.replace("{", f'{{"{"k" * 5000}": -1, ', 1),
    }


MALFORMED_CONSTANTS = _malformed_constants(Path(data_path("constants.json")).read_text())


@pytest.mark.parametrize("case", MALFORMED_CONSTANTS)
def test_every_malformed_constants_file_exits_3(case, one_parser, tmp_path, capsys):
    """Text that is not JSON, an integer past the interpreter's digit limit or a
    long value, under gut and mass --bosons: exit 3 with one short line naming
    the file."""
    shutil.copy(data_path("multiplets.csv"), tmp_path / "multiplets.csv")
    path = tmp_path / "constants.json"
    path.write_text(MALFORMED_CONSTANTS[case])
    for argv in (["gut"], ["mass", "--bosons"]):
        code = cli.main(["--format", "json", "--data-dir", str(tmp_path), *argv])
        out, err = capsys.readouterr()
        assert (code, out, err.count("\n")) == (cli.EXIT_DATA, "", 1), (argv, err[:200])
        assert err.startswith(f"invalid data: {path}: "), err[:200]
        assert len(err) < len(str(path)) + 250, err[:200]


def test_constants_that_are_not_utf8_exit_3(tmp_path, capsys):
    text = Path(data_path("constants.json")).read_text()
    (tmp_path / "constants.json").write_bytes(text.replace("{", '{"n\xf6te": 1,', 1).encode("latin-1"))
    assert cli.main(["--data-dir", str(tmp_path), "gut"]) == cli.EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and err == f"invalid data: {tmp_path / 'constants.json'}: not UTF-8 text (invalid start byte)\n"


FUZZ_JSON = ('""', '"x"', "NaN", "Infinity", "0", "-1", "1e400", "2.5", None)
SHIPPED_CONSTANTS = json.loads(Path(data_path("constants.json")).read_text())
CONSTANTS_KEYS = [(key,) for key in SHIPPED_CONSTANTS] + [
    ("ratio_formula_inputs", key) for key in SHIPPED_CONSTANTS["ratio_formula_inputs"]]


@pytest.mark.parametrize("path", CONSTANTS_KEYS, ids=".".join)
def test_every_doctored_constant_exits_0_or_3(path, one_parser, tmp_path, capsys):
    """The key set to each value of the pool, written as JSON text, or dropped
    (None), under each section of mass and gut."""
    breaches = []
    for value in FUZZ_JSON:
        if value is None:
            doctor_constants(tmp_path, path)
        else:
            doctor_constants(tmp_path, path, "@")
            text = (tmp_path / "constants.json").read_text()
            (tmp_path / "constants.json").write_text(text.replace('"@"', value))
        for argv in [["gut"], *(["mass", f"--{s}"] for s in cli._MASS_SECTIONS)]:
            breach = dataset_contract_breach(argv, tmp_path / "constants.json", capsys)
            if breach:
                breaches.append(f"{value} {' '.join(argv)}: {breach}")
    assert not breaches, "\n".join(breaches)


@pytest.mark.parametrize("row,column,value,section,message", [
    ("Delta", "M", "-1", "--decuplet", "the row Delta has M '-1', expected an integer of at least 1"),
    ("Delta", "M", "0", "--decuplet", "the row Delta has M '0', expected an integer of at least 1"),
    ("pi", "n0_candidates", "-7", "--mesons",
     "the row pi has n0_candidates '-7', expected |-separated integers of at least 0"),
    ("N", "measured_units_hi", "nan", "--octet",
     "the row N has measured_units_hi 'nan', expected empty or a finite number of at least 0"),
    ("Lambda", "measured_units_lo", "", "--octet",
     "the octet row Lambda has no measured_units_lo, which the GMO relation reads"),
    (None, "M", None, "--decuplet", "has no column 'M'"),
    ("Lambda", None, None, "--octet", "has no octet row Lambda"),
    ("pi", None, None, "--mesons", "has no meson row pi"),
], ids=["Delta M -1", "Delta M 0", "pi n0 -7", "N hi nan", "Lambda lo empty", "no M column",
        "no Lambda row", "no pi row"])
def test_a_bad_multiplet_row_exits_3_naming_the_file(row, column, value, section, message,
                                                      tmp_path, capsys):
    shutil.copy(data_path("constants.json"), tmp_path / "constants.json")
    doctor_multiplets(tmp_path, row, column, value)
    assert cli.main(["--data-dir", str(tmp_path), "mass", section]) == cli.EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"{'invalid' if value is not None else 'missing'} data: "
                          f"{tmp_path / 'multiplets.csv'}"), err
    assert message in err, err


def test_a_gut_solve_that_refuses_the_dataset_values_exits_3(tmp_path, capsys):
    """With no override flag every input of gut is the dataset's, so the
    dataset is at fault; with one, the refusal stays a usage error."""
    doctor_constants(tmp_path, ("planck_mass_gev",), 2.5)
    refusal = "need 0 < mu <= M_X, got mu=91.1867, M_X=2.5\n"
    assert cli.main(["--data-dir", str(tmp_path), "gut"]) == cli.EXIT_DATA
    assert capsys.readouterr().err == f"invalid data: {tmp_path / 'constants.json'}: {refusal}"
    assert cli.main(["--data-dir", str(tmp_path), "gut", "--mu", "91.1867"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {refusal}"


def test_coupling_sum_reads_the_dataset_mixing_angle(tmp_path):
    """sqrt(8/3) g holds at the ideal sin^2 = 1/4 only; another angle moves it with M_W."""
    doctor_constants(tmp_path, ("sin2_theta_w_ideal",), 0.2312)
    shipped = json.loads(run_cli("--format", "json", "mass", "--bosons")[1])["bosons"]
    code, out = run_cli("--format", "json", "--data-dir", str(tmp_path), "mass", "--bosons")
    assert code == cli.EXIT_OK
    doctored = json.loads(out)["bosons"]
    assert doctored["M_W_predicted"] != shipped["M_W_predicted"]
    assert shipped["coupling_sum_over_g"] == pytest.approx((8 / 3) ** 0.5, rel=1e-14)
    assert doctored["coupling_sum_over_g"] == pytest.approx((2 / (1 - 0.2312)) ** 0.5, rel=1e-14)


def test_gut_collider_scale_comes_from_the_dataset(tmp_path):
    """inv_alpha_at_14TeV runs alpha_em to constants.json's collider scale: at
    the Z mass it equals the default coupling table's inv_alpha_em."""
    doctor_constants(tmp_path, ("collider_scale_gev",), 91.1867)
    code, out = run_cli("--format", "json", "--data-dir", str(tmp_path), "gut")
    report = json.loads(out)
    assert code == 0
    assert report["inv_alpha_at_14TeV"] == report["couplings_at_mu"]["inv_alpha_em"]


def test_exit_code_verification_failure(monkeypatch):
    from nilpotent.verify import Check

    monkeypatch.setattr(cli.verify, "run_identity_suite",
                        lambda **kw: [Check("forced failure", False, "injected")])
    code, out = run_cli("algebra", "verify")
    assert code == cli.EXIT_VERIFY
    assert "FAIL" in out


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "nilpotent.cli", "algebra", "multiply",
                           "--a", "vi", "--b", "vj"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "i.vk" in proc.stdout


def test_verify_runs_without_numpy():
    script = ("import sys; from nilpotent import cli; "
              "code = cli.main(['algebra', 'verify', '--pairs', '5', '--samples', '5']); "
              "assert 'numpy' not in sys.modules, 'numpy was imported'; sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout


@pytest.mark.parametrize("argv,code", [
    ("gut", cli.EXIT_OK),
    ("mass --all", cli.EXIT_OK),
    ("algebra multiply --a qi --b i.vj", cli.EXIT_OK),
    ("algebra verify --pairs 0 --samples 0", cli.EXIT_OK),
    ("solve --family strong --radius --E 3/4 --q 2/5", cli.EXIT_OK),
    ("solve --lmin 3,4,5", cli.EXIT_OK),
    ("solve --family coulomb", cli.EXIT_USAGE),  # no --qA
    ("solve --family coulomb --qA 1/2 --j 1", cli.EXIT_USAGE),  # j not a half-integer
    ("solve --family strong --radius --E 0", cli.EXIT_USAGE),
    ("solve --family strong --radius", cli.EXIT_USAGE),  # no --E
])
def test_requests_that_solve_nothing_never_load_sympy(argv, code):
    """Nor ``inspect`` (with ``ast``, ``dis`` and ``tokenize``), which
    ``importlib.resources`` loads on Python 3.12 and later; a module the
    interpreter loaded at start-up, through a ``.pth`` file, is not ours."""
    script = ("import sys; started = set(sys.modules); "
              "from nilpotent import cli; code = cli.main(sys.argv[1:]); "
              "assert 'sympy' not in sys.modules, 'sympy was imported'; "
              "assert 'dataclasses' not in sys.modules, 'dataclasses was imported'; "
              "extra = {'inspect', 'importlib.resources'} & (set(sys.modules) - started); "
              "assert not extra, f'{extra} imported'; "
              "sys.exit(code)")
    proc = subprocess.run([sys.executable, "-c", script, *argv.split()],
                          capture_output=True, text=True)
    assert proc.returncode == code and "Traceback" not in proc.stderr, proc.stderr


NO_SYMPY = ("import sys; from nilpotent import cli; code = cli.main(sys.argv[1:]); "
            "assert 'sympy' not in sys.modules, 'sympy was imported'; sys.exit(code)")


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("argv", [
    "solve --family strong",
    "solve --family coulomb --qA 1/10",
    "solve --family coulomb --qA 1/10 --nprime 1",
    "solve --family oscillator --c 3",
    "solve --family lennard-jones --B 1 --C 1",
    # an imaginary phase with a folded c_{-1} term: a complex q A, kept whole in the branches
    """solve --potential {"terms":{"2":"1/2","-1":"3/7"},"coulombPhase":"1/5i","q":"2/3"}""",
])
def test_no_cli_request_loads_sympy(argv, fmt):
    """Every exact solve, in each format, leaves sympy unimported when cli.main returns."""
    proc = subprocess.run([sys.executable, "-c", NO_SYMPY, "--format", fmt, *argv.split()],
                          capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_OK and proc.stdout and proc.stderr == "", proc.stderr


RUN_MODULES = """
import json, os, sys
ran = set()  # the file of each code object the interpreter runs
def record(event, args):
    if event == "exec":
        ran.add(getattr(args[0], "co_filename", ""))
sys.addaudithook(record)
from nilpotent import cli
sys.stdout = open(os.devnull, "w")
code = cli.main(sys.argv[1:])
package = os.path.dirname(cli.__file__)
json.dump([code, sorted(os.path.basename(f)[:-3] for f in ran
                        if os.path.dirname(f) == package and not f.endswith("__init__.py"))],
          sys.stderr)
"""


@pytest.mark.parametrize("argv,modules", [
    ("gut", "cli datafiles masses unification"),
    ("algebra multiply --a qi --b qj", "algebra cli"),
    ("algebra dual --order 8", "algebra cli"),
    ("solve --lmin 3,4,5", "cli exact geometry"),
    ("solve --family strong --radius --E 3/4 --q 2/5", "cli exact geometry"),
    ("solve --family coulomb --qA 1/10", "cli exact spectra"),
    ("algebra verify --pairs 0 --samples 0", "algebra cli states verify"),
    ("algebra baryon --phase BGR --E 5 --p 0,0,4 --m 3", "algebra cli states"),
    ("mass --bosons", "cli datafiles masses"),
    ("mass --zeros", "charges cli datafiles masses"),
])
def test_each_request_runs_only_the_modules_its_verb_uses(argv, modules):
    """A cold process compiles (when its bytecode is not current) and runs
    only these package files: the rest are registered but never read."""
    proc = subprocess.run([sys.executable, "-c", RUN_MODULES, *argv.split()],
                          capture_output=True, text=True)
    assert json.loads(proc.stderr.splitlines()[-1]) == [0, modules.split()], proc.stderr


@pytest.mark.parametrize("argv", [
    "solve --potential []",
    "solve --lmin 3,4,5 --j 0",
    "solve --family coulomb --qA 1/10 --j 2/3",
])
def test_a_solve_refused_before_matching_runs_no_solver(argv):
    """The input records check a request before the solver is read; the
    error handlers of ``cli.main`` read their errors from the package root."""
    proc = subprocess.run([sys.executable, "-c", RUN_MODULES, *argv.split()],
                          capture_output=True, text=True)
    assert json.loads(proc.stderr.splitlines()[-1]) == [1, ["cli", "exact"]], proc.stderr


def test_a_module_imported_before_the_cli_is_kept():
    """And one registered by the CLI is bound on the package, as an import binds it."""
    script = ("import sys, nilpotent; from nilpotent import spectra, states; "
              "from nilpotent import cli; "
              "assert cli.states is states and sys.modules['nilpotent.states'] is states; "
              "assert cli.spectra is spectra; "
              "assert cli.verify is sys.modules['nilpotent.verify'] is nilpotent.verify; "
              "assert cli.verify.states is states, 'states was registered twice'")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", sorted(path.stem for path in Path(cli.__file__).parent.glob("*.py")
                                           if path.stem != "__init__"))
def test_each_module_imports_alone(module):
    """A fresh interpreter with sympy barred imports one module by itself, so an
    import cycle that one process importing everything would hide shows here;
    the exact kernel and the geometry never read the solver."""
    check = "assert 'nilpotent.spectra' not in sys.modules" if module in ("exact", "geometry") else ""
    script = f"import sys; sys.modules['sympy'] = None; import nilpotent.{module}; {check}"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv,message", [
    (["algebra", "baryon", "--phase", "BRG"], "unknown baryon phase 'BRG'; expected one of"),
    (["algebra", "spinor", "--pairing", "spin2"], "unknown pairing 'spin2'; expected one of"),
    (["algebra", "spinor", "--pairing="], "unknown pairing ''; expected one of"),
])
def test_unknown_phase_or_pairing_names_the_choices(argv, message, capsys):
    assert cli.main([*argv, "--E", "5", "--p", "0,0,4", "--m", "3"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1, err


def test_json_determinism():
    runs = [run_cli("--format", "json", "mass", "--all")[1] for _ in range(2)]
    assert runs[0] == runs[1]
    runs = [run_cli("--format", "csv", "gut")[1] for _ in range(2)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("golden,argv", [
    ("gut_defaults.json", ("--format", "json", "gut")),
    ("gut_legacy_su5.json", ("--format", "json", "gut", "--legacy-su5")),
    ("mass_all.json", ("--format", "json", "mass", "--all")),
    ("mass_ckm.json", ("--format", "json", "mass", "--ckm")),
    ("solve_coulomb.json", ("--format", "json", "solve", "--family", "coulomb",
                            "--qA", "1/10", "--j", "1/2", "--nprime", "0")),
    ("baryon_bgr.json", ("--format", "json", "algebra", "baryon", "--phase", "BGR",
                         "--E", "5", "--p", "0,0,4", "--m", "3")),
    ("gut_defaults.csv", ("--format", "csv", "gut")),
    ("algebra_dual_8.json", ("--format", "json", "algebra", "dual", "--order", "8")),
    ("algebra_dual_64.json", ("--format", "json", "algebra", "dual", "--order", "64")),
    ("algebra_vacuum_on_shell.json", ("--format", "json", "algebra", "vacuum", "--n", "3",
                                      "--E", "5", "--p", "0,0,4", "--m", "3")),
    ("algebra_vacuum_off_shell.json", ("--format", "json", "algebra", "vacuum", "--n", "3",
                                       "--E", "5/3", "--p", "1,0,0", "--m", "1/7")),
    # |2E| = 1: no bound refuses it, so all 20000 steps run, and (-i)^20000 X = X
    ("algebra_vacuum_unit_factor.txt", ("algebra", "vacuum", "--E", "1/2", "--p", "0,0,1/2",
                                        "--m", "0", "--n", "20000")),
    # a surd inside a surd: prints E*(2*sqrt(2) + 3) and sqrt(12*sqrt(2) + 18)*sqrt(E**2)
    ("solve_coulomb_surd.json", ("--format", "json", "solve", "--family", "coulomb",
                                 "--qA", "1/3", "--j", "1/2", "--nprime", "1")),
    ("solve_strong.json", ("--format", "json", "solve", "--family", "strong", "--q", "2/3",
                           "--sigma", "3/5", "--qA", "1/3", "--j", "3/2", "--nprime", "1")),
    # a sum kept whole, m*(2 + I/3), and the generator sqrt(-E**2 + m**2)
    ("solve_oscillator.json", ("--format", "json", "solve", "--family", "oscillator",
                               "--c", "2/3", "--A", "1/3", "--m", "5/7", "--j", "3/2",
                               "--nprime", "2")),
    ("solve_lennard_jones.json", ("--format", "json", "solve", "--family", "lennard-jones",
                                  "--B", "1/2", "--C", "1/3", "--A", "2/5", "--j", "5/2",
                                  "--nprime", "1")),
])
def test_golden_reports(golden, argv):
    code, out = run_cli(*argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def _leaf_flags(parser, verbs=()):
    """(verb path, {flag: its argparse action}) for every leaf command of the real parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if subs:
        for name, child in subs[0].choices.items():
            yield from _leaf_flags(child, verbs + (name,))
        return
    yield verbs, {opt: action for action in parser._actions
                  for opt in action.option_strings if opt.startswith("--") and opt != "--help"}


LEAVES = sorted(_leaf_flags(cli.build_parser()), key=lambda leaf: leaf[0])
FUZZ_VALUES = ["0", "-1", "1/0", "nan", "inf", "1e400", "1e-200", "sqrt(2)", "x", "", "1,2",
               "7/3", "1", "5", "1/2", "0,0,4", "3,4,5", "TCP", "64", ".vj", "qi.", "-3/4",
               "-3,0,4", "-qi", "-i.qk", "BGR", "spin0", NINES, f"-{NINES}"]
# the sweep sizes of verify stay small so the whole fuzz run is quick
SMALL_COUNTS = ["0", "-1", "1", "2", "x", "1/2"]
RANDOM_TEXT = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)


@st.composite
def cli_argvs(draw):
    """A verb, its required flags, and a few more of its flags, with drawn values."""
    verbs, flags = draw(st.sampled_from(LEAVES))
    argv = ["--format", draw(st.sampled_from(["text", "json", "csv"])), *verbs]
    required = [f for f, action in flags.items() if action.required]
    for flag in required + draw(st.lists(st.sampled_from(sorted(flags)), max_size=4)):
        action = flags[flag]
        argv.append(flag)
        if action.nargs == 0:
            continue
        if flag in ("--pairs", "--samples"):
            pool = st.sampled_from(SMALL_COUNTS)
        else:
            pool = st.sampled_from(FUZZ_VALUES) | RANDOM_TEXT
        if action.choices:
            pool = st.sampled_from(sorted(action.choices)) | pool
        argv.append(draw(pool))
    return argv


def _strict(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cli_argvs())
def test_fuzzed_argv_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own exit, e.g. for a value such as --help
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code in (1, 3):  # a refusal is one line, however long the value it repeats
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), argv
        assert len(err.getvalue()) <= 200, (argv, err.getvalue()[:300])
    if argv.count("--format") == 1 and argv[1] == "json" and out.getvalue():
        json.loads(out.getvalue(), parse_constant=_strict)
