"""CLI: subcommands, formats, exit codes, schemas, golden reports."""

import argparse
import contextlib
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

from nilpotent import charges, cli, masses, spectra, states, unification, verify
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


def test_solve_potential_json():
    potential = json.dumps({"terms": {"1": "1"}, "coulombPhase": "3/10", "q": "2/5"})
    code, out = run_cli("--format", "json", "solve", "--potential", potential)
    report = json.loads(out)
    assert report["family"] == "confining"
    assert report["residual"] == 0.0


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
    """Exit 1, nothing on stdout and a one-line message."""
    assert cli.main(list(argv)) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1/0", "sqrt(2)", "x"])
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
    "spectra.PotentialSpec", "spectra.QuantumNumbers", "spectra.Relation",
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
    unit = masses.MassUnit()
    records = [
        charges.fermion_spec("u")[0], tables["A"].entry("u", "e", "B"), tables["A"].rows[("u", "e")],
        tables["A"], charges.composite_weak_charge("uud"), charges.su5_grid(),
        sol.potential, sol.quantum_numbers, sol.relations[0], sol.branches[0], sol.level_series,
        sol, unit, masses.load_multiplets()[0], masses.electroweak_bosons(91.1876, 0.2312, unit=unit),
        states.make_nilpotent(5, (0, 0, 4), 3), states.make_spinor(5, (0, 0, 4), 3),
        unification.phenomenological_content(), unification.solve_legacy_su5(128.0, 8.5, 91.1876),
        verify.Check("x", True), cli.RunConfig(),
    ]
    return {f"{type(r).__module__.rsplit('.', 1)[1]}.{type(r).__name__}": r for r in records}


def test_record_types_are_every_public_record():
    modules = (charges, spectra, masses, states, unification, verify, cli)
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


@pytest.mark.parametrize("potential", ["[]", "1", '{"terms": []}', '{"terms": {"x": "1"}}'])
def test_malformed_potential_document_is_rejected(potential, capsys):
    assert_rejected(["solve", "--potential", potential], capsys)


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
    rows = rows.replace("octet,N,udd|uud,9|11|13", "octet,N,udd|uud,11|13")
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
    rows = rows.replace("decuplet,Omega,sss,", "decuplet,Omega,uss|sss,")
    rows += "octet,Extra,uuu,1,1,3,1,1,\n"
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
])
def test_invalid_dataset_value_exits_3(argv, path, value, tmp_path, capsys):
    doctor_constants(tmp_path, path, value)
    assert cli.main(["--data-dir", str(tmp_path), *argv]) == cli.EXIT_DATA
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith(f"invalid data: {tmp_path / 'constants.json'}: "
                          f"{'.'.join(path)} is {json.dumps(value)}, expected "), err


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
               "-3,0,4", "-qi", "-i.qk"]
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
    if argv.count("--format") == 1 and argv[1] == "json" and out.getvalue():
        json.loads(out.getvalue(), parse_constant=_strict)
