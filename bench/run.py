"""Benchmark of the nilpotent toolkit, measured from outside the program.

    python3 bench/run.py --workload {verify,cli-mix,solve-sweep} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it builds nothing and runs the code
under ``src/``.  Each workload is one closed-loop client: the next request
is sent only after the last one returned.  With ``--trace 0`` it reports
the end-to-end metrics of untraced requests; with ``--trace 1`` it runs a
fixed, seeded set of requests once untraced and once under the tracer and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for what each metric means and which change should move it.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import mix  # noqa: E402

ENTRY = "import sys; from nilpotent.cli import main; sys.exit(main())"  # the console script
SETUPS = 3  # set-up repeats per run; setup_s is their median
REQUEST_TIMEOUT_S = 60
SUITE_SPLIT = (1000, 1000)  # oracle pairs and state samples for the identity-suite split
DATASETS = ("charge_tables.csv", "constants.json", "multiplets.csv")
NOTE = ("2-core shared machine; measured only through the benchmark's own processes, "
        "with no cache dropping and no machine-wide tracing")

# Cold workloads: the untimed warm-up request that ends each set-up.  It runs the
# same imports as every request; verify warms up without its random sweeps.
WARMUP = {
    "verify": ("--format", "json", "algebra", "verify", "--pairs", "0", "--samples", "0"),
    "cli-mix": mix.GOLDEN_ARGV["gut_defaults.json"],
}

END_TO_END = {  # name -> unit
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "import.sympy_ms": ("ms", "cli-mix op_p50_ms; solve-sweep setup_s"),
    "import.numpy_ms": ("ms", "cli-mix op_p50_ms; verify op_p50_ms slightly"),
    "import.nilpotent_self_ms": ("ms", "cli-mix op_p50_ms; solve-sweep setup_s"),
    "import.cli_total_ms": ("ms", "cli-mix op_p50_ms; verify slightly; solve-sweep setup_s"),
    "cli.main_ms": ("ms", "cli-mix op_p50_ms"),
    "cli.emit_ms": ("ms", "cli-mix op_p50_ms"),
    "cli.emit_bytes": ("bytes", "cli-mix op_p50_ms"),
    "cli.traceback.count": ("count", "cli-mix fail_ratio (tracebacks of the defect probes too)"),
    "algebra.mv_mul.count": ("count", "verify op_p50_ms"),
    "algebra.mv_mul.ms": ("ms", "verify op_p50_ms"),
    "algebra.matrix_rep.count": ("count", "verify op_p50_ms (0 on cli-mix and solve-sweep)"),
    "algebra.matrix_rep.ms": ("ms", "verify op_p50_ms"),
    "algebra.matrices_equal.count": ("count", "verify op_p50_ms"),
    "algebra.generate_group.ms": ("ms", "verify op_p50_ms"),
    "algebra.dual_generate.ms": ("ms", "verify op_p50_ms"),
    "algebra.dual_element_image.count": ("count", "verify op_p50_ms"),
    "algebra.dual_element_image.ms": ("ms", "verify op_p50_ms"),
    "algebra.element_order_census.ms": ("ms", "verify op_p50_ms"),
    "verify.run_identity_suite.ms": ("ms", "verify op_p50_ms"),
    "verify.oracle_pair_ms": ("ms", "verify op_p50_ms"),
    "verify.state_sample_ms": ("ms", "verify op_p50_ms"),
    "verify.fixed_ms": ("ms", "verify op_p50_ms"),
    "states.make_nilpotent.count": ("count", "verify op_p50_ms; cli-mix slightly"),
    "states.make_nilpotent.ms": ("ms", "verify op_p50_ms; cli-mix slightly"),
    "states.vacuum_chain.ms": ("ms", "verify op_p50_ms; cli-mix slightly"),
    "states.conjugate.ms": ("ms", "verify op_p50_ms; cli-mix slightly"),
    "states.vertex_sum.ms": ("ms", "verify op_p50_ms; cli-mix slightly"),
    "states.baryon_product.ms": ("ms", "verify op_p50_ms; cli-mix slightly"),
    "spectra.match_coefficients.count": ("count", "solve-sweep ops_per_s, op_p50_ms (0 on verify)"),
    "spectra.match_coefficients.ms": ("ms", "solve-sweep ops_per_s, op_p50_ms"),
    "spectra.residual_verify.ms": ("ms", "solve-sweep ops_per_s, op_p50_ms"),
    "spectra.residual_detail.count": ("count", "solve-sweep ops_per_s, op_p50_ms (0 on verify)"),
    "spectra.solve.confining.ms": ("ms", "solve-sweep ops_per_s, op_p50_ms"),
    "spectra.solve.coulomb.ms": ("ms", "solve-sweep ops_per_s, op_p50_ms"),
    "spectra.solve.oscillator.ms": ("ms", "solve-sweep ops_per_s, op_p50_ms"),
    "spectra.solve.inverse.ms": ("ms", "solve-sweep ops_per_s, op_p50_ms"),
    "spectra.first_call_ms": ("ms", "cli-mix op_p50_ms (solve requests)"),
    "charges.build_tables.count": ("count", "cli-mix op_p50_ms, slightly"),
    "charges.build_tables.ms": ("ms", "cli-mix op_p50_ms, slightly"),
    "charges.multiplet_zero_candidates.ms": ("ms", "cli-mix op_p50_ms, slightly"),
    "masses.ms": ("ms", "cli-mix op_p50_ms, slightly"),
    "masses.load_multiplets.count": ("count", "cli-mix op_p50_ms, slightly"),
    "unification.ms": ("ms", "cli-mix op_p50_ms, slightly"),
    "datafiles.data_path.count": ("count", "cli-mix op_p50_ms, slightly"),
    "datafiles.loads_per_op": ("count", "cli-mix op_p50_ms, slightly"),
    "trace.overhead_ratio": ("ratio", "none: tracing cost of each workload"),
}

# Tracer self-test: counters that must be nonzero, and counters that must be
# zero, on each workload.  A wrapper that misses calls fails the first list.
PREDICTIONS = {
    "verify": (
        ("algebra.mv_mul.count", "algebra.matrix_rep.count", "algebra.matrices_equal.count",
         "algebra.dual_element_image.count", "states.make_nilpotent.count",
         "verify.run_identity_suite.ms", "cli.main_ms"),
        ("spectra.match_coefficients.count", "spectra.residual_detail.count",
         "charges.build_tables.count", "masses.load_multiplets.count",
         "datafiles.data_path.count"),
    ),
    "cli-mix": (
        ("algebra.mv_mul.count", "algebra.dual_element_image.count", "states.make_nilpotent.count",
         "spectra.match_coefficients.count", "spectra.residual_detail.count",
         "charges.build_tables.count", "masses.load_multiplets.count",
         "datafiles.data_path.count", "cli.main_ms"),
        ("algebra.matrix_rep.count", "algebra.matrices_equal.count",
         "verify.run_identity_suite.ms"),
    ),
    "solve-sweep": (
        ("spectra.match_coefficients.count", "spectra.residual_detail.count"),
        ("algebra.matrix_rep.count", "algebra.mv_mul.count", "states.make_nilpotent.count",
         "charges.build_tables.count", "datafiles.data_path.count", "cli.main_ms"),
    ),
}


# --- processes ---------------------------------------------------------------

def child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("NILPOTENT_DATA_DIR", None)
    return env


def split_importtime(err):
    """(stderr without ``-X importtime`` lines, the import records)."""
    kept, records = [], []
    for line in err.splitlines(keepends=True):
        if line.startswith("import time:"):
            parts = line[len("import time:"):].split("|")
            if parts[0].strip().isdigit():
                records.append((int(parts[0]), int(parts[1]), parts[2].rstrip("\n")))
        else:
            kept.append(line)
    return "".join(kept), records


def import_metrics(records):
    """Per-process import costs in ms from ``-X importtime`` records."""
    def cumulative(name):
        return next((cum for _, cum, n in records if n.strip() == name), 0) / 1e3

    own = [(self_us, cum, n) for self_us, cum, n in records
           if n.strip().split(".")[0] == "nilpotent"]
    return {
        "import.sympy_ms": cumulative("sympy"),
        "import.numpy_ms": cumulative("numpy"),
        "import.nilpotent_self_ms": sum(s for s, _, _ in own) / 1e3,
        # the program's top-level imports, each including what it pulled in
        "import.cli_total_ms": sum(c for _, c, n in own if n.startswith(" ") and
                                   not n.startswith("  ")) / 1e3,
    }


class Outcome:
    def __init__(self, request, seconds, code, out, err, trace=None, imports=None):
        self.request, self.seconds, self.code = request, seconds, code
        self.out, self.err, self.trace, self.imports = out, err, trace, imports

    def failure(self, ref):
        if self.code is None:
            return "timed out"
        return self.request.check(self.code, self.out, self.err, ref)


def run_cold(request, traced=False):
    """One request in a fresh interpreter, as the console script runs it."""
    if traced:
        rfd, wfd = os.pipe()
        cmd = [sys.executable, "-X", "importtime", str(HERE / "tracer.py"), "--fd", str(wfd),
               "--", *request.argv]
    else:
        cmd = [sys.executable, "-c", ENTRY, *request.argv]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            pass_fds=(wfd,) if traced else ())
    if traced:
        os.close(wfd)
    try:
        out, err = proc.communicate(timeout=REQUEST_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    seconds = time.perf_counter() - t0
    if not traced:
        return Outcome(request, seconds, code, out, err)
    with os.fdopen(rfd, "rb") as fh:
        raw = fh.read()
    err, records = split_importtime(err)
    return Outcome(request, seconds, code, out, err, json.loads(raw) if raw else None,
                   import_metrics(records))


# --- workloads ---------------------------------------------------------------

def cold_requests(workload, seed, seconds, traced):
    """(the seeded request list, the defect probes); a traced run uses a fixed
    list that covers every kind, and only a traced run probes the open defects."""
    rng = random.Random(seed)
    if workload == "verify":
        seeds = [rng.randrange(2 ** 31) for _ in range(1 if traced else seconds + 10)]
        return [mix.verify_request(s) for s in seeds], []
    generator = mix.Mix(seed, mix.on_shell_quadruples(ROOT / "src" / "nilpotent" / "verify.py"))
    if traced:
        return generator.coverage(), generator.defect_probes()
    return generator.stream(5 * seconds + 20), []


def cold_workload(workload, seed, seconds, traced):
    setups, outcomes = [], []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        requests, probes = cold_requests(workload, seed, seconds, traced)
        warm = run_cold(mix.Request("warm-up", WARMUP[workload], None))
        setups.append(time.perf_counter() - t0)
        if warm.code != 0:
            raise SystemExit(f"warm-up request failed with exit {warm.code}: {warm.err[-300:]}")
    if not traced:
        deadline = time.perf_counter() + seconds
        for request in requests:
            if time.perf_counter() >= deadline:
                break
            outcomes.append(run_cold(request))
        return {"setups": setups, "outcomes": outcomes}
    untraced = [run_cold(r) for r in requests]
    traced_out = [run_cold(r, traced=True) for r in requests]
    probed = [run_cold(r, traced=True) for r in probes]
    result = {"setups": setups, "outcomes": untraced + traced_out, "probes": probed,
              "traced": traced_out + probed,
              "overhead_ratio": sum(o.seconds for o in traced_out) / sum(o.seconds for o in untraced)}
    if workload == "verify":
        result["suite_split"] = suite_split(seed)
    return result


def suite_split(seed):
    rfd, wfd = os.pipe()
    pairs, samples = SUITE_SPLIT
    cmd = [sys.executable, str(HERE / "tracer.py"), "--fd", str(wfd), "--suite-split",
           str(pairs), str(samples), str(seed)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), pass_fds=(wfd,))
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        raw = fh.read()
    if proc.wait(timeout=REQUEST_TIMEOUT_S) != 0 or not raw:
        raise SystemExit("identity-suite split failed")
    return json.loads(raw)


def solve_sweep(seed, seconds, traced):
    """Set up the warm worker SETUPS times; the last one runs the measurement."""
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
           str(HERE / "solve_worker.py"), str(seed), str(seconds), "1" if traced else "0"]
    setups = []
    for attempt in range(SETUPS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        err = []  # drained by a thread: -X importtime can fill the pipe before "ready"
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        ready = proc.stdout.readline()
        setups.append(time.perf_counter() - t0)
        if ready:  # a worker that died during set-up has closed its stdin
            proc.stdin.write("go\n" if attempt == SETUPS - 1 else "quit\n")
        proc.stdin.close()
        out = proc.stdout.read()
        proc.wait(timeout=REQUEST_TIMEOUT_S)
        reader.join()
        if not ready or proc.returncode != 0:
            raise SystemExit(f"solve worker failed: {''.join(err)[-400:]}")
    report = json.loads(out)
    _, records = split_importtime("".join(err))
    report.update(setups=setups, imports=import_metrics(records))
    return report


# --- metrics -----------------------------------------------------------------

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # kB on Linux


def end_to_end(setups, latencies_s):
    return {
        "setup_s": statistics.median(setups),
        # closed loop with one client: operations per second of operation time
        "ops_per_s": len(latencies_s) / sum(latencies_s),
        "op_p50_ms": statistics.median(latencies_s) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(spans, imports, n_ops, extra):
    """Per-layer metrics from the summed span records of ``n_ops`` traced operations.

    Counts are totals over the traced operations; times are per operation.
    """
    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def ms(name):
        return spans.get(name, {}).get("ms", 0.0) / n_ops

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(imports)
    for name in PER_LAYER:
        base = name.rsplit(".", 1)[0]
        if name.endswith(".count"):
            metrics[name] = calls(base)
        elif name.endswith(".ms"):
            metrics[name] = ms(base)
    metrics.update({
        "cli.main_ms": ms("cli.main"),
        "cli.emit_ms": ms("cli.emit"),
        "datafiles.loads_per_op": calls("datafiles.loads") / n_ops,
    })
    metrics.update(extra)
    return metrics


def sum_spans(records):
    total = {}
    for rec in records:
        for name, stat in rec.items():
            acc = total.setdefault(name, {"calls": 0, "ms": 0.0})
            acc["calls"] += stat["calls"]
            acc["ms"] += stat["ms"]
    return total


def traced_cold_metrics(result):
    traced = result["traced"]
    n = len(traced)
    spans = [o.trace["spans"] if o.trace else {} for o in traced]
    # first solve in a fresh process: match_coefficients plus residual_verify
    solve_first = [s["spectra.match_coefficients"]["first_ms"]
                   + s.get("spectra.residual_verify", {}).get("first_ms", 0.0)
                   for s in spans if s.get("spectra.match_coefficients", {}).get("calls")]
    imports = {k: statistics.fmean(o.imports[k] for o in traced) for k in traced[0].imports}
    extra = {
        "cli.emit_bytes": statistics.fmean(len(o.out.encode()) for o in traced),
        "cli.traceback.count": sum("Traceback" in o.err for o in traced),
        "spectra.first_call_ms": statistics.fmean(solve_first) if solve_first else 0.0,
        "trace.overhead_ratio": result["overhead_ratio"],
    }
    if "suite_split" in result:
        extra.update({f"verify.{k}": v for k, v in result["suite_split"].items()})
    return layer_metrics(sum_spans(spans), imports, n, extra)


def self_test(workload, metrics):
    nonzero, zero = PREDICTIONS[workload]
    return ([f"{m} is 0, predicted nonzero" for m in nonzero if not metrics[m]] +
            [f"{m} is {metrics[m]}, predicted 0" for m in zero if metrics[m]])


# --- provenance and output ---------------------------------------------------

def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def provenance(seed):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    data = ROOT / "src" / "nilpotent" / "data"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "datasets_sha256": {name: sha256(data / name) for name in DATASETS},
        "workload_seed": seed,
        "note": NOTE,
    }


def preflight():
    """Refuse to run anywhere but a checkout of the program."""
    needed = [ROOT / "src" / "nilpotent" / "cli.py", ROOT / "docs" / "schemas",
              ROOT / "tests" / "golden", *(ROOT / "src" / "nilpotent" / "data" / d for d in DATASETS)]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        sys.stderr.write(f"bench: not a nilpotent checkout, missing {', '.join(missing)}\n")
        sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "cli-mix", "solve-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    preflight()
    ref = checks.Reference(ROOT)
    traced = bool(args.trace)
    info = provenance(args.seed)

    if args.workload == "solve-sweep":
        report = solve_sweep(args.seed, args.seconds, traced)
        attempted = report["attempted"]
        failures = report["failures"]
        probes = []
        info["repeated_input_share"] = report["repeated_input_share"]
        info["redrawn_inputs"] = report["redrawn_inputs"]
        info["modules_loaded"] = report["modules"]
        if traced:
            extra = {"spectra.first_call_ms": report["first_call_ms"],
                     "trace.overhead_ratio": report["overhead_ratio"]}
            metrics = layer_metrics(report["spans"], report["imports"],
                                    report["traced_ops"], extra)
        else:
            latencies = [x / 1e3 for x in report["latencies_ms"]]
            metrics = end_to_end(report["setups"], latencies)
    else:
        result = cold_workload(args.workload, args.seed, args.seconds, traced)
        outcomes = result["outcomes"]
        attempted = len(outcomes)
        failures = [(" ".join(o.request.argv), reason)
                    for o in outcomes if (reason := o.failure(ref))]
        probes = [(o.request.known_defect, " ".join(o.request.argv), o.failure(ref))
                  for o in result.get("probes", [])]
        latencies = [o.seconds for o in outcomes]
        if traced:
            metrics = traced_cold_metrics(result)
        else:
            metrics = end_to_end(result["setups"], latencies)

    problems = self_test(args.workload, metrics) if traced else []
    print("provenance " + json.dumps(info, sort_keys=True))
    for label, reason in failures:
        print(f"failed {label}: {reason}")
    for defect, label, reason in probes:  # not operations: they never count as attempted
        state = f"still open: {reason}" if reason else "no longer shows"
        print(f"known defect {defect}: {label}: {state}")
    for problem in problems:
        print(f"tracer self-test FAILED: {problem}")
    if traced:
        print(f"tracer self-test {'passed' if not problems else 'failed'} on {args.workload}")
    units = PER_LAYER if traced else END_TO_END
    for name, value in metrics.items():
        unit, moves = units[name] if traced else (units[name], "")
        print(f"{name:38s} {value:14.4f} {unit:6s} {moves}")
    if not traced:
        print(f"{'fail_ratio':38s} {len(failures) / attempted:14.4f} {'ratio':6s} "
              f"({len(failures)} of {attempted} operations)")
        if len(latencies) >= 100:
            p90 = statistics.quantiles(latencies, n=10)[-1] * 1e3
            print(f"{'op_p90_ms':38s} {p90:14.4f} {'ms':6s} ({len(latencies)} operations)")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name][0] if traced else units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
