"""In-memory call tracer for the nilpotent package, plus the traced CLI launcher.

The tracer wraps public functions at every name they are looked up by (a
function imported into two modules is wrapped in both), keeps one
``[calls, outermost seconds, first-call seconds]`` record per span name and
hands the records back when asked.  Nothing is written while the program
runs.

Run as a script it is the traced launcher for one cold CLI request:

    python3 -X importtime bench/tracer.py --fd N -- <nilpotent argv>

It imports ``nilpotent.cli``, installs the wrappers, runs ``cli.main`` the
way the console script does and, at exit, writes the records as JSON to the
inherited file descriptor N.  With ``--suite-split PAIRS SAMPLES SEED`` it
instead times ``verify.run_identity_suite`` (untraced) at (0, 0),
(PAIRS, 0) and (0, SAMPLES) to separate the fixed, per-pair and per-sample
costs of the identity suite.
"""

import functools
import os
import sys
import time


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, outermost seconds, first-call seconds]
        self._depth = {}

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, None])
        depth = self._depth
        depth.setdefault(name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            if depth[name]:  # nested call under the same span: count, do not re-time
                return fn(*args, **kwargs)
            depth[name] = 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                depth[name] = 0
                stat[1] += elapsed
                if stat[2] is None:
                    stat[2] = elapsed

        return traced

    def patch(self, owner, attr, name):
        """Replace ``owner.attr`` (a module global or class attribute) by a wrapper."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def patch_module(self, module, name):
        """Wrap every public function defined in ``module`` under one span name."""
        for attr, value in list(vars(module).items()):
            if (not attr.startswith("_") and callable(value) and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__):
                self.patch(module, attr, name)

    def records(self):
        return {k: {"calls": v[0], "ms": v[1] * 1e3, "first_ms": (v[2] or 0.0) * 1e3}
                for k, v in self.stats.items()}


# span name -> the (module, attribute) names by which the program looks it up
_ALIASES = {
    "algebra.matrix_rep": (("algebra", "matrix_rep"), ("verify", "matrix_rep")),
    "algebra.matrices_equal": (("algebra", "matrices_equal"), ("verify", "matrices_equal")),
    "algebra.generate_group": (("algebra", "generate_group"), ("verify", "generate_group")),
    "algebra.dual_generate": (("algebra", "dual_generate"), ("verify", "dual_generate")),
    "algebra.dual_element_image": (("algebra", "dual_element_image"),
                                   ("verify", "dual_element_image")),
    "algebra.element_order_census": (("algebra", "element_order_census"),
                                     ("verify", "element_order_census")),
    "verify.run_identity_suite": (("verify", "run_identity_suite"),),
    "states.make_nilpotent": (("states", "make_nilpotent"), ("verify", "make_nilpotent")),
    "states.vacuum_chain": (("states", "vacuum_chain"), ("verify", "vacuum_chain")),
    "states.conjugate": (("states", "conjugate"), ("verify", "conjugate")),
    "states.vertex_sum": (("states", "vertex_sum"), ("verify", "vertex_sum")),
    "states.baryon_product": (("states", "baryon_product"), ("verify", "baryon_product")),
    "spectra.match_coefficients": (("spectra", "match_coefficients"),),
    "spectra.residual_verify": (("spectra", "residual_verify"),),
    "spectra.residual_detail": (("spectra", "residual_detail"),),
    "charges.build_tables": (("charges", "build_tables"),),
    "charges.multiplet_zero_candidates": (("charges", "multiplet_zero_candidates"),),
    "masses.load_multiplets": (("masses", "load_multiplets"),),
    "datafiles.loads": (("masses", "load_constants"), ("masses", "load_multiplets"),
                        ("charges", "load_shipped_tables_csv")),
    "datafiles.data_path": (("datafiles", "data_path"), ("charges", "data_path"),
                            ("masses", "_data_path")),
    "cli.emit": (("cli", "emit"),),
}


def install(tracer):
    """Wrap the program's layer entry points in every loaded nilpotent module.

    Modules that were never imported are skipped: nothing can call into them.
    Returns the short names of the modules that were loaded.
    """
    mods = {name: sys.modules.get(f"nilpotent.{name}")
            for name in ("algebra", "verify", "states", "spectra", "charges", "masses",
                         "unification", "datafiles", "cli")}
    loaded = {name for name, mod in mods.items() if mod is not None}
    for span, sites in _ALIASES.items():
        for mod_name, attr in sites:
            if mod_name in loaded:
                tracer.patch(mods[mod_name], attr, span)
    if "algebra" in loaded:
        tracer.patch(mods["algebra"].Multivector, "__mul__", "algebra.mv_mul")
    if "spectra" in loaded:
        solvers = mods["spectra"]._FAMILY_SOLVERS
        for family in list(solvers):
            solvers[family] = tracer.wrap(f"spectra.solve.{family}", solvers[family])
    for group in ("masses", "unification"):
        if group in loaded:
            tracer.patch_module(mods[group], group)
    return sorted(loaded)


def _write_fd(fd, payload):
    import json

    data = json.dumps(payload).encode()
    while data:
        data = data[os.write(fd, data):]
    os.close(fd)


def _launch_cli(fd, argv):
    import nilpotent.cli as cli  # first import, so -X importtime sees the whole program

    tracer = Tracer()
    loaded = install(tracer)
    main = tracer.wrap("cli.main", cli.main)
    try:
        code = main(argv)
    finally:  # a traceback still leaves its records
        _write_fd(fd, {"spans": tracer.records(), "modules": loaded})
    sys.exit(code)


def _suite_split(fd, pairs, samples, seed):
    from nilpotent import verify

    times = {}
    for key, (p, s) in (("fixed", (0, 0)), ("pairs", (pairs, 0)), ("samples", (0, samples))):
        start = time.perf_counter()
        checks = verify.run_identity_suite(oracle_pairs=p, state_samples=s, seed=seed)
        times[key] = time.perf_counter() - start
        if not all(c.passed for c in checks):
            raise SystemExit(f"identity suite failed at pairs={p} samples={s}")
    _write_fd(fd, {
        "fixed_ms": times["fixed"] * 1e3,
        "oracle_pair_ms": (times["pairs"] - times["fixed"]) * 1e3 / pairs,
        "state_sample_ms": (times["samples"] - times["fixed"]) * 1e3 / samples,
    })


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) >= 3 and args[0] == "--fd" and args[2] == "--":
        _launch_cli(int(args[1]), args[3:])
    elif len(args) == 6 and args[0] == "--fd" and args[2] == "--suite-split":
        _suite_split(int(args[1]), int(args[3]), int(args[4]), int(args[5]))
    else:
        sys.exit("usage: tracer.py --fd N -- ARGV... | --fd N --suite-split PAIRS SAMPLES SEED")
