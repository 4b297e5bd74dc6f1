"""Warm library process for the solve-sweep workload.

    python3 bench/solve_worker.py SEED SECONDS TRACE

Imports ``nilpotent.spectra`` once, builds a seeded stream of distinct
potentials, warms every family up and prints ``{"ready": ...}``.  It then
waits for one line on stdin: ``quit`` ends it; ``go`` runs the closed loop
(one call after another: ``match_coefficients``, ``residual_verify`` and
the level table) for SECONDS, checks every result outside the timed calls
and prints one JSON line.  With TRACE 1 it instead runs a fixed slice of the stream untraced
and the next slice of the same length under the tracer.
"""

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import checks
from mix import rational

TRACE_OPS = 150  # per slice of a traced run


def _draw(rng, sp, spectra):
    """One potential as (family, PotentialSpec, j, n', exact)."""
    family = rng.choice(("confining", "coulomb", "oscillator", "inverse", "from_dict"))
    j, n = Fraction(2 * rng.randint(0, 4) + 1, 2), rng.randint(0, 4)
    exact = rng.random() < 0.7

    def num(x):
        return x if exact else round(float(x), 4)

    def imag_phase():
        return sp.I * sp.Rational(rng.randint(1, 9), rng.randint(1, 9))

    if family == "confining":
        V = spectra.PotentialSpec({1: num(rational(rng, 1, 30))}, num(rational(rng, 1, 20)),
                                  num(rational(rng, 1, 20)))
    elif family == "coulomb":
        qa = Fraction(rng.randint(1, 99), 100) * (j + Fraction(1, 2))
        q = rational(rng, 1, 9, 9)
        V = spectra.PotentialSpec({}, num(qa / q), num(q))
    elif family == "oscillator":
        V = spectra.PotentialSpec({2: num(rational(rng, 1, 30))}, imag_phase(), num(rational(rng, 1, 9, 9)))
    elif family == "inverse":
        powers = rng.choice(((-6, -12), (-4,), (-2,), (-3, -5)))
        V = spectra.PotentialSpec(
            {p: num(rng.choice((1, -1)) * rational(rng, 1, 30)) for p in powers}, imag_phase())
    else:
        power = rng.choice(("1", "2", "-2", "-4", "-6"))

        def text(x):
            return str(x) if exact else f"{float(x):.4f}"

        V = spectra.PotentialSpec.from_dict({
            "terms": {power: text(rational(rng, 1, 30))},
            "coulombPhase": text(rational(rng, 1, 9, 9)), "q": text(rational(rng, 1, 9, 9))})
    return family, V, j, n, exact


def on_pole(item):
    """A Coulomb input at or near the pole of its second branch, an open defect
    that the cli-mix defect probes exercise; the stream draws it again."""
    family, V, j, n, _ = item
    return family == "coulomb" and checks.coulomb_pole(V.coupling * V.coulomb_phase, j, n)


def build_stream(seed, count, sp, spectra):
    """``count`` distinct inputs; a repeat of an earlier input, or an input on
    a Coulomb pole, is drawn again."""
    rng = random.Random(seed)
    seen, stream, redrawn = set(), [], 0
    while len(stream) < count:
        item = _draw(rng, sp, spectra)
        key = repr(item)
        if key in seen or on_pole(item):
            redrawn += 1
            continue
        seen.add(key)
        stream.append(item)
    return stream, redrawn


def solve(spectra, V, j, n):
    qn = spectra.QuantumNumbers(j, n)
    sol = spectra.match_coefficients(V, qn)
    residual = spectra.residual_verify(V, sol, qn)
    levels = sol.level_series.table([j], list(range(n, n + 3))) if sol.level_series else None
    return sol, residual, levels


def check(ref, item, result):
    """Reason the result of one stream input is wrong, or None."""
    _, V, _, _, exact = item
    sol, residual, levels = result
    report = sol.to_dict()
    report["residual"] = residual
    if levels is not None:
        report["level_family"] = sol.level_series.family
        report["levels"] = levels
    bad = checks.nonfinite(report)
    if bad:
        return f"non-finite value {bad}"
    problem = ref.schema_error("solve_report", report)
    if problem:
        return problem
    if not residual <= (0.0 if exact else 1e-10):  # a NaN residual fails too
        return f"residual {residual} for {'exact' if exact else 'float'} input"
    for row in levels or ():
        if sol.family == "coulomb":
            qa = float(Fraction(V.coupling) * Fraction(V.coulomb_phase))
            want = checks.coulomb_e_over_m(qa, Fraction(row["j"]), row["nPrime"])
        else:
            want = checks.oscillator_e(1, Fraction(row["j"]), row["nPrime"])
        if not checks.close(row["E_over_m"], want):
            return f"level {row} != closed form {want}"
    return None


class Loop:
    """Closed-loop client: one timed call chain after another, each checked untimed."""

    def __init__(self, spectra):
        self.spectra = spectra
        self.ref = None  # loaded at the first check, outside set-up and outside any timing
        self.latencies, self.keys, self.failures = [], [], []

    def run(self, items, deadline=None):
        start = len(self.latencies)
        for item in items:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            result = solve(self.spectra, *item[1:4])
            self.latencies.append(time.perf_counter() - t0)
            self.keys.append(repr(item))
            self.ref = self.ref or checks.Reference(Path(__file__).resolve().parents[1])
            reason = check(self.ref, item, result)
            if reason:
                self.failures.append((repr(item[1:4]), reason))
        return sum(self.latencies[start:])


def main(seed, seconds, trace):
    from nilpotent import spectra  # first, so its import cost includes sympy's
    import sympy as sp

    # one warm-up input per family, from its own seed and never repeated in the stream
    warmup = {}
    for item in build_stream(seed ^ 0x5EED, 64, sp, spectra)[0]:
        warmup.setdefault(item[0], item)
    warm_keys = {repr(item) for item in warmup.values()}
    stream, redrawn = build_stream(seed, 2 * TRACE_OPS if trace else 250 * seconds, sp, spectra)
    stream = [item for item in stream if repr(item) not in warm_keys]
    first_call_ms = None
    for _, V, j, n, _ in warmup.values():
        t0 = time.perf_counter()
        qn = spectra.QuantumNumbers(j, n)
        spectra.residual_verify(V, spectra.match_coefficients(V, qn), qn)
        if first_call_ms is None:
            first_call_ms = (time.perf_counter() - t0) * 1e3
    print(json.dumps({"ready": True}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return

    loop = Loop(spectra)
    out = {"modules": sorted(m for m in sys.modules if m.startswith("nilpotent"))}
    if trace:
        import tracer

        untraced_s = loop.run(stream[:TRACE_OPS])
        tr = tracer.Tracer()
        tracer.install(tr)
        traced_s = loop.run(stream[TRACE_OPS:2 * TRACE_OPS])
        out.update(spans=tr.records(), traced_ops=TRACE_OPS, first_call_ms=first_call_ms,
                   overhead_ratio=traced_s / untraced_s)
    else:
        loop.run(stream, deadline=time.perf_counter() + seconds)
        out.update(latencies_ms=[x * 1e3 for x in loop.latencies],
                   stream_exhausted=len(loop.keys) == len(stream))
    out.update(
        attempted=len(loop.keys), failures=loop.failures,
        repeated_input_share=1 - len(set(loop.keys) - warm_keys) / max(len(loop.keys), 1),
        redrawn_inputs=redrawn,
    )
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1")
