"""Every name the benchmark's tracer patches still resolves in the package.

The tracer (``bench/tracer.py``) wraps functions by module and attribute
name; a renamed or deleted function would otherwise only show as a failed
traced benchmark run.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SITES = sorted({site for sites in _load_tracer()._ALIASES.values() for site in sites})


@pytest.mark.parametrize("module,attr", SITES)
def test_traced_alias_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"nilpotent.{module}"), attr))


def test_traced_product_and_solver_table_resolve():
    from nilpotent import algebra, spectra

    assert callable(algebra.Multivector.__mul__)
    assert spectra._FAMILY_SOLVERS and all(map(callable, spectra._FAMILY_SOLVERS.values()))


def test_cli_import_loads_spectra_but_not_sympy():
    """The tracer wraps only modules already in ``sys.modules`` when
    ``nilpotent.cli`` loads.  ``spectra`` is registered there at import and
    compiled and run at the first read of one of its attributes (the
    tracer's own read runs it); no request loads sympy."""
    script = ("import sys, nilpotent.cli; "
              "assert 'nilpotent.spectra' in sys.modules, 'spectra was not imported'; "
              "assert 'sympy' not in sys.modules, 'sympy was imported'")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
