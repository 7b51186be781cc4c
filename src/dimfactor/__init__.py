"""dimfactor: newform dimension counting and the factorization tests it
enables.

Exact closed formulas for the number of automorphic representations and
the dimension of newform spaces at even weight on level-N congruence
groups, the squarefree/primality characterizations those formulas give,
explicit bounds on square divisors from a single count, and probabilistic
reductions that factor N completely from two or three oracle values.

Importing the package runs none of its submodules.  Each library
submodule is registered in ``sys.modules`` through
``importlib.util.LazyLoader`` and runs on the first access to one of its
attributes, whether through the package (``dimfactor.dim_A``), the
submodule (``dimfactor.arith``) or an import of it; so a CLI request runs
only the layers its subcommand uses.  The CLI front end, ``cli``, is
imported the usual way, by ``dimfactor.__main__.run``, the entry of both
``python -m dimfactor`` and the console script.
``python -X importtime -m dimfactor ...`` shows the standard-library
modules a request loads.  The submodules themselves run outside the
import statements it times, so they are not listed there: after a
request, ``type(sys.modules["dimfactor.NAME"]) is types.ModuleType``
tells whether NAME ran, without running it.  Before CPython 3.12.3,
LazyLoader does not lock that first load (gh-114763), so a threaded
caller imports the names it uses before it starts threads, for example
``from dimfactor.dimensions import DefaultOracle``.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_EXPORTS = {
    "arith": (
        "Factorization", "factor_trial", "is_probable_prime", "kronecker_m3",
        "kronecker_m4",
    ),
    "bounds": (
        "INTERVAL", "NO_LARGE_SQUARE_DIVISOR", "BoundsReport", "compute_T",
        "cubic_positive", "curly_L", "square_divisor_bounds",
    ),
    "detectors": ("Verdict", "primality_test", "squarefree_test"),
    "dimensions": (
        "DefaultOracle", "OracleSample", "StaticOracle", "dim_A", "dim_B", "dim_G",
        "dim_H", "dim_delta", "level_one_newform_dim",
    ),
    "errors": (
        "DimfactorError", "DomainError", "FactoringFailureError",
        "InconsistentInputsError", "InternalInconsistencyError", "InvalidWeightError",
    ),
    "multfuncs": ("nu2_star", "nu3_star", "nu_inf_star", "s0_star"),
    "reductions": (
        "SquarefullSplit", "factor_given_phi_multiple", "factor_squarefull_from_invariants",
        "factor_squarefull_two_values", "full_factor_three_values", "recover_nu23_star",
    ),
    "sweeps": ("SweepReport", "primality_sweep", "trichotomy_sweep"),
}
# Not "cli": code that reads every dimfactor module in sys.modules (as
# monkeypatching tools do) runs each registered one, and a library process
# should not run the CLI front end, and import argparse, that way.
_SUBMODULES = (*_EXPORTS, "kernels")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def _register(name: str):
    """Put the submodule ``name`` in ``sys.modules``, to run on first use
    (the lazy-import recipe of the importlib documentation)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _SUBMODULES:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *__all__})
