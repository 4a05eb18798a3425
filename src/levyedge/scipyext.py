"""scipy's compiled extension modules, each loaded on its own.

The package needs two of them: `special/_special_ufuncs`, whose ufuncs
`jv`, `ndtr`, `gammaincinv` and `gammainccinv` are the ones
`scipy.special` exports, and `optimize/_lsap`, whose builtin
`linear_sum_assignment` is the one `scipy.optimize` exports.  Importing
either package would run its `__init__`: `scipy.special` loads scipy's
array-API layer, which brings numpy.f2py, numpy.testing and the email
package (about 0.17 s), and `scipy.optimize` loads scipy's linalg,
sparse, spatial and fft packages (about 0.3 s).  Loading the extension
by its path runs no scipy module, not even `scipy/__init__`.

Both are private modules of scipy, so a release may move or rename them.
There is no fallback: `load` then raises ImportError, naming the
directory it searched (tests/test_scipyext.py).  The tests compare each
function bit for bit with scipy's public one: TestSolverLoad in
tests/test_wasserstein.py, TestBesselLoad in tests/test_levy.py and
TestQuantileLoad in tests/test_laws.py.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from types import ModuleType


def load(package: str, name: str) -> ModuleType:
    """The compiled extension module `name` of scipy's subpackage
    `package`, executed alone: no scipy module runs."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed")
    where = os.path.join(scipy.submodule_search_locations[0], package)
    spec = importlib.machinery.PathFinder.find_spec(name, [where])
    if spec is None or not isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        raise ImportError(f"no compiled {name} extension module in {where}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: jv, ndtr, gammaincinv, gammainccinv: scipy.special's own ufuncs
special = load("special", "_special_ufuncs")
#: Crouse's shortest augmenting path solver (IEEE TAES 2016)
linear_sum_assignment = load("optimize", "_lsap").linear_sum_assignment
