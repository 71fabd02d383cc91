"""The three LAPACK routines kronred calls, from scipy's compiled ``_flapack`` module.

``import scipy.linalg`` costs about as much as the rest of a CLI run; its
package init loads far more than these routines.  The extension is loaded
by file path instead, or taken from ``sys.modules`` once scipy has loaded it.
"""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

NAME = "scipy.linalg._flapack"


def _find(directory) -> Path:
    """The ``_flapack`` extension file in ``directory``; ImportError naming it if none."""
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = Path(directory, "_flapack" + suffix)
        if path.is_file():
            return path
    raise ImportError(f"no _flapack extension in {directory}")


def _load():
    """scipy's ``_flapack`` module: the one scipy loaded, or loaded here by file path."""
    module = sys.modules.get(NAME)
    if module is None:
        scipy = importlib.util.find_spec("scipy")
        if scipy is None:
            raise ImportError("scipy is not installed")
        spec = importlib.util.spec_from_file_location(
            NAME, _find(Path(scipy.submodule_search_locations[0], "linalg")))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # loading filed the module in sys.modules with no scipy.linalg above it;
        # a later import of scipy.linalg then loads the package the normal
        # way, and the extension cache hands it these same routines
        sys.modules.pop(NAME, None)
    return module


_flapack = _load()
try:
    dpbtrf, dpbtrs, dgtsv = _flapack.dpbtrf, _flapack.dpbtrs, _flapack.dgtsv
except AttributeError as exc:
    raise ImportError(f"{_flapack.__file__} lacks a LAPACK routine: {exc}") from exc
