"""kronred's direct load of scipy's compiled LAPACK against ``scipy.linalg`` itself.

Each order of import runs in a fresh interpreter: kronred first, where
``kronred._lapack`` loads the extension by file path and ``scipy.linalg``
comes after it, and scipy first, where kronred takes the loaded module.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kronred import _lapack

from test_processes import _env

CHILD = """
import sys
import numpy as np
if sys.argv[1] == "scipy-first":
    import scipy.linalg.lapack
import kronred._lapack
from kronred import cubic
from kronred.solver import cho_factor, cho_solve
import scipy.linalg
import scipy.linalg.lapack as lapack
from scipy.linalg import solve_banded

assert kronred._lapack._flapack.__file__ == scipy.linalg._flapack.__file__
assert lapack._flapack is scipy.linalg._flapack

rng = np.random.default_rng(7)
n = 150
for kd in (2, 32, 64):  # LAPACK's blocked code (block size 32) runs from kd = 32 on
    a = np.zeros((n, n))
    for k in range(1, kd + 1):
        off = rng.uniform(-1.0, 1.0, n - k)
        a += np.diag(off, k) + np.diag(off, -k)
    a += np.diag(rng.uniform(2.0 * kd, 3.0 * kd, n))
    ab = np.zeros((kd + 1, n), order="F")  # lower band storage: a[i, k] at [i - k, k]
    for k in range(kd + 1):
        ab[k, :n - k] = np.diag(a, -k)
    b = rng.standard_normal(n)
    l_want, info = lapack.dpbtrf(ab.copy(order="F"), lower=1)
    assert info == 0, kd
    factor = cho_factor(ab.copy(order="F"))
    assert factor.tobytes() == l_want.tobytes(), kd
    x = cho_solve(factor, b)
    assert x.tobytes() == lapack.dpbtrs(l_want, b, lower=1)[0].tobytes(), kd
    assert np.abs(a @ x - b).max() <= 1e-12 * np.abs(b).max(), kd

for size in (3, 4, 50):
    x = np.cumsum(rng.uniform(0.1, 1.0, size))
    y = rng.standard_normal(size)
    want = solve_banded((1, 1), *cubic._not_a_knot_system(x, y))
    assert cubic._not_a_knot_slopes(x, y).tobytes() == want.tobytes(), size
try:
    cubic._not_a_knot_slopes(np.array([0.0, 1.0, 0.0]), np.array([0.0, 1.0, 0.0]))
except np.linalg.LinAlgError as exc:
    assert str(exc) == "singular matrix"
else:
    raise AssertionError("a singular system solved")
print("ok")
"""


@pytest.mark.parametrize("order", ["kronred-first", "scipy-first"])
def test_direct_lapack_matches_scipy_linalg(order):
    done = subprocess.run([sys.executable, "-c", CHILD, order], capture_output=True, text=True,
                          env=_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


def test_missing_extension_names_the_searched_path(tmp_path):
    with pytest.raises(ImportError, match=re.escape(f"no _flapack extension in {tmp_path}")):
        _lapack._find(tmp_path)


def test_no_library_module_imports_scipy():
    """No module of the package imports scipy; ``_lapack`` only finds its directory.

    Read statically, so the rule holds for every code path, not only for the
    verbs the process tests run.
    """
    sources = sorted(Path(_lapack.__file__).parent.glob("*.py"))
    assert "solver.py" in [path.name for path in sources]
    imported = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:  # not `from . import`
                names = [node.module]
            else:
                continue
            imported += [f"{path.name}: {name}" for name in names
                         if name == "scipy" or name.startswith("scipy.")]
    assert imported == []
