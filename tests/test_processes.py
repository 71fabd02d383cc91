"""Fresh-interpreter runs: what each CLI verb imports, and the example scripts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kronred.cli import EXIT_BROKEN_PIPE, main

from conftest import NETWORKS_DIR

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# scipy subpackages that no verb may load: every verb takes its LAPACK
# routines from scipy's compiled _flapack module alone
HEAVY = ("scipy.integrate", "scipy.interpolate", "scipy.linalg", "scipy.optimize",
         "scipy.special", "scipy.sparse")

CHILD = f"""
import json, sys
if sys.argv[1:]:
    from kronred.cli import main
    code = main(sys.argv[1:])
else:
    import kronred
    code = 0
sys.stdout.flush()
print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)), file=sys.stderr)
sys.exit(code)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _run(args, **kw):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=_env(),
                          timeout=120, **kw)


def _net(name):
    return str(NETWORKS_DIR / f"{name}.json")


@pytest.fixture(scope="module")
def reduced_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("reduced") / "diode_same_reduced.json"
    assert main(["reduce", _net("diode_same"), "--samples", "64", "--out", str(path)]) == 0
    return str(path)


VERBS = {
    "import": ([], (0,)),
    "check": (["check", _net("diode_opposite")], (0,)),
    "solve": (["solve", _net("diode_opposite"), "1=1", "2=0"], (0,)),
    "reduce-sampled": (["reduce", _net("diode_same"), "--samples", "16"], (0,)),
    "reduce-linear": (["reduce", _net("triangle_center")], (0,)),
    "reduce-ring": (["reduce", _net("diode_ring"), "--samples", "16"], (0, 4)),
    "curve": (["curve", _net("diode_opposite"), "--pair", "1,2", "--points", "5"], (0,)),
    "curve-reduced": (["curve", "REDUCED", "--pair", "1,2", "--vmin", "-1", "--vmax", "1",
                       "--points", "5"], (0,)),
    "solve-reduced": (["solve", "REDUCED", "1=0.5", "2=0"], (0,)),
    "power": (["power", _net("linear_series"), "0=0.5", "1=1", "2=0"], (0,)),
    "power-min-heat": (["power", _net("linear_series"), "1=1", "2=0", "--min-heat"], (0,)),
}


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_verb_loads_scipy_linalg_only(verb, reduced_file):
    """No verb, `power --min-heat` included, loads a HEAVY subpackage such as `scipy.linalg`.

    The name is kept from when `scipy.linalg` was the one subpackage allowed,
    so that the test ids stay stable.
    """
    argv, codes = VERBS[verb]
    argv = [reduced_file if arg == "REDUCED" else arg for arg in argv]
    done = _run(["-c", CHILD, *argv])
    assert done.returncode in codes, done.stderr
    assert json.loads(done.stderr.splitlines()[-1]) == []


def test_min_heat_still_runs():
    done = _run(["-m", "kronred.cli", "power", _net("linear_series"), "1=1", "2=0", "--min-heat"])
    assert done.returncode == 0, done.stderr
    assert "max |difference|" in done.stdout


def test_min_heat_after_another_verb_in_one_process():
    # solve loads LAPACK by file path, and min-heat's search reads power values only
    child = f"""
import sys
from kronred.cli import main
assert main(["solve", {_net("diode_opposite")!r}, "1=1", "2=0"]) == 0
assert "scipy.linalg" not in sys.modules
assert main(["power", {_net("linear_series")!r}, "1=1", "2=0", "--min-heat"]) == 0
assert "scipy.linalg" not in sys.modules and "scipy.optimize" not in sys.modules
"""
    done = _run(["-c", child])
    assert done.returncode == 0, done.stderr
    assert "max |difference|" in done.stdout


@pytest.mark.parametrize("script", SCRIPTS, ids=[path.name for path in SCRIPTS])
def test_script_runs(script, tmp_path):
    done = _run([str(script)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr


def test_check_into_a_closed_pipe_ends_quietly(tmp_path):
    # a 3000-node path: check prints about 150 kB, more than a pipe buffer
    # holds, and the reader stops after one line, as `| head -1` does
    n = 3000
    doc = {"nodes": [str(i) for i in range(n)], "boundary": ["0"],
           "edges": [{"from": str(i), "to": str(i + 1), "law": "y"} for i in range(n - 1)]}
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    proc = subprocess.Popen([sys.executable, "-m", "kronred.cli", "check", str(path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_env())
    assert proc.stdout.readline().startswith(b"PASS  convexity margin 0->1")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert err == b""
