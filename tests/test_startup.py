"""Start-up cost: numpy is imported only for quadrature (`contract`, and
`verify` for a relation that does not telescope), so neither `verify`,
`report` nor `limit` load it, and without it quadrature is one typed
error; neither dataclasses nor json is imported by any command, and the
shipped catalog is read without importlib.resources."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

VERIFY_WITHOUT_NUMPY = """\
import importlib.resources, sys
from fractions import Fraction
import coset_forge.cli as cli
from coset_forge.dsl import parse_definitions
text = (importlib.resources.files("coset_forge") / "data" / "paper.alg").read_text()
parse_definitions(text).bind(Fraction(2), [Fraction(1)])
assert "numpy" not in sys.modules, "numpy imported by import and bind"
assert cli.run(["verify", "--k", "2", "--hbar", "1", "--json", sys.argv[1]]) == 0
assert "numpy" not in sys.modules, "numpy imported by verify"
assert cli.run(["catalog", "--k", "2"]) == 0
assert cli.run(["poles", "--k", "2"]) == 0
# the records are plain classes and the report writer uses the C escaper
for name in ("dataclasses", "json", "json.encoder"):
    assert name not in sys.modules, name + " imported by a command"
"""

# k = 3, where the rotated psi factors carry Gamma factors and the
# classical limit has something to read off (at k = 2 they are constants)
REPORT_AND_LIMIT_WITHOUT_NUMPY = """\
import sys
import coset_forge.cli as cli
assert cli.run(["report", "--k", "3", "--hbar", "1", "--json", sys.argv[1]]) == 0
assert "numpy" not in sys.modules, "numpy imported by report"
assert cli.run(["limit", "--k", "3"]) == 0
assert "numpy" not in sys.modules, "numpy imported by limit"
"""

# run under python -S, so that no site hook imports the modules checked
VERIFY_WITHOUT_RESOURCE_LOADERS = """\
import sys
import coset_forge.cli as cli
assert cli.run(["verify", "--k", "2", "--hbar", "1"]) == 0
for name in ("importlib.resources", "zipfile", "tempfile"):
    assert name not in sys.modules, name + " imported by verify"
"""

CONTRACT_WITH_NUMPY = """\
import sys
import coset_forge.cli as cli
rc = cli.run(["contract", "Lambda_plus", "Lambda_minus", "--k", "2",
              "--hbar", "1", "--at", "0,-5"])
assert rc == 0, rc
assert "numpy" in sys.modules, "quadrature ran without numpy"
"""

# quadrature with numpy blocked: each command exits 2 with one typed error,
# written to --json; the quadrature-only verify row stops before its first
# grid point rather than failing every point
QUADRATURE_WITHOUT_NUMPY = """\
import json, sys
sys.modules["numpy"] = None
import coset_forge.cli as cli
out = sys.argv[1]
for argv in (["contract", "Lambda_plus", "Lambda_minus", "--k", "2"],
             ["verify", sys.argv[2]]):
    assert cli.run(argv + ["--json", out]) == 2, argv
    with open(out, encoding="utf-8") as f:
        error = json.load(f)["error"]
    assert error == {"kind": "MissingDependency", "message":
                     "quadrature needs numpy, which is not installed"}, (argv, error)
"""

# a relation whose closed form does not telescope, so verify checks it by
# quadrature alone
XX_ALG = """\
params { k = 1; hbar = 1; }
kernel p { sign = +1; slope = 1/2; }
kernel m { sign = -1; slope = 1/2; }
current Xp on p {
  pos: 1 * hbar * sinh((1/2)*h*t)^2 / sinh(1*h*t)^2;
  neg: 1 * hbar * sinh((1/2)*h*t)^2 / sinh(1*h*t)^2;
}
current Xm on m {
  pos: 1 * hbar * sinh((1/2)*h*t)^2 / sinh(1*h*t)^2;
  neg: 1 * hbar * sinh((1/2)*h*t)^2 / sinh(1*h*t)^2;
}
current X = Xp * Xm;
relation xx_false : (iw + 1*hbar) * X(u) X(v) == X(v) X(u);
"""


def _python(script, *args, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-c", script, *args], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)


def test_verify_never_imports_numpy(tmp_path):
    out = _python(VERIFY_WITHOUT_NUMPY, str(tmp_path / "report.json"))
    assert out.returncode == 0, out.stderr
    assert "all relations hold" in out.stdout
    assert (tmp_path / "report.json").read_text().startswith("{")


def test_report_and_limit_never_import_numpy(tmp_path):
    out = _python(REPORT_AND_LIMIT_WITHOUT_NUMPY, str(tmp_path / "report.json"))
    assert out.returncode == 0, out.stderr
    assert "PASS limit[psi,psi;ab=1]" in out.stdout
    assert '"pass": true' in (tmp_path / "report.json").read_text()


def test_shipped_catalog_is_read_without_resource_loaders():
    out = _python(VERIFY_WITHOUT_RESOURCE_LOADERS, flags=("-S",))
    assert out.returncode == 0, out.stderr
    assert "all relations hold" in out.stdout


def test_contract_imports_numpy_and_keeps_its_output():
    out = _python(CONTRACT_WITH_NUMPY)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[:2] == [
        "family lhat: strip Im w < -2; at w = -5j",
        "  log divergence coeff a = 0"]
    # the last digit of a quadrature sum may differ between numpy builds
    label, value = lines[2].split(" = ")
    assert label == "  quadrature   exp(I)"
    assert abs(complex(value) - 0.9114583333333333) < 1e-14
    assert lines[3:] == [
        "  closed form  value  = (0.9114583333333336+0j)",
        "  closed form  = (iw+-1h)^-2 * (iw+-2h)^1 * (iw+0h)^2 * (iw+1h)^-2 "
        "* (iw+2h)^1"]


def test_quadrature_without_numpy_is_one_typed_error(tmp_path):
    alg = tmp_path / "xx.alg"
    alg.write_text(XX_ALG, encoding="utf-8")
    out = _python(QUADRATURE_WITHOUT_NUMPY, str(tmp_path / "error.json"), str(alg))
    assert out.returncode == 0, out.stderr
    assert out.stderr.count("error: quadrature needs numpy") == 2
    assert "Traceback" not in out.stderr
