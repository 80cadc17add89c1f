"""Cross-route and off-nominal checks: quadrature residues, rotation-mode
semantics, unusual levels."""

import cmath
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import bind_shipped, shipped_commutator
from coset_forge.algebra import Relation, verify_relation
from coset_forge.contraction import contract, quad_eval


def _first_pair_quad(cat, term_a, term_b):
    params = cat.params
    integrands = []
    strip = 0.0
    for fam in cat.kernels:
        fa, fb = term_a.exponents.get(fam), term_b.exponents.get(fam)
        if fa is None or fb is None:
            continue
        I = contract(fa, fb, cat.kernels[fam], params)
        if not I.is_zero():
            integrands.append(I)
            strip = max(strip, I.strip_bound(params.hbar_float))

    def G(w):
        return cmath.exp(sum(quad_eval(I, w, params) for I in integrands))

    return G, strip


def test_ef_pole_residue_from_in_strip_quadrature():
    # the hyperbolic pole of the (1,1) E/F ordering product lies above the
    # integral's convergence strip, so the residue is reached by fitting the
    # rational form G = 1 - b hbar/(iw - a hbar) to pure quadrature data
    # inside the strip and continuing: expected a = k/2, b = 1, i.e. pole
    # w0 = -i(k/2) hbar with residue i b hbar
    k = Fraction(2)
    _, cat, _, _ = bind_shipped(k)
    G, strip = _first_pair_quad(cat, cat["E"].terms[0], cat["F"].terms[0])
    pts = [complex(0.4, -(strip + 0.8)), complex(-0.7, -(strip + 1.3))]
    ys = [1.0 / (1.0 - G(w)) for w in pts]
    # iw = a + b y is linear in (a, b)
    b = (1j * pts[0] - 1j * pts[1]) / (ys[0] - ys[1])
    a = 1j * pts[0] - b * ys[0]
    assert abs(a - float(k) / 2) < 1e-7
    assert abs(b - 1.0) < 1e-7
    # consistency at a third point
    w3 = complex(1.1, -(strip + 2.0))
    assert abs(G(w3) - (1.0 - b / (1j * w3 - a))) < 1e-8
    # residue of the fitted form at the continued pole w0 = -i a:
    # G - 1 = -b/(i(w - w0)), so Res = i b = i hbar
    assert abs(1j * b - 1j) < 1e-7


def test_ef_cross_pair_has_no_pole_by_quadrature():
    _, cat, _, _ = bind_shipped(2)
    G, strip = _first_pair_quad(cat, cat["E"].terms[0], cat["F"].terms[1])
    # the cross-pair ordering product is identically one
    for w in (complex(0.0, -(strip + 0.6)), complex(0.8, -(strip + 1.2)),
              complex(-0.5, -(strip + 0.9))):
        assert abs(G(w) - 1.0) < 1e-9


def test_mixed_sector_relation_holds_only_rotated():
    # E-E mixes the U(1) and the auxiliary sectors: its rational factor is
    # reached only by the global rotation of the whole closed form.
    # (k = 2 would hide the difference: the auxiliary sector of the E-E
    # factor collapses to a constant there, so a generic level is used.)
    _, cat, rels, _ = bind_shipped(Fraction(5, 2))
    ee = rels["E_E"]
    assert ee.rotate == "global"
    assert verify_relation(cat, ee).passed

    ee_n = Relation(ee.rel_id, ee.kind, ee.pair, ee.target, rotate="none")
    rep = verify_relation(cat, ee_n)
    assert not rep.passed
    assert not rep.symbolic_pass


@pytest.mark.parametrize("k", [Fraction(4), Fraction(7, 3), Fraction(1, 2)])
def test_relation_table_at_unusual_levels(k):
    _, cat, rels, _ = bind_shipped(k)
    for rel in rels.values():
        rep = verify_relation(cat, rel)
        assert rep.passed, (k, rel.rel_id, rep.max_rel_err)
    rep = shipped_commutator(k)
    assert rep.passed, (k, rep.notes)


def test_hbar_half_session_via_cli():
    out = subprocess.run(
        [sys.executable, "-m", "coset_forge.cli", "verify",
         "--hbar", "1/2"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stdout


def test_report_json_parseable_with_k_override(tmp_path):
    dest = tmp_path / "r.json"
    out = subprocess.run(
        [sys.executable, "-m", "coset_forge.cli", "report", "--k", "3",
         "--json", str(dest)],
        capture_output=True, text=True)
    assert out.returncode == 0
    payload = json.loads(dest.read_text())
    assert payload["params"]["k"] == "3"
    assert payload["pass"] is True
