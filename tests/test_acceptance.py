"""Acceptance criteria, one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
timing lines.  Every tolerance is pinned here; nothing is calibrated at
run time.
"""

import cmath
import importlib.resources
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from conftest import (bind_shipped, contraction_pairs, gamma_factors,
                      shipped_commutator)
from coset_forge.algebra import classical_limit, verify_relation
from coset_forge.contraction import StructureFunction, closed_form, contract, quad_eval
from coset_forge.modes import equals as modes_equal, shift_argument
from test_specfun import oracle_grid, oracle_log_gamma, rel_err

KLIST = [Fraction(1), Fraction(2), Fraction(3), Fraction(5, 2)]


def _stamp(name: str, t0: float, budget: float):
    dt = time.time() - t0
    print(f"{name}: PASS ({dt:.2f} s, budget {budget:g} s)")
    assert dt < budget


def test_criterion_1_log_gamma_oracle():
    t0 = time.time()
    from coset_forge.specfun import log_gamma
    for z in oracle_grid(200, 50.0):
        assert rel_err(log_gamma(z), oracle_log_gamma(z)) <= 1e-12, z
    _stamp("criterion 1 (log_gamma vs oracle, 200 pts)", t0, 1.0)


def test_criterion_2_printed_factor_reproduction():
    t0 = time.time()
    from coset_forge.contraction import exchange_factor
    from coset_forge.exact import GR

    HALF = Fraction(1, 2)
    ONE = Fraction(1)

    def acc(pairs):
        d = {}
        for sh, e in pairs:
            d[(2 + 0j, sh)] = d.get((2 + 0j, sh), 0) + e
        return {kk: v for kk, v in d.items() if v}

    def printed_sf(pairs):
        sf = StructureFunction.one()
        for sh, e in pairs:
            sf = sf * StructureFunction.from_gamma(2, sh, e)
        return sf

    for k in KLIST:
        params, cat, _, _ = bind_shipped(k)
        bp = cat["beta_plus"].exponent("bhat")
        bm = cat["beta_minus"].exponent("bhat")
        lp = cat["Lambda_plus"].exponent("lhat")
        lm = cat["Lambda_minus"].exponent("lhat")
        Kb, Kl = cat.kernels["bhat"], cat.kernels["lhat"]

        lam_pairs = [((k + 2) / 4, 1), ((k + 6) / 4, 1), (-k / 4, 2),
                     (-(k + 2) / 4, -1), (-(k - 2) / 4, -1), ((k + 4) / 4, -2)]
        bet_pairs = [(-k / 4, 1), (-(k - 4) / 4, 1), ((k + 2) / 4, 2),
                     (k / 4, -1), ((k + 4) / 4, -1), (-(k - 2) / 4, -2)]
        S_l = exchange_factor(lp, lm, Kl, params)
        S_b = exchange_factor(bp, bm, Kb, params)
        # exact symbolic equality with the printed product at every level
        assert S_l.symbolic_eq(printed_sf(lam_pairs)), k
        assert S_b.symbolic_eq(printed_sf(bet_pairs)), k
        if k != 2:  # away from the degenerate level the raw multiset matches
            assert {(complex(s), sh): e for (s, sh), e in gamma_factors(S_l).items()} \
                == acc(lam_pairs)
            assert {(complex(s), sh): e for (s, sh), e in gamma_factors(S_b).items()} \
                == acc(bet_pairs)
            assert not S_l.linears and S_l.const.is_one()
            assert not S_b.linears and S_b.const.is_one()

        # rational beta/screened factors, symbolically
        Bp = cat["B_plus"].exponent("bhat")
        Bm = cat["B_minus"].exponent("bhat")

        def lin(r, e=1):
            return StructureFunction.from_linear(GR.of(r), e)

        checks = [
            (exchange_factor(bp, Bp, Kb, params),
             lin(k / 4 + HALF) * lin(k / 4 - HALF, -1)),
            (exchange_factor(bp, Bm, Kb, params),
             lin(-k / 4 - HALF) * lin(-k / 4 + HALF, -1)),
            (exchange_factor(Bp, bm, Kb, params),
             lin(k / 4 + HALF) * lin(k / 4 - HALF, -1)),
            (exchange_factor(Bm, bm, Kb, params),
             lin(-k / 4 - HALF) * lin(-k / 4 + HALF, -1)),
        ]
        for got, expect in checks:
            assert got.symbolic_eq(expect), k
    _stamp("criterion 2 (printed Gamma multisets and rational factors)", t0, 5.0)


def test_criterion_3_oracle_agreement_full_catalog():
    t0 = time.time()
    for k in KLIST:
        for hbar in (Fraction(1), Fraction(1, 2)):
            params, cat, _, _ = bind_shipped(k, hbar)
            hf = params.hbar_float
            # each distinct integrand once: many term pairs share one
            seen = set()
            for label, fam, f, g, K in contraction_pairs(cat):
                I = contract(f, g, K, params)
                if I.is_zero() or (I.lattice, I.rational) in seen:
                    continue
                seen.add((I.lattice, I.rational))
                sf = closed_form(I, params)
                base = max(0.0, I.strip_bound(hf))
                for j in range(20):
                    w = complex((-2.0 + 4.0 * j / 19) * hf * max(1.0, float(k)),
                                -(base + (0.3 + 0.45 * (j % 5) / 5) * hf
                                  * max(1.0, float(k))))
                    q = cmath.exp(quad_eval(I, w, params))
                    c = sf.eval(w, hf)
                    assert abs(q - c) <= 1e-8 * abs(c), (label, k, hbar, w)
            assert len(seen) >= 20
    _stamp("criterion 3 (quadrature vs closed form, full catalog)", t0, 60.0)


def test_criterion_4_nonlocal_shape_relations():
    t0 = time.time()
    for k in KLIST:
        _, cat, _, _ = bind_shipped(k)
        for pair in (("psi", "psi"), ("psi", "psi_dag"), ("psi_dag", "psi_dag")):
            facs = cat.pair_exchange(cat[pair[0]], cat[pair[1]], rotate="none")
            base = facs[0]
            hbar = 1.0
            for sf in facs[1:]:
                assert (sf * base.inverse()).normalize().is_one(), (k, pair)
                for j in range(6):
                    w = complex(0.4 * j - 1.0, -0.7 - 0.2 * j) * max(1.0, float(k))
                    a = sf.eval(w, hbar)
                    b = base.eval(w, hbar)
                    assert abs(a - b) <= 1e-8 * abs(b)
    _stamp("criterion 4 (single shared factor for the nonlocal currents)", t0, 30.0)


def test_criterion_5_rational_relations_gamma_emptiness():
    t0 = time.time()
    recorded_hh = {}
    for k in KLIST:
        _, cat, rels, _ = bind_shipped(k)
        for rid in ("H_p_H_p", "H_m_H_m", "H_p_H_m", "H_m_H_p", "H_p_E",
                    "H_m_E", "H_p_F", "H_m_F", "E_E", "F_F"):
            rel = rels[rid]
            # exact Gamma-multiset emptiness on every term pair
            a, b = rel.pair
            for sf in cat.pair_exchange(cat[a], cat[b], rotate="none"):
                assert not sf.normalize().gammas, (k, rid)
            rep = verify_relation(cat, rel)
            # an exact verdict, with no numeric residual
            assert rep.passed and rep.symbolic_pass, (k, rid)
            assert rep.max_rel_err is None
            if rid == "H_p_H_m":
                recorded_hh[k] = rep.derived_factor
    # the engine records its derived factor where the printed text is malformed
    assert all(recorded_hh.values())
    print("  derived H+H- factor at k=2:", recorded_hh[Fraction(2)])
    _stamp("criterion 5 (rational relations, exact Gamma cancellation)", t0, 60.0)


def test_criterion_6_ordering_difference_structure():
    t0 = time.time()
    for k in (Fraction(2), Fraction(3), Fraction(5, 2)):
        _, cat, _, _ = bind_shipped(k)
        rep = shipped_commutator(k)
        assert rep.passed, (k, rep.notes)
        # poles at +-(k/2) hbar, exactly, in units of hbar
        assert [p["w_over_hbar"] for p in rep.poles] == [str(k / 2), str(-k / 2)]
        assert all(sorted(p) == ["matches", "pairs", "scalar", "scalar_hbar_power",
                                 "w_over_hbar"] for p in rep.poles)
        assert rep.max_rel_err is None
        # symbolic residue operators: the U(1) exponents at the declared
        # shifts +-k/4, matched exactly by modes equality, with scalars
        # -+(1/hbar)
        assert [(p["matches"], p["scalar"], p["scalar_hbar_power"])
                for p in rep.poles] == [
            ([{"target": "H_minus", "shift": str(-k / 4)}], "1", -1),
            ([{"target": "H_plus", "shift": str(k / 4)}], "-1", -1)], k
        # independent exact identity behind the match
        cp, cm = cat["C_plus"].exponent("chat"), cat["C_minus"].exponent("chat")
        hp = cat["H_plus"].exponent("chat")
        assert modes_equal(cp + shift_argument(cm, k / 2),
                           shift_argument(hp, k / 4))
    _stamp("criterion 6 (ordering-difference poles and residues)", t0, 30.0)


def test_criterion_7_classical_limit():
    t0 = time.time()
    for k in (Fraction(2), Fraction(3)):
        _, cat, _, _ = bind_shipped(k)
        for pair, ab in ((("psi", "psi"), 1), (("psi", "psi_dag"), -1)):
            rep = classical_limit(cat, pair, ab)
            assert rep.passed, (k, pair)
            fit = rep.limit_fit
            # the exact limit is the braiding phase exp(i pi 2ab/k)
            assert fit["braid_exponent"] == Fraction(2 * ab) / k, (k, pair, fit)
            assert (fit["exponent"] - fit["braid_exponent"]) % 2 == 0, (k, pair, fit)
            # no power-law correction, or one of order hbar^1 or higher
            assert fit["order"] is None or fit["order"] >= 1, (k, pair, fit)
            assert max(fit["check_errors"]) <= 1e-8, (k, pair, fit)
    _stamp("criterion 7 (degeneration to parafermion braiding)", t0, 30.0)


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "coset_forge.cli", *args],
                          capture_output=True, text=True)


def test_criterion_8_cli_contract(tmp_path):
    t0 = time.time()
    out = _run_cli("verify")
    assert out.returncode == 0, out.stdout + out.stderr

    shipped = (importlib.resources.files("coset_forge") / "data"
               / "paper.alg").read_text()
    perturbed = shipped.replace("Gamma(x@k + 1 + 1/k) * ",
                                "Gamma(x@k + 1 + 2/k) * ", 1)
    assert perturbed != shipped
    bad = tmp_path / "perturbed.alg"
    bad.write_text(perturbed)
    out_bad = _run_cli("verify", str(bad))
    assert out_bad.returncode == 1
    assert "FAIL C_p_C_p" in out_bad.stdout

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert _run_cli("report", "--json", str(a)).returncode == 0
    assert _run_cli("report", "--json", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["pass"] is True
    _stamp("criterion 8 (CLI verify/report behavior)", t0, 120.0)
