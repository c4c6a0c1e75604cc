"""Every bound regime's report, error text and CLI output, pinned.

The reference values were recorded from the per-regime implementations
that preceded the shared assembly in ``spectral``.  Ints, strings, bools and
the constants' key order (which ``BoundReport.lines`` prints) compare
exactly, floats at rel=1e-12.  The ``rot`` rows are a cover with trivial
kernel (short = inf) and the ``r0`` rows a scalar symbol (R = 0): both use
the unbounded degree, and the ``rot`` rows are the only values recorded
after that case was fixed (the raw, eig_count, ns and sublog regimes raised
``OverflowError`` on them before).
"""

import json
import math
import shlex
from types import SimpleNamespace

import numpy as np
import pytest

from l2growth import (CongruenceSubgroup, DensityEstimate, FreeAbelian,
                      GroupRingElement, IntegralMatrixGroup, LatticeSubgroup,
                      betti_bound_general, certify_gap,
                      cosine_density_closed_form, density_zn, eig_count_bound,
                      gap_bound, ns_bound, quotient, sublog_bound,
                      two_cell_complex, uniform_gap_exponent)
from l2growth import cli, spectral
from l2growth.cli import main
from l2growth.document import parse_complex
from l2growth.stripes import StripeSpec, glue_stripe
from l2growth.errors import (GapNotVerified, HypothesisUnverified,
                             LambdaAboveGap, ShortTooSmall)
from conftest import COMPLEXES, cyclic_quotient as cyc, diag_quotient as diag

INF = math.inf


@pytest.fixture(scope="module")
def o(circle, gap_complex, zero_complex, torus2, stripe_complex, z_one):
    rot = IntegralMatrixGroup(2, [[[0, -1], [1, 0]]])
    rot_cx = two_cell_complex(rot, GroupRingElement(rot, {rot.identity: 2,
                                                          rot.generators[0]: -1}))
    r0_cx = two_cell_complex(z_one, GroupRingElement(z_one, {(0,): 2}))
    circle_doc = parse_complex(COMPLEXES / "circle.json")
    d_torus3 = density_zn(torus2, 1, sample_count=65536, seed=3)
    grid = np.geomspace(8e-6, 8.0, 200)
    return SimpleNamespace(
        circle=circle, gap=gap_complex, zero=zero_complex, torus2=torus2,
        stripe=stripe_complex, rot_cx=rot_cx, r0_cx=r0_cx, circle_doc=circle_doc,
        rot_q=quotient(rot, CongruenceSubgroup(5)),
        closed52=cosine_density_closed_form(5, 2),
        closed21=cosine_density_closed_form(2, 1),
        d_stripe6=density_zn(stripe_complex, 3, sample_count=4096, seed=6),
        d_stripe5=density_zn(stripe_complex, 3, sample_count=8192, seed=5),
        d_gap=density_zn(gap_complex, 1, sample_count=4096, seed=0),
        d_torus3=d_torus3,
        c_torus3=float(np.max(d_torus3.to_grid(grid) / grid)) * 1.05,
        d_torus4=density_zn(torus2, 1, sample_count=4096, seed=4),
        d_r0=density_zn(r0_cx, 1, sample_count=4096, seed=0),
        d_circle_doc=density_zn(circle_doc, 1, sample_count=65536, seed=0),
        d_circle_doc16=density_zn(circle_doc, 1, sample_count=16384, seed=0),
        cert=certify_gap(gap_complex, 1, grid_per_dim=4096),
        ones=DensityEstimate.from_function(
            lambda lam: np.ones_like(np.asarray(lam, float)), K=2.0, a=1),
        heavy=DensityEstimate.from_function(
            lambda lam: np.clip(np.asarray(lam, float), 0, 4.0) ** 0.05 * 0.9,
            K=4.0, a=1),
        atom9=DensityEstimate.from_function(
            lambda lam: np.where(np.asarray(lam, float) >= 0, 0.5, 0.0), K=9.0, a=1),
    )


def _lattice(rows):
    return quotient(FreeAbelian(2), LatticeSubgroup(rows))


CALLS = {
    "raw stripe": lambda o: betti_bound_general(o.stripe, diag(2, 3), 3, o.d_stripe6,
                                                z=0.25),
    "raw circle": lambda o: betti_bound_general(o.circle, cyc(40), 1, o.closed21, z=0.3),
    "gap closed": lambda o: gap_bound(o.gap, cyc(30), 1, 1.0, density=o.closed52),
    "gap sampled": lambda o: gap_bound(o.gap, cyc(30), 1, 1.0, density=o.d_gap),
    "gap certified": lambda o: gap_bound(o.gap, cyc(6), 1, 0.9, certificate=o.cert),
    "gap vacuous": lambda o: gap_bound(o.gap, cyc(5), 1, 1e-12, density=o.closed52),
    "gap notverified": lambda o: gap_bound(o.circle, cyc(5), 0, 1.0, density=o.closed21),
    "gap cert short": lambda o: gap_bound(o.gap, cyc(6), 1, 1.0, certificate=o.cert),
    "eig 12": lambda o: eig_count_bound(o.gap, cyc(12), 1, 2.0, 1.0, density=o.closed52),
    "eig 4": lambda o: eig_count_bound(o.gap, cyc(4), 1, 0.5, 1.0, density=o.closed52),
    "eig 10": lambda o: eig_count_bound(o.gap, cyc(10), 1, 1.0 - 1e-9, 1.0,
                                        density=o.closed52),
    "eig above": lambda o: eig_count_bound(o.gap, cyc(10), 1, 9.5, 1.0, density=o.closed52),
    "ns circle 5": lambda o: ns_bound(o.circle, cyc(5), 1, 0.5, 0.5, o.closed21),
    "ns circle 40": lambda o: ns_bound(o.circle, cyc(40), 1, 0.5, 0.5, o.closed21),
    "ns circle 500": lambda o: ns_bound(o.circle, cyc(500), 1, 0.5, 0.5, o.closed21),
    "ns torus": lambda o: ns_bound(o.torus2, _lattice([[7, 1], [0, 6]]), 1, 1.0,
                                   o.c_torus3, o.d_torus3),
    "ns rejected": lambda o: ns_bound(o.circle, cyc(9), 1, 2.0, 0.01, o.closed21),
    "ns short": lambda o: ns_bound(o.torus2, _lattice([[1, 0], [0, 9]]), 1, 1.0, 1.0,
                                   o.d_torus4),
    "ns nonpositive": lambda o: ns_bound(o.circle, cyc(40), 1, 0.5, -1.0, o.closed21),
    "ns fitted circle 40": lambda o: ns_bound(o.circle_doc, cyc(40), 1, 0.5, None,
                                              o.d_circle_doc),
    "ns fitted circle 50": lambda o: ns_bound(o.circle_doc, cyc(50), 1, 0.5, None,
                                              o.d_circle_doc16),
    "sublog circle": lambda o: sublog_bound(o.circle, cyc(100), 1, o.closed21),
    "sublog short": lambda o: sublog_bound(o.circle, cyc(2), 1, o.closed21),
    "sublog stripe": lambda o: sublog_bound(o.stripe, diag(5, 7), 3, o.d_stripe5),
    "sublog vanishing": lambda o: sublog_bound(o.zero, cyc(50), 1, o.ones),
    "sublog heavy": lambda o: sublog_bound(o.circle, cyc(100), 1, o.heavy),
    "sublog no density": lambda o: sublog_bound(o.rot_cx, o.rot_q, 1),
    "sublog atom": lambda o: sublog_bound(o.rot_cx, o.rot_q, 1, o.atom9),
}


def _unbounded(o, cover):
    """(complex, quotient, density) of the short = inf or the R = 0 cover."""
    if cover == "rot":
        return o.rot_cx, o.rot_q, o.closed52
    return o.r0_cx, cyc(7), o.d_r0


UNBOUNDED_CALLS = {
    "raw": lambda cx, qt, d: betti_bound_general(cx, qt, 1, d, z=0.25),
    "gap": lambda cx, qt, d: gap_bound(cx, qt, 1, 1.0, density=d),
    "eig": lambda cx, qt, d: eig_count_bound(cx, qt, 1, 0.5, 1.0, density=d),
    "ns": lambda cx, qt, d: ns_bound(cx, qt, 1, 0.5, 1.0, d),
    "sublog": lambda cx, qt, d: sublog_bound(cx, qt, 1, d),
}
for _cover in ("rot", "r0"):
    for _regime, _call in UNBOUNDED_CALLS.items():
        CALLS[f"{_cover} {_regime}"] = lambda o, c=_cover, f=_call: f(*_unbounded(o, c))


REPORTS = {
    "raw stripe": ("raw",
        {"a": 1, "index": 6, "short": 2, "R": 1, "K": 4.0, "n": 1, "z": 0.25,
         "mu_z": 0.333251953125, "tail": 1.4715177646857693, "direct_integral": 0.5},
        10.828618306864616, 3, True),
    "raw circle": ("raw",
        {"a": 1, "index": 40, "short": 40, "R": 1, "K": 4.0, "n": 39, "z": 0.3,
         "mu_z": 0.3690101195655454, "tail": 1.1167989910652299e-18,
         "direct_integral": 0.06632627780825061},
        14.760404782621816, 1, True),
    "gap closed": ("gap",
        {"a": 1, "index": 30, "short": 30, "R": 1, "K": 9.0, "lambda0": 1.0,
         "M": 0.6666666666666666, "gap_mode": "closed_form"},
        2.4733843469262697e-07, 0, True),
    "gap sampled": ("gap",
        {"a": 1, "index": 30, "short": 30, "R": 1, "K": 9.0, "lambda0": 1.0,
         "M": 0.6666666666666666, "gap_mode": "torus_quadrature(4096)"},
        2.4733843469262697e-07, 0, True),
    "gap certified": ("gap",
        {"a": 1, "index": 6, "short": 6, "R": 1, "K": 9.0, "lambda0": 0.9,
         "M": 0.6324555320336759, "gap_mode": "certified"},
        0.5397337255593034, 0, True),
    "gap vacuous": ("gap",
        {"a": 1, "index": 5, "short": 5, "R": 1, "K": 9.0, "lambda0": 1e-12,
         "M": 6.666666666666667e-07, "gap_mode": "closed_form"},
        19.999933333444446, 0, True),
    "eig 12": ("eig_count",
        {"a": 1, "index": 12, "short": 12, "R": 1, "K": 9.0, "lambda": 2.0, "lambda0": 1.0,
         "n": 11, "z": 0.1111111111111111, "gap_mode": "closed_form",
         "lambda_below_gap": False},
        26.54712395355139, 3, True),
    "eig 4": ("eig_count",
        {"a": 1, "index": 4, "short": 4, "R": 1, "K": 9.0, "lambda": 0.5, "lambda0": 1.0,
         "n": 3, "z": 0.1111111111111111, "gap_mode": "closed_form",
         "lambda_below_gap": True},
        2.4094117647058835, 0, True),
    "eig 10": ("eig_count",
        {"a": 1, "index": 10, "short": 10, "R": 1, "K": 9.0, "lambda": 0.999999999,
         "lambda0": 1.0, "n": 9, "z": 0.1111111111111111, "gap_mode": "closed_form",
         "lambda_below_gap": True},
        9.999999898749987, 0, True),
    "ns circle 5": ("ns",
        {"a": 1, "index": 5, "short": 5, "R": 1, "K": 4.0, "beta": 0.5, "C_density": 0.5,
         "C_density_mode": "given", "n": 4, "z": 0.06756370508224706,
         "C1": 2.360855882786642},
        3.7996509635498974, 1, True),
    "ns circle 40": ("ns",
        {"a": 1, "index": 40, "short": 40, "R": 1, "K": 4.0, "beta": 0.5, "C_density": 0.5,
         "C_density_mode": "given", "n": 39, "z": 0.003119807988256903,
         "C1": 1.1617326506062347},
        4.285491705994663, 1, True),
    "ns circle 500": ("ns",
        {"a": 1, "index": 500, "short": 500, "R": 1, "K": 4.0, "beta": 0.5,
         "C_density": 0.5, "C_density_mode": "given", "n": 499, "z": 4.788075982956546e-05,
         "C1": 0.8791872568820902},
        5.46380424664903, 1, True),
    "ns torus": ("ns",
        {"a": 2, "index": 42, "short": 7, "R": 1, "K": 8.0, "beta": 1.0,
         "C_density": 0.2903765926817501, "C_density_mode": "given", "n": 6,
         "z": 0.08917783321023336, "C1": 5.556429776675172},
        18.03410553104387, 2, True),
    "sublog circle": ("sublog",
        {"a": 1, "index": 100, "short": 100, "R": 1, "K": 4.0, "n": 99,
         "z": 0.00023728285445592763, "C_prime": 1.7857505508332479,
         "C": 1.7896563015800808},
        38.861892813980546, 1, True),
    # sublog reads no density over Z^n: the heavy one, which once failed the
    # sampled check of the universal estimate, answers as the closed form does
    "sublog heavy": ("sublog",
        {"a": 1, "index": 100, "short": 100, "R": 1, "K": 4.0, "n": 99,
         "z": 0.00023728285445592763, "C_prime": 1.7857505508332479,
         "C": 1.7896563015800808},
        38.861892813980546, 1, True),
    "sublog stripe": ("sublog",
        {"a": 1, "index": 35, "short": 5, "R": 1, "K": 4.0, "n": 4,
         "z": 0.006668121236972451, "C_prime": 3.4156734570899676, "C": 3.9654740814891194},
        86.23606526219577, 7, True),
    "ns fitted circle 40": ("ns",
        {"a": 1, "index": 40, "short": 40, "R": 1, "K": 4.0, "beta": 0.5,
         "C_density": 0.525000000001, "C_density_mode": "fitted", "n": 39,
         "z": 0.003119807988256903, "C1": 1.1920156902473147},
        4.397202188734761, 1, True),
    "ns fitted circle 50": ("ns",
        {"a": 1, "index": 50, "short": 50, "R": 1, "K": 4.0, "beta": 0.5,
         "C_density": 0.525000000001, "C_density_mode": "fitted", "n": 49,
         "z": 0.0021888720096279453, "C1": 1.1495456182529151},
        4.497048904394525, 1, True),
    "rot raw": ("raw",
        {"a": 1, "index": 4, "short": INF, "R": 1, "K": 9.0, "n": 50, "z": 0.25,
         "mu_z": 0.2587081302345013, "tail": 7.714999391855671e-22,
         "direct_integral": 9.907314560884047e-08},
        1.0348325209380052, 0, True),
    "rot gap": ("gap",
        {"a": 1, "index": 4, "short": INF, "R": 1, "K": 9.0, "lambda0": 1.0,
         "M": 0.6666666666666666, "gap_mode": "closed_form"},
        0.0, 0, True),
    "rot eig": ("eig_count",
        {"a": 1, "index": 4, "short": INF, "R": 1, "K": 9.0, "lambda": 0.5, "lambda0": 1.0,
         "n": 50, "z": 0.1111111111111111, "gap_mode": "closed_form",
         "lambda_below_gap": True},
        2.8627809067222935e-10, 0, True),
    "rot ns": ("ns",
        {"a": 1, "index": 4, "short": INF, "R": 1, "K": 9.0, "beta": 0.5, "C_density": 1.0,
         "C_density_mode": "given", "n": 50, "z": 0.0021207592441913597, "C1": INF},
        0.7126204223185709, 0, True),
    "rot sublog": ("sublog",
        {"a": 1, "index": 4, "short": INF, "R": 1, "K": 9.0, "n": 50,
         "z": 0.0007442580166017728, "C_prime": 2.739581938574942, "C": INF},
        2.8011920530872363, 0, True),
    "r0 raw": ("raw",
        {"a": 1, "index": 7, "short": 7, "R": 0, "K": 4.0, "n": 50, "z": 0.25, "mu_z": 0.0,
         "tail": 7.714999391855671e-22, "direct_integral": 5.571822276392611e-24},
        5.40049957429897e-21, 0, True),
    "r0 gap": ("gap",
        {"a": 1, "index": 7, "short": 7, "R": 0, "K": 4.0, "lambda0": 1.0, "M": INF,
         "gap_mode": "torus_quadrature(4096)"},
        0.0, 0, True),
    "r0 eig": ("eig_count",
        {"a": 1, "index": 7, "short": 7, "R": 0, "K": 4.0, "lambda": 0.5, "lambda0": 1.0,
         "n": 50, "z": 0.25, "gap_mode": "torus_quadrature(4096)", "lambda_below_gap": True},
        1.4997417653956408e-16, 0, True),
    "r0 ns": ("ns",
        {"a": 1, "index": 7, "short": 7, "R": 0, "K": 4.0, "beta": 0.5, "C_density": 1.0,
         "C_density_mode": "given", "n": 50, "z": 0.0021207592441913597,
         "C1": 0.4752140413509129},
        0.9247238260383327, 0, True),
    "r0 sublog": ("sublog",
        {"a": 1, "index": 7, "short": 7, "R": 0, "K": 4.0, "n": 50,
         "z": 0.0007442580166017728, "C_prime": 1.9548209008920907, "C": 0.9723628479058642},
        3.4978695900452754, 0, True),
}

ERRORS = {
    "gap notverified": (GapNotVerified,
        "density has mass below lambda0=1.0"),
    "gap cert short": (GapNotVerified,
        "certified spectral floor 0.996932 is below lambda0=1.0"),
    "eig above": (LambdaAboveGap,
        "lam=9.5 is not below the spectral bound K=9.0"),
    "ns rejected": (HypothesisUnverified,
        "F(4e-07) = 0.000201317 is not below C*lambda^beta = 1.6e-15"),
    "ns short": (ShortTooSmall,
        "degree n=0 is too small for decay exponent beta=1.0"),
    "ns nonpositive": (HypothesisUnverified,
        "beta and C must be positive"),
    "sublog short": (ShortTooSmall,
        "short=2 must be at least 3"),
    "sublog vanishing": (HypothesisUnverified,
        "b^(2)_1 = 1 > 0: nonzero harmonic mass"),
    "sublog no density": (HypothesisUnverified,
        "F(0) = 0 is not shown: no density, or an atom at zero"),
    "sublog atom": (HypothesisUnverified,
        "F(0) = 0 is not shown: no density, or an atom at zero"),
}

UNIFORM = {"exponent": 0.3706840391117503, "d_fit": 0.9439739413323746, "c_fit": 4.0,
           "m_const": 0.6666666666666666, "spread": 1.1063739988479353}
UNIFORM_MEMBERS = [
    {"index": 24, "short": 3, "betti": 0, "bound": 12.99218719071482, "satisfied": True,
     "gap_mode": "closed_form"},
    {"index": 120, "short": 5, "betti": 0, "bound": 23.592789543921295, "satisfied": True,
     "gap_mode": "closed_form"},
    {"index": 336, "short": 6, "betti": 0, "bound": 34.55680949623713, "satisfied": True,
     "gap_mode": "closed_form"},
]

# (command line, exit code, stdout, stderr); complex documents under complexes/
CLI = [
    ("bounds gap.json --subgroup 30 --dim 1 --regime gap --lambda0 1 --samples 4096", 0,
     "regime=gap a=1 index=30 short=30 R=1 K=9 lambda0=1 M=0.666667 "
     "gap_mode=torus_quadrature(4096) bound=2.47338e-07 betti=0 SATISFIED\n", ""),
    ("bounds circle.json --subgroup 40 --dim 1 --regime ns --beta 0.5", 0,
     "regime=ns a=1 index=40 short=40 R=1 K=4 beta=0.5 C_density=0.525 "
     "C_density_mode=fitted n=39 z=0.00311981 C1=1.19202 bound=4.3972 betti=1 "
     "SATISFIED\n", ""),
    ("bounds circle.json --subgroup 50 --dim 1 --regime ns --beta 0.5 --c-density 0.5 "
     "--samples 16384", 0,
     "regime=ns a=1 index=50 short=50 R=1 K=4 beta=0.5 C_density=0.5 "
     "C_density_mode=given n=49 z=0.00218887 C1=1.11965 bound=4.38009 betti=1 "
     "SATISFIED\n", ""),
    ("bounds circle.json --subgroup 100 --dim 1 --regime sublog --samples 16384", 0,
     "regime=sublog a=1 index=100 short=100 R=1 K=4 n=99 z=0.000237283 C_prime=1.78575 "
     "C=1.78966 bound=38.8619 betti=1 SATISFIED\n", ""),
    ("bounds torus2.json --subgroup '4 0; 0 5' --dim 1 --regime raw --samples 16384", 0,
     "regime=raw a=2 index=20 short=4 R=1 K=8 n=3 z=0.25 mu_z=0.184998 tail=0.199148 "
     "direct_integral=0.132655 bound=15.3658 betti=2 SATISFIED\n", ""),
    ("bounds circle.json --subgroup 40 --dim 1 --regime ns", 1,
     "", "error: ns regime requires --beta\n"),
    ("bounds circle.json --subgroup 40 --dim 1 --regime ns --beta -1", 1,
     "", "error: beta and C must be positive\n"),
    ("bounds gap.json --family '5|30|200' --dim 1 --regime gap --lambda0 1 "
     "--samples 4096", 0,
     "index,short,betti,bound\n5,5,0,0.7134798669\n30,30,0,2.473384347e-07\n"
     "200,200,0,9.93479858e-56\n", ""),
    ("bounds circle.json --family '8|40|300' --dim 1 --regime ns --beta 0.5 "
     "--samples 16384", 0,
     "index,short,betti,bound\n8,8,1,3.869148683\n40,40,1,4.397202189\n"
     "300,300,1,5.374550314\n", ""),
    ("bounds circle.json --family '8|40|300' --dim 1 --regime ns --beta 0.5 "
     "--c-density 0.5 --samples 16384", 0,
     "index,short,betti,bound\n8,8,1,3.793747045\n40,40,1,4.285491706\n"
     "300,300,1,5.214175964\n", ""),
    ("bounds circle.json --family '5|40|300' --dim 1 --regime sublog --samples 16384", 0,
     "index,short,betti,bound\n5,5,1,12.31943789\n40,40,1,22.15477911\n"
     "300,300,1,83.62520058\n", ""),
    ("bounds torus2.json --family '2 0; 0 3|5 0; 0 7' --dim 1 --regime raw --z 0.25 "
     "--samples 16384", 0,
     "index,short,betti,bound\n6,2,2,19.87818388\n35,5,2,18.07820799\n", ""),
]


def _same(got, want):
    if isinstance(want, float):
        assert isinstance(got, float) and got == pytest.approx(want, rel=1e-12)
    else:
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("tag", list(REPORTS))
def test_report_pinned(o, tag):
    regime, constants, bound, betti, satisfied = REPORTS[tag]
    rep = CALLS[tag](o)
    assert rep.regime == regime
    assert list(rep.constants) == list(constants)
    for key, want in constants.items():
        _same(rep.constants[key], want)
    _same(rep.bound, bound)
    _same(rep.betti, betti)
    _same(rep.satisfied, satisfied)


@pytest.mark.parametrize("tag", list(ERRORS))
def test_error_text_pinned(o, tag):
    exc, message = ERRORS[tag]
    with pytest.raises(exc) as info:
        CALLS[tag](o)
    assert str(info.value) == message


@pytest.mark.parametrize("cover", ["rot", "r0"])
def test_unbounded_degree_in_every_regime(o, cover):
    reps = {regime: CALLS[f"{cover} {regime}"](o) for regime in UNBOUNDED_CALLS}
    key, value = ("short", INF) if cover == "rot" else ("R", 0)
    assert all(r.constants[key] == value for r in reps.values())
    for regime in ("raw", "eig", "ns", "sublog"):
        assert reps[regime].constants["n"] == spectral._UNBOUNDED_DEGREE
    assert all(r.satisfied and r.betti == 0 for r in reps.values())


def test_uniform_gap_exponent_pinned(sanov_group):
    gap_mat = two_cell_complex(
        sanov_group, GroupRingElement(sanov_group, {sanov_group.identity: 2,
                                                    sanov_group.generators[0]: -1}))
    rep = uniform_gap_exponent(sanov_group, [CongruenceSubgroup(m) for m in (3, 5, 7)],
                               1.0, gap_mat, 1, density=cosine_density_closed_form(5, 2))
    for key, want in UNIFORM.items():
        _same(getattr(rep, key), want)
    assert len(rep.members) == len(UNIFORM_MEMBERS)
    for got, want in zip(rep.members, UNIFORM_MEMBERS):
        assert list(got) == list(want)
        for key in want:
            _same(got[key], want[key])


@pytest.mark.parametrize("command, code, out, err", CLI, ids=[c[0] for c in CLI])
def test_cli_bounds_output_pinned(capsys, command, code, out, err):
    argv = shlex.split(command)
    argv[1] = str(COMPLEXES / argv[1])
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (out, err)


def test_ns_fitted_constant_through_the_api(o, capsys):
    rep = CALLS["ns fitted circle 40"](o)
    assert rep.constants["C_density_mode"] == "fitted"
    assert rep.constants["C_density"] == pytest.approx(0.525000000001, rel=1e-12)
    given = ns_bound(o.circle_doc, cyc(40), 1, 0.5, rep.constants["C_density"],
                     o.d_circle_doc)
    assert given.constants["C_density_mode"] == "given"
    assert main(["bounds", str(COMPLEXES / "circle.json"), "--subgroup", "40", "--dim", "1",
                 "--regime", "ns", "--beta", "0.5"]) == 0
    printed = capsys.readouterr().out.split()
    assert "C_density=0.525" in printed
    assert printed == rep.lines()


def test_a_dimension_without_cells_bounds_zero(torus2):
    cx = glue_stripe(StripeSpec(base=torus2, gamma=(1, 0), dim=4))
    assert cx.cells == [1, 2, 1, 0, 1, 1]
    density = density_zn(cx, 3, sample_count=1000)
    quot = diag(3, 4)
    for rep in (betti_bound_general(cx, quot, 3, density, 0.25),
                ns_bound(cx, quot, 3, 0.5, 0.5, density),
                ns_bound(cx, quot, 3, 0.5, None, density)):
        assert (rep.constants["a"], rep.bound, rep.betti, rep.satisfied) == (0, 0, 0, True)


@pytest.mark.parametrize("regime, line", [
    ("raw --z 0.25", "regime=raw a=0 index=7 short=7 R=0 K=2 n=50 z=0.25 mu_z=0 "
     "tail=7.715e-22 direct_integral=0 bound=0 betti=0 SATISFIED"),
    ("ns --beta 0.5", "regime=ns a=0 index=7 short=7 R=0 K=2 beta=0.5 C_density=1e-12 "
     "C_density_mode=fitted n=50 z=0.00212076 C1=0 bound=0 betti=0 SATISFIED"),
    ("ns --beta 0.5 --c-density 0.5", "regime=ns a=0 index=7 short=7 R=0 K=2 beta=0.5 "
     "C_density=0.5 C_density_mode=given n=50 z=0.00212076 C1=0 bound=0 betti=0 SATISFIED"),
], ids=["raw", "ns fitted", "ns given"])
def test_cli_bounds_on_a_dimension_without_cells(capsys, tmp_path, regime, line):
    doc = json.loads((COMPLEXES / "circle.json").read_text())
    doc["cells"] = [1, 1, 0]
    path = tmp_path / "empty2.json"
    path.write_text(json.dumps(doc))
    argv = ["bounds", str(path), "--subgroup", "7", "--dim", "2", "--regime"]
    assert main(argv + regime.split()) == 0
    assert capsys.readouterr() == (line + "\n", "")


# a density for another operator, whose K or a differs from the Laplacian's, is
# refused in every regime that reads one (sublog reads one only off Z^n)
MISMATCHED = {
    "raw": (lambda o: betti_bound_general(o.circle, cyc(40), 1, o.closed52, z=0.3),
            "density for K=9, a=1 given for a Laplacian with K=4, a=1"),
    # this pair once printed gap_mode=closed_form bound=2.10156e-24 betti=1 VIOLATED
    "gap": (lambda o: gap_bound(o.circle, cyc(60), 1, 1.0, density=o.closed52),
            "density for K=9, a=1 given for a Laplacian with K=4, a=1"),
    "eig_count": (lambda o: eig_count_bound(o.gap, cyc(12), 1, 2.0, 1.0, density=o.closed21),
                  "density for K=4, a=1 given for a Laplacian with K=9, a=1"),
    "ns": (lambda o: ns_bound(o.torus2, _lattice([[7, 1], [0, 6]]), 0, 1.0, 1.0, o.d_torus4),
           "density for K=8, a=2 given for a Laplacian with K=8, a=1"),
    "sublog": (lambda o: sublog_bound(o.rot_cx, o.rot_q, 1, o.closed21),
               "density for K=4, a=1 given for a Laplacian with K=9, a=1"),
}


@pytest.mark.parametrize("regime", list(MISMATCHED))
def test_a_density_for_another_operator_is_refused(o, regime):
    call, message = MISMATCHED[regime]
    with pytest.raises(HypothesisUnverified) as info:
        call(o)
    assert str(info.value) == message


def test_uniform_gap_exponent_refuses_a_density_for_another_operator(sanov_group):
    gap_mat = two_cell_complex(
        sanov_group, GroupRingElement(sanov_group, {sanov_group.identity: 2,
                                                    sanov_group.generators[0]: -1}))
    with pytest.raises(HypothesisUnverified,
                       match="^density for K=4, a=1 given for a Laplacian with K=9, a=1$"):
        uniform_gap_exponent(sanov_group, [CongruenceSubgroup(m) for m in (3, 5, 7)],
                             1.0, gap_mat, 1, density=cosine_density_closed_form(2, 1))


def test_sublog_over_z_n_reads_no_density(o):
    # any density, even one for another operator, is left unread over Z^n
    for density in (None, o.closed52, o.ones):
        rep = sublog_bound(o.circle, cyc(100), 1, density)
        assert (rep.bound, rep.betti) == (REPORTS["sublog circle"][2], 1)


@pytest.mark.parametrize("command, code, out, err",
                         [c for c in CLI if "--regime sublog" in c[0]],
                         ids=[c[0] for c in CLI if "--regime sublog" in c[0]])
def test_cli_sublog_runs_no_quadrature(monkeypatch, capsys, command, code, out, err):
    def refuse(*args, **kwargs):
        raise AssertionError("the sublog regime ran the torus quadrature")

    monkeypatch.setattr(spectral, "density_zn", refuse)
    monkeypatch.setattr(cli, "density_zn", refuse)
    test_cli_bounds_output_pinned(capsys, command, code, out, err)
