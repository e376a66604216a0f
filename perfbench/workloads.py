"""Seeded inputs of the four workloads.

Every coefficient is drawn from the seed as a `Sym`: the expression text the
program parses and the same polynomial as a `hill.Trig` for the reference.
Amplitudes come from narrow uniform ranges and phases from [0, 2 pi), so that
every seed gives the same amount of work (the same grids, ray brackets and
iteration counts) while the numbers the checks compare change with it.
This module never imports the program.
"""

from __future__ import annotations

import math

import numpy as np

from hill import Trig

WORKLOADS = ("speed-floquet-1d", "speed-steady-1d", "eigen-floquet-2d", "cauchy-1d")


class Sym:
    """A real trigonometric polynomial in (t, x) as expression text and Trig."""

    def __init__(self, text: str, trig: Trig):
        self.text, self.trig = text, trig

    @classmethod
    def const(cls, value: float) -> "Sym":
        return cls(repr(value), Trig.const(value))

    @classmethod
    def wave(cls, fn: str, m: int, j: int, phase: float) -> "Sym":
        """fn(2 pi (m t + j x) + phase) with fn = cos or sin."""
        arg = " + ".join(f"{c}*2*pi*{v}" for c, v in ((m, "t"), (j, "x")) if c)
        trig = (Trig.cos if fn == "cos" else Trig.sin)(m, j, phase)
        return cls(f"{fn}({arg} + {phase!r})", trig)

    def __add__(self, other: "Sym") -> "Sym":
        return Sym(f"{self.text} + {other.text}", self.trig + other.trig)

    def __mul__(self, other: "Sym") -> "Sym":
        return Sym(f"({self.text})*({other.text})", self.trig * other.trig)


def _draw(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


def _phase(rng: np.random.Generator) -> float:
    return round(float(rng.uniform(0.0, 2.0 * math.pi)), 6)


def _c(v: float) -> Sym:
    return Sym.const(v)


def _coeffs(A: Sym, q: Sym, mu: Sym) -> dict:
    return {"A": A.text, "q": q.text, "mu": mu.text, "_trig": (A.trig, q.trig, mu.trig)}


# --- workload inputs ----------------------------------------------------------
#
# Each function below returns the spec the worker runs (JSON; expressions only) and
# keeps the Trig polynomials under "_trig" keys, which the worker never sees.


def speed_floquet_1d(rng):
    """A space-time periodic growth rate and its time average, solved the way
    the temporal-average experiment solves them."""
    A = _c(1.0) + _c(_draw(rng, 0.1, 0.2)) * Sym.wave("cos", 0, 1, _phase(rng))
    mu = _c(1.0) + _c(_draw(rng, 0.4, 0.6)) * Sym.wave("cos", 0, 1, _phase(rng)) * (
        _c(1.0) + _c(_draw(rng, 0.4, 0.6)) * Sym.wave("sin", 1, 0, _phase(rng)))
    cs = _coeffs(A, _c(0.0), mu)
    ops = [{"name": "mu", "coeffs": cs, "average": False},
           {"name": "time-average", "coeffs": cs, "average": True}]
    return {"grid": {"n": 128, "nt": 32}, "ops": ops,
            "speed": {"route": "floquet", "richardson": True, "tol": 1e-7}}


def speed_steady_1d(rng):
    """Theorem (2) kappa sweep and theorem (3) gradient-drift sweep at the
    shipped n = 512."""
    A = _c(1.0) + _c(_draw(rng, 0.4, 0.6)) * Sym.wave("cos", 0, 1, _phase(rng))
    mu = _c(1.0) + _c(_draw(rng, 0.3, 0.5)) * Sym.wave("cos", 0, 1, _phase(rng))
    kappa_set = _coeffs(A, _c(0.0), mu)
    mu0 = _draw(rng, 0.9, 1.1)
    gamma, phase = _draw(rng, 0.25, 0.35), _phase(rng)
    # q = grad Q for Q = gamma cos(2 pi x + phase)
    q = _c(round(-2.0 * math.pi * gamma, 9)) * Sym.wave("sin", 0, 1, phase)
    drift_set = _coeffs(_c(1.0), q, _c(mu0))
    ops = [{"name": f"kappa={k:g}", "coeffs": kappa_set, "kappa": k, "drift_B": 1.0}
           for k in (0.5, 1.0, 2.0, 4.0)]
    ops += [{"name": f"B={b:g}", "coeffs": drift_set, "kappa": 1.0, "drift_B": b,
             "mu0": mu0} for b in (1.0, 2.0, 5.0, 10.0)]
    return {"grid": {"n": 512}, "ops": ops, "speed": {}}


def eigen_floquet_2d(rng):
    """Full 2D Floquet eigenvalues of two space-time periodic shear flows
    q = (q1(t, y), 0), A = a(t, y) I, at fixed probe wavevectors; each flow
    has one probe with lam_y = 0 and one with lam_y != 0."""
    ops = []
    for i, probes in enumerate((((-0.8, 0.0), (0.0, -0.8)), ((0.0, 0.0), (-0.6, 0.5)))):
        a = (_c(1.0) + _c(_draw(rng, 0.15, 0.25)) * Sym.wave("cos", 0, 1, _phase(rng))
             + _c(_draw(rng, 0.05, 0.15)) * Sym.wave("cos", 1, 0, _phase(rng)))
        q1 = _c(_draw(rng, 0.8, 1.2)) * Sym.wave("cos", 0, 1, _phase(rng)) * (
            _c(1.0) + _c(_draw(rng, 0.3, 0.5)) * Sym.wave("sin", 1, 0, _phase(rng)))
        mu = _c(1.0) + _c(_draw(rng, 0.4, 0.6)) * Sym.wave("cos", 0, 1, _phase(rng)) * (
            _c(1.0) + _c(_draw(rng, 0.4, 0.6)) * Sym.wave("sin", 1, 0, _phase(rng)))
        shear = {"a": a.text, "q1": q1.text, "mu": mu.text,
                 "_trig": (a.trig, q1.trig, mu.trig)}
        ops += [{"name": f"flow{i}:lam=({l1:g},{l2:g})", "shear": shear, "lam": [l1, l2]}
                for l1, l2 in probes]
    return {"grid": {"n": [32, 32], "nt": 32}, "ops": ops}


def cauchy_1d(rng):
    """The simulate-validate front runs plus one with a space-time periodic
    growth rate, with 32 points per cell and 25 steps per period (64 and 100
    in simulate-validate) so that a round is short.  Domain spans (cells left and right of the initial bump) are fixed per
    case, wide enough for the fastest fronts the amplitude ranges allow."""
    a0, m0 = _draw(rng, 0.9, 1.1), _draw(rng, 0.9, 1.1)
    q0 = _draw(rng, 0.8, 1.2)
    cases = [
        ("homogeneous", _coeffs(_c(a0), _c(0.0), _c(m0)), (100, 112)),
        ("periodic-mu", _coeffs(_c(1.0), _c(0.0), _c(1.0) + _c(_draw(rng, 0.4, 0.6))
                                * Sym.wave("cos", 0, 1, _phase(rng))), (90, 108)),
        ("constant-drift", _coeffs(_c(1.0), _c(q0), _c(1.0)), (90, 158)),
        ("space-time-mu", _coeffs(_c(1.0), _c(0.0), _c(1.0) + _c(_draw(rng, 0.4, 0.6))
                                  * Sym.wave("cos", 1, 0, _phase(rng))
                                  * Sym.wave("cos", 0, 1, _phase(rng))), (90, 108)),
    ]
    ops = [{"name": name, "coeffs": cs, "span": list(span)} for name, cs, span in cases]
    return {"grid": {"n": 32, "nt": 25}, "t_end": 40.0, "ops": ops}


INPUTS = {"speed-floquet-1d": speed_floquet_1d, "speed-steady-1d": speed_steady_1d,
            "eigen-floquet-2d": eigen_floquet_2d, "cauchy-1d": cauchy_1d}


def build(workload: str, seed: int) -> dict:
    spec = INPUTS[workload](np.random.default_rng([seed, WORKLOADS.index(workload)]))
    spec["workload"] = workload
    return spec


def strip_private(obj):
    """The spec as the worker receives it: without the reference polynomials."""
    if isinstance(obj, dict):
        return {k: strip_private(v) for k, v in obj.items() if not k.startswith("_")}
    if isinstance(obj, list):
        return [strip_private(v) for v in obj]
    return obj
