"""Checks of the worker's outputs against references made apart from it.

An operation fails when it raised, or when its output misses a check: its
value against the Hill reference or a closed form, the sandwich bounds of
every eigenvalue it reports, the same value in every round, or an inequality
of the paper that it takes part in (then every operation in the inequality
fails).  `correct` is false when an operation that did not raise gave a
wrong output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from hill import Trig, principal_k, ray_speed

# Agreement with the Hill reference, set by each workload's discretization
# (centred differences O(h^2), Crank-Nicolson O(dt^2)): four to six times the
# largest difference seen over seeds 1 to 10.
TOL_SPEED_FLOQUET = 1e-4   # n = 128, nt = 32 with Richardson in time
TOL_SPEED_STEADY = 2e-4    # n = 512
TOL_EIGEN_2D = 1e-3        # 32 x 32, nt = 32, no extrapolation
TOL_REDUCED = 1e-10        # full 2D against 1D shear-reduced: one discrete operator
SANDWICH_SLACK = 1e-12
TOL_THEOREM_1 = 1e-8       # as in the temporal-average experiment
MARGIN_THEOREM_2 = 1e-4    # as in the diffusion-monotone experiment
TOL_THEOREM_3 = 1e-6       # as in the potential-drift experiment
FRONT_TOL = 0.05           # as in the simulate-validate experiment
U_SLACK = 1e-8
STEADY_MODES = {"space_modes": 32}


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    report: list = field(default_factory=list)


def _sandwich(records) -> list[str]:
    return [f"k={k!r} outside [{lo!r}, {up!r}]" for k, lo, up in records
            if not lo - SANDWICH_SLACK * max(1.0, abs(k)) <= k <= up + SANDWICH_SLACK * max(1.0, abs(k))]


def _speed_closed_or_hill(a: Trig, q: Trig, mu: Trig) -> float:
    if all(m == 0 and j == 0 for f in (a, q, mu) for m, j in f.c):
        return 2.0 * math.sqrt(a.mean() * mu.mean()) + q.mean()
    return ray_speed(a, q, mu, 1)[0]


# --- references, one per operation ---------------------------------------------


def _refs_speed_floquet(spec):
    out = []
    for op in spec["ops"]:
        a, q, mu = op["coeffs"]["_trig"]
        out.append(ray_speed(a, q, mu.time_mean() if op["average"] else mu, 1)[0])
    return out


def _refs_speed_steady(spec):
    out = []
    for op in spec["ops"]:
        a, q, mu = op["coeffs"]["_trig"]
        out.append(ray_speed(op["kappa"] * a, op["drift_B"] * q, mu, 1, **STEADY_MODES)[0])
    return out


def _refs_eigen_2d(spec):
    out = []
    for op in spec["ops"]:
        a, q1, mu = op["shear"]["_trig"]
        l1, l2 = op["lam"]
        # q = (q1, 0) and A = a I on functions of (t, y): the x-wavenumber l1
        # enters only through the growth rate, mu + l1^2 a - l1 q1
        out.append(principal_k(a, Trig.const(0.0), mu + l1 * l1 * a - l1 * q1, l2))
    return out


def _refs_cauchy(spec):
    return [_speed_closed_or_hill(*op["coeffs"]["_trig"]) for op in spec["ops"]]


# --- per-operation checks: output, reference -> list of problems --------------


def _check_speed(tol):
    def check(out, ref):
        problems = _sandwich(out["records"])
        if abs(out["c_star"] - ref) > tol:
            problems.append(f"c*={out['c_star']!r} vs Hill {ref!r}")
        return problems
    return check


def _check_eigen_2d(out, ref):
    problems = _sandwich([(out["k"], out["lower"], out["upper"])])
    if abs(out["k"] - ref) > TOL_EIGEN_2D:
        problems.append(f"k={out['k']!r} vs Hill {ref!r}")
    return problems


def _check_front(out, ref):
    problems = []
    ratio = out["speed"] / ref
    if not 1.0 - FRONT_TOL <= ratio < 1.0:
        problems.append(f"front speed {out['speed']!r} is {ratio:.4f} of c*={ref!r}; "
                        f"expected in [{1 - FRONT_TOL:g}, 1)")
    if out["u_min"] < 0.0 or out["u_max"] > 1.0 + U_SLACK:
        problems.append(f"solution left [0, 1]: [{out['u_min']!r}, {out['u_max']!r}]")
    return problems


# --- inequalities across operations: outputs -> [(op indices, problem)] ------


def _theorem_1(spec, outs, result):
    found = []
    for i in range(0, len(outs), 2):  # (mu, time average) pairs
        if "error" in outs[i] or "error" in outs[i + 1]:
            continue
        c_mu, c_avg = outs[i]["c_star"], outs[i + 1]["c_star"]
        if c_mu < c_avg - TOL_THEOREM_1:
            found.append(((i, i + 1), f"theorem 1: c*(mu)={c_mu!r} < c*(avg)={c_avg!r}"))
    return found


def _theorems_2_3(spec, outs, result):
    found = []
    ok = [i for i, o in enumerate(outs) if "error" not in o]
    kappa = [i for i in ok if "mu0" not in spec["ops"][i]]
    for i, j in zip(kappa, kappa[1:]):
        if not outs[j]["c_star"] > outs[i]["c_star"] + MARGIN_THEOREM_2:
            found.append(((i, j), "theorem 2: c* not increasing in kappa"))
    for i in ok:
        op = spec["ops"][i]
        if "mu0" in op and outs[i]["c_star"] > 2.0 * math.sqrt(op["mu0"]) + TOL_THEOREM_3:
            found.append(((i,), f"theorem 3: c*={outs[i]['c_star']!r} > 2 sqrt(mu0)"))
    return found


def _shear_reduction(spec, outs, result):
    found = []
    for i, (o, kr, op) in enumerate(zip(outs, result["k_reduced"], spec["ops"])):
        # with lam_y = 0 the two discrete operators are the same matrix; with
        # lam_y != 0 the 2D path takes div(A lam) by centred differences (the
        # lifted fields carry no expression) and the 1D path symbolically
        tol = TOL_REDUCED if op["lam"][1] == 0 else TOL_EIGEN_2D
        if "error" not in o and abs(o["k"] - kr) > tol:
            found.append(((i,), f"full 2D k={o['k']!r} vs reduced {kr!r}"))
    return found


WORKLOAD_CHECKS = {
    "speed-floquet-1d": (_refs_speed_floquet, _check_speed(TOL_SPEED_FLOQUET), _theorem_1, "c_star"),
    "speed-steady-1d": (_refs_speed_steady, _check_speed(TOL_SPEED_STEADY), _theorems_2_3, "c_star"),
    "eigen-floquet-2d": (_refs_eigen_2d, _check_eigen_2d, _shear_reduction, "k"),
    "cauchy-1d": (_refs_cauchy, _check_front, lambda spec, outs, result: [], "speed"),
}


def check(spec: dict, result: dict) -> Verdict:
    refs_fn, op_check, relations, key = WORKLOAD_CHECKS[spec["workload"]]
    refs = refs_fn(spec)
    names, rounds = result["names"], result["rounds"]
    verdict = Verdict(attempted=len(names) * len(rounds))
    problems: dict[str, None] = {}  # insertion-ordered set
    first = rounds[0]["outputs"]
    for outs in (r["outputs"] for r in rounds):
        raised = {i for i, o in enumerate(outs) if "error" in o}
        wrong = set()
        for i, (o, ref) in enumerate(zip(outs, refs)):
            if i in raised:
                problems[f"{names[i]}: {o['error']}"] = None
                continue
            found = op_check(o, ref)
            if "error" not in first[i] and o[key] != first[i][key]:
                found.append(f"{key}={o[key]!r} differs from the first round's {first[i][key]!r}")
            for p in found:
                problems[f"{names[i]}: {p}"] = None
            if found:
                wrong.add(i)
        for idx, p in relations(spec, outs, result):
            wrong.update(idx)
            problems[p] = None
        verdict.failed += len(raised | wrong)
        verdict.correct = verdict.correct and not wrong
    for i, (name, o, ref) in enumerate(zip(names, first, refs)):
        if "error" in o:
            continue
        width = o.get("width")
        extra = f" width={width:.3e}" if width is not None else ""
        if spec["workload"] == "eigen-floquet-2d":
            extra += f" k_reduced={result['k_reduced'][i]!r}"
        verdict.report.append(f"{name}: {key}={o[key]!r} reference={ref!r} "
                              f"diff={o[key] - ref:.3e}{extra}")
    verdict.report.extend(f"FAILED {p}" for p in problems)
    return verdict
