"""Scenario files, experiment reports, and report writers.

A scenario is a flat key/value + sections text file (INI syntax, no value
interpolation); see the repository README and the shipped ``scenarios/``
directory for the format.  Every section is read through `_Section.get`;
a key it never asked for is a ScenarioError naming the file, the section
and the key.  Coefficient entries are expression strings in the grammar of
:mod:`kppspeed.expressions`; they are parsed eagerly so bad references fail
at load time with the offending name.

An `ExperimentReport` carries one row per parameter point plus a list of
machine-checked assertions (name, left value, right value, tolerance,
verdict).  `experiments.run_experiment` makes it, names it and times the
run; the experiment fills it in place and enters every eigenpair or speed
it reports in its eigen ledger (`ExperimentReport.record`).  The CSV writer
emits the rows with a stable column order, the JSON writer the whole report
object except the ledger.
"""

from __future__ import annotations

import configparser
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .eigen import EigenResult
from .expressions import ExpressionError
from .fields import CellGeometry, CoefficientSet, FieldError, PeriodicField
from .operators import DEFAULT_CAP, Grid, GridError, build_grid

__all__ = ["Scenario", "ScenarioError", "ExperimentReport", "Assertion",
           "load_scenario", "write_report"]


class ScenarioError(ValueError):
    pass


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split()]


def _field(where: str, key: str, text: str, geometry, params) -> PeriodicField:
    """The scalar field of one expression text; its errors name the key."""
    try:
        return PeriodicField.scalar(text, geometry, params)
    except (ExpressionError, FieldError) as exc:
        raise ScenarioError(f"{where} {key}: {exc}") from exc


class _Section:
    """One section, taken out of the parsed file and read through `get`,
    which records each key asked for with its value in ``read``; `check`
    rejects a key never asked for.  ``fold_case`` compares keys in lower
    case."""

    def __init__(self, cp, path, name: str, fold_case: bool = False):
        self.where = f"{path} [{name}]"
        self.texts, self.names, self.read = {}, {}, {}
        for key, text in (cp[name].items() if cp.has_section(name) else ()):
            folded = key.lower() if fold_case else key
            if folded in self.names:
                raise ScenarioError(f"{self.where} {self.names[folded]}, {key}: "
                                    "ambiguous keys, give one")
            self.texts[folded], self.names[folded] = text, key
        cp.remove_section(name)

    def exclusive(self, key: str, others) -> None:
        """A ScenarioError naming key and one of others when both are given."""
        for other in others:
            if key in self.names and other in self.names:
                raise ScenarioError(f"{self.where} {self.names[key]}, "
                                    f"{self.names[other]}: ambiguous keys, give one")

    def get(self, key: str, default=None, parse=str):
        """parse(text) of the key, else the default; recorded either way.
        A number parsed by float or _floats must be finite."""
        text = self.texts.get(key)
        try:
            value = default if text is None else parse(text)
        except ValueError:
            what = "an integer" if parse in (int, _ints) else "a number"
            raise ScenarioError(f"{self.where} {self.names[key]}: "
                                f"not {what} ({text!r})") from None
        if parse in (float, _floats) and text is not None:
            if not all(map(math.isfinite, value if parse is _floats else [value])):
                raise ScenarioError(f"{self.where} {self.names[key]}: "
                                    f"not a finite number ({text!r})")
        self.read[key] = value
        return value

    def check(self) -> None:
        """A ScenarioError naming a key never asked for and the keys asked."""
        for key, name in self.names.items():
            if key not in self.read:
                raise ScenarioError(f"{self.where} {name}: unknown key "
                                    f"(read: {', '.join(self.read) or 'none'})")


@dataclass
class Scenario:
    name: str
    experiment: str | None
    geometry: CellGeometry
    coefficients: CoefficientSet
    grid: Grid
    params: dict
    options: _Section        # [experiment], read through the opt_* methods
    coefficient_texts: dict  # the A, q and mu specs the coefficients were built from
    seed: int
    output_dir: str
    output_format: str
    path: str | None = None

    def opt_float(self, key: str, default: float) -> float:
        return self.options.get(key, float(default), float)

    def opt_floats(self, key: str, default) -> list[float]:
        values = list(self.options.get(key, list(default), _floats))
        if not values:  # an empty sweep would check nothing and PASS
            raise self.opt_error(key, "empty list")
        return values

    def opt_int(self, key: str, default: int) -> int:
        return self.options.get(key, int(default), int)

    def opt_str(self, key: str, default: str) -> str:
        return self.options.get(key, str(default))

    def opt_error(self, key: str, why) -> ScenarioError:
        """The error of an [experiment] value the experiment cannot use."""
        return ScenarioError(f"{self.options.where} {key}: {why}")

    def opt_field(self, key: str, default: str) -> PeriodicField:
        """The scalar field of an [experiment] expression; a bad one is a
        ScenarioError naming the key."""
        return _field(self.options.where, key, self.opt_str(key, default),
                      self.geometry, self.params)


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file (expressions parsed eagerly).  A
    section or key (but in [experiment]) that the loader does not read is a
    ScenarioError, and so are two [coefficients] keys for one coefficient."""
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # parameter names are case-sensitive
    try:
        cp.read(path)
    except configparser.Error as exc:  # its messages span lines
        raise ScenarioError(f"{path}: {' '.join(str(exc).split())}") from exc

    sec = _Section(cp, path, "scenario")
    name = sec.get("name", path.stem)
    experiment = sec.get("experiment")
    seed = sec.get("seed", 0, int)

    geo = _Section(cp, path, "geometry")
    T = geo.get("T", 1.0, float)
    L = geo.get("L", [1.0], _floats)
    try:
        geometry = CellGeometry(T, L)
    except FieldError as exc:
        raise ScenarioError(f"{path} [geometry]: {exc}") from exc

    par = _Section(cp, path, "parameters")
    params = {key: par.get(key, parse=float) for key in par.texts}

    N = geometry.dimension
    axes = range(1, N + 1)
    co = _Section(cp, path, "coefficients", fold_case=True)
    a_keys = [f"a{i}{j}" for i in axes for j in axes]
    co.exclusive("a", a_keys)
    entries = {key: co.get(key) for key in a_keys}
    A_spec = {k: v for k, v in entries.items() if v is not None} or co.get("a", "1")
    if N == 1:
        co.exclusive("q", ["q1"])
        q_spec = (co.get("q", co.get("q1", "0")),)
    else:
        q_spec = tuple(co.get(f"q{i}", "0") for i in axes)
    mu_spec = co.get("mu", "1")
    co.check()
    for key, text in co.texts.items():  # an error in one text names its key
        _field(co.where, co.names[key], text, geometry, params)
    try:
        coefficients = CoefficientSet.from_expressions(
            A=A_spec, q=q_spec, mu=mu_spec, T=T, L=(L[0] if N == 1 else L),
            params=params)
    except (ExpressionError, FieldError) as exc:
        raise ScenarioError(f"{path} [coefficients]: {exc}") from exc

    gr = _Section(cp, path, "grid")
    n_space = gr.get("n", [256], _ints)
    n_t = gr.get("nt", None, int)
    cap = gr.get("cap", DEFAULT_CAP, int)
    if len(n_space) == 1 and N > 1:
        n_space = n_space * N
    try:
        grid = build_grid(geometry, n_space, n_t, cap=cap)
    except GridError as exc:
        raise ScenarioError(f"{path} [grid]: {exc}") from exc

    out = _Section(cp, path, "output")
    output_dir = out.get("dir", "out")
    output_format = out.get("format", "csv")
    if output_format not in ("csv", "json", "both"):
        raise ScenarioError(f"{path} [output]: format must be csv|json|both")

    for section in (sec, geo, gr, out):
        section.check()
    options = _Section(cp, path, "experiment")
    if cp.sections():
        raise ScenarioError(f"{path} [{cp.sections()[0]}]: unknown section")
    texts = {"A": A_spec, "q": list(q_spec), "mu": mu_spec}
    return Scenario(name, experiment, geometry, coefficients, grid, params, options,
                    texts, seed, output_dir, output_format, str(path))


# --- reports -------------------------------------------------------------------


@dataclass
class Assertion:
    name: str
    kind: str          # "ge" | "le" | "abs" | "strict"
    lhs: float
    rhs: float
    tolerance: float
    verdict: str
    margin: float

    @staticmethod
    def check(name: str, kind: str, lhs: float, rhs: float, tolerance: float,
              equality: bool = False) -> "Assertion":
        lhs, rhs, tolerance = float(lhs), float(rhs), float(tolerance)
        if kind == "ge":          # lhs >= rhs - tolerance
            margin = lhs - rhs
            ok = margin >= -tolerance
        elif kind == "le":        # lhs <= rhs + tolerance
            margin = rhs - lhs
            ok = margin >= -tolerance
        elif kind == "abs":       # |lhs - rhs| <= tolerance
            margin = tolerance - abs(lhs - rhs)
            ok = margin >= 0
        elif kind == "strict":    # lhs - rhs >= tolerance
            margin = lhs - rhs
            ok = margin >= tolerance
        else:
            raise ValueError(f"unknown assertion kind {kind!r}")
        verdict = ("PASS-EQUALITY" if equality else "PASS") if ok else "FAIL"
        return Assertion(name, kind, lhs, rhs, tolerance, verdict, float(margin))


@dataclass
class ExperimentReport:
    """The report of one experiment, filled in place: the experiment sets
    ``columns``, appends ``rows``, asserts through `check` and enters every
    reported eigenpair or speed in the eigen ledger through `record`;
    `experiments.run_experiment` makes it, times the run, sets ``inputs``."""

    experiment: str
    scenario: str
    seed: int
    inputs: dict = field(default_factory=dict)
    columns: list = field(default_factory=list)
    rows: list = field(default_factory=list)
    assertions: list = field(default_factory=list)   # list[Assertion]
    elapsed_seconds: float = 0.0
    eigen_records: list = field(default_factory=list)  # runtime-only, not serialized

    @property
    def passed(self) -> bool:
        return all(a.verdict != "FAIL" for a in self.assertions)

    def check(self, name: str, kind: str, lhs: float, rhs: float, tolerance: float,
              equality: bool = False) -> None:
        self.assertions.append(Assertion.check(name, kind, lhs, rhs, tolerance, equality))

    def record(self, context: str, result):
        """Enter the sandwich certificate of an `EigenResult` in the eigen
        ledger, or of a `SpeedResult`: its minimizer's eigenpair as
        ``context:minimizer``, then every solve of its search.  Returns
        ``result``."""
        if isinstance(result, EigenResult):
            solves = [vars(result)]
        else:
            if result.eigen is not None:
                self.record(context + ":minimizer", result.eigen)
            solves = result.records
        self.eigen_records += [{"context": context, "k": s["k"], "lower": s["lower"],
                                "upper": s["upper"]} for s in solves]
        return result

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "scenario": self.scenario,
            "inputs": self.inputs,
            "columns": list(self.columns),
            "rows": [dict(r) for r in self.rows],
            "assertions": [vars(a) for a in self.assertions],
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
            "passed": self.passed,
        }

    def summary_lines(self) -> list[str]:
        lines = [f"experiment {self.experiment} ({self.scenario}): "
                 f"{len(self.rows)} rows, seed {self.seed}, "
                 f"{self.elapsed_seconds:.2f}s"]
        for a in self.assertions:
            lines.append(f"  [{a.verdict}] {a.name}: lhs={a.lhs:.9g} rhs={a.rhs:.9g} "
                         f"tol={a.tolerance:.3g} margin={a.margin:.3g}")
        return lines


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(report: ExperimentReport, fmt: str, out_dir) -> list[Path]:
    """Write CSV rows and/or the JSON report; returns the written paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    base = report.scenario or report.experiment
    if fmt in ("csv", "both"):
        p = out_dir / f"{base}.csv"
        with open(p, "w") as fh:
            fh.write(",".join(report.columns) + "\n")
            for row in report.rows:
                fh.write(",".join(_fmt(row.get(c, "")) for c in report.columns) + "\n")
        written.append(p)
    if fmt in ("json", "both"):
        p = out_dir / f"{base}.json"
        with open(p, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
        written.append(p)
    return written
