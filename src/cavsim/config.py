"""Line-oriented ``key = value`` configuration files.

The format is deliberately tiny: one assignment per line, ``#`` starts a
comment, no sections or nesting, so that a run is reproducible from a config
pasted into a report.  Absent keys fall back to the experimental defaults of
:class:`~cavsim.evolution.Scenario`; unknown keys are errors.
"""

from __future__ import annotations

import cmath
import dataclasses
from dataclasses import dataclass

from .evolution import Scenario, branch_run, run_scenario
from .exceptions import ConfigError
from .lindblad import run_oracle

# backend name -> trajectory runner (scenario, sample times); the one list of backends
BACKENDS = {"dense": run_scenario, "branch": branch_run, "oracle": run_oracle}


@dataclass(frozen=True)
class SweepSpec:
    """Grid of decay-ratio and amplitude values plus sampling/backend choices."""

    g_values: tuple[float, ...] = (0.0,)
    q_values: tuple[float, ...] = (0.0,)
    alpha_values: tuple[complex, ...] | None = None
    beta_values: tuple[complex, ...] | None = None
    n_samples: int = 181
    backend: str = "dense"

    def validate(self) -> "SweepSpec":
        if any(g < 0 for g in self.g_values) or any(q < 0 for q in self.q_values):
            raise ConfigError("sweep decay ratios must be non-negative", key="sweep_g")
        for key in ("sweep_g", "sweep_q", "sweep_alpha", "sweep_beta"):
            values = getattr(self, _KEYS[key][0])
            if values is not None and not values:  # None: the amplitude is not swept
                raise ConfigError("sweep grids must be non-empty", key=key)
        if self.n_samples < 1:
            raise ConfigError("n_samples must be positive", key="n_samples")
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {tuple(BACKENDS)}", key="backend")
        return self


# config key -> (Scenario or SweepSpec field, value kind).  The decay ratios g, q
# and rates gamma_i have no field: they are resolved against omega_i once the
# Scenario is built.  A kind in a 1-tuple is a comma-separated list of that kind.
_KEYS = {
    "omega_a": ("omega_a", float),
    "omega_1": ("omega_1", float),
    "omega_2": ("omega_2", float),
    "Omega_1": ("Omega_1", float),
    "Omega_2": ("Omega_2", float),
    "Delta_1": ("Delta_1", float),
    "Delta_2": ("Delta_2", float),
    "phi": ("phi", float),
    "ramsey_angle": ("ramsey_angle", float),
    "alpha": ("alpha", complex),
    "beta": ("beta", complex),
    "durations": ("stage_durations", (float,)),
    "N1": ("n1", int),
    "N2": ("n2", int),
    "frame": ("frame", str),
    "g": (None, float),
    "q": (None, float),
    "gamma_1": (None, float),
    "gamma_2": (None, float),
    "sweep_g": ("g_values", (float,)),
    "sweep_q": ("q_values", (float,)),
    "sweep_alpha": ("alpha_values", (complex,)),
    "sweep_beta": ("beta_values", (complex,)),
    "n_samples": ("n_samples", int),
    "backend": ("backend", str),
}


def _parse_number(raw: str, key: str, line: int, kind):
    """One number of the given kind; spaces are dropped from complex values only."""
    if kind is complex:
        raw = raw.replace(" ", "")
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value '{raw}'", key=key, line=line) from exc
    if kind is not int and not cmath.isfinite(value):
        raise ConfigError("value must be finite", key=key, line=line)
    return value


def _parse_value(raw: str, key: str, line: int, kind):
    """Value of one assignment of the given kind (see ``_KEYS``)."""
    if kind is str:
        return raw
    if not isinstance(kind, tuple):
        return _parse_number(raw, key, line, kind)
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    return tuple(_parse_number(p, key, line, kind[0]) for p in parts)


def parse_config(text: str) -> tuple[Scenario, SweepSpec]:
    """Parse config text into a validated (Scenario, SweepSpec) pair."""
    assignments: dict[str, tuple[object, int]] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in assignments:
            raise ConfigError("duplicate key", key=key, line=lineno)
        if key not in _KEYS:
            raise ConfigError("unknown key", key=key, line=lineno)
        value = _parse_value(raw, key, lineno, _KEYS[key][1])
        if key == "durations" and len(value) != 5:
            raise ConfigError("expected five comma-separated durations", key=key, line=lineno)
        assignments[key] = (value, lineno)

    def fields_of(cls) -> dict:
        names = {f.name for f in dataclasses.fields(cls)}
        return {_KEYS[k][0]: v for k, (v, _) in assignments.items() if _KEYS[k][0] in names}

    scenario = Scenario(**fields_of(Scenario))

    for ratio_key, gamma_key, omega in (
        ("g", "gamma_1", scenario.omega_1),
        ("q", "gamma_2", scenario.omega_2),
    ):
        has_ratio = ratio_key in assignments
        has_rate = gamma_key in assignments
        if has_ratio and has_rate:
            line = assignments[gamma_key][1]
            raise ConfigError(
                f"give either {ratio_key} or {gamma_key}, not both", key=gamma_key, line=line
            )
        if has_ratio:
            ratio, line = assignments.pop(ratio_key)
            if ratio < 0:
                raise ConfigError("decay ratio must be non-negative", key=ratio_key, line=line)
            scenario = dataclasses.replace(scenario, **{gamma_key: ratio * omega})
        elif has_rate:
            rate, line = assignments.pop(gamma_key)
            if rate < 0:
                raise ConfigError("decay rate must be non-negative", key=gamma_key, line=line)
            scenario = dataclasses.replace(scenario, **{gamma_key: rate})

    sweep = SweepSpec(**fields_of(SweepSpec))
    scenario.validate()
    sweep.validate()
    return scenario, sweep


def encode_value(v) -> str:
    """Canonical short encoding of a sweep value for file names."""
    if isinstance(v, complex):
        if v.imag == 0:
            v = v.real
        else:
            return f"{v.real:g}{v.imag:+g}j"
    return f"{v:g}"


def sweep_filename(alpha, beta, g, q) -> str:
    return (
        f"a{encode_value(alpha)}_b{encode_value(beta)}"
        f"_g{encode_value(g)}_q{encode_value(q)}.csv"
    )
