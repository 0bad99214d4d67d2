"""Seeded synthetic dataset generator with a planted error-to-failure signal.

Every stream is drawn from splitmix64 counter streams derived from
(seed, machine_id, channel), so output is identical for a given config
regardless of generation order.  Each machine's rows are drawn as numpy
arrays, and ``generate`` returns one table per dataset (see ``schema``),
machines in id order and each machine's rows in time order.

Hazard model (closed form).  Let r be the target positive rate, s the
signal strength and p_event = 1 - (1 - p_flag)**5 the per-hour chance of
an error event (any flag set).  Failures split into two channels:

    sigma     = s / (1 + s)                  fraction routed through errors
    q         = r * sigma / p_event          P(failure at t+24 | event at t)
    h_bg      = r * (1 - sigma) / (1 - r * sigma)   per-hour background hazard

Since 1 - (1 - h_bg) * (1 - p_event * q) = r, the per-hour failure
probability is exactly r, so the 24-hour-ahead positive-label rate is
calibrated to ``target_failure_rate`` by construction.  With s = 0 all
failures are background noise; as s grows, errors 24 hours earlier
explain an ever larger share of failures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng, schema
from .ingest import DatasetBundle

START = np.datetime64("2015-01-01T00:00:00")
LEAD_HOURS = 24          # planted errors raise the hazard this many hours later
MAX_AGE_YEARS = 20

# Per-channel substream tags; one independent stream per (machine, channel).
_CH_DESCRIPTOR = 0
_CH_ERRORS = 1
_CH_BACKGROUND = 2
_CH_TRIGGER = 3
_CH_FAIL_COMP = 4
_CH_SCHED = 5
_CH_SCHED_COMP = 6
_CH_TELEMETRY = 7

# Telemetry baselines per machine model (volt, rotate, pressure, vibration).
_TELEMETRY_MEANS = np.array([
    [170.0, 450.0, 100.0, 40.0],
    [173.0, 465.0, 102.0, 41.0],
    [176.0, 480.0, 104.0, 42.0],
    [179.0, 495.0, 106.0, 43.0],
])
_TELEMETRY_SDS = np.array([15.0, 50.0, 10.0, 5.0])
_DRIFT_AMPLITUDE = 1.5   # pre-failure ramp peak, in telemetry sd units


@dataclass(frozen=True)
class SynthConfig:
    n_machines: int = 100
    n_days: int = 365
    seed: int = 0
    target_failure_rate: float = 0.017
    signal_strength: float = 50.0
    per_flag_error_rate: float = 0.005
    scheduled_maintenance_rate: float = 0.002
    telemetry_drift: bool = False

    def __post_init__(self):
        if self.n_machines < 1:
            raise ValueError("n_machines must be positive")
        if self.n_days < 3:
            raise ValueError("n_days must be at least 3 so the horizon fits")
        if not 0.0 < self.target_failure_rate < 0.5:
            raise ValueError("target_failure_rate must lie in (0, 0.5)")
        if not self.signal_strength >= 0.0:
            raise ValueError("signal_strength must be non-negative")
        if not 0.0 < self.per_flag_error_rate < 1.0:
            raise ValueError("per_flag_error_rate must lie in (0, 1)")
        if not 0.0 <= self.scheduled_maintenance_rate < 1.0:
            raise ValueError("scheduled_maintenance_rate must lie in [0, 1)")
        if not self.triggered_failure_prob <= 1.0:
            raise ValueError(
                "infeasible calibration: target_failure_rate * signal fraction exceeds "
                "the error-event rate; lower signal_strength or raise per_flag_error_rate")

    @property
    def n_hours(self) -> int:
        return self.n_days * 24

    @property
    def event_rate(self) -> float:
        return 1.0 - (1.0 - self.per_flag_error_rate) ** len(schema.ERROR_FLAGS)

    @property
    def signal_fraction(self) -> float:
        return self.signal_strength / (1.0 + self.signal_strength)

    @property
    def triggered_failure_prob(self) -> float:
        return self.target_failure_rate * self.signal_fraction / self.event_rate

    @property
    def background_hazard(self) -> float:
        sigma = self.signal_fraction
        return self.target_failure_rate * (1.0 - sigma) / (1.0 - self.target_failure_rate * sigma)


def _machine_stream(config, machine_id, channel):
    return rng.Stream(rng.derive(config.seed, machine_id, channel))


def _events(machine_id, hours, **flags):
    """Columns of the event rows at ``hours`` (indices into the timeline)."""
    return {"machine_id": np.full(len(hours), machine_id),
            "datetime": START + hours * np.timedelta64(1, "h"), **flags}


def _generate_machine(config: SynthConfig, machine_id: int):
    n = config.n_hours
    components = np.arange(len(schema.COMP_FLAGS))

    desc_stream = _machine_stream(config, machine_id, _CH_DESCRIPTOR)
    age = int(desc_stream.below(1, MAX_AGE_YEARS + 1)[0])
    model_index = int(desc_stream.below(1, 4)[0])
    descriptor = {"machine_id": [machine_id], "age": [age],
                  **{name: [i == model_index] for i, name in enumerate(schema.MODEL_FLAGS)}}

    error_draws = _machine_stream(config, machine_id, _CH_ERRORS).uniforms(n * 5)
    error_flags = (error_draws < config.per_flag_error_rate).reshape(n, 5)
    error_any = error_flags.any(axis=1)

    background = (_machine_stream(config, machine_id, _CH_BACKGROUND).uniforms(n)
                  < config.background_hazard)
    trigger_draws = _machine_stream(config, machine_id, _CH_TRIGGER).uniforms(n)
    triggered = np.zeros(n, dtype=bool)
    lead = LEAD_HOURS
    triggered[lead:] = error_any[:-lead] & (trigger_draws[:-lead]
                                            < config.triggered_failure_prob)
    failure = background | triggered
    fail_comp = _machine_stream(config, machine_id, _CH_FAIL_COMP).below(n, 4)

    scheduled = (_machine_stream(config, machine_id, _CH_SCHED).uniforms(n)
                 < config.scheduled_maintenance_rate)
    sched_comp = _machine_stream(config, machine_id, _CH_SCHED_COMP).below(n, 4)

    noise = _machine_stream(config, machine_id, _CH_TELEMETRY).normals(n * 4).reshape(n, 4)
    telemetry_values = _TELEMETRY_MEANS[model_index] + noise * _TELEMETRY_SDS
    if config.telemetry_drift:
        ramp = np.zeros(n)
        for u in np.flatnonzero(failure):
            lo = max(0, u - lead)
            span = np.arange(lo, u)
            ramp[span] = np.maximum(ramp[span], 1.0 - (u - span) / lead)
        telemetry_values[:, 2] += _DRIFT_AMPLITUDE * _TELEMETRY_SDS[2] * ramp
        telemetry_values[:, 3] += _DRIFT_AMPLITUDE * _TELEMETRY_SDS[3] * ramp

    telemetry = _events(machine_id, np.arange(n),
                        **dict(zip(schema.TELEMETRY_FIELDS, telemetry_values.T)))
    hours = np.flatnonzero(error_any)
    errors = _events(machine_id, hours, **dict(zip(schema.ERROR_FLAGS, error_flags[hours].T)))
    hours = np.flatnonzero(failure)
    failures = _events(machine_id, hours, **dict(zip(
        schema.COMP_FLAGS, (fail_comp[hours, None] == components).T)))
    # Maintenance replaces the failed component at each failure, and one
    # drawn component at each scheduled visit.
    hours = np.flatnonzero(failure | scheduled)
    fails = failure[hours, None] & (fail_comp[hours, None] == components)
    replaced = fails | (scheduled[hours, None] & (sched_comp[hours, None] == components))
    maintenance = _events(machine_id, hours, **dict(zip(schema.COMP_FLAGS, replaced.T)),
                          **dict(zip(schema.COMP_FAIL_FLAGS, fails.T)))
    return {"telemetry": telemetry, "errors": errors, "maintenance": maintenance,
            "failures": failures, "machines": descriptor}


def generate(config: SynthConfig) -> DatasetBundle:
    """Generate a schema-valid bundle with a complete hourly telemetry grid."""
    parts = [_generate_machine(config, machine_id)
             for machine_id in range(1, config.n_machines + 1)]
    return DatasetBundle(**{
        name: schema.table(name, {column: np.concatenate([p[name][column] for p in parts])
                                  for column in columns})
        for name, columns in schema.CSV_COLUMNS.items()})
