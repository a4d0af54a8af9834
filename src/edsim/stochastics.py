"""Input randomness: the versioned profile file, non-homogeneous arrivals,
attribute mixes, service-time models and the lab time-of-day profile.

The published figures carry shapes, not numbers; every number here lives in
the profile JSON and is a calibration output, not ground truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import jsonschema
import numpy as np

CODES = ("WHITE", "GREEN", "YELLOW", "RED")
VISIT_TYPES = ("GENERAL", "ORTHOPAEDIC", "DERMATOLOGICAL")
EXAM_COUNT_MAX = 10
LAB_WAIT_FLOOR = 5  # minutes left after a scenario-r reduction
DISPATCH_PERIOD = 30  # tube transport leaves every half hour


class ProfileError(ValueError):
    """Profile file rejected by schema or semantic validation."""


_HOURS = {"type": "array", "items": {"type": "number", "minimum": 0}, "minItems": 24, "maxItems": 24}
_SERVICE = {
    "type": "object",
    "required": ["family", "mean", "cv"],
    "properties": {
        "family": {"enum": ["lognormal", "triangular"]},
        "mean": {"type": "number", "exclusiveMinimum": 0},
        "cv": {"type": "number", "minimum": 0},
    },
}
_TEAM = {
    "type": "object",
    "required": ["id", "start", "end"],
    "properties": {
        "id": {"type": "string"},
        "start": {"type": "integer", "minimum": 0, "maximum": 1439},
        "end": {"type": "integer", "minimum": 0, "maximum": 1440},
    },
}
_TEAMED_POOL = {
    "type": "object",
    "required": ["teams"],
    "properties": {"teams": {"type": "array", "items": _TEAM}},
}

PROFILE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "arrival_rates", "mixes", "service", "lab_profile", "thresholds", "resources"],
    "properties": {
        "version": {"type": "integer", "minimum": 1},
        "arrival_rates": {
            "type": "object",
            "required": list(CODES),
            "properties": {c: _HOURS for c in CODES},
        },
        "mixes": {
            "type": "object",
            "required": ["visit_type", "needs_lab", "xray", "extra_exam_lt4"],
            "properties": {
                "visit_type": {
                    "type": "object",
                    "required": list(VISIT_TYPES),
                    "properties": {v: {"type": "number", "minimum": 0, "maximum": 1} for v in VISIT_TYPES},
                },
                "needs_lab": {"type": "number", "minimum": 0, "maximum": 1},
                "xray": {"type": "number", "minimum": 0, "maximum": 1},
                "extra_exam_lt4": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "nonwalking_yellow": {"type": "number", "minimum": 0, "maximum": 1},
            },
        },
        "service": {
            "type": "object",
            "required": ["triage", "first_general", "first_ortho", "first_derma",
                         "last_visit", "exam_xray", "exam_misc"],
            "additionalProperties": _SERVICE,
        },
        "lab_profile": {
            "type": "object",
            "required": ["waiting", "effective", "misc", "cv"],
            "properties": {
                "waiting": _HOURS, "effective": _HOURS, "misc": _HOURS,
                "cv": {"type": "number", "minimum": 0},
            },
        },
        "thresholds": {
            "type": "object",
            "required": ["GREEN", "WHITE"],
            "additionalProperties": {"type": "number", "minimum": 0},
        },
        "resources": {
            "type": "object",
            "required": ["low_general", "high_general", "orthopaedic", "dermatological",
                         "xray", "misc_exam", "last_visit_team"],
            "properties": {
                "low_general": _TEAMED_POOL,
                "high_general": _TEAMED_POOL,
                "orthopaedic": _TEAMED_POOL,
                "dermatological": _TEAMED_POOL,
                "xray": {"type": "object", "required": ["capacity"],
                         "properties": {"capacity": {"type": "integer", "minimum": 1}}},
                "misc_exam": {"type": "object", "required": ["capacity"],
                              "properties": {"capacity": {"type": "integer", "minimum": 1}}},
                "last_visit_team": {
                    "type": "object",
                    "required": ["start", "end"],
                    "properties": {"start": {"type": "integer", "minimum": 0, "maximum": 1439},
                                   "end": {"type": "integer", "minimum": 0, "maximum": 1440}},
                },
            },
        },
        "routing": {
            "type": "object",
            "properties": {"pull_low_into_high": {"enum": ["always", "night_only", "never"]}},
        },
    },
}

# The schema is a constant: check it once, not on every profile build.
jsonschema.Draft7Validator.check_schema(PROFILE_SCHEMA)
_PROFILE_VALIDATOR = jsonschema.Draft7Validator(PROFILE_SCHEMA)


@dataclass(frozen=True)
class ServiceSpec:
    family: str
    mean: float
    cv: float
    # lognormal parameters of the underlying normal, computed once
    mu: float = field(init=False, repr=False, compare=False)
    sigma: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sigma2 = math.log(1.0 + self.cv * self.cv)
        object.__setattr__(self, "mu", math.log(self.mean) - 0.5 * sigma2)
        object.__setattr__(self, "sigma", math.sqrt(sigma2))

    def from_normal(self, z: float) -> float:
        """Map a standard-normal draw to a duration in real minutes."""
        if self.family == "lognormal":
            return math.exp(self.mu + self.sigma * z)
        # triangular: symmetric around the mean, half-width from the cv
        u = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        half = self.mean * self.cv * math.sqrt(6.0)
        low, high = max(0.0, self.mean - half), self.mean + half
        if high <= low:
            return self.mean
        mode = self.mean
        if u < (mode - low) / (high - low):
            return low + math.sqrt(u * (high - low) * (mode - low))
        return high - math.sqrt((1 - u) * (high - low) * (high - mode))


class Profile:
    """Immutable, schema-validated stochastic profile."""

    def __init__(self, raw: dict):
        error = jsonschema.exceptions.best_match(_PROFILE_VALIDATOR.iter_errors(raw))
        if error is not None:
            path = "/".join(str(p) for p in error.absolute_path) or "<root>"
            raise ProfileError(f"profile schema violation at {path}: {error.message}") from error
        self.raw = raw
        self.version: int = raw["version"]
        self.arrival_rates: dict[str, list[float]] = {c: list(raw["arrival_rates"][c]) for c in CODES}
        self.mixes: dict = raw["mixes"]
        self.service: dict[str, ServiceSpec] = {
            name: ServiceSpec(s["family"], float(s["mean"]), float(s["cv"]))
            for name, s in raw["service"].items()
        }
        lab = raw["lab_profile"]
        self.lab_waiting = [float(x) for x in lab["waiting"]]
        self.lab_effective = [float(x) for x in lab["effective"]]
        self.lab_misc = [float(x) for x in lab["misc"]]
        self.lab_cv = float(lab["cv"])
        # (waiting, effective, misc) in-lab time specs per dispatch hour
        self.lab_specs: list[tuple[ServiceSpec, ServiceSpec, ServiceSpec]] = [
            tuple(ServiceSpec("lognormal", max(means[h], 0.1), self.lab_cv)
                  for means in (self.lab_waiting, self.lab_effective, self.lab_misc))
            for h in range(24)
        ]
        self.thresholds: dict[str, float] = {k: float(v) for k, v in raw["thresholds"].items()}
        self.resources: dict = raw["resources"]
        self.pull_low_into_high: str = raw.get("routing", {}).get("pull_low_into_high", "always")
        self._check_semantics()
        self.exam_count_cdf = _fit_truncated_geometric(float(self.mixes["extra_exam_lt4"]))

    def _check_semantics(self) -> None:
        vt = self.mixes["visit_type"]
        if abs(sum(vt[v] for v in VISIT_TYPES) - 1.0) > 1e-6:
            raise ProfileError("visit_type mix must sum to 1")
        total = self.daily_arrivals()
        if total <= 0:
            raise ProfileError("arrival_rates must carry positive total mass")
        seen: set[str] = set()
        for pool in ("low_general", "high_general", "orthopaedic", "dermatological"):
            for team in self.resources[pool]["teams"]:
                if team["id"] in seen:
                    raise ProfileError(f"duplicate team id {team['id']!r}")
                if team["id"].startswith("LV") and team["id"][2:].isdigit():
                    raise ProfileError(f"team id {team['id']!r} is reserved for the "
                                       "dedicated last-visit teams")
                seen.add(team["id"])

    def daily_arrivals(self) -> float:
        return sum(sum(self.arrival_rates[c]) for c in CODES)


def _fit_truncated_geometric(p_lt4: float) -> list[float]:
    """CDF of the extra-exam count: geometric truncated at EXAM_COUNT_MAX with
    P(count < 4) matched to the observed share."""
    if p_lt4 >= 1.0:
        return [1.0] * (EXAM_COUNT_MAX + 1)

    def cdf3(q: float) -> float:
        return (1 - q ** 4) / (1 - q ** (EXAM_COUNT_MAX + 1))

    lo, hi = 1e-9, 1 - 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf3(mid) > p_lt4:
            lo = mid  # larger q -> heavier tail -> smaller cdf3
        else:
            hi = mid
    q = 0.5 * (lo + hi)
    norm = 1 - q ** (EXAM_COUNT_MAX + 1)
    cdf, acc = [], 0.0
    for k in range(EXAM_COUNT_MAX + 1):
        acc += (1 - q) * q ** k / norm
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def load_profile(path) -> Profile:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProfileError(f"profile is not valid JSON: {exc}") from exc
    return Profile(raw)


def default_profile_path() -> str:
    return str(resources.files("edsim").joinpath("profiles/default.json"))


def write_profile(raw: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=1, sort_keys=False)
        fh.write("\n")


class ArrivalSampler:
    """Thinning sampler for the non-homogeneous Poisson arrival process with
    piecewise-constant hourly rates per urgency code."""

    def __init__(self, profile: Profile):
        self.rates = profile.arrival_rates
        self.total = [sum(self.rates[c][h] for c in CODES) for h in range(24)]
        self.lam_max = max(self.total) / 60.0  # per minute

    def rate_at(self, minute: float) -> float:
        return self.total[int(minute // 60) % 24] / 60.0

    def sample_interarrival(self, now: float, rng: np.random.Generator) -> float:
        t = now
        while True:
            t += rng.exponential(1.0 / self.lam_max)
            if rng.random() * self.lam_max < self.rate_at(t):
                return t - now

    def draw_code(self, minute: float, rng: np.random.Generator) -> str:
        h = int(minute // 60) % 24
        total = self.total[h]
        u = rng.random() * total
        acc = 0.0
        last_positive = CODES[0]
        for c in CODES:
            rate = self.rates[c][h]
            if rate > 0:
                last_positive = c
            acc += rate
            if u < acc:
                return c
        return last_positive  # float round-off: fall back to a code with mass


def draw_visit_type(u: float, profile: Profile) -> str:
    acc = 0.0
    for v in VISIT_TYPES:
        acc += profile.mixes["visit_type"][v]
        if u < acc:
            return v
    return VISIT_TYPES[-1]


def draw_exam_count(u: float, profile: Profile) -> int:
    for k, c in enumerate(profile.exam_count_cdf):
        if u < c:
            return k
    return EXAM_COUNT_MAX


def draw_exam_list(u_xray: float, u_count: float, profile: Profile) -> list[str]:
    """Extra-exam kinds. The x-ray flag is drawn independently of the count;
    an x-ray patient with count 0 still gets the x-ray, which leaves both the
    x-ray share and P(count < 4) at their configured values."""
    count = draw_exam_count(u_count, profile)
    has_xray = u_xray < profile.mixes["xray"]
    if has_xray:
        return ["xray"] + ["misc"] * max(0, count - 1)
    return ["misc"] * count


def lab_components(profile: Profile, hour: int, z_wait: float, z_eff: float,
                   z_misc: float, r: int | None) -> tuple[int, int, int]:
    """In-lab time composition at the dispatch hour, in whole minutes.

    The waiting+transport component absorbs the scenario-r reduction, floored
    at LAB_WAIT_FLOOR minutes; the two peaks (7:00/19:00 shift changes) live
    in the profile arrays."""
    wait_spec, eff_spec, misc_spec = profile.lab_specs[hour % 24]
    wait = wait_spec.from_normal(z_wait)
    eff = eff_spec.from_normal(z_eff)
    misc = misc_spec.from_normal(z_misc)
    if r:
        wait = max(float(LAB_WAIT_FLOOR), wait - r)
    return (int(wait + 0.5), int(eff + 0.5), int(misc + 0.5))


def next_dispatch(draw_time: int) -> int:
    """Next half-hour tube-transport departure at or after the draw."""
    return ((draw_time + DISPATCH_PERIOD - 1) // DISPATCH_PERIOD) * DISPATCH_PERIOD
