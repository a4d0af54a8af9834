"""Input randomness: the versioned profile file, non-homogeneous arrivals,
attribute mixes, service-time models, the lab time-of-day profile and the
per-replication patient tape.

The published figures carry shapes, not numbers; every number here lives in
the profile JSON and is a calibration output, not ground truth.
"""

from __future__ import annotations

import json
import math
import pickle
import sys
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate

import numpy as np

from .kernel import MINUTES_PER_DAY, round_half_up, rng_stream
from .kpi import WARMUP_MIN

CODES = ("WHITE", "GREEN", "YELLOW", "RED")
VISIT_TYPES = ("GENERAL", "ORTHOPAEDIC", "DERMATOLOGICAL")
# first-visit service spec per visit type; a red patient is seen as GENERAL
FIRST_SERVICE = {"GENERAL": "first_general", "ORTHOPAEDIC": "first_ortho",
                 "DERMATOLOGICAL": "first_derma"}
EXAM_COUNT_MAX = 10
LAB_WAIT_FLOOR = 5  # minutes left after a scenario-r reduction
DISPATCH_PERIOD = 30  # tube transport leaves every half hour
# Upper bounds that keep every draw finite and every run bounded
MAX_RATE = 1000.0  # arrivals per hour, per urgency code
MAX_MEAN = 10000.0  # minutes, for a service mean and an hourly lab mean
MAX_CV = 10.0
TAPE_BLOCK = 64  # tape rows drawn in one stretch, ahead of the replication reading them
MAX_NESTING = 32  # deepest nesting a profile may have, ignored keys included (the schema's: 5)


class ProfileError(ValueError):
    """Profile file rejected by schema or semantic validation."""


SERVICES = ("triage", "first_general", "first_ortho", "first_derma", "last_visit",
            "exam_xray", "exam_misc")
TEAMED_POOLS = ("low_general", "high_general", "orthopaedic", "dermatological")
_JSON_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float),
               "integer": (int, float)}
_REQUIRED = object()


def _read(raw, path: str, kind, lo=-math.inf, hi=math.inf, *, above=False, default=_REQUIRED):
    """The profile value at `path` (object keys and array indexes joined by
    "/", "~1" standing for "/" and "~0" for "~" in a key), checked against the
    JSON type `kind` (or a tuple of the allowed values) and the bounds
    lo <= value <= hi (lo < value if `above`) on a number or on an array's
    length. Unknown keys are ignored; a missing key returns `default` if one
    is given. bool is not a number, a whole float is an integer and comes
    back as an int, and a number must be a finite float (no NaN, no infinity,
    no integer too large to convert)."""
    node, at = raw, "<root>"
    for key in path.split("/"):
        name = key.replace("~1", "/").replace("~0", "~")
        if isinstance(node, list) and key.isdigit():
            node = node[int(key)]  # an array is read, and its length checked, before its items
        elif not isinstance(node, dict):
            raise _violation(at, f"{node!r} is not of type 'object'")
        elif name in node:
            node = node[name]
        elif default is not _REQUIRED:
            return default
        else:
            raise _violation(at, f"{name!r} is a required property")
        at = key if at == "<root>" else f"{at}/{key}"
    if isinstance(kind, tuple):
        if node not in kind:
            raise _violation(at, f"{node!r} is not one of {list(kind)}")
        return node
    if (not isinstance(node, _JSON_TYPES[kind]) or isinstance(node, bool)
            or (kind == "integer" and isinstance(node, float) and not node.is_integer())):
        raise _violation(at, f"{node!r} is not of type {kind!r}")
    if kind == "number" and not abs(node) <= sys.float_info.max:
        raise _violation(at, f"{node!r} is not a finite float")
    size = len(node) if isinstance(node, (list, dict, str)) else node
    what = repr(node) if size is node else f"length {size}"
    if size < lo or (above and size == lo):
        raise _violation(at, f"{what} is less than {'or equal to ' if above else ''}the minimum of {lo}")
    if size > hi:
        raise _violation(at, f"{what} is greater than the maximum of {hi}")
    return int(node) if kind == "integer" else node


def _violation(at: str, reason: str) -> ProfileError:
    return ProfileError(f"profile schema violation at {at}: {reason}")


def _key(name: str) -> str:
    """`name` as one step of a `_read` path."""
    return name.replace("~", "~0").replace("/", "~1")


def _hours(raw, path: str, hi: float) -> list:
    _read(raw, path, "array", 24, 24)
    return [_read(raw, f"{path}/{h}", "number", 0, hi) for h in range(24)]


def _service(raw, path: str) -> ServiceSpec:
    return ServiceSpec(_read(raw, f"{path}/family", ("lognormal", "triangular")),
                       float(_read(raw, f"{path}/mean", "number", 0, MAX_MEAN, above=True)),
                       float(_read(raw, f"{path}/cv", "number", 0, MAX_CV)))


def _shift(raw, path: str) -> tuple[int, int]:
    return (_read(raw, f"{path}/start", "integer", 0, 1439),
            _read(raw, f"{path}/end", "integer", 0, 1440))


def _teams(raw, pool: str) -> list[tuple[str, int, int]]:
    path = f"resources/{pool}/teams"
    return [(_read(raw, f"{path}/{i}/id", "string"), *_shift(raw, f"{path}/{i}"))
            for i in range(len(_read(raw, path, "array")))]


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
    """Immutable stochastic profile, each field checked as it is read.

    `raw` is kept as loaded; the other attributes are read from it, staffing
    as `teams` (pool -> its (team, start, end) bands in file order),
    `capacity` (exam pool -> slots) and `last_visit_band` (the (start, end)
    shift of each dedicated last-visit team of scenario a)."""

    def __init__(self, raw: dict):
        self.raw = raw
        self.version: int = _read(raw, "version", "integer", 1)
        self.arrival_rates: dict[str, list[float]] = {
            c: _hours(raw, f"arrival_rates/{c}", MAX_RATE) for c in CODES}
        self.mixes: dict = {
            "visit_type": {v: _read(raw, f"mixes/visit_type/{v}", "number", 0, 1) for v in VISIT_TYPES},
            "needs_lab": _read(raw, "mixes/needs_lab", "number", 0, 1),
            "xray": _read(raw, "mixes/xray", "number", 0, 1),
            "extra_exam_lt4": _read(raw, "mixes/extra_exam_lt4", "number", 0, 1, above=True),
            "nonwalking_yellow": _read(raw, "mixes/nonwalking_yellow", "number", 0, 1, default=0.5),
        }
        # every entry is read and checked; a required one that is absent fails its read
        self.service: dict[str, ServiceSpec] = {
            name: _service(raw, f"service/{_key(name)}")
            for name in dict.fromkeys([*_read(raw, "service", "object"), *SERVICES])
        }
        lab_means = [[float(x) for x in _hours(raw, f"lab_profile/{part}", MAX_MEAN)]
                     for part in ("waiting", "effective", "misc")]
        lab_cv = float(_read(raw, "lab_profile/cv", "number", 0, MAX_CV))
        # (waiting, effective, misc) in-lab time specs per dispatch hour
        self.lab_specs: list[tuple[ServiceSpec, ServiceSpec, ServiceSpec]] = [
            tuple(ServiceSpec("lognormal", max(means[h], 0.1), lab_cv) for means in lab_means)
            for h in range(24)
        ]
        for name in _read(raw, "thresholds", "object"):
            if name not in CODES:
                raise _violation(f"thresholds/{_key(name)}", f"{name!r} is not one of {list(CODES)}")
        self.thresholds: dict[str, float] = {
            name: float(_read(raw, f"thresholds/{_key(name)}", "number", 0))
            for name in dict.fromkeys([*_read(raw, "thresholds", "object"), "GREEN", "WHITE"])
        }
        self.teams = {pool: _teams(raw, pool) for pool in TEAMED_POOLS}
        self.capacity = {pool: _read(raw, f"resources/{pool}/capacity", "integer", 1)
                         for pool in ("xray", "misc_exam")}
        self.last_visit_band = _shift(raw, "resources/last_visit_team")
        self.pull_low_into_high: str = _read(raw, "routing/pull_low_into_high",
                                             ("always", "night_only", "never"), default="always")
        self._check_semantics()
        self.exam_count_cdf = _fit_truncated_geometric(float(self.mixes["extra_exam_lt4"]))

    def _check_semantics(self) -> None:
        vt = self.mixes["visit_type"]
        if abs(sum(vt[v] for v in VISIT_TYPES) - 1.0) > 1e-6:
            raise ProfileError("visit_type mix must sum to 1")
        if sum(sum(self.arrival_rates[c]) for c in CODES) <= 0:
            raise ProfileError("arrival_rates must carry positive total mass")
        seen: set[str] = set()
        for team, _start, _end in (band for bands in self.teams.values() for band in bands):
            if team in seen:
                raise ProfileError(f"duplicate team id {team!r}")
            if team.startswith("LV") and team[2:].isdigit():
                raise ProfileError(f"team id {team!r} is reserved for the "
                                   "dedicated last-visit teams")
            seen.add(team)


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
    except (ValueError, RecursionError) as exc:  # bad JSON/UTF-8, long integer, deep nesting
        raise ProfileError(f"profile is not valid JSON: {exc}") from exc
    level = [raw]  # one level deeper per pass: no recursion, whatever the depth
    for _ in range(MAX_NESTING):
        level = [child for node in level if isinstance(node, (dict, list))
                 for child in (node.values() if isinstance(node, dict) else node)]
    if any(isinstance(node, (dict, list)) for node in level):
        raise ProfileError(f"profile nests deeper than {MAX_NESTING} levels")
    return Profile(raw)


def default_profile_path() -> str:
    return str(resources.files("edsim").joinpath("profiles/default.json"))


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


def draw_patients(profile: Profile, seed: int, rep: int, days: int) -> Iterator[tuple]:
    """Yield the patients of replication `rep`, one tape row per arrival:
    (t_arrive, code, mode, triage_d, visit_type, needs_lab, u_lab_triage,
    u_dismiss, exam_kinds, first_d, last_d, lab_z, exam_ds).

    Arrival minutes and codes come from the "arrivals" stream, the other
    attributes from "attributes". Neither depends on the scenario, so every
    scenario run on one tape sees the same patients (common random numbers).
    The rows stop at the first arrival at or past the horizon (warm-up plus
    `days`); that arrival's code is drawn too, so the streams advance as they
    always have. The rows are drawn `TAPE_BLOCK` at a time and then yielded,
    so at most one block is held; drawing a block in one stretch takes less
    CPU than drawing each row between two stretches of a replication.

    The profile is bound once per tape. Each row takes four batched
    attribute draws, in the stream order of one scalar draw per attribute:
    the mode uniform; the triage normal; six uniforms (visit type, lab, lab
    at triage, x-ray, exam count, dismissal); the normals of the first and
    last visits, the three lab components and each extra exam. The visit
    type and the exam count are the first whose cumulative share exceeds
    its uniform. An x-ray patient with count 0 still gets the x-ray, which
    keeps both the x-ray share and P(count < 4) as configured."""
    arrivals = rng_stream(seed, "arrivals", rep)
    attributes = rng_stream(seed, "attributes", rep)
    sampler = ArrivalSampler(profile)
    interarrival, draw_code = sampler.sample_interarrival, sampler.draw_code
    random, normal = attributes.random, attributes.standard_normal
    mixes, svc = profile.mixes, profile.service
    nw_yellow, p_lab, p_xray = mixes["nonwalking_yellow"], mixes["needs_lab"], mixes["xray"]
    # the first visit type (exam count) whose cumulative share exceeds the
    # uniform, the last one if none does; the running maximum keeps the
    # bounds sorted for bisect without moving that first index
    visit_bounds = list(accumulate(mixes["visit_type"][v] for v in VISIT_TYPES))[:-1]
    count_bounds = list(accumulate(profile.exam_count_cdf, max))[:-1]
    triage_d, last_d = svc["triage"].from_normal, svc["last_visit"].from_normal
    first_d = {v: svc[FIRST_SERVICE[v]].from_normal for v in VISIT_TYPES}
    exam_d = {"xray": svc["exam_xray"].from_normal, "misc": svc["exam_misc"].from_normal}
    # (extra-exam kinds, their duration draws) by x-ray flag, then by count;
    # every row with that plan shares its kinds tuple, which the log hashes
    exam_plans = [[(kinds, [exam_d[k] for k in kinds]) for kinds in (
        ("xray",) + ("misc",) * (n - 1) if xray else ("misc",) * n
        for n in range(EXAM_COUNT_MAX + 1))] for xray in (False, True)]
    horizon = WARMUP_MIN + days * MINUTES_PER_DAY
    t_real = 0.0
    block = []
    while True:
        t_real += interarrival(t_real, arrivals)
        code = draw_code(t_real, arrivals)
        if t_real >= horizon:
            yield from block
            return
        u_mode = random()
        mode = ("nonwalking" if code == "RED" or (code == "YELLOW" and u_mode < nw_yellow)
                else "walking")
        # rounded half up, at least one minute (no sampled duration is negative)
        triage = int(triage_d(normal()) + 0.5) or 1
        u_visit, u_lab, u_lab_triage, u_xray, u_count, u_dismiss = random(6).tolist()
        visit_type = VISIT_TYPES[bisect_right(visit_bounds, u_visit)]
        count = bisect_right(count_bounds, u_count)
        exam_kinds, exam_draws = exam_plans[u_xray < p_xray][count]
        z_first, z_last, z_wait, z_eff, z_misc, *z_exams = normal(5 + len(exam_kinds)).tolist()
        exam_ds = [int(d(z) + 0.5) or 1 for d, z in zip(exam_draws, z_exams)]
        block.append((round_half_up(t_real), code, mode, triage, visit_type, u_lab < p_lab,
                      u_lab_triage, u_dismiss, exam_kinds,
                      int(first_d["GENERAL" if code == "RED" else visit_type](z_first) + 0.5) or 1,
                      int(last_d(z_last) + 0.5) or 1, (z_wait, z_eff, z_misc), exam_ds))
        if len(block) == TAPE_BLOCK:
            yield from block
            block = []


class PatientTape:
    """The rows of `draw_patients`, drawn once and held as one pickled bytes
    object: compact to keep for a whole sweep, cheap to send to a worker.
    Each iteration unpickles fresh rows."""

    __slots__ = ("data",)

    def __init__(self, profile: Profile, seed: int, rep: int, days: int):
        self.data = pickle.dumps(list(draw_patients(profile, seed, rep, days)),
                                 pickle.HIGHEST_PROTOCOL)

    def __iter__(self):
        return iter(pickle.loads(self.data))


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
    if r:  # min: r is an exact int, possibly beyond float range
        wait = max(float(LAB_WAIT_FLOOR), wait - min(r, wait))
    return (int(wait + 0.5), int(eff + 0.5), int(misc + 0.5))


def next_dispatch(draw_time: int) -> int:
    """Next half-hour tube-transport departure at or after the draw."""
    return ((draw_time + DISPATCH_PERIOD - 1) // DISPATCH_PERIOD) * DISPATCH_PERIOD
