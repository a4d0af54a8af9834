"""Sampler oracle: the per-patient tape draw as it was written before
`stochastics.draw_patients` bound the profile once per tape. Each attribute
is drawn through a small helper that looks the profile up per patient; the
helpers are the reference for the bound sampler, which must produce the
same rows from the same streams."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from edsim.kernel import MINUTES_PER_DAY, round_half_up, rng_stream
from edsim.kpi import WARMUP_MIN
from edsim.stochastics import (
    EXAM_COUNT_MAX,
    FIRST_SERVICE,
    VISIT_TYPES,
    ArrivalSampler,
    Profile,
)


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


def draw_exam_list(u_xray: float, u_count: float, profile: Profile) -> tuple[str, ...]:
    """Extra-exam kinds. The x-ray flag is drawn independently of the count;
    an x-ray patient with count 0 still gets the x-ray, which leaves both the
    x-ray share and P(count < 4) at their configured values."""
    count = draw_exam_count(u_count, profile)
    has_xray = u_xray < profile.mixes["xray"]
    if has_xray:
        return ("xray",) + ("misc",) * max(0, count - 1)
    return ("misc",) * count


def draw_patient(profile: Profile, minute: int, code: str, rng: np.random.Generator) -> tuple:
    """The tape row of a patient of urgency `code` arriving at `minute`, its
    other attributes drawn from `rng`.

    Four batched draws, in the stream order of one scalar draw per
    attribute, so every attribute keeps its value bit for bit."""
    u_mode = rng.random()
    nw_yellow = profile.mixes["nonwalking_yellow"]
    mode = "nonwalking" if code == "RED" or (code == "YELLOW" and u_mode < nw_yellow) else "walking"
    svc = profile.service
    triage_d = max(1, round_half_up(svc["triage"].from_normal(rng.standard_normal())))
    u_visit, u_lab, u_lab_triage, u_xray, u_count, u_dismiss = rng.random(6).tolist()
    visit_type = draw_visit_type(u_visit, profile)
    exam_kinds = draw_exam_list(u_xray, u_count, profile)
    z_first, z_last, *z_lab_exams = rng.standard_normal(5 + len(exam_kinds)).tolist()
    first_spec = svc[FIRST_SERVICE["GENERAL" if code == "RED" else visit_type]]
    exam_ds = [
        max(1, round_half_up(svc["exam_xray" if kind == "xray" else "exam_misc"].from_normal(z)))
        for kind, z in zip(exam_kinds, z_lab_exams[3:])
    ]
    return (minute, code, mode, triage_d, visit_type, u_lab < profile.mixes["needs_lab"],
            u_lab_triage, u_dismiss, exam_kinds,
            max(1, round_half_up(first_spec.from_normal(z_first))),
            max(1, round_half_up(svc["last_visit"].from_normal(z_last))),
            tuple(z_lab_exams[:3]), exam_ds)


def draw_patients(profile: Profile, seed: int, rep: int, days: int) -> Iterator[tuple]:
    """Yield the patients of replication `rep`, one tape row per arrival:
    (t_arrive, code, mode, triage_d, visit_type, needs_lab, u_lab_triage,
    u_dismiss, exam_kinds, first_d, last_d, lab_z, exam_ds).

    Arrival minutes and codes come from the "arrivals" stream, the other
    attributes from "attributes". The rows stop at the first arrival at or
    past the horizon (warm-up plus `days`); that arrival's code is drawn
    too."""
    arrivals = rng_stream(seed, "arrivals", rep)
    attributes = rng_stream(seed, "attributes", rep)
    sampler = ArrivalSampler(profile)
    horizon = WARMUP_MIN + days * MINUTES_PER_DAY
    t_real = 0.0
    while True:
        t_real += sampler.sample_interarrival(t_real, arrivals)
        code = sampler.draw_code(t_real, arrivals)
        if t_real >= horizon:
            return
        yield draw_patient(profile, round_half_up(t_real), code, attributes)
