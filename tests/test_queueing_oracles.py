"""Queueing-theory oracles: reduced profiles whose ED is a textbook queue,
so a KPI has an exact value that does not depend on the random streams.

Pollaczek-Khinchine (P-K): white patients only, arriving as a Poisson process
at a constant rate, all orthopaedic, with no lab, x-ray or extra exam. The
orthopaedic room has one team, on shift all day. Under scenario p = 1 that
team starts a patient's last visit the minute their first visit ends, before
anyone waiting for a first visit, so the room is one M/G/1 FIFO server whose
service time is S = first visit + last visit. Triage is an i.i.d. delay in
front of it, so the room still sees Poisson arrivals, and the mean wait for
the first visit is Wq = lambda E[S^2] / (2 (1 - rho)), rho = lambda E[S]."""

import copy
import math

import pytest
from scipy import stats

from edsim.harness import run_scenario
from edsim.scenario import Scenario
from edsim.stochastics import Profile, ServiceSpec

PK_RATE = 2.2  # white arrivals per hour, in every hour
PK_SEED, PK_REPLICATIONS, PK_DAYS = 42, 10, 60


def pk_profile(default_raw) -> Profile:
    raw = copy.deepcopy(default_raw)
    raw["arrival_rates"] = {code: [PK_RATE if code == "WHITE" else 0.0] * 24
                            for code in ("WHITE", "GREEN", "YELLOW", "RED")}
    raw["mixes"].update(visit_type={"GENERAL": 0.0, "ORTHOPAEDIC": 1.0, "DERMATOLOGICAL": 0.0},
                        needs_lab=0.0, xray=0.0, extra_exam_lt4=1.0)
    return Profile(raw)


def rounded_moments(spec: ServiceSpec, k_max: int = 5000) -> tuple[float, float]:
    """E[D] and E[D^2] of the whole-minute duration the tape draws from a
    lognormal `spec`: D = int(x + 0.5) or 1, so P(D = 1) = F(1.5) and
    P(D = k) = F(k + 1/2) - F(k - 1/2) for k >= 2."""
    assert spec.family == "lognormal"

    def cdf(x: float) -> float:
        return 0.5 * (1.0 + math.erf((math.log(x) - spec.mu) / (spec.sigma * math.sqrt(2.0))))

    pmf = [cdf(1.5)] + [cdf(k + 0.5) - cdf(k - 0.5) for k in range(2, k_max + 1)]
    assert sum(pmf) == pytest.approx(1.0, abs=1e-12)  # k_max leaves no tail mass
    return (sum(k * p for k, p in enumerate(pmf, 1)),
            sum(k * k * p for k, p in enumerate(pmf, 1)))


def pk_mean_wait(profile: Profile) -> tuple[float, float]:
    """(rho, Wq in minutes) of the P-K room."""
    m1_first, m2_first = rounded_moments(profile.service["first_ortho"])
    m1_last, m2_last = rounded_moments(profile.service["last_visit"])
    es, es2 = m1_first + m1_last, m2_first + 2 * m1_first * m1_last + m2_last
    lam = PK_RATE / 60.0  # per minute
    rho = lam * es
    return rho, lam * es2 / (2 * (1 - rho))


class TestPollaczekKhinchine:
    @pytest.fixture(scope="class")
    def run(self, default_raw):
        profile = pk_profile(default_raw)
        agg = run_scenario(profile, Scenario(p=1), PK_SEED, PK_REPLICATIONS, PK_DAYS)
        return profile, agg

    def test_the_room_is_a_stable_single_server(self, run):
        profile, _agg = run
        rho, _wq = pk_mean_wait(profile)
        assert 0.6 < rho < 0.8
        assert [team for team, _start, _end in profile.teams["orthopaedic"]] == ["ORT1"]
        assert profile.teams["orthopaedic"][0][1:] == (0, 0)  # on shift all day

    def test_t_interval_of_the_first_wait_covers_wq(self, run):
        profile, agg = run
        _rho, wq = pk_mean_wait(profile)
        waits = agg.vectors["wt_first"]
        n = len(waits)
        mean = sum(waits) / n
        sd = math.sqrt(sum((w - mean) ** 2 for w in waits) / (n - 1))
        half = stats.t.ppf(0.975, n - 1) * sd / math.sqrt(n)
        assert abs(mean - wq) <= half, (mean, half, wq)

    def test_the_last_visit_never_waits(self, run):
        _profile, agg = run
        assert agg.vectors["wt_last"] == [0.0] * PK_REPLICATIONS
