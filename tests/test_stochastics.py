import copy
import math

import numpy as np
import pytest
from scipy import stats

from edsim.kernel import rng_stream
from edsim.model import Patient
from edsim.stochastics import (
    CODES,
    ArrivalSampler,
    Profile,
    ProfileError,
    ServiceSpec,
    lab_components,
    next_dispatch,
)

from tape_oracle import draw_exam_count, draw_exam_list, draw_patient


def rng(seed=1, label="test"):
    return rng_stream(seed, label)


def model_patients(profile, n, seed):
    """n patients with attributes drawn as the model draws them."""
    g = rng_stream(seed, "attributes", 0)
    for _ in range(n):
        yield Patient(0, draw_patient(profile, 0, "GREEN", g))


class TestProfileValidation:
    def test_default_profile_loads(self, default_profile):
        assert default_profile.version == 1

    def test_missing_section_rejected_with_path(self, default_raw):
        raw = copy.deepcopy(default_raw)
        del raw["lab_profile"]
        with pytest.raises(ProfileError, match="lab_profile"):
            Profile(raw)

    def test_wrong_hour_count_rejected(self, default_raw):
        raw = copy.deepcopy(default_raw)
        raw["arrival_rates"]["GREEN"] = raw["arrival_rates"]["GREEN"][:23]
        with pytest.raises(ProfileError, match="arrival_rates"):
            Profile(raw)

    def test_visit_mix_must_sum_to_one(self, default_raw):
        raw = copy.deepcopy(default_raw)
        raw["mixes"]["visit_type"]["GENERAL"] = 0.5
        with pytest.raises(ProfileError, match="sum to 1"):
            Profile(raw)

    def test_version_mandatory(self, default_raw):
        raw = copy.deepcopy(default_raw)
        del raw["version"]
        with pytest.raises(ProfileError, match="version"):
            Profile(raw)

    def test_duplicate_team_ids_rejected(self, default_raw):
        raw = copy.deepcopy(default_raw)
        raw["resources"]["low_general"]["teams"][1]["id"] = "A"
        raw["resources"]["low_general"]["teams"][0]["id"] = "A"
        with pytest.raises(ProfileError, match="duplicate team"):
            Profile(raw)


    @pytest.mark.parametrize("path, value", [
        (("arrival_rates", "GREEN", 9), math.inf),
        (("arrival_rates", "RED", 0), math.nan),
        (("mixes", "needs_lab"), math.nan),
        (("thresholds", "GREEN"), math.nan),
        (("lab_profile", "misc", 3), 10 ** 400),
    ])
    def test_non_finite_numbers_rejected(self, default_raw, path, value):
        raw = copy.deepcopy(default_raw)
        *parents, last = path
        node = raw
        for key in parents:
            node = node[key]
        node[last] = value
        with pytest.raises(ProfileError, match=f"at {'/'.join(map(str, path))}: .* finite"):
            Profile(raw)

    def test_optional_fields_read_with_their_defaults(self, default_raw):
        raw = copy.deepcopy(default_raw)
        del raw["mixes"]["nonwalking_yellow"], raw["routing"]
        profile = Profile(raw)
        assert profile.mixes["nonwalking_yellow"] == 0.5
        assert profile.pull_low_into_high == "always"

    def test_whole_floats_read_as_integers(self, default_raw):
        raw = copy.deepcopy(default_raw)
        raw["version"] = 1.0
        raw["resources"]["xray"]["capacity"] = 2.0
        raw["resources"]["low_general"]["teams"][0]["start"] = 480.0
        raw["resources"]["last_visit_team"]["end"] = 1200.0
        profile = Profile(raw)
        assert type(profile.version) is int
        assert type(profile.capacity["xray"]) is int
        _team, start, _end = profile.teams["low_general"][0]
        assert type(start) is int
        assert type(profile.last_visit_band[1]) is int
        assert raw["resources"]["low_general"]["teams"][0]["start"] == 480.0  # raw kept as loaded

    def test_entry_names_with_a_slash_are_read_whole(self, default_raw):
        raw = copy.deepcopy(default_raw)
        raw["service"]["x/y"] = {"family": "lognormal", "mean": 3.0, "cv": 0.5}
        assert Profile(raw).service["x/y"].mean == 3.0
        raw["service"]["x/y"]["family"] = "gamma"
        with pytest.raises(ProfileError, match="at service/x~1y/family: 'gamma' is not one of"):
            Profile(raw)
        raw = copy.deepcopy(default_raw)
        raw["thresholds"]["a/b~c"] = 60  # not an urgency code
        with pytest.raises(ProfileError, match="at thresholds/a~1b~0c: 'a/b~c' is not one of"):
            Profile(raw)


class TestArrivalSampler:
    def test_flat_profile_poisson_identity(self, mini_raw_factory):
        # 6 arrivals/hour -> mean inter-arrival 10 minutes
        raw = mini_raw_factory(daily_total=144.0)
        sampler = ArrivalSampler(Profile(raw))
        g = rng(3)
        t, gaps = 0.0, []
        for _ in range(100_000):
            gap = sampler.sample_interarrival(t, g)
            gaps.append(gap)
            t += gap
        assert abs(np.mean(gaps) - 10.0) / 10.0 < 0.02

    def test_zero_rate_hour_has_no_arrivals(self, mini_raw_factory):
        raw = mini_raw_factory(daily_total=240.0)
        for c in CODES:
            raw["arrival_rates"][c][3] = 0.0  # close 03:00-04:00
        sampler = ArrivalSampler(Profile(raw))
        g = rng(4)
        t = 0.0
        hits = 0
        while t < 200 * 1440:
            t += sampler.sample_interarrival(t, g)
            if 180 <= t % 1440 < 240:
                hits += 1
        assert hits == 0

    def test_daily_mean_matches_table(self, default_profile):
        # 300 simulated days of pure arrivals against the configured total
        sampler = ArrivalSampler(default_profile)
        g = rng(5)
        t, n = 0.0, 0
        while True:
            t += sampler.sample_interarrival(t, g)
            if t >= 300 * 1440:
                break
            n += 1
        daily = n / 300.0
        assert abs(daily - 238.23) / 238.23 < 0.02

    def test_code_mix_follows_hourly_rates(self, default_profile):
        sampler = ArrivalSampler(default_profile)
        g = rng(6)
        codes = [sampler.draw_code(10 * 60, g) for _ in range(20_000)]
        h = 10
        total = sum(default_profile.arrival_rates[c][h] for c in CODES)
        for c in CODES:
            expected = default_profile.arrival_rates[c][h] / total
            assert abs(codes.count(c) / len(codes) - expected) < 0.02


class TestAttributeDraws:
    def test_published_shares(self, default_profile):
        n = 100_000
        general = lab = xray = lt4 = 0
        for p in model_patients(default_profile, n, seed=7):
            general += p.visit_type == "GENERAL"
            lab += p.needs_lab
            xray += "xray" in p.exam_kinds
            lt4 += len(p.exam_kinds) < 4
        assert abs(general / n - 0.79) < 0.01
        assert abs(lab / n - 0.54) < 0.01
        assert abs(xray / n - 0.57) < 0.01
        assert abs(lt4 / n - 0.85) < 0.01

    def test_exam_count_support_includes_zero(self, default_profile):
        counts = {draw_exam_count(u, default_profile) for u in np.linspace(0, 0.999, 500)}
        assert 0 in counts
        assert max(counts) > 3

    def test_exam_list_xray_first(self, default_profile):
        exams = draw_exam_list(0.0, 0.99, default_profile)
        assert exams[0] == "xray"

    def test_visit_mix_chi_square(self, default_profile):
        n = 100_000
        observed = {"GENERAL": 0, "ORTHOPAEDIC": 0, "DERMATOLOGICAL": 0}
        for p in model_patients(default_profile, n, seed=8):
            observed[p.visit_type] += 1
        expected = [n * default_profile.mixes["visit_type"][v] for v in observed]
        res = stats.chisquare(list(observed.values()), expected)
        assert res.pvalue > 0.01


class TestServiceSpec:
    def test_lognormal_moments(self):
        spec = ServiceSpec("lognormal", 15.0, 0.5)
        g = rng(9)
        xs = [spec.from_normal(g.standard_normal()) for _ in range(100_000)]
        assert abs(np.mean(xs) - 15.0) / 15.0 < 0.02
        assert min(xs) > 0 and all(math.isfinite(x) for x in xs)

    def test_triangular_bounded_and_centered(self):
        spec = ServiceSpec("triangular", 10.0, 0.3)
        g = rng(10)
        xs = [spec.from_normal(g.standard_normal()) for _ in range(50_000)]
        half = 10.0 * 0.3 * math.sqrt(6.0)
        assert all(10.0 - half - 1e-9 <= x <= 10.0 + half + 1e-9 for x in xs)
        assert abs(np.mean(xs) - 10.0) / 10.0 < 0.02

    def test_from_normal_equals_closed_form_bit_for_bit(self):
        def closed_form(family, mean, cv, z):
            if family == "lognormal":
                sigma2 = math.log(1.0 + cv * cv)
                mu = math.log(mean) - 0.5 * sigma2
                return math.exp(mu + math.sqrt(sigma2) * z)
            u = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
            half = mean * cv * math.sqrt(6.0)
            low, high = max(0.0, mean - half), mean + half
            if high <= low:
                return mean
            if u < (mean - low) / (high - low):
                return low + math.sqrt(u * (high - low) * (mean - low))
            return high - math.sqrt((1 - u) * (high - low) * (high - mean))

        for family in ("lognormal", "triangular"):
            for mean, cv in ((0.1, 0.0), (2.0, 0.2), (15.0, 0.5), (42.7, 1.3), (7.3, 0.45)):
                spec = ServiceSpec(family, mean, cv)
                for z in np.linspace(-6.0, 6.0, 481).tolist():
                    assert spec.from_normal(z).hex() == closed_form(family, mean, cv, z).hex(), \
                        (family, mean, cv, z)


class TestLab:
    def test_dispatch_rounds_up_to_half_hour(self):
        assert next_dispatch(10 * 60 + 5) == 10 * 60 + 30

    def test_dispatch_boundary_inclusive(self):
        assert next_dispatch(10 * 60 + 30) == 10 * 60 + 30

    def test_profile_has_shift_change_peaks(self, default_profile):
        total = [sum(spec.mean for spec in default_profile.lab_specs[h]) for h in range(24)]
        assert total[7] > total[6] and total[7] > total[8]
        assert total[19] > total[18] and total[19] > total[20]

    def test_reduction_floor(self, default_profile):
        g = rng(11)
        for _ in range(2000):
            z = (g.standard_normal(), g.standard_normal(), g.standard_normal())
            w0, e0, m0 = lab_components(default_profile, 10, *z, r=None)
            w1, e1, m1 = lab_components(default_profile, 10, *z, r=30)
            assert (e1, m1) == (e0, m0)
            assert w1 >= 5
            assert 0 <= w0 - w1 <= 30

    def test_reduction_beyond_float_range_hits_the_floor(self, default_profile):
        assert lab_components(default_profile, 10, 0.0, 0.0, 0.0, r=10**400)[0] == 5

    def test_mean_reduction_close_to_r(self, default_profile):
        # paired draws: the floor binds only on a small tail of the waiting leg
        g = rng(12)
        diffs = []
        for _ in range(20_000):
            z = (g.standard_normal(), g.standard_normal(), g.standard_normal())
            w0, _, _ = lab_components(default_profile, 14, *z, r=None)
            w1, _, _ = lab_components(default_profile, 14, *z, r=30)
            diffs.append(w0 - w1)
        assert 27.0 <= np.mean(diffs) <= 30.0

    def test_all_components_non_negative(self, default_profile):
        g = rng(13)
        for hour in range(24):
            z = (g.standard_normal(), g.standard_normal(), g.standard_normal())
            w, e, m = lab_components(default_profile, hour, *z, r=None)
            assert w >= 0 and e >= 0 and m >= 0


class TestArrivalTableInvariants:
    def test_total_mass(self, default_profile):
        total = sum(sum(default_profile.arrival_rates[c]) for c in CODES)
        assert abs(total - 238.23) < 1.0

    def test_green_is_modal(self, default_profile):
        daily = {c: sum(default_profile.arrival_rates[c]) for c in CODES}
        assert max(daily, key=daily.get) == "GREEN"

    def test_morning_window_is_peak(self, default_profile):
        total = [sum(default_profile.arrival_rates[c][h] for c in CODES) for h in range(24)]
        windows = {h: sum(total[(h + i) % 24] for i in range(4)) for h in range(24)}
        assert max(windows, key=windows.get) == 8
