import math
import random
import struct
import sys
from array import array

import pytest
from scipy import stats

from edsim import cli
from edsim.kernel import CODE_RANK, MINUTES_PER_DAY
from edsim.kpi import (KPI_NAMES, NO_TIME, ROW, ROW_FIELDS, WARMUP_MIN, KpiReport, KpiRows,
                       UsageError, _t_two_sided_p, _welch_p, aggregate, compare, compute_kpis)

from log_oracle import DRAIN_DAYS, LogRecord, rows_from_log

THRESHOLDS = {"GREEN": 120, "WHITE": 240}


def rec(time, pid, event, detail=""):
    """A log record `time` minutes after the warm-up ends."""
    return LogRecord(0, WARMUP_MIN + time, pid, event, detail)


def patient_records(pid, arrive, code="GREEN", enq_first=None, start_first=None,
                    end_first=None, enq_last=None, start_last=None, discharge=None,
                    dismissed=False):
    records = [
        rec(arrive, pid, "ARRIVE", f"mode=walking code={code}"),
        rec(arrive + 1, pid, "TRIAGE_DONE",
            f"code={code} type=GENERAL lab=0 labtriage=0 exams=-"),
    ]
    if dismissed:
        records.append(rec(arrive + 1, pid, "DISMISSED_AT_TRIAGE"))
        return records
    pairs = [("ENQUEUE_FIRST", enq_first), ("START_FIRST", start_first),
             ("END_FIRST", end_first), ("ENQUEUE_LAST", enq_last),
             ("START_LAST", start_last), ("DISCHARGE", discharge)]
    for event, t in pairs:
        if t is not None:
            records.append(rec(t, pid, event))
    return records


class TestComputeKpis:
    def test_single_patient_hand_numbers(self):
        records = patient_records(1, 0, enq_first=5, start_first=35, end_first=60,
                                  enq_last=80, start_last=90, discharge=100)
        r = compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS)
        assert r.value("wt_first") == 30
        assert r.value("wt_last") == 10
        assert r.value("los") == 100
        assert r.value("in_per_day") == 1

    def test_green_over_threshold_is_outlier(self):
        records = patient_records(1, 0, enq_first=5, start_first=140, end_first=150,
                                  enq_last=160, start_last=165, discharge=170)
        r = compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS)
        assert r.value("outlier_GREEN") == 100.0

    def test_merged_logs_match_hand_computed_means(self):
        # two patients: waits 30 and 10; los 100 and 50
        records = patient_records(1, 0, enq_first=5, start_first=35, end_first=60,
                                  enq_last=80, start_last=90, discharge=100)
        records += patient_records(2, 10, code="WHITE", enq_first=12, start_first=22,
                                   end_first=30, enq_last=40, start_last=45, discharge=60)
        r = compute_kpis(rows_from_log(records), days=2, thresholds=THRESHOLDS)
        assert r.value("wt_first") == pytest.approx((30 + 10) / 2)
        assert r.value("wt_last") == pytest.approx((10 + 5) / 2)
        assert r.value("los") == pytest.approx((100 + 50) / 2)
        assert r.value("in_per_day") == pytest.approx(1.0)

    def test_dismissed_excluded_from_in(self):
        records = patient_records(1, 0, dismissed=True)
        records += patient_records(2, 5, enq_first=7, start_first=9, end_first=12,
                                   enq_last=13, start_last=14, discharge=20)
        r = compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS)
        assert r.value("in_per_day") == 1
        assert r.n_dismissed == 1

    def test_censored_patient_excluded_from_los_and_counted(self):
        records = patient_records(1, 0, enq_first=5, start_first=35, end_first=60)
        records += patient_records(2, 0, enq_first=4, start_first=10, end_first=20,
                                   enq_last=25, start_last=30, discharge=44)
        r = compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS)
        assert r.n_censored == 1
        assert r.value("los") == 44
        assert r.value("wt_first") == pytest.approx((30 + 6) / 2)  # completed waits still count

    def test_warmup_arrivals_excluded(self):
        # patient 1 arrives 100 minutes into the warm-up day, patient 2 60 minutes after it ends
        records = patient_records(1, 100 - WARMUP_MIN, enq_first=105 - WARMUP_MIN,
                                  start_first=110 - WARMUP_MIN, end_first=120 - WARMUP_MIN,
                                  enq_last=125 - WARMUP_MIN, start_last=130 - WARMUP_MIN,
                                  discharge=140 - WARMUP_MIN)
        records += patient_records(2, 60, enq_first=65, start_first=70, end_first=80,
                                   enq_last=85, start_last=90, discharge=100)
        r = compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS)
        assert r.n_admitted == 1
        assert r.value("los") == 40

    def test_first_waits_are_the_completed_waits_the_outlier_rates_count(self):
        # green waits 130 and 20, one green censored before its first visit,
        # one white wait 10, one yellow wait 3 (no threshold, so not kept)
        records = patient_records(1, 0, enq_first=5, start_first=135)
        records += patient_records(2, 0, enq_first=4, start_first=24)
        records += patient_records(3, 0, enq_first=6)
        records += patient_records(4, 10, code="WHITE", enq_first=12, start_first=22)
        records += patient_records(5, 10, code="YELLOW", enq_first=12, start_first=15)
        r = compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS)
        assert r.first_waits == {"GREEN": array("i", [130, 20]), "WHITE": array("i", [10])}
        assert r.to_dict()["outlier_pct"] == {"GREEN": 50.0, "WHITE": 0.0}
        assert "first_waits" not in r.to_dict()

    def test_outlier_pct_reports_every_threshold_code_and_none_for_nan(self):
        # first waits: red 3 (over 0), yellow 20 (not over 30), green 130
        # (over 120); no white patient, so its share is NaN
        thresholds = {"RED": 0, "YELLOW": 30, "GREEN": 120, "WHITE": 240}
        records = patient_records(1, 0, code="RED", enq_first=2, start_first=5)
        records += patient_records(2, 0, code="YELLOW", enq_first=2, start_first=22)
        records += patient_records(3, 0, enq_first=2, start_first=132)
        r = compute_kpis(rows_from_log(records), days=1, thresholds=thresholds)
        for report in (r, aggregate([r, r])):
            outlier_pct = report.to_dict()["outlier_pct"]
            assert outlier_pct == {"GREEN": 100.0, "RED": 100.0, "WHITE": None, "YELLOW": 0.0}
            for code in ("RED", "YELLOW", "GREEN"):
                assert outlier_pct[code] == report.value(f"outlier_{code}")
            assert math.isnan(report.value("outlier_WHITE"))

    def test_a_report_holds_each_first_wait_in_four_bytes(self):
        # waits above 256 are each an int object of their own in a list
        records = bytearray()
        for i in range(1000):
            records += ROW.pack(CODE_RANK["GREEN"], WARMUP_MIN, WARMUP_MIN + 1, 0, WARMUP_MIN + 2,
                                WARMUP_MIN + 300 + i, NO_TIME, NO_TIME, NO_TIME)
        report = compute_kpis(KpiRows(records), days=1, thresholds=THRESHOLDS)
        assert list(report.first_waits["GREEN"]) == list(range(298, 1298))
        assert sys.getsizeof(report.first_waits["GREEN"]) <= 5 * 1000 + 128

    def test_a_record_holds_every_minute_a_run_can_reach(self):
        last = WARMUP_MIN + (cli.MAX_DAYS + DRAIN_DAYS) * MINUTES_PER_DAY
        row = (last,) * len(ROW_FIELDS)
        rows = KpiRows(bytearray(ROW.pack(*row)))
        assert rows[0] == row and list(rows) == [row]
        with pytest.raises(struct.error):
            ROW.pack(*row[:-1], 2**31)

    def test_los_at_least_wt_first_per_patient(self):
        records = patient_records(1, 0, enq_first=5, start_first=95, end_first=100,
                                  enq_last=101, start_last=102, discharge=110)
        r = compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS)
        assert r.value("los") >= r.value("wt_first")


class TestAggregate:
    def one_report(self, los=200.0):
        records = patient_records(1, 0, enq_first=5, start_first=35, end_first=60,
                                  enq_last=80, start_last=90, discharge=int(los))
        return compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS)

    def test_identical_reports_average_to_same(self):
        reports = [self.one_report() for _ in range(10)]
        agg = aggregate(reports)
        assert agg.value("los") == reports[0].value("los")
        assert agg.value("wt_first") == reports[0].value("wt_first")
        assert len(agg.vectors["los"]) == 10

    def test_two_values_average(self):
        agg = aggregate([self.one_report(200), self.one_report(210)])
        assert agg.value("los") == pytest.approx(205.0)

    def test_first_waits_are_concatenated_in_replication_order(self):
        a = KpiReport({"los": [1.0]},
                      first_waits={"GREEN": array("i", [5, 7]), "WHITE": array("i")})
        b = KpiReport({"los": [2.0]}, first_waits={"GREEN": array("i", [3]), "WHITE": array("i", [9])})
        assert aggregate([a, b]).first_waits == {"GREEN": array("i", [5, 7, 3]),
                                                 "WHITE": array("i", [9])}
        assert a.first_waits == {"GREEN": array("i", [5, 7]), "WHITE": array("i")}

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            aggregate([])


class TestCompare:
    def vec_report(self, values):
        reports = [self.make(v) for v in values]
        return aggregate(reports)

    def make(self, los):
        records = patient_records(1, 0, enq_first=5, start_first=35, end_first=60,
                                  enq_last=80, start_last=90, discharge=int(los))
        return compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS)

    def test_identical_runs_never_flagged(self):
        base = self.vec_report([200, 210, 190, 205])
        cand = self.vec_report([200, 210, 190, 205])
        cmp_ = compare(base, cand)
        assert cmp_.flags() == []

    def test_clear_shift_is_flagged(self):
        base = self.vec_report([200, 201, 199, 200, 202])
        cand = self.vec_report([180, 181, 179, 180, 182])
        cmp_ = compare(base, cand)
        assert cmp_.significant["los"]
        assert cmp_.delta["los"] == pytest.approx(-20.0)

    def test_permutation_invariance(self):
        base = self.vec_report([200, 210, 190])
        a = compare(base, self.vec_report([195, 205, 185]))
        b = compare(base, self.vec_report([185, 195, 205]))
        assert a.p_value["los"] == pytest.approx(b.p_value["los"], nan_ok=True)
        assert a.significant["los"] == b.significant["los"]

    def test_single_replication_rejected(self):
        with pytest.raises(UsageError):
            compare(self.vec_report([200]), self.vec_report([210]))

    def test_unequal_counts_rejected(self):
        with pytest.raises(UsageError):
            compare(self.vec_report([200, 210]), self.vec_report([200, 210, 220]))


class TestWelchPValue:
    """The pure-Python p-value against scipy as the oracle."""

    @staticmethod
    def assert_matches(p, oracle):
        if oracle > 1e-300:
            assert abs(p - oracle) <= 1e-12 * oracle, (p, oracle)

    # df in (1, 2] is what two-replication sweeps produce
    @pytest.mark.parametrize("df", [1, 1.0001, 1.3, 1.5, 2, 3.7, 10, 100, 1e4])
    @pytest.mark.parametrize("t", [0, 1e-3, 0.5, 1, 2, 5, 20, 50])
    def test_t_tail_grid(self, t, df):
        p = _t_two_sided_p(t, df)
        if t == 0:
            assert p == 1.0
        self.assert_matches(p, float(2 * stats.t.sf(t, df)))
        assert _t_two_sided_p(-t, df) == p

    def test_random_welch_pairs(self):
        rng = random.Random(20260)
        for _ in range(1500):
            b = [rng.gauss(200, rng.uniform(0.1, 40)) for _ in range(rng.randint(2, 11))]
            shift, spread = rng.uniform(-60, 60), rng.uniform(0.1, 40)
            c = [rng.gauss(200 + shift, spread) for _ in range(rng.randint(2, 11))]
            oracle = float(stats.ttest_ind(b, c, equal_var=False).pvalue)
            self.assert_matches(_welch_p(b, c), oracle)

    def test_compare_reports_the_welch_p_value(self):
        b, c = [200.0, float("nan"), 190.0, 205.0], [185.0, 199.0, 181.0, 190.5]
        cmp_ = compare(KpiReport({k: b for k in KPI_NAMES}), KpiReport({k: c for k in KPI_NAMES}))
        oracle = float(stats.ttest_ind([200.0, 190.0, 205.0], c, equal_var=False).pvalue)
        assert cmp_.p_value["los"] == pytest.approx(oracle, rel=1e-12)
        assert cmp_.significant["los"] == (oracle < 0.05)
