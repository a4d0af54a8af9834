import pytest

from edsim.kernel import LogRecord
from edsim.kpi import UsageError, aggregate, compare, compute_kpis, rows_from_log

THRESHOLDS = {"GREEN": 120, "WHITE": 240}


def rec(time, pid, event, detail=""):
    return LogRecord(0, time, pid, event, detail)


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
        r = compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS, warmup_min=0)
        assert r.wt_first == 30
        assert r.wt_last == 10
        assert r.los == 100
        assert r.in_per_day == 1

    def test_green_over_threshold_is_outlier(self):
        records = patient_records(1, 0, enq_first=5, start_first=140, end_first=150,
                                  enq_last=160, start_last=165, discharge=170)
        r = compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS, warmup_min=0)
        assert r.outlier_pct["GREEN"] == 100.0

    def test_merged_logs_match_hand_computed_means(self):
        # two patients: waits 30 and 10; los 100 and 50
        records = patient_records(1, 0, enq_first=5, start_first=35, end_first=60,
                                  enq_last=80, start_last=90, discharge=100)
        records += patient_records(2, 10, code="WHITE", enq_first=12, start_first=22,
                                   end_first=30, enq_last=40, start_last=45, discharge=60)
        r = compute_kpis(rows_from_log(records), days=2, thresholds=THRESHOLDS, warmup_min=0)
        assert r.wt_first == pytest.approx((30 + 10) / 2)
        assert r.wt_last == pytest.approx((10 + 5) / 2)
        assert r.los == pytest.approx((100 + 50) / 2)
        assert r.in_per_day == pytest.approx(1.0)

    def test_dismissed_excluded_from_in(self):
        records = patient_records(1, 0, dismissed=True)
        records += patient_records(2, 5, enq_first=7, start_first=9, end_first=12,
                                   enq_last=13, start_last=14, discharge=20)
        r = compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS, warmup_min=0)
        assert r.in_per_day == 1
        assert r.n_dismissed == 1

    def test_censored_patient_excluded_from_los_and_counted(self):
        records = patient_records(1, 0, enq_first=5, start_first=35, end_first=60)
        records += patient_records(2, 0, enq_first=4, start_first=10, end_first=20,
                                   enq_last=25, start_last=30, discharge=44)
        r = compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS, warmup_min=0)
        assert r.n_censored == 1
        assert r.los == 44
        assert r.wt_first == pytest.approx((30 + 6) / 2)  # completed waits still count

    def test_warmup_arrivals_excluded(self):
        records = patient_records(1, 100, enq_first=105, start_first=110, end_first=120,
                                  enq_last=125, start_last=130, discharge=140)
        records += patient_records(2, 1500, enq_first=1505, start_first=1510,
                                   end_first=1520, enq_last=1525, start_last=1530,
                                   discharge=1540)
        r = compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS, warmup_min=1440)
        assert r.n_admitted == 1
        assert r.los == 40

    def test_los_at_least_wt_first_per_patient(self):
        records = patient_records(1, 0, enq_first=5, start_first=95, end_first=100,
                                  enq_last=101, start_last=102, discharge=110)
        r = compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS, warmup_min=0)
        assert r.los >= r.wt_first


class TestAggregate:
    def one_report(self, los=200.0):
        records = patient_records(1, 0, enq_first=5, start_first=35, end_first=60,
                                  enq_last=80, start_last=90, discharge=int(los))
        return compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS, warmup_min=0)

    def test_identical_reports_average_to_same(self):
        reports = [self.one_report() for _ in range(10)]
        agg = aggregate(reports)
        assert agg.los == reports[0].los
        assert agg.wt_first == reports[0].wt_first
        assert len(agg.vectors["los"]) == 10

    def test_two_values_average(self):
        agg = aggregate([self.one_report(200), self.one_report(210)])
        assert agg.los == pytest.approx(205.0)

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
        return compute_kpis(rows_from_log(records), days=1, thresholds=THRESHOLDS, warmup_min=0)

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
