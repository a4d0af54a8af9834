"""Flow properties on random small profiles and scenarios: every patient who
arrives is discharged, dismissed or still in the ED at the horizon, draining
empties the ED, and no team or exam pool is ever overbooked."""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from edsim.kpi import NO_TIME, ROW_FIELDS
from edsim.model import Replication
from edsim.scenario import Scenario
from edsim.stochastics import Profile

from log_oracle import assert_no_overbooking, collect_patients
from test_tape import mini_profiles

DISMISSED, DISCHARGE = ROW_FIELDS.index("dismissed"), ROW_FIELDS.index("discharge")
# Mini profiles staff both general rooms and leave these two empty.
SPECIALIST_ROOMS = {"ORTHOPAEDIC": "orthopaedic", "DERMATOLOGICAL": "dermatological"}


def _maybe(values):
    return st.none() | values


SCENARIOS = st.builds(
    Scenario, t=_maybe(st.integers(0, 30)), p=_maybe(st.sampled_from([0, 1])),
    tau_g=_maybe(st.integers(0, 240)), tau_w=_maybe(st.integers(0, 360)),
    e=_maybe(st.floats(0, 100)), l=_maybe(st.floats(0, 100)), a=st.integers(0, 2),
    r=_maybe(st.integers(0, 120)))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), scenario=SCENARIOS, seed=st.integers(0, 2**32 - 1),
       days=st.integers(1, 2), staffed=st.booleans())
def test_patients_are_conserved_and_no_one_is_overbooked(default_raw, data, scenario, seed,
                                                        days, staffed):
    profile = data.draw(mini_profiles(default_raw))
    if staffed:
        raw = copy.deepcopy(profile.raw)
        raw["resources"]["orthopaedic"]["teams"] = [{"id": "O1", "start": 0, "end": 0}]
        raw["resources"]["dermatological"]["teams"] = [{"id": "D1", "start": 480, "end": 1200}]
        profile = Profile(raw)

    rep = Replication(profile, scenario, 0, seed, days)
    log = rep.run()
    assert rep.in_flight == sum(1 for r in log.rows
                                if not r[DISMISSED] and r[DISCHARGE] == NO_TIME)
    assert_no_overbooking(collect_patients(log.records), log.records, profile.resources)

    # a room that receives patients but has no team never empties
    if all(profile.resources[room]["teams"] for visit, room in SPECIALIST_ROOMS.items()
           if profile.mixes["visit_type"][visit] > 0):
        drained = Replication(profile, scenario, 0, seed, days, drain=True)
        log = drained.run()
        assert drained.in_flight == 0
        assert all(r[DISCHARGE] != NO_TIME for r in log.rows if not r[DISMISSED])
        assert_no_overbooking(collect_patients(log.records), log.records, profile.resources)
