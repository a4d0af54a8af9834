"""The profile format, rule by rule: one rejecting mutation of the default
profile per rule (each required key, each type, each bound, each enum), and
a set of boundary values that must be accepted. A rejected profile raises
`ProfileError` naming the path of the fault, and `edsim run` exits 2 with
no traceback."""

import copy
import json

import pytest

from edsim.cli import main
from edsim.stochastics import Profile, ProfileError

SERVICES = ("triage", "first_general", "first_ortho", "first_derma", "last_visit",
            "exam_xray", "exam_misc")
TEAMED = ("low_general", "high_general", "orthopaedic", "dermatological")
TEAM0 = "resources/low_general/teams/0"

REQUIRED = [
    "version", "arrival_rates", "mixes", "service", "lab_profile", "thresholds", "resources",
    *(f"arrival_rates/{c}" for c in ("WHITE", "GREEN", "YELLOW", "RED")),
    "mixes/visit_type", "mixes/needs_lab", "mixes/xray", "mixes/extra_exam_lt4",
    *(f"mixes/visit_type/{v}" for v in ("GENERAL", "ORTHOPAEDIC", "DERMATOLOGICAL")),
    *(f"service/{s}" for s in SERVICES),
    "service/triage/family", "service/triage/mean", "service/triage/cv",
    "lab_profile/waiting", "lab_profile/effective", "lab_profile/misc", "lab_profile/cv",
    "thresholds/GREEN", "thresholds/WHITE",
    *(f"resources/{p}" for p in (*TEAMED, "xray", "misc_exam", "last_visit_team")),
    *(f"resources/{p}/teams" for p in TEAMED),
    f"{TEAM0}/id", f"{TEAM0}/start", f"{TEAM0}/end",
    "resources/xray/capacity", "resources/misc_exam/capacity",
    "resources/last_visit_team/start", "resources/last_visit_team/end",
]

# (path, a value of the wrong JSON type); "" is the whole profile
WRONG_TYPE = [
    ("", []),
    ("version", "1"), ("version", 1.5), ("version", True),
    ("arrival_rates", []), ("arrival_rates/GREEN", {}), ("arrival_rates/GREEN/0", "3"),
    ("arrival_rates/GREEN/0", True),
    ("mixes", 0.5), ("mixes/visit_type", [0.79, 0.16, 0.05]),
    ("mixes/visit_type/GENERAL", "0.79"), ("mixes/needs_lab", True), ("mixes/xray", None),
    ("mixes/extra_exam_lt4", "0.85"), ("mixes/nonwalking_yellow", [0.5]),
    ("service", []), ("service/triage", 3.0), ("service/triage/family", 1),
    ("service/triage/mean", "3"), ("service/triage/cv", False),
    ("lab_profile", "x"), ("lab_profile/waiting", 1.0), ("lab_profile/effective/5", None),
    ("lab_profile/misc", "x" * 24), ("lab_profile/cv", [0.2]),
    ("thresholds", [240]), ("thresholds/GREEN", "240"),
    ("resources", []), ("resources/low_general", []), ("resources/low_general/teams", {}),
    (TEAM0, "A"), (f"{TEAM0}/id", 7), (f"{TEAM0}/start", "480"), (f"{TEAM0}/start", 480.5),
    (f"{TEAM0}/end", True),
    ("resources/xray", 2), ("resources/xray/capacity", 2.5),
    ("resources/misc_exam/capacity", "2"), ("resources/last_visit_team", []),
    ("resources/last_visit_team/start", 480.25), ("resources/last_visit_team/end", "1200"),
    ("routing", "always"),
]

# (path, a value of the right type outside its bound or enum)
OUT_OF_BOUNDS = [
    ("version", 0),
    ("arrival_rates/GREEN", [1.0] * 23), ("arrival_rates/GREEN", [1.0] * 25),
    ("lab_profile/waiting", [30.0] * 23), ("lab_profile/misc", [10.0] * 25),
    ("arrival_rates/WHITE/3", -0.5), ("lab_profile/effective/0", -1),
    ("arrival_rates/RED/12", 1000.5), ("lab_profile/waiting/7", 10000.5),
    ("mixes/visit_type/GENERAL", 1.2), ("mixes/visit_type/DERMATOLOGICAL", -0.05),
    ("mixes/needs_lab", -0.1), ("mixes/needs_lab", 1.01), ("mixes/xray", 2),
    ("mixes/extra_exam_lt4", 0), ("mixes/extra_exam_lt4", 1.5),
    ("mixes/nonwalking_yellow", -1), ("mixes/nonwalking_yellow", 1.1),
    ("service/triage/family", "normal"), ("service/first_general/mean", 0),
    ("service/exam_misc/mean", -4.0), ("service/last_visit/cv", -0.1),
    ("service/first_general/mean", 10000.5), ("service/exam_xray/cv", 10.5),
    ("lab_profile/cv", -1), ("lab_profile/cv", 10.01),
    ("thresholds/RED", -1), ("thresholds/WHITE", -0.5),
    (f"{TEAM0}/start", -1), (f"{TEAM0}/start", 1440), (f"{TEAM0}/end", -1),
    (f"{TEAM0}/end", 1441),
    ("resources/xray/capacity", 0), ("resources/misc_exam/capacity", 0),
    ("resources/last_visit_team/start", 1440), ("resources/last_visit_team/end", 1441),
    ("routing/pull_low_into_high", "sometimes"),
    # finite values that made `run` raise OverflowError, draw NaN durations or never end
    ("service/first_general/mean", 1e308), ("service/first_general/cv", 1e308),
    ("lab_profile/cv", 1e308), ("arrival_rates/GREEN/10", 1e300),
]

# boundary values that must pass: (path, value), value DELETE drops the key
DELETE = object()
ACCEPTED = [
    (f"{TEAM0}/start", 0), (f"{TEAM0}/start", 1439), (f"{TEAM0}/end", 0), (f"{TEAM0}/end", 1440),
    ("resources/last_visit_team/start", 0), ("resources/last_visit_team/end", 1440),
    ("resources/xray/capacity", 1), ("resources/misc_exam/capacity", 1),
    ("service/triage/cv", 0), ("lab_profile/cv", 0),
    ("mixes/extra_exam_lt4", 1), ("mixes/needs_lab", 0), ("mixes/xray", 1),
    ("thresholds/RED", 0), ("arrival_rates/WHITE/0", 0), ("version", 7),
    ("arrival_rates/RED/12", 1000), ("lab_profile/waiting/7", 10000),
    ("service/first_general/mean", 10000), ("service/exam_xray/cv", 10), ("lab_profile/cv", 10),
    ("routing", DELETE), ("routing/pull_low_into_high", DELETE), ("routing/pull_low_into_high", "never"),
    ("mixes/nonwalking_yellow", DELETE), ("mixes/nonwalking_yellow", 0),
    ("unknown_section", {"anything": [1, 2]}), ("mixes/unknown_share", "x"),
    (f"{TEAM0}/room", 12), ("resources/xray/note", None),
]


def _mutated(raw: dict, path: str, value) -> object:
    if not path:
        return value
    raw = copy.deepcopy(raw)
    *parents, last = path.split("/")
    node = raw
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if isinstance(node, list):
        node[int(last)] = value
    elif value is DELETE:
        del node[last]
    else:
        node[last] = value
    return raw


def _rejecting_cases():
    for path in REQUIRED:
        parent, _, key = path.rpartition("/")
        yield pytest.param(path, DELETE, parent or "<root>", repr(key), id=f"required:{path}")
    for path, value in WRONG_TYPE:
        yield pytest.param(path, value, path or "<root>", "", id=f"type:{path}={value!r}")
    for path, value in OUT_OF_BOUNDS:
        yield pytest.param(path, value, path, "", id=f"bound:{path}={str(value)[:12]}")
    for field, extra in (("family", {"family": "gamma", "mean": 5.0, "cv": 0.2}),
                         ("cv", {"family": "triangular", "mean": 9.0, "cv": 1e308})):
        yield pytest.param("service/extra", extra, f"service/extra/{field}", "",
                           id=f"extra-service-{field}")


@pytest.mark.parametrize("path, value, at, named", _rejecting_cases())
def test_rule_violation_names_its_path_and_run_exits_2(default_raw, tmp_path, capsys,
                                                      path, value, at, named):
    bad = _mutated(default_raw, path, value)
    with pytest.raises(ProfileError) as caught:
        Profile(bad)
    message = str(caught.value)
    assert message.startswith(f"profile schema violation at {at}: "), message
    assert named in message
    profile_file = tmp_path / "bad.json"
    profile_file.write_text(json.dumps(bad))
    assert main(["run", "--profile", str(profile_file), "--days", "1", "--replications", "1",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("profile error: profile schema violation at ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path, value", ACCEPTED,
                         ids=[f"{p}={'<deleted>' if v is DELETE else v!r}" for p, v in ACCEPTED])
def test_boundary_values_accepted(default_raw, path, value):
    raw = _mutated(default_raw, path, value)
    before = copy.deepcopy(raw)
    Profile(raw)
    assert raw == before
