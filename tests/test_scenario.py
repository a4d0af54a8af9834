import json
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edsim.scenario import (
    MAX_EXTRA_TEAMS,
    ParseError,
    Scenario,
    UnknownScenario,
    ValidationError,
    catalog,
    from_json_dict,
    parse,
    parse_tuple,
)

FIXTURE = Path(__file__).parent / "data" / "table3_scenarios.json"


class TestParse:
    def test_worked_example(self):
        s = parse("(-,-,120,-,5,-,-,10)")
        assert s == Scenario(tau_g=120, e=5, r=10)

    def test_all_dashes_is_baseline(self):
        assert parse("(-,-,-,-,-,-,-,-)") == Scenario()

    def test_double_dash_and_whitespace_accepted(self):
        assert parse(" ( --, -- , 120 , -, 5, --, -, 10 ) ") == Scenario(tau_g=120, e=5, r=10)

    def test_named_catalog_entry(self):
        assert parse("Cb.15") == Scenario(tau_g=120, e=15, l=50, r=30)

    def test_baseline_name(self):
        assert parse("baseline") == Scenario()

    def test_wrong_arity_rejected(self):
        with pytest.raises(ParseError):
            parse_tuple("(-,-,120)")
        with pytest.raises(ParseError):
            parse_tuple("(-,-,-,-,-,-,-,-,-)")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            parse_tuple("(-,-,-,-,120,-,-,-)")  # e > 100
        with pytest.raises(ValidationError):
            parse_tuple("(-,-,-5,-,-,-,-,-)")

    def test_non_numeric_rejected(self):
        with pytest.raises(ParseError):
            parse_tuple("(-,-,abc,-,-,-,-,-)")

    @pytest.mark.parametrize("literal", ["(-,-,nan,-,-,-,-,-)", "(-,-,inf,-,-,-,-,-)",
                                         "(-,-,-,-,nan,-,-,-)"])
    def test_non_finite_rejected(self, literal):
        with pytest.raises(ParseError):
            parse_tuple(literal)

    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownScenario):
            parse("Z.9")

    def test_extra_teams_capped(self):
        assert Scenario(a=MAX_EXTRA_TEAMS).a == MAX_EXTRA_TEAMS
        with pytest.raises(ValidationError, match="a is at most 100 teams"):
            parse_tuple(f"(-,-,-,-,-,-,{MAX_EXTRA_TEAMS + 1},-)")

    def test_p_must_be_binary(self):
        with pytest.raises(ValidationError):
            Scenario(p=2)


class TestCatalog:
    def test_c4_sets_only_green_threshold(self):
        assert catalog()["C.4"] == Scenario(tau_g=90)

    def test_f1_sets_only_extra_team(self):
        assert catalog()["F.1"] == Scenario(a=1)

    def test_count_matches_table(self):
        # counting the published table rows: 2+1+7+7+4+1+5+15
        assert len(catalog()) == 42

    def test_stable_iteration_order(self):
        names = list(catalog())
        assert names[0] == "A.1"
        assert names[-1] == "Cb.15"
        assert names.index("F.1") < names.index("G.1") < names.index("Cb.1")

    def test_round_trip_every_entry(self):
        for name, s in catalog().items():
            assert parse(s.render()) == s, name

    def test_matches_transcribed_fixture(self):
        fixture = json.loads(FIXTURE.read_text())
        cat = catalog()
        assert set(fixture) == set(cat)
        for name, literal in fixture.items():
            assert cat[name] == parse_tuple(literal), name


class TestJson:
    def test_json_round_trip(self):
        s = Scenario(t=1, tau_w=180, l=25.0)
        d = json.loads(json.dumps({**asdict(s), "name": "X"}))
        assert d["name"] == "X" and d["tau_w"] == 180 and d["p"] is None
        assert from_json_dict(d) == s

    def test_json_fields_follow_the_tuple_rules(self):
        assert from_json_dict({"e": 2.5, "tau_g": 90.0, "name": "X"}) == Scenario(e=2.5, tau_g=90)
        for bad in ({"tau_g": 1.5}, {"tau_g": "abc"}, {"r": True}, {"a": [1]},
                    {"l": float("nan")}, [1, 2]):
            with pytest.raises(ParseError):
                from_json_dict(bad)
        with pytest.raises(ParseError):
            parse_tuple("(-,-,1.5,-,-,-,-,-)")

    def test_json_unknown_keys_are_named_and_name_is_accepted(self):
        assert from_json_dict({"name": "x", "tau_g": 90}) == Scenario(tau_g=90)
        with pytest.raises(ParseError, match="'tau-g', 'tauw'"):
            from_json_dict({"tauw": 180, "name": "x", "tau-g": 90})


class TestExactIntegers:
    def test_integer_tokens_are_read_exactly(self):
        assert parse("(100000000000000001,-,-,-,-,-,-,-)").t == 10**17 + 1
        assert from_json_dict({"tau_g": 9007199254740993}).tau_g == 9007199254740993
        s = Scenario(t=10**17 + 1)
        assert parse(s.render()) == s

    def test_whole_floats_still_read_and_fractions_still_fail(self):
        assert parse_tuple("(-,-,90.0,-,-,-,-,-)") == Scenario(tau_g=90)
        assert from_json_dict({"tau_g": 90.0}) == Scenario(tau_g=90)
        for bad in ("(-,-,1.5,-,-,-,-,-)", "(-,-,-,-,-,-,-,1e400)"):
            with pytest.raises(ParseError):
                parse_tuple(bad)
        with pytest.raises(ParseError):
            from_json_dict({"e": 10**400})

    @settings(max_examples=300, deadline=None)
    @given(st.builds(
        Scenario,
        t=st.none() | st.integers(min_value=0),
        p=st.none() | st.sampled_from([0, 1]),
        tau_g=st.none() | st.integers(min_value=0),
        tau_w=st.none() | st.integers(min_value=0),
        e=st.none() | st.integers(0, 100) | st.floats(0, 100),
        l=st.none() | st.integers(0, 100) | st.floats(0, 100),
        a=st.none() | st.integers(0, MAX_EXTRA_TEAMS),
        r=st.none() | st.integers(min_value=0),
    ))
    def test_every_valid_scenario_round_trips(self, s):
        assert parse(s.render()) == s
        assert from_json_dict(json.loads(json.dumps(asdict(s)))) == s
