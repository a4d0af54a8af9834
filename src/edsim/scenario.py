"""Scenario algebra: the 8-tuple (t, p, tau_g, tau_w, e, l, a, r), the named
catalog of proposed what-if configurations, and spec parsing/validation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass


class ParseError(ValueError):
    """Malformed scenario tuple literal or scenario JSON file."""


class ValidationError(ValueError):
    """Scenario field out of its allowed range."""


class UnknownScenario(KeyError):
    """Name not present in the catalog."""


FIELD_ORDER = ("t", "p", "tau_g", "tau_w", "e", "l", "a", "r")
MAX_EXTRA_TEAMS = 100  # scenario a: each team is a slot built before the first event


@dataclass(frozen=True)
class Scenario:
    """Organizational-change tuple; None means "current setting unchanged".

    t: team shifts start (and end) t hours later
    p: 1 = last visit has priority over the first one
    tau_g, tau_w: green/white promotion thresholds, minutes of waiting
    e: % of white-code patients not admitted at triage
    l: % of lab requests anticipated to the triage process
    a: additional work teams dedicated to the last visit
    r: lab lead time reduction in minutes
    """

    t: int | None = None
    p: int | None = None
    tau_g: int | None = None
    tau_w: int | None = None
    e: float | None = None
    l: float | None = None
    a: int | None = None
    r: int | None = None

    def __post_init__(self):
        for name in FIELD_ORDER:
            v = getattr(self, name)
            if v is not None and v < 0:
                raise ValidationError(f"{name} must be non-negative, got {v}")
        for name in ("e", "l"):
            v = getattr(self, name)
            if v is not None and v > 100:
                raise ValidationError(f"{name} is a percentage, got {v}")
        if self.a is not None and self.a > MAX_EXTRA_TEAMS:
            raise ValidationError(f"a is at most {MAX_EXTRA_TEAMS} teams, got {self.a}")
        if self.p is not None and self.p not in (0, 1):
            raise ValidationError(f"p must be 0 or 1, got {self.p}")

    def render(self) -> str:
        def fmt(v):
            if v is None:
                return "-"
            if isinstance(v, float) and v.is_integer():
                return str(int(v))
            return str(v)

        return "(" + ",".join(fmt(getattr(self, n)) for n in FIELD_ORDER) + ")"


def _parse_field(name: str, token):
    """One field from a tuple token or a JSON value: None, "-", "--" and ""
    mean unchanged; e and l take any finite number, the rest whole numbers,
    read exactly when written as integers."""
    if isinstance(token, str):
        token = token.strip()
    if token in (None, "-", "--", ""):
        return None
    if name not in ("e", "l") and type(token) in (int, str):
        try:
            return int(token)
        except ValueError:
            pass  # "90.0" still reads as 90
    try:
        value = math.nan if isinstance(token, bool) else float(token)
    except (TypeError, ValueError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"field {name}: not a number: {token!r}")
    if name in ("e", "l"):
        return value
    if value != int(value):
        raise ParseError(f"field {name}: expected an integer, got {token!r}")
    return int(value)


def parse_tuple(text: str) -> Scenario:
    """Parse a tuple literal like "(-,-,120,-,5,-,-,10)" (whitespace-insensitive;
    "-" and "--" both mean unchanged)."""
    s = "".join(text.split())
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError(f"scenario tuple must be parenthesized: {text!r}")
    tokens = s[1:-1].split(",")
    if len(tokens) != len(FIELD_ORDER):
        raise ParseError(f"scenario tuple needs {len(FIELD_ORDER)} fields, got {len(tokens)}")
    values = {name: _parse_field(name, tok) for name, tok in zip(FIELD_ORDER, tokens)}
    return Scenario(**values)


def parse(spec: str) -> Scenario:
    """Parse a catalog name, the name "baseline", or an 8-field tuple literal."""
    text = spec.strip()
    if text.lstrip().startswith("("):
        return parse_tuple(text)
    if text.lower() == "baseline":
        return Scenario()
    cat = catalog()
    if text in cat:
        return cat[text]
    raise UnknownScenario(text)


def from_json_dict(d: dict) -> Scenario:
    """Scenario from a JSON object keyed by field name; a missing or null
    field is unchanged, `name` is ignored and any other key is an error."""
    if not isinstance(d, dict):
        raise ParseError(f"scenario JSON must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {*FIELD_ORDER, "name"})
    if unknown:
        raise ParseError(f"unknown scenario field(s): {', '.join(map(repr, unknown))}")
    return Scenario(**{name: _parse_field(name, d.get(name)) for name in FIELD_ORDER})


def load_json(path) -> Scenario:
    with open(path) as fh:
        try:
            d = json.load(fh)
        except ValueError as exc:
            raise ParseError(f"{path}: not valid JSON: {exc}") from None
    return from_json_dict(d)


def catalog() -> dict[str, Scenario]:
    """All proposed scenarios, in stable A -> Cb order."""
    S = Scenario
    entries = [
        ("A.1", S(t=1)),
        ("A.2", S(t=2)),
        ("B.1", S(p=1)),
        ("C.1", S(tau_g=90, tau_w=180)),
        ("C.2", S(tau_g=210, tau_w=210)),
        ("C.3", S(tau_g=60, tau_w=120)),
        ("C.4", S(tau_g=90)),
        ("C.5", S(tau_g=60, tau_w=180)),
        ("C.6", S(tau_g=60, tau_w=210)),
        ("C.7", S(tau_g=120)),
        ("D.1", S(l=50)),
        ("D.2", S(l=60)),
        ("D.3", S(l=75)),
        ("D.4", S(l=100)),
        ("D.5", S(l=10)),
        ("D.6", S(l=15)),
        ("D.7", S(l=20)),
        ("E.1", S(e=5)),
        ("E.2", S(e=10)),
        ("E.3", S(e=15)),
        ("E.4", S(e=20)),
        ("F.1", S(a=1)),
        ("G.1", S(r=10)),
        ("G.2", S(r=15)),
        ("G.3", S(r=20)),
        ("G.4", S(r=25)),
        ("G.5", S(r=30)),
        ("Cb.1", S(tau_g=120, e=10, l=50)),
        ("Cb.2", S(tau_g=120, e=10, l=20)),
        ("Cb.3", S(tau_g=120, e=10, l=50, r=30)),
        ("Cb.4", S(tau_g=120, l=50)),
        ("Cb.5", S(tau_g=90, e=10, l=50)),
        ("Cb.6", S(l=10, r=15)),
        ("Cb.7", S(l=20, r=15)),
        ("Cb.8", S(l=10, r=20)),
        ("Cb.9", S(l=15, r=20)),
        ("Cb.10", S(l=20, r=20)),
        ("Cb.11", S(l=10, r=30)),
        ("Cb.12", S(l=15, r=30)),
        ("Cb.13", S(tau_g=120, e=15)),
        ("Cb.14", S(l=50, r=30)),
        ("Cb.15", S(tau_g=120, e=15, l=50, r=30)),
    ]
    return dict(entries)
