"""Operator entry point: run scenarios, sweep the catalog, validate against
the published row, and calibrate the profile.

Exit codes: 0 success / validation pass, 1 tolerance or calibration failure,
2 configuration errors (profile, scenario), 3 I/O failures.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import calibrate as cal
from . import scenario as scen_mod
from .harness import run_scenario
from .kpi import HEADLINE_KPIS, KpiReport, compare
from .report import (comparison_row, svg_bar_chart, write_comparison_csv, write_json,
                     write_kpi_svg, write_report_json)
from .scenario import ParseError, Scenario, UnknownScenario, ValidationError
from .stochastics import PatientTape, Profile, ProfileError, default_profile_path, load_profile

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3

PROFILE_ENV = "EDSIM_PROFILE"
MAX_REPLICATIONS = 10_000  # per run, probe runs included
MAX_DAYS = 10_000  # per replication, about 27 years


def _bounded_int(text: str, low: int, what: str, high: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be a {what} integer, got {value}")
    if high is not None and value > high:
        raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
    return value


def _count(high: int | None = None):
    """argparse type for a count of at least 1 (days, runs, workers) and at
    most `high`: a larger count is a usage error, not a run that overflows a
    list index or never ends."""
    return lambda text: _bounded_int(text, 1, "positive", high)


def _non_negative_int(text: str) -> int:
    """argparse type for the master seed (numpy seeds must be >= 0) and the
    calibration budget (0 is a valid, failing search)."""
    return _bounded_int(text, 0, "non-negative")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--profile", help=f"profile JSON (default: ${PROFILE_ENV} or packaged profile)")
    p.add_argument("--seed", type=_non_negative_int, default=42,
                   help="master seed, a non-negative integer (default 42)")
    p.add_argument("--replications", type=_count(MAX_REPLICATIONS), default=10,
                   help=f"independent runs, at most {MAX_REPLICATIONS} (default 10)")
    p.add_argument("--days", type=_count(MAX_DAYS), default=30,
                   help=f"simulated days per run, at most {MAX_DAYS} (default 30)")
    p.add_argument("--jobs", type=_count(), default=1, help="parallel workers (default 1)")
    p.add_argument("--out", default="edsim-out", help="output directory (default ./edsim-out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario and write logs + report")
    _add_common(p_run)
    p_run.add_argument("--scenario", default="baseline",
                       help='catalog name, "baseline", tuple literal, or scenario JSON file')
    p_run.add_argument("--svg", action="store_true", help="also write a KPI bar chart")

    p_sweep = sub.add_parser("sweep", help="baseline + scenarios with common random numbers")
    _add_common(p_sweep)
    p_sweep.add_argument("--scenarios", nargs="+", default=None,
                         help="catalog names (default: whole catalog)")
    p_sweep.add_argument("--svg", action="store_true", help="also write a LoS chart")

    p_val = sub.add_parser("validate", help="check the calibration targets")
    _add_common(p_val)

    p_cal = sub.add_parser("calibrate", help="fit free profile parameters to the targets")
    _add_common(p_cal)
    p_cal.add_argument("--budget", type=_non_negative_int, default=120,
                       help="max objective evaluations, a non-negative integer (default 120)")
    p_cal.add_argument("--probe-replications", type=_count(MAX_REPLICATIONS), default=3)
    p_cal.add_argument("--probe-days", type=_count(MAX_DAYS), default=30)
    return parser


def _load_profile(args) -> Profile:
    path = args.profile if args.profile is not None else (  # even an empty --profile
        os.environ.get(PROFILE_ENV) or default_profile_path())  # an empty variable is unset
    if not Path(path).is_file():
        raise ProfileError(f"profile file not found: {path}")
    return load_profile(path)


def _resolve_scenario(text: str) -> tuple[str, Scenario]:
    if text.endswith(".json"):
        if not Path(text).is_file():
            raise ParseError(f"scenario file not found: {text}")
        return Path(text).stem, scen_mod.load_json(text)
    name = text.strip()
    return "custom" if name.startswith("(") else name, scen_mod.parse(text)


def _meta(args, scenario: Scenario, name: str) -> dict:
    return {"scenario": scenario.render(), "scenario_name": name, "seed": args.seed,
            "replications": args.replications, "days": args.days}


def _headline(agg: KpiReport) -> str:
    labels = ("In", "WT1st", "WTlast", "LoS")
    return " ".join(f"{label}={agg.value(k):.2f}"
                    for label, k in zip(labels, HEADLINE_KPIS, strict=True))


def cmd_run(args, profile: Profile) -> int:
    name, scenario = _resolve_scenario(args.scenario)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    agg = run_scenario(profile, scenario, args.seed, args.replications,
                       args.days, jobs=args.jobs, log_dir=out)
    meta = {**_meta(args, scenario, name), "profile_version": profile.version,
            "low_sample": args.replications < 2 or args.days < 2}
    write_report_json(out / "report.json", agg, meta)
    if args.svg:
        write_kpi_svg(out / "kpis.svg", agg, f"KPIs: {name}")
    print(f"run {name}: {_headline(agg)}" + (" [low-sample]" if meta["low_sample"] else ""))
    print(f"wrote {args.replications} event logs + report.json to {out}")
    return EXIT_OK


def cmd_sweep(args, profile: Profile) -> int:
    catalog = scen_mod.catalog()
    names = args.scenarios if args.scenarios else list(catalog)
    unknown = [n for n in names if n not in catalog]
    if unknown:
        print(f"error: unknown scenario name(s): {', '.join(unknown)}", file=sys.stderr)
        return EXIT_CONFIG
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        print(f"error: scenario name(s) given more than once: {', '.join(repeated)}",
              file=sys.stderr)
        return EXIT_CONFIG

    out = Path(args.out)
    (out / "reports").mkdir(parents=True, exist_ok=True)
    runs = [("baseline", Scenario()), *((name, catalog[name]) for name in names)]
    # every scenario runs replication r on the same patients: draw them once
    tapes = [PatientTape(profile, args.seed, rep, args.days) for rep in range(args.replications)]
    base_agg = None
    rows, los = [], []
    for name, scenario in runs:
        agg = run_scenario(profile, scenario, args.seed, args.replications,
                           args.days, jobs=args.jobs, tapes=tapes)
        write_report_json(out / "reports" / f"{name}.json", agg, _meta(args, scenario, name))
        if base_agg is None:
            base_agg, cmp_ = agg, None
        else:
            # significance needs at least two replications per side
            cmp_ = compare(base_agg, agg) if args.replications >= 2 else None
            print(f"{name}: LoS {agg.value('los'):.2f} (baseline {base_agg.value('los'):.2f})")
        rows.append(comparison_row(name, agg, cmp_))
        los.append(agg.value("los"))
    write_comparison_csv(out / "comparison.csv", rows)
    if args.svg:
        chart = svg_bar_chart("LoS by scenario", [name for name, _ in runs], los)
        (out / "los.svg").write_text(chart + "\n")
    print(f"wrote {len(rows)}-row comparison.csv to {out}")
    return EXIT_OK


def cmd_validate(args, profile: Profile) -> int:
    agg = run_scenario(profile, Scenario(), args.seed, args.replications,
                       args.days, jobs=args.jobs)
    errs = cal.band_errors(agg)
    ok = cal.within_bands(agg)
    print(f"{'kpi':<12}{'simulated':>12}{'target':>10}{'delta':>9}{'band':>7}  verdict")
    for kpi, band in cal.BANDS.items():
        passed = abs(errs[kpi]) <= band
        print(f"{kpi:<12}{agg.value(kpi):>12.2f}{cal.TARGETS[kpi]:>10.2f}"
              f"{100 * errs[kpi]:>+8.1f}%{100 * band:>6.0f}%  {'pass' if passed else 'FAIL'}")
    print(f"outliers: green {agg.value('outlier_GREEN'):.2f}% (ref {cal.TARGETS['outlier_GREEN']}),"
          f" white {agg.value('outlier_WHITE'):.2f}% (ref {cal.TARGETS['outlier_WHITE']})")
    print("validation", "PASSED" if ok else "FAILED")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_calibrate(args, profile: Profile) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = cal.calibrate(profile.raw, budget=args.budget, seed=args.seed,
                           replications=args.probe_replications, days=args.probe_days,
                           jobs=args.jobs, final_replications=args.replications,
                           final_days=args.days)
    write_json(out / "fitted_profile.json", result.profile_raw)
    write_json(out / "calibration_trace.json", result.trace_dict())
    print(f"calibration: {result.message}")
    if result.report is not None:
        print(f"full-scale check: {_headline(result.report)}")
    print(f"wrote fitted_profile.json + calibration_trace.json to {out}")
    return EXIT_OK if result.converged else EXIT_FAIL


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"run": cmd_run, "sweep": cmd_sweep,
               "validate": cmd_validate, "calibrate": cmd_calibrate}[args.command]
    try:
        return handler(args, _load_profile(args))
    except ProfileError as exc:
        print(f"profile error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, ValidationError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnknownScenario as exc:
        print(f"unknown scenario: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
