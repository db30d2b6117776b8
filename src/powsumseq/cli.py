"""Command-line interface.

Subcommands:

* ``seq``      print one exact sequence,
* ``check``    structural properties + conjectured peak window for one (m, l, a),
* ``peak``     peak-vs-window scan over a range of m for fixed (l, a),
* ``polycert`` build the certificate polynomials and run every verification,
* ``asympt``   exact sandwich bounds and peak/law ratios for chosen m,
* ``table2``   the (l, a) grid sweep with its observation checks.

Exit codes: 0 success, 1 a checked property failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .asymptotics import TheoryViolation, central_bounds_and_ratio, conjectured_ratio
from .exact_core import SeqParams, full_sequence, parse_rational
from .poly_certificates import (
    build_cert_table,
    check_battery_bounds,
    dump_polynomials,
    run_battery,
)
from .property_checks import PropertyReport, conjecture_report, peak_window, scan
from .sweep_harness import (
    SweepGrid,
    cell_sequences,
    export_csv,
    headline_csv,
    run_sweep,
)

__all__ = ["main"]


def _rational(text: str) -> Fraction:
    value = parse_rational(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"weight must be positive, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError(f"empty int list: {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powsumseq",
        description="Exact analysis of weighted binomial power-sum ratio sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_seq = sub.add_parser("seq", help="print one exact sequence")
    p_seq.add_argument("--m", type=int, required=True, help="final index (m >= 0)")
    p_seq.add_argument("--l", type=int, required=True, help="power (l >= 1)")
    p_seq.add_argument("--a", type=_rational, required=True,
                       help="positive rational weight, e.g. 2, 3/4, 0.25")
    p_seq.add_argument("--json", action="store_true", help="emit JSON")

    p_check = sub.add_parser("check", help="properties and peak window for one sequence")
    p_check.add_argument("--m", type=int, required=True)
    p_check.add_argument("--l", type=int, required=True)
    p_check.add_argument("--a", type=_rational, required=True)
    p_check.add_argument("--json", action="store_true")

    p_peak = sub.add_parser("peak", help="peak window scan over m = 2..m-max")
    p_peak.add_argument("--m-max", type=int, required=True)
    p_peak.add_argument("--l", type=int, required=True)
    p_peak.add_argument("--a", type=_rational, required=True)
    p_peak.add_argument("--json", action="store_true")

    p_cert = sub.add_parser("polycert", help="build certificates and verify")
    p_cert.add_argument("--n-max", type=int, default=200,
                        help="table depth for construction and coefficient checks")
    p_cert.add_argument("--sign-q-max", type=int, default=200)
    p_cert.add_argument("--chain-q-max", type=int, default=500)
    p_cert.add_argument("--goal-q-max", type=int, default=500)
    p_cert.add_argument("--left-m-max", type=int, default=2000)
    p_cert.add_argument("--dump", metavar="PATH",
                        help="also write every polynomial, one line each")
    p_cert.add_argument("--json", action="store_true")

    p_asym = sub.add_parser(
        "asympt", help="sandwich bounds and peak/law ratios",
        description="Sandwich bounds and peak/law ratios.  The conjectured ratio holds "
        "the whole exact sequence, about m^2 bits, so memory grows as m^2: "
        "about 52 MB max RSS at m = 10000 and 158 MB at m = 20000.",
    )
    p_asym.add_argument("--m-list", type=_int_list, required=True,
                        help="comma-separated m values, e.g. 10,100,1000")
    p_asym.add_argument("--l", type=int, default=2)
    p_asym.add_argument("--a", type=_rational, default=Fraction(1))
    p_asym.add_argument("--json", action="store_true")

    p_tab = sub.add_parser("table2", help="(l, a) grid sweep and observations")
    p_tab.add_argument("--l-max", type=int, default=20)
    p_tab.add_argument("--a-max", type=int, default=10)
    p_tab.add_argument("--m-max", type=int, default=100)
    p_tab.add_argument("--out", metavar="PATH", help="write the headline table as CSV to PATH")
    p_tab.add_argument("--threads", type=int, default=1,
                       help="worker processes (default 1)")
    p_tab.add_argument("--shard-dir", metavar="DIR",
                       help="journal finished cells here and resume from them")
    p_tab.add_argument("--progress", action="store_true",
                       help="report finished cells on stderr")
    p_tab.add_argument("--json", action="store_true",
                       help="print the full JSON report to stdout")
    return parser


def _cmd_seq(args) -> int:
    seq = full_sequence(SeqParams(args.m, args.l, args.a))
    if args.json:
        payload = {
            "m": args.m,
            "l": args.l,
            "a": str(args.a),
            "entries": [str(e) for e in seq.entries],
        }
        print(json.dumps(payload, indent=1))
    else:
        for r, entry in enumerate(seq.entries):
            print(f"{r}\t{entry}")
    return 0


def _cmd_check(args) -> int:
    params = SeqParams(args.m, args.l, args.a)
    report = conjecture_report(params)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=1))
    else:
        window = peak_window(params.m, params.a)
        print(f"sequence {params.label()}")
        print(f"  unimodal:           {report.unimodal}")
        print(f"  log-concave:        {report.log_concave}"
              + ("" if report.log_concave
                 else f" (first violation at i={report.first_lc_violation})"))
        print(f"  peak set:           {list(report.peak_set)} (unique: {report.unique_max})")
        print(f"  conjectured center: {report.conjectured_center}, window {list(window)}")
        print(f"  window hit:         {report.window_hit}")
        print(f"  known l=1 exception: {report.known_exception}")
    return 0 if report.unimodal else 1


def _cmd_peak(args) -> int:
    if args.m_max < 2:
        raise ValueError("peak scan needs --m-max >= 2")
    rows = [
        PropertyReport.from_scan(seq.params, scan(seq))
        for seq in cell_sequences(args.l, args.a, 2, args.m_max)
    ]
    bad = sum(not report.conforms for report in rows)
    if args.json:
        print(json.dumps([r.to_json_dict() for r in rows], indent=1))
    else:
        for report in rows:
            if report.known_exception:
                status = "known-exception"
            elif report.conforms:
                status = "ok"
            else:
                status = "MISS"
            print(
                f"m={report.params.m}\tcenter={report.conjectured_center}"
                f"\tpeaks={list(report.peak_set)}\t{status}"
            )
        print(f"checked m=2..{args.m_max}: {bad} violations")
    return 0 if bad == 0 else 1


def _cmd_polycert(args) -> int:
    bounds = (args.sign_q_max, args.chain_q_max, args.goal_q_max, args.left_m_max)
    check_battery_bounds(*bounds)
    table = build_cert_table(args.n_max)
    report = run_battery(table, *bounds)
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            fh.write(dump_polynomials(table))
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=1))
    else:
        for verdict in report.verdicts:
            mark = "PASS" if verdict.passed else "FAIL"
            extra = "" if verdict.first_failure is None else f"  [{verdict.first_failure}]"
            print(f"[{mark}] {verdict.name} (checked {verdict.checked}){extra}")
    return 0 if report.passed else 1


def _cmd_asympt(args) -> int:
    central_case = args.l == 2 and args.a == 1
    payload = []
    for m in args.m_list:
        entry: dict = {"m": m}
        if central_case:
            bounds, ratio = central_bounds_and_ratio(m)
            entry["sandwich"] = bounds.to_json_dict()
            entry["central"] = ratio.to_json_dict()
        entry["conjectured"] = conjectured_ratio(SeqParams(m, args.l, args.a)).to_json_dict()
        payload.append(entry)
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        for entry in payload:
            print(f"m={entry['m']}")
            if "sandwich" in entry:
                s = entry["sandwich"]
                print(f"  peak index {s['peak_index']}: "
                      f"{s['lower']} < {s['value']} < {s['upper']}")
                print(f"  central ratio:     {entry['central']['ratio']}")
            print(f"  conjectured ratio: {entry['conjectured']['ratio']}")
    return 0


def _cmd_table2(args) -> int:
    grid = SweepGrid((1, args.l_max), (1, args.a_max), args.m_max)

    def progress(done: int, total: int, cell) -> None:
        print(f"cell l={cell.l} a={cell.a} done ({done}/{total})", file=sys.stderr)

    report = run_sweep(
        grid,
        processes=args.threads,
        shard_dir=args.shard_dir,
        progress=progress if args.progress else None,
    )
    if args.out:
        export_csv(report, args.out)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=1))
    else:
        print(headline_csv(report), end="")
        columns = report.column_checks()
        mono_bad = [c for c in columns if not c.monotone]
        thresholds = report.threshold_checks()
        thr_bad = [t for t in thresholds if not t.persistent]
        print(f"columns weakly monotone: {len(columns) - len(mono_bad)}/{len(columns)}")
        for c in mono_bad:
            prev_l, l = c.first_violation
            print(f"  a={c.a}: falls from l={prev_l} to l={l}")
        print(f"persistent l-thresholds: {len(thresholds) - len(thr_bad)}/{len(thresholds)}")
        for t in thr_bad:
            print(f"  a={t.a}, m={t.m}: not log-concave at l={list(t.failing_ls)}")
        print(f"unimodality everywhere:  {report.unimodality_all}")
        print(f"peaks unique and in window: {report.window_all}")
    return 0 if report.unimodality_all and report.window_all else 1


_HANDLERS = {
    "seq": _cmd_seq,
    "check": _cmd_check,
    "peak": _cmd_peak,
    "polycert": _cmd_polycert,
    "asympt": _cmd_asympt,
    "table2": _cmd_table2,
}


def main(argv=None) -> int:
    # Sequence entries can exceed CPython's default int -> str digit cap.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(50_000_000)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except TheoryViolation as exc:
        print(f"theory violation: {exc}", file=sys.stderr)
        return 1
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
