#!/usr/bin/env python
"""Run every experiment from the paper's §4 and print paper-vs-measured.

The one-command reproduction: Tables 1–3, Figs. 1, 6, 8, 9 and 11 on
both machine models, the §4.6 cost analysis and the ablations — every
claim this repo checks, each marked ✓/✗.  The table is the one
EXPERIMENTS.md embeds.  Exits 1 when any comparison is off.

Run:  python examples/reproduce_all.py        (a few wall seconds)
"""

from repro.api import build_report, format_report


def main() -> None:
    print("running all experiments on summit and deepthought2 models...\n")
    report = build_report()
    print(format_report(report))
    if not report.all_ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
