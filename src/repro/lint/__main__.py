"""``python -m repro.lint [paths...]`` — standalone simlint entry point.

Exit status 0 when clean, 1 when there are findings (or a file fails
to parse).  ``repro lint`` in the main CLI routes here.  ``--sarif
[FILE]`` writes a SARIF 2.1.0 log (GitHub renders it as inline PR
annotations) instead of the plain report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.lint.engine import format_findings, lint_paths, to_sarif
from repro.lint.rules import RULES

#: Default lint target when no paths are given (repo-relative).
DEFAULT_PATHS = ("src/repro",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="simlint: simulation-correctness static analysis, "
                    "one module at a time (SIM001-SIM005, SIM007, SIM011)",
    )
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS), metavar="PATH",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--sarif", nargs="?", const="-", metavar="FILE",
        help="emit findings as SARIF 2.1.0 to FILE (default stdout) "
             "instead of the plain report",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0
    findings = lint_paths(args.paths)
    if args.sarif is not None:
        document = json.dumps(to_sarif(findings), indent=2, sort_keys=True)
        if args.sarif == "-":
            print(document)
        else:
            with open(args.sarif, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
            print(f"simlint: wrote SARIF to {args.sarif} "
                  f"({len(findings)} findings)")
    else:
        print(format_findings(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
