"""simlint engine: file walking, suppression comments, reporting.

The rules in :mod:`repro.lint.rules` are pure AST checks; this module
owns everything file-shaped — reading sources, mapping raw findings to
paths, and honoring the suppression comments:

* ``# simlint: disable=SIM001`` — suppress on that line (several codes
  comma-separate: ``disable=SIM001,SIM005``);
* ``# simlint: disable-file=SIM001`` — suppress for the whole file.

Suppressions are *code-scoped only*: a bare ``# simlint: disable`` does
not parse and suppresses nothing, so a suppression always documents
which contract it is opting out of.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from repro.lint.rules import RULES, check_source
from repro.lint.sources import iter_python_sources

_SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<codes>SIM\d{3}(?:\s*,\s*SIM\d{3})*)"
)

#: Directories whose modules are per-event hot paths: SIM007 (per-event
#: allocation churn) applies only here, where one extra allocation runs
#: millions of times per experiment point.
_HOT_PATH_RE = re.compile(r"(^|[/\\])(sim|flash)([/\\])")


def is_hot_path(path: "str | os.PathLike[str]") -> bool:
    """Whether ``path`` lies in a sim/flash hot-path directory."""
    return _HOT_PATH_RE.search(str(path)) is not None


@dataclass(frozen=True)
class Finding:
    """One reported violation, ready to print."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: " \
               f"{self.code} {self.message}"


def parse_suppressions(source: str) -> Tuple[Set[str], Dict[int, Set[str]]]:
    """(file-wide codes, line -> codes) from suppression comments."""
    file_codes: Set[str] = set()
    line_codes: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "simlint" not in text:
            continue
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = {c.strip() for c in match.group("codes").split(",")}
        if match.group("scope"):
            file_codes |= codes
        else:
            line_codes.setdefault(lineno, set()).update(codes)
    return file_codes, line_codes


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one source string; suppression comments already applied."""
    raw, parsed_ok = check_source(source, hot_path=is_hot_path(path))
    if not parsed_ok:
        return [Finding(path, raw[0].line, raw[0].col,
                        raw[0].code, raw[0].message)]
    file_codes, line_codes = parse_suppressions(source)
    findings = [
        Finding(path, f.line, f.col, f.code, f.message)
        for f in raw
        if f.code not in file_codes
        and f.code not in line_codes.get(f.line, ())
    ]
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def lint_file(path: "str | os.PathLike[str]") -> List[Finding]:
    """Lint one file on disk."""
    target = Path(path)
    return lint_source(target.read_text(encoding="utf-8"), str(target))


def lint_paths(paths: Sequence["str | os.PathLike[str]"]) -> List[Finding]:
    """Lint every ``.py`` file under the given files/directories.

    The walk is the canonical one in :mod:`repro.lint.sources`, shared
    with the result cache's code-version salt, so both agree on what a
    python source is (``__pycache__`` and friends excluded).
    """
    findings: List[Finding] = []
    for target in iter_python_sources(paths):
        findings.extend(lint_file(target))
    return findings


def format_findings(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding plus a summary.

    The summary line leads with the total and appends per-rule hit
    counts (``[SIM001×2 SIM005×1]``) so a long report still answers
    "which contract is being violated" at a glance.
    """
    if not findings:
        return "simlint: clean"
    lines = [finding.render() for finding in findings]
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.code] = counts.get(finding.code, 0) + 1
    by_rule = " ".join(
        f"{code}×{n}" for code, n in sorted(counts.items())
    )
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"simlint: {len(findings)} {noun} [{by_rule}]")
    return "\n".join(lines)


def to_sarif(findings: Sequence[Finding]) -> Dict[str, object]:
    """Findings as a SARIF 2.1.0 log (GitHub inline PR annotations)."""
    used = sorted({finding.code for finding in findings})
    rules = [
        {
            "id": code,
            "shortDescription": {"text": RULES.get(code, code)},
            "defaultConfiguration": {"level": "error"},
        }
        for code in used
    ]
    rule_index = {code: i for i, code in enumerate(used)}
    results = [
        {
            "ruleId": finding.code,
            "ruleIndex": rule_index[finding.code],
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace(os.sep, "/"),
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col + 1,
                    },
                },
            }],
        }
        for finding in findings
    ]
    return {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "simlint",
                    "informationUri":
                        "https://example.invalid/simlint",
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }
