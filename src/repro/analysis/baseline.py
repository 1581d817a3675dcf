"""Committed-baseline support: freeze pre-existing findings, fail new ones.

The baseline file (``analysis_baseline.json`` at the repo root) is a
list of *accepted* findings, each identified by its line-independent
fingerprint (rule, path, message) with an occurrence count and a
human-written ``reason`` string saying why the finding is tolerated
rather than fixed.  ``check --baseline``:

* a finding whose fingerprint appears in the baseline with count >= the
  observed count is **frozen** (counted, not printed);
* any fingerprint absent from the baseline — or observed more times
  than the baseline allows — is **new** and fails the run;
* baseline entries that no longer match anything are **stale** and fail
  the run too: the change that fixes a finding removes its entry, so
  the baseline never carries an allowance nothing uses.

Regenerate with ``python -m repro.analysis baseline <paths> -o <file>``;
reasons of surviving entries are preserved across regeneration.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.findings import Finding

BASELINE_VERSION = 1
DEFAULT_BASELINE_NAME = "analysis_baseline.json"

Fingerprint = tuple[str, str, str]


@dataclass(slots=True)
class BaselineEntry:
    """One accepted finding fingerprint."""

    rule: str
    path: str
    message: str
    count: int = 1
    reason: str = ""

    @property
    def fingerprint(self) -> Fingerprint:
        return (self.rule, self.path, self.message)

    def as_dict(self) -> dict:
        """JSON-serializable form (omits defaulted count/reason)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "message": self.message,
            "count": self.count,
            "reason": self.reason,
        }


@dataclass(slots=True)
class BaselineResult:
    """Outcome of comparing findings against a baseline."""

    new: list[Finding]
    baselined: list[Finding]
    stale: list[BaselineEntry]

    @property
    def ok(self) -> bool:
        """True when nothing is new and no baseline entry is stale."""
        return not self.new and not self.stale


def load_baseline(path: str | Path) -> list[BaselineEntry]:
    """Parse a baseline file; raises ValueError on malformed content."""
    document = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(document, dict) or "entries" not in document:
        raise ValueError(f"{path}: not a baseline file (no 'entries' key)")
    entries = []
    for raw in document["entries"]:
        entries.append(
            BaselineEntry(
                rule=raw["rule"],
                path=raw["path"],
                message=raw["message"],
                count=int(raw.get("count", 1)),
                reason=raw.get("reason", ""),
            )
        )
    return entries


def save_baseline(entries: list[BaselineEntry], path: str | Path) -> None:
    """Write a baseline file, sorted for stable diffs."""
    ordered = sorted(entries, key=lambda e: (e.path, e.rule, e.message))
    document = {
        "version": BASELINE_VERSION,
        "entries": [entry.as_dict() for entry in ordered],
    }
    Path(path).write_text(
        json.dumps(document, indent=2) + "\n", encoding="utf-8"
    )


def entries_from_findings(
    findings: list[Finding],
    *,
    previous: list[BaselineEntry] | None = None,
) -> list[BaselineEntry]:
    """Fold findings into baseline entries, keeping reasons from
    ``previous`` for fingerprints that survive regeneration."""
    reasons: dict[Fingerprint, str] = {
        entry.fingerprint: entry.reason for entry in (previous or [])
    }
    counts: Counter[Fingerprint] = Counter(f.fingerprint for f in findings)
    entries = []
    for (rule, path, message), count in counts.items():
        entries.append(
            BaselineEntry(
                rule=rule,
                path=path,
                message=message,
                count=count,
                reason=reasons.get((rule, path, message), ""),
            )
        )
    return entries


def compare(findings: list[Finding], entries: list[BaselineEntry]) -> BaselineResult:
    """Split findings into new vs baselined; surface stale entries."""
    allowance: Counter[Fingerprint] = Counter()
    for entry in entries:
        allowance[entry.fingerprint] += entry.count
    matched: Counter[Fingerprint] = Counter()
    new: list[Finding] = []
    baselined: list[Finding] = []
    for finding in findings:
        fingerprint = finding.fingerprint
        if matched[fingerprint] < allowance.get(fingerprint, 0):
            matched[fingerprint] += 1
            baselined.append(finding)
        else:
            new.append(finding)
    stale = [
        entry
        for entry in entries
        if matched[entry.fingerprint] == 0
    ]
    return BaselineResult(new=new, baselined=baselined, stale=stale)
