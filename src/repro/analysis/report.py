"""Report model for the parallel-safety analyzer, and the finding every
family reports.

Both passes (static footprint classification and dynamic shadow-memory
race detection) emit their results through the dataclasses here, so the
CLI can render one machine-readable JSON document and a human summary
from the same objects.  Every analyzer family reports a
:class:`Finding` — whose severity is its code's, read from the catalogue
— prints it with :meth:`Finding.line`, and derives its ``--gate``
verdict from :class:`Gated` unless it documents another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.codes import CODE_CATALOGUE
from repro.framework.layer import LayerContract

#: Finding severities.  Only ``ERROR`` findings fail the ``--gate``.
ERROR = "error"
WARNING = "warning"
INFO = "info"


@dataclass(frozen=True)
class Finding:
    """One coded diagnostic of any analyzer family."""

    rule: str        # e.g. "FP001"
    layer: str       # layer class name (or "<runtime>" for RT rules)
    message: str
    location: str = ""   # "path:line" when known

    @property
    def severity(self) -> str:
        """The code's one severity, declared in the catalogue."""
        return CODE_CATALOGUE[self.rule][1]

    def line(self) -> str:
        """The line a summary prints for this finding."""
        where = f" [{self.location}]" if self.location else ""
        return (f"[{self.rule}/{self.severity}] {self.layer or '<net>'}: "
                f"{self.message}{where}")

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "layer": self.layer,
            "message": self.message,
            "location": self.location,
        }


def tally(findings: List[Finding], severity: str) -> int:
    """How many of ``findings`` carry ``severity``."""
    return sum(1 for f in findings if f.severity == severity)


class Gated:
    """A report whose ``ok`` — the ``--gate`` verdict — is "no ERROR
    finding" among its ``findings``."""

    findings: List[Finding]

    @property
    def ok(self) -> bool:
        return not any(f.severity == ERROR for f in self.findings)


@dataclass
class LayerReport(Gated):
    """Static classification of one layer class."""

    cls_name: str
    declared: Optional[LayerContract]
    inferred_forward: str
    inferred_backward: str
    inferred_reduction_params: Tuple[int, ...] = ()
    findings: List[Finding] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "class": self.cls_name,
            "declared": (
                None if self.declared is None else {
                    "forward": self.declared.forward,
                    "backward": self.declared.backward,
                    "reduction_params": list(self.declared.reduction_params),
                    "scratch": list(self.declared.scratch),
                }
            ),
            "inferred_forward": self.inferred_forward,
            "inferred_backward": self.inferred_backward,
            "inferred_reduction_params": list(self.inferred_reduction_params),
            "ok": self.ok,
            "findings": [f.to_json() for f in self.findings],
        }


@dataclass
class StaticReport(Gated):
    """All layer classifications plus runtime-invariant lint findings."""

    layers: Dict[str, LayerReport] = field(default_factory=dict)
    runtime_findings: List[Finding] = field(default_factory=list)

    @property
    def findings(self) -> List[Finding]:
        out = list(self.runtime_findings)
        for rep in self.layers.values():
            out.extend(rep.findings)
        return out

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "layers": {k: v.to_json() for k, v in sorted(self.layers.items())},
            "runtime_findings": [f.to_json() for f in self.runtime_findings],
        }


@dataclass(frozen=True)
class Race:
    """One detected cross-thread overlap from the dynamic pass."""

    layer: str       # layer *instance* name in the net
    phase: str       # "forward" or "backward"
    array: str       # e.g. "blob:conv1.data", "attr:loss._prob"
    threads: Tuple[int, int]
    overlap: int     # number of overlapping scalar positions
    first_offsets: Tuple[int, ...]  # up to 8 sample offsets

    def to_json(self) -> dict:
        return {
            "layer": self.layer,
            "phase": self.phase,
            "array": self.array,
            "threads": list(self.threads),
            "overlap": self.overlap,
            "first_offsets": list(self.first_offsets),
        }


@dataclass
class DynamicReport:
    """Shadow-memory race detection over one net at one thread count."""

    net: str
    num_threads: int
    races: List[Race] = field(default_factory=list)
    layers_checked: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.races

    def to_json(self) -> dict:
        return {
            "net": self.net,
            "num_threads": self.num_threads,
            "ok": self.ok,
            "layers_checked": self.layers_checked,
            "races": [r.to_json() for r in self.races],
        }


@dataclass
class AnalysisReport:
    """Top-level document: one static pass + N dynamic runs."""

    static: StaticReport
    dynamic: List[DynamicReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.static.ok and all(d.ok for d in self.dynamic)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "static": self.static.to_json(),
            "dynamic": [d.to_json() for d in self.dynamic],
        }

    def summary_lines(self) -> List[str]:
        lines: List[str] = []
        lines.append(
            f"static: {len(self.static.layers)} layer classes analyzed, "
            f"{tally(self.static.findings, ERROR)} error(s), "
            f"{tally(self.static.findings, WARNING)} warning(s)"
        )
        for finding in self.static.findings:
            lines.append("  " + finding.line())
        for dyn in self.dynamic:
            status = "clean" if dyn.ok else f"{len(dyn.races)} race(s)"
            lines.append(
                f"dynamic: net={dyn.net} threads={dyn.num_threads} -> {status}"
            )
            for race in dyn.races:
                lines.append(
                    f"  RACE {race.layer}/{race.phase} on {race.array}: "
                    f"threads {race.threads[0]} and {race.threads[1]} both "
                    f"wrote {race.overlap} position(s), e.g. "
                    f"{list(race.first_offsets)}"
                )
        lines.append("verdict: " + ("OK" if self.ok else "VIOLATIONS FOUND"))
        return lines
