"""Uniform pass/fail reporting shared by the checkers and the CLI."""

from __future__ import annotations

from .ring import Poly, format_poly, format_scalar


class Check:
    __slots__ = ("name", "subject", "ok", "witness")

    def __init__(self, name: str, subject: str, ok: bool, witness: str = ""):
        self.name = name
        self.subject = subject
        self.ok = ok
        self.witness = witness

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        tail = f"  witness: {self.witness}" if (self.witness and not self.ok) else ""
        return f"{self.name} [{self.subject}]: {verdict}{tail}"


class Report:
    __slots__ = ("title", "checks")

    def __init__(self, title: str, checks: list = None):
        self.title = title
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, subject: str, ok: bool, witness: str = "") -> "Report":
        self.checks.append(Check(name, subject, ok, witness))
        return self

    def vanishes(self, name: str, subject: str, residue) -> "Report":
        """Check that a Poly or Scalar residue is zero; if not, it is the witness."""
        if residue.is_zero():
            return self.add(name, subject, True)
        fmt = format_poly if isinstance(residue, Poly) else format_scalar
        return self.add(name, subject, False, fmt(residue))

    def extend(self, other: "Report") -> "Report":
        self.checks.extend(other.checks)
        return self

    def failures(self):
        return [c for c in self.checks if not c.ok]

    def lines(self):
        out = [f"{self.title}: {'PASS' if self.ok else 'FAIL'}"]
        out.extend("  " + c.line() for c in self.checks)
        return out

    def to_json(self):
        return {
            "title": self.title,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "subject": c.subject, "ok": c.ok, "witness": c.witness}
                for c in self.checks
            ],
        }
