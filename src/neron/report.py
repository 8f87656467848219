"""Uniform pass/fail reporting shared by the checkers and the CLI."""

from __future__ import annotations

from collections import namedtuple

from .ring import format_poly


class Check(namedtuple("Check", "name subject ok witness", defaults=("",))):
    __slots__ = ()

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        tail = f"  witness: {self.witness}" if (self.witness and not self.ok) else ""
        return f"{self.name} [{self.subject}]: {verdict}{tail}"


class Report:
    __slots__ = ("title", "checks")

    def __init__(self, title: str):
        self.title = title
        self.checks = []

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def add(self, name: str, subject: str, ok: bool, witness: str = "") -> "Report":
        self.checks.append(Check(name, subject, ok, witness))
        return self

    def vanishes(self, name: str, subject: str, residue) -> "Report":
        """Check that a Poly residue is zero; if not, it is the witness."""
        if residue.is_zero():
            return self.add(name, subject, True)
        return self.add(name, subject, False, format_poly(residue))

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
