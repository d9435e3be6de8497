"""Pass/fail reports for certificate verification."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SkewError


@dataclass
class VerifyReport:
    """Accumulates named checks; failures carry the first bad series order."""

    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "", order: int | None = None):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail,
                            "order": order})

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    @property
    def first_bad_order(self) -> int | None:
        orders = [c["order"] for c in self.checks
                  if not c["ok"] and c["order"] is not None]
        return min(orders) if orders else None

    def require_ok(self) -> None:
        """Raise SkewError listing the failed checks, if any failed."""
        if not self.ok:
            raise SkewError(
                "internal verification failed: "
                + "; ".join(line for line in self.lines()
                            if line.startswith("FAIL")))

    def lines(self):
        for c in self.checks:
            mark = "pass" if c["ok"] else "FAIL"
            extra = f" [{c['detail']}]" if c["detail"] else ""
            where = f" at order {c['order']}" if c["order"] is not None else ""
            yield f"{mark}: {c['name']}{where}{extra}"
