"""Pass/fail reports for certificate verification."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SkewError
from .series import disagreement


@dataclass
class VerifyReport:
    """Accumulates named checks; failures carry the first bad series order."""

    checks: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "", order: int | None = None):
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail,
                            "order": order})

    def agree(self, name: str, left, right, below: int | None = None):
        """Add the check left = right, compared wherever both are known.

        It fails at the first order at which a known coefficient differs,
        or, when below (the claim's exclusive order) is given, when the
        two are known to agree only below an earlier order. A pass names
        the last verified order unless the agreement is exact.
        """
        bad, bound = disagreement(left, right)
        if bad is not None:
            self.add(name, False, "", bad)
        elif below is not None and bound is not None and bound < below:
            self.add(name, False, f"verified only below order {bound}, "
                                  f"claimed below order {below}")
        else:
            self.add(name, True,
                     "" if bound is None else f"through order {bound - 1}")

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
