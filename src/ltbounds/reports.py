"""Shared result containers for the bound-verification harnesses."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["BoundReport", "ConvergenceError", "PASS_SLACK"]

# Multiplicative slack absorbing round-off in an otherwise strict lhs <= rhs.
PASS_SLACK = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when a self-convergence check (grid doubling) fails."""


def _check_doubling(value: float, refined: float, what: str) -> None:
    # One flag for every quadrature: relative drift above 1e-8 (absolute
    # below magnitude 1) under grid doubling.
    if abs(refined - value) > 1e-8 * max(1.0, abs(refined)):
        raise ConvergenceError(f"{what} moved {abs(refined - value):.3e} under grid doubling")


@dataclass(frozen=True)
class BoundReport:
    """Outcome of checking one inequality instance lhs <= rhs.

    ratio is lhs/rhs (0 when both sides vanish, inf when only rhs does);
    passed is equivalent to ratio <= 1 + PASS_SLACK.  A non-finite side, such
    as an overflowed moment, is rejected, since its ratio would be nan.
    metadata carries the discretization parameters so a failing instance
    can be reproduced.  A verifier that also bounds the continuum moment from
    above passes it as metadata["lhs_upper"] (None when it has no bound);
    the report then carries certified, lhs_upper <= rhs with no slack: the
    inequality holds for the continuum operator, not only its truncation.
    """

    lhs: float
    rhs: float
    ratio: float
    passed: bool
    constant_used: float
    metadata: dict = field(default_factory=dict)

    @classmethod
    def build(cls, lhs: float, rhs: float, constant_used: float, **metadata) -> "BoundReport":
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            raise ValueError(f"bound sides must be finite, got lhs={lhs}, rhs={rhs}")
        if lhs < 0 or rhs < 0:
            raise ValueError("bound sides must be non-negative")
        if "lhs_upper" in metadata:
            upper = metadata["lhs_upper"]
            if upper is not None and not math.isfinite(upper):
                raise ValueError(f"bound sides must be finite, got lhs_upper={upper}")
            metadata["certified"] = upper is not None and bool(upper <= rhs)
        if rhs == 0.0:
            ratio = 0.0 if lhs == 0.0 else math.inf
        else:
            ratio = lhs / rhs
        return cls(
            lhs=float(lhs),
            rhs=float(rhs),
            ratio=float(ratio),
            passed=bool(lhs <= rhs * (1.0 + PASS_SLACK)),
            constant_used=float(constant_used),
            metadata=dict(metadata),
        )

    def with_rhs_scaled(self, factor: float) -> "BoundReport":
        """Rebuild the report with the right-hand side multiplied by factor.

        Fault-injection hook: factor < 1 deliberately weakens the bound so a
        harness can demonstrate that it detects violations.  metadata
        rhs_scale is the product of every factor applied so far.
        """
        if factor <= 0:
            raise ValueError("rhs scale factor must be > 0")
        meta = dict(self.metadata)
        meta["rhs_scale"] = meta.get("rhs_scale", 1.0) * factor
        return BoundReport.build(self.lhs, self.rhs * factor, self.constant_used, **meta)

    def to_dict(self) -> dict:
        out = {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "pass": self.passed,
            "constant_used": self.constant_used,
        }
        out.update(self.metadata)
        return out
