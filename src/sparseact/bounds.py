"""Closed-form evaluators for the class's complexity bounds.

Every asymptotic statement hides a constant; these evaluators take it as
an explicit parameter C defaulting to 1 and return plain numbers, so
comparison tables can calibrate C at one scale and test the scaling at
another.  Natural logarithms throughout.  Where a bound's log factor could
dip below 1 on an otherwise valid input, it is clamped to a floor of 1 to
keep the evaluator monotone (noted per formula); the one exception is the
Rademacher bound, whose contract rejects log arguments <= 1 outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

LOG_FLOOR = 1.0


class Inapplicable(ValueError):
    """A parameter the formula needs is left out or outside its domain; other
    inputs a formula refuses raise a plain ValueError."""


@dataclass(frozen=True)
class ClassParams:
    """Parameters shared by the bound formulas.

    R defaults to sqrt(n), the input norm on the sign hypercube.  Fields a
    given formula does not use may be left at None.
    """

    n: int
    s: int
    k: int = 1
    W: float = 0.0
    B: float = 0.0
    R: Optional[float] = None
    m: Optional[int] = None
    eps: Optional[float] = None
    delta: Optional[float] = None
    rho: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n < 1 or self.s < 1 or self.k < 1:
            raise ValueError(f"n, s, k must be >= 1, got ({self.n}, {self.s}, {self.k})")
        if self.W < 0 or self.B < 0:
            raise ValueError(f"W, B must be >= 0, got ({self.W}, {self.B})")
        if self.R is not None and self.R <= 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if self.m is not None and self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        for name in ("eps", "delta"):
            v = getattr(self, name)
            if v is not None and not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {v}")
        if self.rho is not None and not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")

    @property
    def radius(self) -> float:
        return math.sqrt(self.n) if self.R is None else self.R


def require_level(p: ClassParams) -> None:
    """ValueError unless k <= s, as for every net of the class.

    ClassParams leaves this to its callers: the formulas extend to any k,
    and their monotonicity in k is checked past s.
    """
    if p.s < p.k:
        raise ValueError(f"need s >= k, got s={p.s}, k={p.k}")


def _require_logs(p: ClassParams) -> None:
    if p.n < 2 or p.s < 2:
        raise ValueError(f"formula needs n >= 2 and s >= 2, got n={p.n}, s={p.s}")


def avg_sensitivity_bound(p: ClassParams, C: float = 1.0) -> float:
    """C * (k^4 W^2 sqrt(n) log(ns) + k^3 B^2 sqrt(log s))."""
    _require_logs(p)
    return C * (
        p.k**4 * p.W**2 * math.sqrt(p.n) * math.log(p.n * p.s)
        + p.k**3 * p.B**2 * math.sqrt(math.log(p.s))
    )


def noise_sensitivity_bound(p: ClassParams, C: float = 1.0) -> float:
    """C * sqrt(1-rho) * (k^4 W^2 log^2(ns/(1-rho)) + k^3 B^2 sqrt(log s)).

    Monotone non-increasing in rho once ns/(1-rho) >= e^4; tables should
    stay in that regime when scanning rho.
    """
    _require_logs(p)
    if p.rho is None:
        raise Inapplicable("rho is required")
    if p.rho >= 1.0:
        raise Inapplicable("rho must be < 1 for the noise-sensitivity bound")
    t = 1.0 - p.rho
    return (
        C
        * math.sqrt(t)
        * (
            p.k**4 * p.W**2 * math.log(p.n * p.s / t) ** 2
            + p.k**3 * p.B**2 * math.sqrt(math.log(p.s))
        )
    )


def degree_for_error(p: ClassParams, C: float = 1.0) -> int:
    """ceil(C * (k^8 W^4 log^4(ns) + k^6 B^4 log s) / eps^2).

    The degree the theory asks of the low-degree learner; astronomically
    large at practical eps, so regressions take their degree from the
    caller, never from here.
    """
    _require_logs(p)
    if p.eps is None:
        raise Inapplicable("eps is required")
    raw = (
        C
        * (p.k**8 * p.W**4 * math.log(p.n * p.s) ** 4 + p.k**6 * p.B**4 * math.log(p.s))
        / p.eps**2
    )
    return math.ceil(raw)


def rademacher_bound(p: ClassParams) -> float:
    """(WR + B) * sqrt(s n k log(k m (R + B))) / sqrt(m)."""
    if p.m is None or p.m < 2:
        raise Inapplicable(f"m must be >= 2, got {p.m}")
    arg = p.k * p.m * (p.radius + p.B)
    if arg <= 1.0:
        raise ValueError(f"log argument k*m*(R+B) = {arg:.6g} must exceed 1")
    return (
        (p.W * p.radius + p.B)
        * math.sqrt(p.s * p.n * p.k * math.log(arg))
        / math.sqrt(p.m)
    )


def rademacher_conjecture(p: ClassParams) -> float:
    """(WR + B) * sqrt(s k) / sqrt(m) -- conjectured, not proven."""
    if p.m is None or p.m < 2:
        raise Inapplicable(f"m must be >= 2, got {p.m}")
    return (p.W * p.radius + p.B) * math.sqrt(p.s * p.k) / math.sqrt(p.m)


def sample_complexity_general(
    p: ClassParams, C: float = 1.0
) -> tuple[float, float]:
    """Both general-distribution sample complexities, as a pair.

    First: C * ((WR+B)^2 k s n log(k(R+B)/eps) + log(1/delta)) / eps^2,
    with the log clamped below at 1.  Second (decision-list route):
    C * n^2 B^2 s log(1/delta) / eps^2.  Neither is canonical; both are
    rounded up to whole numbers, returned as floats.
    """
    if p.eps is None or p.delta is None:
        raise Inapplicable("eps and delta are required")
    log_term = max(math.log(p.k * (p.radius + p.B) / p.eps), LOG_FLOOR)
    main = (
        C
        * (
            (p.W * p.radius + p.B) ** 2 * p.k * p.s * p.n * log_term
            + math.log(1.0 / p.delta)
        )
        / p.eps**2
    )
    dlist = C * p.n**2 * p.B**2 * p.s * math.log(1.0 / p.delta) / p.eps**2
    return float(math.ceil(main)), float(math.ceil(dlist))


def halfspace_sensitivity_bound(prob: float, n: int, C: float = 1.0) -> float:
    """C * p * sqrt(n log(1/p)) for a halfspace with acceptance probability p.

    Returns 0 at p = 0 and at p = 1 (the p -> 1 limit of the formula).
    """
    if not 0.0 <= prob <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {prob}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if prob in (0.0, 1.0):
        return 0.0
    return C * prob * math.sqrt(n * math.log(1.0 / prob))
