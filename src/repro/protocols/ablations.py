"""Ablations: remove one design choice from Protocol S and measure.

Protocol S's construction has three load-bearing choices; each
ablation below removes exactly one, and experiment E15 measures what
breaks.  Together with :class:`~repro.protocols.variants.EagerS`
(which ablates the m-level gating) these justify the design:

* :class:`NaiveCountingS` — drops the ``seen`` set: a process advances
  its count upon hearing *anyone* at its level rather than waiting to
  hear *everyone*.  On two generals the rules coincide, but for
  ``m >= 3`` the naive count races ahead of the modified level, the
  count spread exceeds 1, and the adversary gets disagreement windows
  wider than ε.
* :class:`SkewedS` — drops the *uniform* law of ``rfire``: the draw is
  ``t·V²`` with ``V ~ U(0, 1]``, i.e. mass piled toward small values.
  Liveness on a run becomes ``cdf(Mincount)``, so the good run can
  still fire with probability 1 — but the worst straddling window is
  now ``cdf(1) - cdf(0) = sqrt(ε)``, far above ε.  Uniformity is what
  equalizes the adversary's options.

Both remain validity-satisfying protocols with exact closed forms (the
message flow stays tape-independent).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.types import ProcessId
from .counting import SQUARED, CountingProtocol


@dataclass(frozen=True)
class NaiveCountingS(CountingProtocol):
    """Protocol S with the ``seen`` set ablated (see module docstring)."""

    epsilon: float
    coordinator: ProcessId = 1

    label = "naive-counting-S"
    advance_on_any = True


@dataclass(frozen=True)
class SkewedS(CountingProtocol):
    """Protocol S with a non-uniform ``rfire`` law (see module docstring).

    Counting is the faithful Figure 1 machine; only the draw changes:
    ``rfire = t·V²``, so ``Pr[rfire <= c] = sqrt(c/t)``.
    """

    epsilon: float
    coordinator: ProcessId = 1

    label = "skewed-S"
    law = SQUARED
