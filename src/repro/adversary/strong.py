"""The strong adversary ``A_s``: every run is available.

The strong adversary may destroy any subset of sent messages and
deliver any input pattern, but cannot read message contents (the paper
notes encryption makes this reasonable, and since the lower bounds are
pessimistic a content-reading adversary would only be stronger).

Enumeration is exponential — ``2^(2|E|N + m)`` runs — so it is gated on
an explicit limit; larger instances use the search strategies of
:mod:`repro.adversary.search`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.run import Run, enumerate_runs, run_space_size
from ..core.topology import Topology
from ..core.types import Round
from .base import Adversary

# Refuse exhaustive enumeration beyond this many runs by default.
DEFAULT_ENUMERATION_LIMIT = 2_000_000


@dataclass(frozen=True)
class StrongAdversary(Adversary):
    """``A_s`` — the set of all runs (optionally with fixed inputs).

    ``fixed_inputs`` restricts the input pattern (useful because most
    experiments quantify over the adversary's message choices with a
    known input); ``None`` ranges over all ``2^m`` input sets.
    """

    fixed_inputs: Optional[frozenset] = None

    @property
    def name(self) -> str:  # type: ignore[override]
        if self.fixed_inputs is None:
            return "strong-adversary"
        return f"strong-adversary(I={sorted(self.fixed_inputs)})"

    def contains(self, topology: Topology, run: Run) -> bool:
        if not run.is_valid_for(topology):
            return False
        if self.fixed_inputs is not None and run.inputs != self.fixed_inputs:
            return False
        return True

    def size(self, topology: Topology, num_rounds: Round) -> int:
        return run_space_size(
            topology, num_rounds, fixed_inputs=self.fixed_inputs is not None
        )

    def enumerate(
        self,
        topology: Topology,
        num_rounds: Round,
        limit: int = DEFAULT_ENUMERATION_LIMIT,
    ) -> Iterator[Run]:
        total = self.size(topology, num_rounds)
        if total > limit:
            raise ValueError(
                f"strong adversary has {total} runs here, above the "
                f"enumeration limit of {limit}; use repro.adversary.search"
            )
        return enumerate_runs(topology, num_rounds, self.fixed_inputs)
