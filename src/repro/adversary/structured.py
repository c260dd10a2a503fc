"""Structured run families: tractable slices of the strong adversary.

The strong adversary's run set is exponential, but the runs that
actually maximize disagreement (or minimize liveness) for the paper's
protocols have simple shapes.  Each family below is a small, explicit
set of runs:

* **chain cuts** — the two-general alternating-chain runs of Section 3
  broken at every possible round: contains Protocol A's exact worst
  case (break at round ``rfire``);
* **round cuts** — deliver everything before a round, nothing from it
  on: realizes every value of the level measure on connected graphs;
* **partial round cuts** — like round cuts but the boundary round
  silences only messages *into* a chosen target set: leaves the
  blocked processes one count behind and contains Protocol S's exact
  worst case (``Pr[PA | R] = ε``);
* **single losses** — the good run minus one delivery: the liveness
  sensitivity family (the paper's ``L(A, R) = 0`` example lives here);
* **tree runs** — the Lemma A.6 spanning-tree runs and truncations,
  with ``ML(R) = 1``;
* **input variants** — silence with each single input, probing
  validity-adjacent disagreement.

:func:`standard_families` bundles them; the search module maximizes
over the union and reports ``certification = "family"``.

Families are written in bits: each generator yields the runs as
bitmasks under :func:`repro.core.packed.layout_for` (input bits, then
round-major link bits), built from the same shape builders
(:func:`~repro.core.packed.round_cut_bits` and its siblings) that the
tuple constructors of :mod:`repro.core.run` unpack, so family search
evaluates them as one
:class:`~repro.core.packed.RunBatch` and only the winner becomes a
:class:`~repro.core.run.Run`.  :meth:`RunFamily.runs` unpacks the same
masks for callers that want tuple runs.  Order and multiplicity are
part of a family's contract: the first run attaining the maximum is
the search's witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, List, Sequence, Tuple

from ..core.packed import (
    RunLayout,
    chain_bits,
    layout_for,
    links_not_into,
    partial_round_cut_bits,
    round_cut_bits,
    spanning_tree_bits,
)
from ..core.run import Run
from ..core.topology import Topology
from ..core.types import Round


@dataclass(frozen=True)
class RunFamily:
    """A named, finite family of runs over a (topology, horizon) pair.

    ``generate`` yields the family's runs as bitmasks under the pair's
    :class:`RunLayout`, in a fixed order (duplicates included).
    """

    name: str
    generate: Callable[[RunLayout], Iterator[int]]

    def bits(self, topology: Topology, num_rounds: Round) -> List[int]:
        """The family as bitmasks under ``layout_for(topology, num_rounds)``."""
        return list(self.generate(layout_for(topology, num_rounds)))

    def runs(self, topology: Topology, num_rounds: Round) -> List[Run]:
        """Materialize the family as :class:`Run` objects, in order."""
        layout = layout_for(topology, num_rounds)
        return [layout.unpack_bits(bits) for bits in self.generate(layout)]


def _good_bits(layout: RunLayout) -> int:
    """The good run: every input, every message."""
    return round_cut_bits(layout, layout.num_rounds + 1, layout.input_mask_all)


def _input_variants(layout: RunLayout) -> List[int]:
    """All inputs, plus each single input — the patterns that matter.

    (Runs with no input never disagree in a validity-satisfying
    protocol, and symmetric larger subsets add nothing the search has
    found useful; the exhaustive tests confirm these variants suffice
    for the protocols in this repository.)
    """
    return [layout.input_mask_all] + [
        1 << bit for bit in range(layout.num_processes)
    ]


def _chain_cut_runs(layout: RunLayout) -> Iterator[int]:
    """Two-general chain runs: both directions delivered every round
    before the break (or to the horizon), nothing after."""
    topology = layout.topology
    if topology.num_processes != 2 or not topology.has_edge(1, 2):
        return
    for inputs in _input_variants(layout):
        yield chain_bits(layout, None, inputs)
        for break_round in range(1, layout.num_rounds + 1):
            yield chain_bits(layout, break_round, inputs)


def _round_cut_runs(layout: RunLayout) -> Iterator[int]:
    for inputs in _input_variants(layout):
        for cut in range(1, layout.num_rounds + 2):
            yield round_cut_bits(layout, cut, inputs)


def _partial_round_cut_runs(layout: RunLayout) -> Iterator[int]:
    processes = list(layout.topology.processes)
    if len(processes) <= 4:
        blocked_sets: Sequence[Tuple[int, ...]] = [
            combo
            for size in range(1, len(processes))
            for combo in itertools.combinations(processes, size)
        ]
    else:
        blocked_sets = [(i,) for i in processes] + [
            tuple(j for j in processes if j != i) for i in processes
        ]
    open_links = [links_not_into(layout, blocked) for blocked in blocked_sets]
    for inputs in _input_variants(layout):
        for cut in range(1, layout.num_rounds + 1):
            for links in open_links:
                yield partial_round_cut_bits(layout, cut, links, inputs)


def _single_loss_runs(layout: RunLayout) -> Iterator[int]:
    good = _good_bits(layout)
    for bit in range(layout.num_processes, layout.num_bits):
        yield good ^ (1 << bit)


def _double_loss_runs(layout: RunLayout) -> Iterator[int]:
    """The 2-loss adversary: the good run minus every pair of tuples.

    Quadratic in the tuple count, so it is capped; beyond the cap only
    pairs sharing a round are generated (losses in the same round are
    what create count straddles).
    """
    good = _good_bits(layout)
    m = layout.num_processes
    num_links = layout.num_links
    same_round_only = layout.num_message_bits > 24
    for first in range(m, layout.num_bits):
        if same_round_only:
            last = m + ((first - m) // num_links + 1) * num_links
        else:
            last = layout.num_bits
        for second in range(first + 1, last):
            yield good ^ (1 << first) ^ (1 << second)


def _crash_link_runs(layout: RunLayout) -> Iterator[int]:
    """The crash-link adversary: one directed link dies permanently.

    For every directed link and every crash round, deliver the good run
    except that link's messages from the crash round on — the classic
    fail-stop channel model embedded in the paper's run formalism.
    """
    good = _good_bits(layout)
    num_rounds = layout.num_rounds
    for k in range(layout.num_links):
        for crash_round in range(1, num_rounds + 1):
            dead = sum(
                1 << (layout.round_offset(round_number) + k)
                for round_number in range(crash_round, num_rounds + 1)
            )
            yield good & ~dead


def _tree_runs(layout: RunLayout) -> Iterator[int]:
    """The Lemma A.6 run (input at root 1, parent-to-child messages down
    a BFS spanning tree every round), then its truncations after each
    round."""
    if not layout.topology.is_connected():
        return
    full = spanning_tree_bits(layout)
    yield full
    for cut in range(1, layout.num_rounds + 1):
        yield full & round_cut_bits(layout, cut + 1, layout.input_mask_all)


def _single_input_silences(layout: RunLayout) -> Iterator[int]:
    for bit in range(layout.num_processes):
        yield 1 << bit


CHAIN_CUTS = RunFamily("chain-cuts", _chain_cut_runs)
ROUND_CUTS = RunFamily("round-cuts", _round_cut_runs)
PARTIAL_ROUND_CUTS = RunFamily("partial-round-cuts", _partial_round_cut_runs)
SINGLE_LOSSES = RunFamily("single-losses", _single_loss_runs)
DOUBLE_LOSSES = RunFamily("double-losses", _double_loss_runs)
CRASH_LINKS = RunFamily("crash-links", _crash_link_runs)
TREE_RUNS = RunFamily("tree-runs", _tree_runs)
INPUT_SILENCES = RunFamily("input-silences", _single_input_silences)


def standard_families() -> List[RunFamily]:
    """The families the worst-run search sweeps by default."""
    return [
        CHAIN_CUTS,
        ROUND_CUTS,
        PARTIAL_ROUND_CUTS,
        SINGLE_LOSSES,
        DOUBLE_LOSSES,
        CRASH_LINKS,
        TREE_RUNS,
        INPUT_SILENCES,
    ]
