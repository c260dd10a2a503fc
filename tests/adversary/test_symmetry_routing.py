"""Satellite tests: symmetry-aware routing in ``worst_case_unsafety``.

The composite search must (a) use orbit-reduced exhaustive enumeration
whenever the topology and protocol admit it, (b) agree exactly with
the unreduced sweep on small instances, and (c) degrade to the lazy
streaming path when the packed single-word representation runs out of
bits — the :class:`OrbitReductionUnsupported` cap — instead of
silently returning wrong aggregates.
"""

import itertools
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.adversary.search import (
    SYMMETRY_PARITY_LIMIT,
    exhaustive_search,
    worst_case_unsafety,
)
from repro.core.packed import (
    MAX_VECTOR_ORBIT_BITS,
    OrbitReductionUnsupported,
    enumerate_orbit_representatives,
    layout_for,
    orbit_reduce,
    packed_run_space,
)
from repro.core.topology import Topology
from repro.protocols.protocol_s import ProtocolS
from repro.protocols.weak_adversary import ProtocolW


def test_symmetric_search_reports_orbit_reduction():
    topology = Topology.complete(3)
    result = worst_case_unsafety(ProtocolW(2), topology, 2)
    assert result.certification == "exact"
    assert result.reduction_factor is not None
    assert result.reduction_factor > 1.0
    assert "orbit reduction" in result.describe()


def test_reduced_equals_full_sweep():
    topology = Topology.complete(3)
    protocol = ProtocolS(epsilon=0.25)
    reduced = exhaustive_search(
        protocol, topology, 2, symmetry_reduction=True
    )
    full = exhaustive_search(protocol, topology, 2)
    assert math.isclose(
        reduced.value, full.value, rel_tol=0.0, abs_tol=0.0
    )
    assert reduced.certification == full.certification == "exact"
    assert reduced.runs_examined < full.runs_examined


TAMPERED_PARITY_SCRIPT = textwrap.dedent(
    """
    import dataclasses
    import sys

    import repro.adversary.search as search
    from repro.core.topology import Topology
    from repro.protocols.weak_adversary import ProtocolW

    assert sys.flags.optimize == 1
    honest = search.exhaustive_search

    def tampered(*args, **kwargs):
        result = honest(*args, **kwargs)
        if kwargs.get("symmetry_reduction"):
            return dataclasses.replace(result, value=result.value - 0.5)
        return result

    search.exhaustive_search = tampered
    try:
        search.worst_case_unsafety(ProtocolW(2), Topology.complete(3), 1)
    except Exception as error:
        print(type(error).__name__, error)
        sys.exit(3)
    print("no error")
    """
)


def test_parity_check_survives_python_optimize():
    # A tampered reduced sweep must trip the standing parity check even
    # with asserts stripped (python -O).
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    result = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED_PARITY_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 3, result.stdout + result.stderr
    assert result.stdout.startswith(
        "SymmetryParityError orbit-reduced maximum 0.5 != "
        "full-sweep maximum 1.0 on"
    )


def test_parity_limit_is_positive():
    # Below this the composite search double-checks the reduced sweep
    # against the full one; keep the window meaningful.
    assert SYMMETRY_PARITY_LIMIT >= 256


class TestOrbitCap:
    """Regression: 64+ packed bits raise the typed exception."""

    def _oversized(self):
        # complete(4) at N = 5: 4 process bits + 12 edges * 5 rounds
        # = 64 packed bits, one past the 63-bit single-word cap.
        topology = Topology.complete(4)
        num_rounds = 5
        layout = layout_for(topology, num_rounds)
        assert layout.num_bits > MAX_VECTOR_ORBIT_BITS
        return topology, num_rounds, layout

    def test_packed_run_space_raises_typed_error(self):
        topology, num_rounds, _ = self._oversized()
        with pytest.raises(OrbitReductionUnsupported) as excinfo:
            packed_run_space(topology, num_rounds)
        # The error must point at the lazy fallback path.
        assert "enumerate_orbit_representatives" in str(excinfo.value)

    def test_orbit_reduce_raises_typed_error(self):
        _, _, layout = self._oversized()
        space = np.zeros(1, dtype=np.uint64)
        with pytest.raises(OrbitReductionUnsupported, match="single-word"):
            orbit_reduce(layout, space, [])

    def test_cap_is_still_a_value_error(self):
        # Callers guarding with ``except ValueError`` (the search
        # fallback arm) must keep catching the typed subclass.
        assert issubclass(OrbitReductionUnsupported, ValueError)

    def test_lazy_path_works_past_the_cap(self):
        # The streaming enumerator has no word-size limit: fix a small
        # input set so the oversized space stays enumerable in-test.
        topology, num_rounds, _ = self._oversized()
        representatives = itertools.islice(
            enumerate_orbit_representatives(
                topology, num_rounds, inputs=topology.processes
            ),
            64,
        )
        total = sum(size for _, size in representatives)
        assert total >= 64

    def test_below_cap_still_vectorizes(self):
        topology = Topology.complete(3)
        layout, space = packed_run_space(topology, 2)
        assert layout.num_bits <= MAX_VECTOR_ORBIT_BITS
        assert space.dtype == np.uint64


def test_search_on_asymmetric_instance_stays_exact():
    """No usable symmetry: the plain full sweep still certifies."""
    topology = Topology.pair()
    result = worst_case_unsafety(ProtocolS(epsilon=0.25), topology, 2)
    assert result.certification == "exact"
