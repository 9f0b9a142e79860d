"""A family that records the node arrays the counting integrals ask of it."""

import numpy as np
import pytest

from grushinlab.linops import STACK_NODES
from grushinlab.traces import HolomorphicFamily


class NodeRecord:
    """Wraps a :class:`HolomorphicFamily` and records every node array asked
    of its ``value`` and its ``derivative``, in order."""

    def __init__(self, family: HolomorphicFamily):
        self.asked = {"value": [], "derivative": []}

        def recording(name):
            evaluate = getattr(family, name)

            def record(z):
                self.asked[name].append(np.array(z))
                return evaluate(z)

            return record

        self.family = HolomorphicFamily(recording("value"), recording("derivative"))

    def stacks(self) -> list[np.ndarray]:
        """The node stacks asked after the probe check, checked against the
        contract: the check asks P at the three probes once per side and P'
        once; then each stack is asked once of ``value`` and once of
        ``derivative``, at most ``STACK_NODES`` nodes at a time, and no node
        is asked twice."""
        values, derivatives = self.asked["value"], self.asked["derivative"]
        assert [z.shape for z in values[:2] + derivatives[:1]] == [(3,)] * 3
        stacks = values[2:]
        assert len(derivatives) - 1 == len(stacks)
        assert all(np.array_equal(a, b) for a, b in zip(stacks, derivatives[1:]))
        assert all(z.ndim == 1 and 1 <= z.size <= STACK_NODES for z in stacks)
        nodes = np.concatenate(stacks)
        assert np.unique(nodes).size == nodes.size
        return stacks


@pytest.fixture
def node_record():
    return NodeRecord
