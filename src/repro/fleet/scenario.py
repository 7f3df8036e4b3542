"""The fleet scenario: N independent simulated nodes, one config.

:class:`FleetScenario` is deliberately shard-agnostic — it can run any
subset of the fleet's nodes, in any order, because every node's
simulation is sealed by :class:`~repro.fleet.config.NodeSpec`.  The
parallel driver (:class:`repro.experiments.driver.FleetDriver`) simply
calls :meth:`run` with different node-id subsets in different worker
processes and merges the results.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.fleet.config import FleetConfig, NodeSpec
from repro.fleet.node import FleetNode, NodeResult

__all__ = ["FleetScenario"]


class FleetScenario:
    """Instantiate and run (a subset of) a configured fleet."""

    def __init__(self, config: FleetConfig) -> None:
        self.config = config

    def build_node(self, node_id: int) -> FleetNode:
        """Construct one node, with its share of any rack-burst fault."""
        spec = self.config.node_spec(node_id)
        window = self.config.fault_window_us()
        if window is not None and not self._in_blast_radius(spec):
            window = None
        return FleetNode(
            spec,
            duration_s=self.config.duration_s,
            fault_window_us=window,
            fault_probability=(
                self.config.fault.probability if self.config.fault else 0.0
            ),
            fault_kind=(
                self.config.fault.kind if self.config.fault else "bad_data"
            ),
        )

    def run(
        self, node_ids: Optional[Sequence[int]] = None
    ) -> List[NodeResult]:
        """Simulate the given nodes (default: all), serially."""
        if node_ids is None:
            node_ids = range(self.config.n_nodes)
        return [self.build_node(i).run() for i in node_ids]

    def _in_blast_radius(self, spec: NodeSpec) -> bool:
        assert self.config.fault is not None
        return spec.rack in self.config.fault.racks

    def affected_nodes(self) -> Iterable[int]:
        """Node ids inside the fault plan's blast radius (for reports)."""
        if self.config.fault is None:
            return ()
        return (
            i
            for i in range(self.config.n_nodes)
            if i // self.config.rack_size in self.config.fault.racks
        )
