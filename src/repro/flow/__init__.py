"""Max-flow substrate: residual networks and Dinic's algorithm, the
kernel the paper settled on (Section 6.1)."""

from repro.flow.dinic import dinic
from repro.flow.network import Edge, FlowNetwork

__all__ = ["Edge", "FlowNetwork", "dinic"]
