"""Fabric topology: named switch nodes wired by links.

A :class:`Topology` holds :class:`FabricNode` instances — each a full
P4runpro switch (in-process :class:`~repro.dataplane.runpro.P4runproDataPlane`
by default, or a :class:`~repro.engine.ShardedEngine` when the node is
built with ``workers > 0``) — and :class:`Link` objects with configurable
latency, bandwidth, and loss probability.  The canonical shape is the
leaf-spine fabric (:meth:`Topology.leaf_spine`): every leaf has one
uplink to every spine, host ports live on the leaves, and each leaf owns
one /24 of host addresses (``10.0.<leaf+1>.0/24`` by default) so the
fabric's routing layer can map a destination IP to its egress leaf.

Topologies round-trip through a JSON spec file (:meth:`Topology.from_spec`
/ :meth:`Topology.to_spec`) consumed by ``p4runpro fabric`` and
``p4runpro serve --fabric``.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..compiler.target import TargetSpec
from ..controlplane.controller import Controller
from ..dataplane.runpro import P4runproDataPlane

#: first uplink port number on a leaf (host ports sit below it)
UPLINK_PORT_BASE = 48

LEAF = "leaf"
SPINE = "spine"


class TopologyError(ValueError):
    """Malformed topology or spec file."""


@dataclass
class LinkStats:
    """Per-link delivery/drop accounting, reset by ``reset()``."""

    carried: int = 0
    dropped_down: int = 0
    dropped_loss: int = 0
    dropped_bandwidth: int = 0

    def reset(self) -> None:
        self.carried = 0
        self.dropped_down = 0
        self.dropped_loss = 0
        self.dropped_bandwidth = 0

    def as_dict(self) -> dict:
        return {
            "carried": self.carried,
            "dropped_down": self.dropped_down,
            "dropped_loss": self.dropped_loss,
            "dropped_bandwidth": self.dropped_bandwidth,
        }


class Link:
    """A bidirectional link between two node ports.

    ``latency_s`` adds to a packet's arrival timestamp per traversal;
    ``bandwidth_gbps`` bounds the bytes a run window may carry (enforced
    only when the run declares a duration); ``loss`` is an independent
    per-packet drop probability drawn from a link-local seeded RNG so
    runs stay deterministic.
    """

    def __init__(
        self,
        a: str,
        a_port: int,
        b: str,
        b_port: int,
        *,
        latency_s: float = 2e-6,
        bandwidth_gbps: float = 100.0,
        loss: float = 0.0,
        seed: int = 0,
    ):
        self.a, self.a_port = a, a_port
        self.b, self.b_port = b, b_port
        self.latency_s = latency_s
        self.bandwidth_gbps = bandwidth_gbps
        self.loss = loss
        self.up = True
        self.stats = LinkStats()
        self._rng = random.Random((seed << 16) ^ hash((a, b)) & 0xFFFF)
        self._window_bytes: float | None = None

    @property
    def name(self) -> str:
        return f"{self.a}:{self.a_port}<->{self.b}:{self.b_port}"

    def ends(self) -> tuple[str, str]:
        return (self.a, self.b)

    def ingress_port_at(self, node: str) -> int:
        """The port a packet arrives on when it reaches ``node``."""
        if node == self.a:
            return self.a_port
        if node == self.b:
            return self.b_port
        raise TopologyError(f"{node!r} is not an endpoint of {self.name}")

    def begin_window(self, duration_s: float | None) -> None:
        """Open a transmission window with a byte budget (None = unbounded)."""
        if duration_s is None or self.bandwidth_gbps is None:
            self._window_bytes = None
        else:
            self._window_bytes = self.bandwidth_gbps * 1e9 / 8.0 * duration_s

    def transmit(self, size_bytes: int) -> str:
        """Attempt one traversal; returns ``"ok"`` or a drop cause
        (``"link_down"`` / ``"link_loss"`` / ``"link_bandwidth"``)."""
        if not self.up:
            self.stats.dropped_down += 1
            return "link_down"
        if self.loss and self._rng.random() < self.loss:
            self.stats.dropped_loss += 1
            return "link_loss"
        if self._window_bytes is not None:
            if self._window_bytes < size_bytes:
                self.stats.dropped_bandwidth += 1
                return "link_bandwidth"
            self._window_bytes -= size_bytes
        self.stats.carried += 1
        return "ok"


class FabricNode:
    """One switch of the fabric: a name, a role, and a full P4runpro stack.

    ``workers > 0`` backs the node with a sharded multi-process engine
    (its coordinator controller is the node's control plane); otherwise
    the node runs an in-process data plane.  ``busy_s`` accumulates the
    CPU seconds this node spent processing packets — the fabric's
    aggregate-capacity projection divides total packets by the busiest
    node's time, mirroring the engine benchmark's core-independent
    makespan metric.
    """

    def __init__(
        self,
        name: str,
        role: str = LEAF,
        *,
        spec: TargetSpec | None = None,
        parse_machine=None,
        workers: int = 0,
        codegen: bool = True,
    ):
        self.name = name
        self.role = role
        self.up = True
        self.workers = workers
        self.busy_s = 0.0
        self.packets = 0
        if workers:
            from ..engine import ShardedEngine

            self.engine = ShardedEngine(
                workers,
                spec=spec,
                parse_machine=parse_machine,
                codegen=codegen,
            )
            self.controller = self.engine.controller
            self.dataplane = self.engine.dataplane
        else:
            self.engine = None
            self.dataplane = P4runproDataPlane(spec, parse_machine, codegen=codegen)
            self.controller = Controller(self.dataplane, spec=spec)

    def process_batch(self, packets: list) -> list:
        """Run a batch through this node's pipeline, in arrival order."""
        self.packets += len(packets)
        if self.engine is not None:
            wall0 = time.perf_counter()
            results = self.engine.inject(packets, mode="full")
            stats = self.engine.last_inject_stats
            busy = max(
                list(stats.get("worker_cpu_s", {}).values())
                + [stats.get("coordinator_cpu_s", 0.0)],
                default=0.0,
            )
            self.busy_s += busy or (time.perf_counter() - wall0)
            return results
        cpu0 = time.process_time()
        results = self.dataplane.process_many(packets)
        self.busy_s += time.process_time() - cpu0
        return results

    def stats(self) -> dict:
        info = dict(self.dataplane.stats()) if self.engine is None else dict(
            self.engine.stats()["totals"]
        )
        info.update(
            {
                "role": self.role,
                "up": self.up,
                "workers": self.workers,
                "fabric_packets": self.packets,
                "busy_s": round(self.busy_s, 6),
            }
        )
        return info

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()


@dataclass
class Topology:
    """Named nodes plus the links wiring them."""

    nodes: dict[str, FabricNode] = field(default_factory=dict)
    links: list[Link] = field(default_factory=list)
    #: leaf name -> (subnet base, prefix mask) for host addresses
    leaf_subnets: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: host-facing ports per leaf
    host_ports: int = 4
    #: builder parameters kept for spec round-tripping
    spec_params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._adj: dict[tuple[str, str], Link] = {}
        for link in self.links:
            self._register(link)

    def _register(self, link: Link) -> None:
        self._adj[(link.a, link.b)] = link
        self._adj[(link.b, link.a)] = link

    def add_node(self, node: FabricNode) -> FabricNode:
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node {node.name!r}")
        self.nodes[node.name] = node
        return node

    def add_link(self, link: Link) -> Link:
        for end in link.ends():
            if end not in self.nodes:
                raise TopologyError(f"link endpoint {end!r} is not a node")
        if (link.a, link.b) in self._adj:
            raise TopologyError(f"duplicate link {link.a}<->{link.b}")
        self.links.append(link)
        self._register(link)
        return link

    def link_between(self, a: str, b: str) -> Link:
        link = self._adj.get((a, b))
        if link is None:
            raise TopologyError(f"no link between {a!r} and {b!r}")
        return link

    @property
    def leaves(self) -> list[str]:
        return [n for n, node in self.nodes.items() if node.role == LEAF]

    @property
    def spines(self) -> list[str]:
        return [n for n, node in self.nodes.items() if node.role == SPINE]

    def leaf_of_ip(self, ip: int) -> str | None:
        """The leaf owning a destination IP, or None when unroutable."""
        for leaf, (base, mask) in self.leaf_subnets.items():
            if ip & mask == base:
                return leaf
        return None

    def host_ip(self, leaf: str, host: int) -> int:
        """The ``host``-th host address on a leaf's subnet (1-based)."""
        base, mask = self.leaf_subnets[leaf]
        span = (~mask) & 0xFFFFFFFF
        if not 1 <= host <= span:
            raise TopologyError(f"host {host} outside subnet span {span}")
        return base | host

    def close(self) -> None:
        for node in self.nodes.values():
            node.close()

    def __enter__(self) -> "Topology":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- builders -------------------------------------------------------------
    @classmethod
    def leaf_spine(
        cls,
        num_leaves: int,
        num_spines: int,
        *,
        spec: TargetSpec | None = None,
        parse_machine=None,
        workers: int = 0,
        codegen: bool = True,
        host_ports: int = 4,
        latency_s: float = 2e-6,
        bandwidth_gbps: float = 100.0,
        loss: float = 0.0,
        subnet_base: int = 0x0A000000,
        seed: int = 0,
    ) -> "Topology":
        """Build a leaf-spine fabric: every leaf uplinks to every spine.

        Leaf ``i`` is named ``leaf<i>``, owns host ports
        ``0..host_ports-1`` and the ``subnet_base | (i+1)<<8`` /24; its
        uplink to spine ``s`` uses leaf port ``UPLINK_PORT_BASE + s`` and
        spine port ``i``.  ``num_spines`` may be 0 for a single-switch
        "fabric" (the equivalence-guard configuration).
        """
        if num_leaves < 1:
            raise TopologyError("need at least one leaf")
        if num_spines < 0:
            raise TopologyError("spine count cannot be negative")
        topo = cls(
            host_ports=host_ports,
            spec_params={
                "kind": "leaf-spine",
                "leaves": num_leaves,
                "spines": num_spines,
                "workers": workers,
                "host_ports": host_ports,
                "link": {
                    "latency_us": latency_s * 1e6,
                    "bandwidth_gbps": bandwidth_gbps,
                    "loss": loss,
                },
            },
        )
        for i in range(num_leaves):
            topo.add_node(
                FabricNode(
                    f"leaf{i}",
                    LEAF,
                    spec=spec,
                    parse_machine=parse_machine,
                    workers=workers,
                    codegen=codegen,
                )
            )
            topo.leaf_subnets[f"leaf{i}"] = (
                subnet_base | ((i + 1) << 8),
                0xFFFFFF00,
            )
        for s in range(num_spines):
            topo.add_node(
                FabricNode(
                    f"spine{s}",
                    SPINE,
                    spec=spec,
                    parse_machine=parse_machine,
                    workers=workers,
                    codegen=codegen,
                )
            )
        for i in range(num_leaves):
            for s in range(num_spines):
                topo.add_link(
                    Link(
                        f"leaf{i}",
                        UPLINK_PORT_BASE + s,
                        f"spine{s}",
                        i,
                        latency_s=latency_s,
                        bandwidth_gbps=bandwidth_gbps,
                        loss=loss,
                        seed=seed,
                    )
                )
        return topo

    # -- spec files -----------------------------------------------------------
    def to_spec(self) -> dict:
        """The JSON-serializable builder spec for this topology."""
        if self.spec_params.get("kind") != "leaf-spine":
            raise TopologyError("only leaf-spine topologies serialize to a spec")
        return dict(self.spec_params)

    @classmethod
    def from_spec(cls, spec: dict | str | Path, **overrides) -> "Topology":
        """Build a topology from a spec dict or a JSON spec file path."""
        if isinstance(spec, (str, Path)):
            try:
                spec = json.loads(Path(spec).read_text())
            except (OSError, ValueError) as exc:
                raise TopologyError(f"cannot read topology spec: {exc}") from exc
        if not isinstance(spec, dict):
            raise TopologyError("topology spec must be a JSON object")
        kind = spec.get("kind", "leaf-spine")
        if kind != "leaf-spine":
            raise TopologyError(f"unknown topology kind {kind!r}")
        link = spec.get("link", {})
        kwargs = {
            "workers": spec.get("workers", 0),
            "host_ports": spec.get("host_ports", 4),
            "latency_s": link.get("latency_us", 2.0) * 1e-6,
            "bandwidth_gbps": link.get("bandwidth_gbps", 100.0),
            "loss": link.get("loss", 0.0),
        }
        kwargs.update(overrides)
        return cls.leaf_spine(
            int(spec.get("leaves", 2)), int(spec.get("spines", 2)), **kwargs
        )
