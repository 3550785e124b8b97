"""Seeded inputs for the three benchmark workloads.

Everything ``serve`` sees comes from here: the program sources deployed at
provisioning time, the warm-up traffic, the pool of inject batches the
window cycles through, and the control operations.  The same seed always
yields the same inputs.

Stream design (why the expected values never depend on how the two
client connections interleave):

* Traffic is owned by six long-lived programs whose verdicts are fixed
  once warm-up has run.  ``cache`` and ``calc`` are pure.  ``cms`` always
  forwards.  ``lb`` only reads its pools (nothing on the traffic path
  writes ``port_pool``).  ``hh`` sees only flows that warm-up already
  pushed past its threshold and reported, so it never reports again.
  ``firewall`` sees outbound pairs that warm-up already recorded, and
  inbound packets whose verdict depends on that fixed record only.
* Control writes and reads target memory that no traffic writes
  (``lb``'s ``dip_pool``, ``cache``'s ``mem1`` away from the hit
  address, and each churned program's own register), and a read always
  follows its write on the same connection.
* Deployed-and-revoked programs filter on UDP ports no traffic uses, so
  churn invalidates the flow cache but never changes a verdict.  On the
  traffic workloads they ride the closed loop between inject batches, so
  a deploy's latency is its own, not the residue of a batch ahead of it.

Work that does not set a rate is paced by the clock, not by how fast
``serve`` answers, so a window holds the same amount of it on a fast host
and a slow one: deploys on the traffic workloads are due every
``deploy_period_s``, and on ``deploy_churn`` a cycle is due every
``cycle_interval_s``.  CPU per unit of work and peak memory then compare
across runs and across versions of ``serve``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.programs import PROGRAMS

#: ports on which churned programs filter; no generated packet uses them
CHURN_PORT_BASE = 30000

EMC_FLOWS = 8192  # serve's default exact-match cache capacity

WHY = {
    "switch_mixed": "Zipf traffic over more flows than the EMC plus low-rate "
    "deploy churn: EMC, megaflow and interpreter tiers of rmt all carry time",
    "engine_hot": "serve --workers 2, 1024-packet batches over a 327-flow hot set, few control "
    "ops: EMC hits dominate and packet time is the engine path (route, shm codec, rings) plus "
    "cached worker work",
    "deploy_churn": "paced deploy/write/read/revoke cycles with a light inject "
    "stream: lang, compiler, controlplane and service dispatch do the work",
}


def _with_filter(source: str, old: str, new: str) -> str:
    if old not in source:
        raise ValueError(f"filter {old!r} not found")
    return source.replace(old, new, 1)


def provisioning_programs() -> list[tuple[str, str, str]]:
    """(tenant, name, source) in deploy order.

    Ownership goes to the first deployed program whose filter matches, so
    the owners come first with disjoint filters, ``firewall`` is the
    IPv4 catch-all, and the remaining six own nothing (they still occupy
    the filter table and RPBs, as a busy switch would).
    """
    src = {name: info.source for name, info in PROGRAMS.items()}
    return [
        ("t-apps", "cache", src["cache"]),
        ("t-apps", "calc", src["calc"]),
        ("t-net", "lb", _with_filter(src["lb"], "0x0a000000, 0xffff0000>",
                                     "0x0a020000, 0xffff0000>")),
        ("t-net", "hh", _with_filter(src["hh"], "0x0a000000, 0xffff0000>",
                                     "0x0a030000, 0xffff0000>")),
        ("t-tele", "cms", _with_filter(src["cms"], "<hdr.ipv4.ttl, 0, 0x0>",
                                       "<hdr.ipv4.dst, 0x0b000000, 0xffff0000>")),
        ("t-net", "firewall", src["firewall"]),
        ("t-apps", "l2fwd", src["l2fwd"]),
        ("t-apps", "tunnel", src["tunnel"]),
        ("t-net", "l3route", src["l3route"]),
        ("t-tele", "ecn", src["ecn"]),
        ("t-tele", "bf", src["bf"]),
        ("t-tele", "sumax", src["sumax"]),
    ]


# -- traffic ---------------------------------------------------------------


def _ip(a: int, b: int, c: int, d: int) -> int:
    return (a << 24) | (b << 16) | (c << 8) | d


@dataclass
class Traffic:
    """Flow classes, each with a fixed share of every batch, plus the
    warm-up that fixes the stateful verdicts."""

    #: (share of packets, flows in Zipf rank order)
    classes: list[tuple[float, list[dict]]]
    #: packets sent once, in order, before anything is measured
    warmup: list[dict]


#: share of packets per flow class, in ``make_traffic``'s class order:
#: cache hit/miss/write, calc, lb, cms, hh, firewall out/in/unsolicited.
#: lb, hh and inbound firewall packets are uncacheable (they read state
#: that traffic writes), so they always take the interpreter path.
MIXED_SHARES = (0.16, 0.08, 0.02, 0.14, 0.22, 0.22, 0.02, 0.04, 0.06, 0.04)
#: engine_hot: the same classes, nearly all of them cacheable
HOT_SHARES = (0.30, 0.10, 0.02, 0.22, 0.02, 0.28, 0.01, 0.03, 0.01, 0.01)


def make_traffic(rng: random.Random, population: int,
                 shares: tuple[float, ...] = MIXED_SHARES) -> Traffic:
    """Flows for every owner program.  ``population`` is the total number
    of distinct flows across classes; shares of packets are fixed so that
    seeds change which flows are hot, never the mix of work."""

    def size(fraction: float) -> int:
        return max(1, int(population * fraction))

    def hosts(a: int, b: int, n: int, **spec) -> list[dict]:
        return [dict(spec, src_ip=_ip(a, b, i >> 8 & 255, i & 255)) for i in range(n)]

    def rand_ip(a: int, b: int) -> int:
        return _ip(a, b, rng.randrange(256), rng.randrange(1, 255))

    cache_hit = hosts(10, 5, size(0.16), kind="cache", op="read", key=0x8888)
    cache_miss = [dict(f, key=rng.randrange(1, 1 << 31))
                  for f in hosts(10, 6, size(0.10), kind="cache", op="read")]
    cache_write = [dict(f, value=rng.randrange(1 << 16))
                   for f in hosts(10, 7, size(0.02), kind="cache", op="write", key=0x8888)]
    # Field values that choose a code path follow the flow's index, not
    # the seed, so every seed exercises the same paths in the same mix.
    calc = [dict(f, op=(1, 2, 3, 4, 5, 5, 7)[i % 7],  # 7: unknown opcode, dropped
                 a=rng.randrange(1 << 16), b=rng.randrange(1 << 16))
            for i, f in enumerate(hosts(10, 8, size(0.14), kind="calc"))]
    lb = [{"kind": "udp", "src_ip": rand_ip(11, 9), "dst_ip": rand_ip(10, 2),
           "src_port": rng.randrange(1024, 65536), "dst_port": 80} for _ in range(size(0.22))]
    cms = [{"kind": ("udp", "tcp")[i % 2], "src_ip": rand_ip(12, 9), "dst_ip": rand_ip(11, 0),
            "src_port": rng.randrange(1024, 65536), "dst_port": 443} for i in range(size(0.22))]
    hh = [{"kind": "udp", "src_ip": _ip(10, 3, 0, k + 1), "dst_ip": _ip(12, 0, 0, 1),
           "src_port": 5000 + k, "dst_port": 53} for k in range(4)]
    pairs = [(rand_ip(10, 0), rand_ip(12, 1)) for _ in range(48)]
    fw_out = [{"kind": "udp", "src_ip": a, "dst_ip": b, "src_port": 40000 + i,
               "dst_port": 8080} for i, (a, b) in enumerate(pairs)]
    fw_in = [{"kind": "udp", "src_ip": b, "dst_ip": a, "src_port": 8080, "dst_port": 20000 + i}
             for i, (a, b) in enumerate(pairs * (1 + size(0.06) // len(pairs)))]
    fw_unsolicited = [{"kind": "tcp", "src_ip": rand_ip(13, 3), "dst_ip": rand_ip(10, 0),
                       "src_port": rng.randrange(1024, 65536), "dst_port": 22}
                      for _ in range(size(0.04))]
    classes = list(zip(shares, (cache_hit, cache_miss, cache_write, calc, lb, cms, hh, fw_out,
                                fw_in, fw_unsolicited)))
    for _share, flows in classes:
        rng.shuffle(flows)
    # warm-up: record every outbound pair, push each hh flow past the
    # threshold (1024) so its one report happens here
    warmup = list(fw_out) + [dict(spec, count=1100) for spec in hh]
    return Traffic(classes, warmup)


def zipf_batches(rng: random.Random, traffic: Traffic, batches: int,
                 batch_size: int, exponent: float) -> list[list[dict]]:
    """``batches`` batches with each class's fixed share of packets, flows
    drawn Zipf(exponent) within the class."""
    counts = [int(share * batch_size) for share, _flows in traffic.classes]
    order = sorted(range(len(counts)), key=lambda i: traffic.classes[i][0] * batch_size
                   - counts[i], reverse=True)
    for i in order[: batch_size - sum(counts)]:
        counts[i] += 1
    cum = []
    for _share, flows in traffic.classes:
        total, weights = 0.0, []
        for rank in range(len(flows)):
            total += 1.0 / (rank + 1) ** exponent
            weights.append(total)
        cum.append(weights)
    out = []
    for _ in range(batches):
        batch = []
        for (_share, flows), weights, count in zip(traffic.classes, cum, counts):
            batch += rng.choices(flows, cum_weights=weights, k=count)
        rng.shuffle(batch)
        out.append(batch)
    return out


# -- churned programs --------------------------------------------------------

#: ALU primitives that cost the same number of entries, so distinct
#: programs differ in shape but not (much) in modelled update delay
_ALU = ("ADD", "XOR", "MAX", "MIN")
_EXTRACT = ("hdr.ipv4.src", "hdr.ipv4.dst", "hdr.udp.src_port", "hdr.ipv4.len")


def churn_program(name: str, port: int, ops: list[str], cases: list[int],
                  const: int, extract: str) -> str:
    """A small stateful program: an ALU chain, one counter register and a
    BRANCH whose case 0 is the template ``add_case`` clones."""
    lines = [f"@ reg 256", f"program {name}(", f"    <hdr.udp.dst_port, {port}, 0xffff>) {{",
             f"    EXTRACT({extract}, har);", f"    LOADI(sar, {const});"]
    for op in ops:
        lines.append(f"    {op}(har, sar);")
    lines += ["    LOADI(sar, 1);", "    HASH_5_TUPLE_MEM(reg);", "    MEMADD(reg);",
              "    BRANCH:"]
    for i, value in enumerate(cases):
        lines.append(f"    case(<har, {value}, 0xff>) {{")
        lines.append(f"        FORWARD({i + 1});")
        lines.append("    }")
    lines += ["    FORWARD(0);", "}", ""]
    return "\n".join(lines)


#: kinds of churned source, in a fixed repeating order: 40% verbatim
#: repeats, 35% constant-only changes, 25% structurally distinct
_CHURN_PATTERN = ("repeat", "constants", "distinct", "repeat", "constants",
                  "repeat", "constants", "distinct", "repeat", "constants",
                  "repeat", "constants", "distinct", "repeat", "constants",
                  "repeat", "constants", "distinct", "repeat", "distinct")


class ChurnSources:
    """An endless seeded sequence of churn program sources, generated on
    demand (``churn[n]`` is the n-th source).

    Verbatim repeats (front-end cache hits), constant-only changes (new
    source, recurring shape) and distinct programs (a shape not used
    before, so a cold solve) come in a fixed proportion.  Distinct
    programs differ in their ALU ops, extracted field and, now and then,
    case count, so their entry counts (and modelled delays) vary a little
    from seed to seed, not a lot.  Once every shape has been used,
    distinct programs reuse shapes with new constants.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.repeats = [churn_program(f"rep{i}", CHURN_PORT_BASE + i, ops, [1, 2], 7,
                                      "hdr.ipv4.src")
                        for i, ops in enumerate((["ADD", "XOR"], ["MAX", "MIN"], ["XOR", "MAX"]))]
        self.template_ops = ["ADD", "XOR", "MAX"]
        self.shapes_used: set[tuple] = set()
        self.sources: list[str] = []

    def __getitem__(self, n: int) -> str:
        while len(self.sources) <= n:
            self.sources.append(self._make(len(self.sources)))
        return self.sources[n]

    def _make(self, n: int) -> str:
        rng = self.rng
        kind = _CHURN_PATTERN[n % len(_CHURN_PATTERN)]
        if kind == "repeat":
            return self.repeats[n % len(self.repeats)]
        if kind == "constants":
            return churn_program(
                f"cst{n}", CHURN_PORT_BASE + 100 + rng.randrange(900), self.template_ops,
                [rng.randrange(1, 200), rng.randrange(1, 200)], rng.randrange(1, 1 << 16),
                "hdr.ipv4.dst")
        for _attempt in range(100):
            ops = [rng.choice(_ALU) for _ in range(3)]
            ncases = rng.choice((2, 2, 3))
            extract = rng.choice(_EXTRACT)
            shape = (tuple(ops), ncases, extract)
            if shape not in self.shapes_used:
                break
        self.shapes_used.add(shape)
        return churn_program(
            f"dst{n}", CHURN_PORT_BASE + 1000 + rng.randrange(9000), ops,
            [rng.randrange(1, 250) for _ in range(ncases)], rng.randrange(1, 1 << 16),
            extract)


# -- the workloads -------------------------------------------------------------


@dataclass
class Workload:
    name: str
    seed: int
    serve_args: list[str]
    provisioning: list[tuple[str, str, str]]
    warmup: list[dict]
    #: inject batches the inject stream cycles through
    pool: list[list[dict]]
    #: closed-loop stream: "inject" (batches, with a deploy and a revoke
    #: of the next churn source between them) or "churn"
    closed: str
    #: open-loop stream: "control" (``control_ops``, cycled) or "inject"
    open: str
    open_interval_s: float
    control_ops: list[dict] = field(default_factory=list)
    churn: ChurnSources | None = None
    #: traffic workloads: a churn deploy is due every ``deploy_period_s``
    #: (its revoke half a period later), between two inject batches
    deploy_period_s: float = 0.0
    #: deploy_churn: a deploy/write/read/revoke cycle is due every
    #: ``cycle_interval_s``
    cycle_interval_s: float = 0.0
    #: window deploys averaged into modelled_update_ms; a run that
    #: completes fewer fails
    modelled_deploys: int = 16
    #: closed-loop operations after which peak memory is read, so that it
    #: is read after the same amount of work on every run
    rss_mark: int = 0
    why: str = ""


def control_ops(rng: random.Random, cycles: int) -> list[dict]:
    """Open-loop control cycles of one write then nine reads of the same
    word, on memory no traffic writes.  Every write flushes the flow
    cache; reads do not."""
    targets = [("lb", "dip_pool"), ("cache", "mem1")]
    ops: list[dict] = []
    for _ in range(cycles):
        program, mid = targets[rng.randrange(len(targets))]
        vaddr = rng.randrange(256)
        if program == "cache" and vaddr == 128:
            vaddr = 129  # the address cache hits read; keep it traffic-only
        value = rng.randrange(1 << 32)
        ops.append({"op": "write_mem", "program": program, "mid": mid,
                    "vaddr": vaddr, "value": value})
        for _ in range(9):
            ops.append({"op": "read_mem", "program": program, "mid": mid,
                        "vaddr": vaddr, "expect": value})
    return ops


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    provisioning = provisioning_programs()
    if name == "switch_mixed":
        traffic = make_traffic(rng, population=3 * EMC_FLOWS)
        pool = zipf_batches(rng, traffic, 256, 64, 0.9)
        return Workload(name, seed, [], provisioning, traffic.warmup, pool,
                        "inject", "control", 0.02, control_ops(rng, 20),
                        ChurnSources(rng), deploy_period_s=0.25, rss_mark=len(pool),
                        why=WHY[name])
    if name == "engine_hot":
        # Every write, read, deploy and revoke flushes the workers' flow
        # caches and waits on an engine barrier, so control runs at a few
        # operations a second here: each flush makes the hot set miss
        # once, which must stay small next to the packet rate for the EMC
        # to carry the traffic.  Batches are large so that the engine's
        # own work, not its timed polls and wake-ups, sets a batch's time.
        traffic = make_traffic(rng, population=EMC_FLOWS // 32, shares=HOT_SHARES)
        pool = zipf_batches(rng, traffic, 8, 1024, 0.6)
        return Workload(name, seed, ["--workers", "2"], provisioning, traffic.warmup,
                        pool, "inject", "control", 0.5, control_ops(rng, 20),
                        ChurnSources(rng), deploy_period_s=0.5, rss_mark=len(pool),
                        why=WHY[name])
    if name == "deploy_churn":
        traffic = make_traffic(rng, population=EMC_FLOWS // 2)
        pool = zipf_batches(rng, traffic, 128, 4, 0.9)
        # Injects every 30.5 ms against a cycle every 20 ms: an inject's
        # offset into its cycle steps by 10.5 ms, so in 1.22 s the stream
        # meets every point of a cycle once on a 0.5 ms grid.  With 30 ms
        # every third deploy met an inject due at the same instant, and
        # which of the two the client sent first set a run's figures.
        return Workload(name, seed, [], provisioning[:8], traffic.warmup, pool,
                        "churn", "inject", 0.0305, churn=ChurnSources(rng),
                        cycle_interval_s=0.02, modelled_deploys=60, rss_mark=1000,
                        why=WHY[name])
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("switch_mixed", "engine_hot", "deploy_churn")
