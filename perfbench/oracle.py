"""In-process reference for the benchmark's correctness checks.

The oracle is the repository's own interpreter: ``Controller.with_simulator()``
with the flow cache and the codegen tier switched off, so every packet walks
the reference pipeline.  It deploys the same programs in the same order as
the benchmark provisions ``serve``, replays the same warm-up, and then
predicts the verdict counts of sampled inject batches and the outcome of
sampled deploys.
"""

from __future__ import annotations

from repro.controlplane import Controller
from repro.service.server import _build_packet


def _expand(specs: list[dict]) -> list:
    packets = []
    for spec in specs:
        template = _build_packet(spec)
        packets.append(template)
        for _ in range(spec.get("count", 1) - 1):
            packets.append(template.clone())
    return packets


class Oracle:
    def __init__(self, provisioning: list[tuple[str, str, str]], warmup: list[dict]):
        self.controller, self.dataplane = Controller.with_simulator()
        self.dataplane.flow_cache.enabled = False
        self.dataplane.codegen.enabled = False
        self.deploys = [self.controller.deploy(source).stats
                        for _tenant, _name, source in provisioning]
        self.warmup_verdicts = self.verdicts(warmup)

    def verdicts(self, specs: list[dict]) -> dict:
        """(verdict counts, recirculations) for one batch, as ``inject``
        reports them."""
        counts: dict[str, int] = {}
        recirculations = 0
        for result in self.dataplane.process_many(_expand(specs)):
            counts[result.verdict.value] = counts.get(result.verdict.value, 0) + 1
            recirculations += result.recirculations
        return {"verdicts": counts, "recirculations": recirculations}

    def deploy_cycle(self, source: str) -> dict:
        """Deploy then revoke; returns the deploy's simulated figures
        (entries, modelled update delay)."""
        handle = self.controller.deploy(source)
        self.controller.revoke(handle.program_id)
        return {"entries": handle.stats.entries, "update_ms": handle.stats.update_ms}
