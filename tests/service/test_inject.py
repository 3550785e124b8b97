"""The ``inject`` RPC: batched traffic through the service's data plane."""

import asyncio

from repro.programs import PROGRAMS
from repro.service import ControlService, Request
from repro.service.audit import STATE_CHANGING_METHODS, replay

CACHE = PROGRAMS["cache"].source


def run(service, method, params=None, tenant="default"):
    request = Request(id=1, method=method, params=params or {}, tenant=tenant)
    return asyncio.run(service.handle_request(request))


def result_of(response):
    assert response["ok"], response
    return response["result"]


def error_of(response):
    assert not response["ok"], response
    return response["error"]["code"]


class TestInject:
    def test_basic_udp_batch(self):
        service = ControlService()
        result = result_of(
            run(service, "inject", {"packets": [{"kind": "udp", "count": 10}]})
        )
        assert result["processed"] == 10
        assert result["verdicts"] == {"forward": 10}
        assert result["pps"] > 0

    def test_mixed_kinds(self):
        service = ControlService()
        result = result_of(
            run(
                service,
                "inject",
                {
                    "packets": [
                        {"kind": "cache", "op": "read", "key": 7, "count": 3},
                        {"kind": "cache", "op": "write", "key": 7, "value": 9},
                        {"kind": "tcp", "count": 2},
                        {"kind": "calc", "op": 1, "a": 2, "b": 3},
                        {"kind": "l2"},
                    ]
                },
            )
        )
        assert result["processed"] == 8

    def test_program_sees_injected_traffic(self):
        service = ControlService()
        deployed = result_of(run(service, "deploy", {"source": CACHE}))
        program_id = deployed["program_id"]
        result = result_of(
            run(
                service,
                "inject",
                {"packets": [{"kind": "cache", "op": "read", "key": 1, "count": 20}]},
            )
        )
        assert result["processed"] == 20
        # The cache program reflects hits back to the sender.
        assert result["verdicts"].get("reflect", 0) + result["verdicts"].get(
            "forward", 0
        ) == 20
        stats = result_of(run(service, "stats", {"program_id": program_id}))
        assert stats  # program still healthy after traffic

    def test_missing_packets_param(self):
        service = ControlService()
        assert error_of(run(service, "inject", {})) == "BAD_REQUEST"

    def test_empty_list_rejected(self):
        service = ControlService()
        assert error_of(run(service, "inject", {"packets": []})) == "BAD_REQUEST"

    def test_unknown_kind_rejected(self):
        service = ControlService()
        response = run(service, "inject", {"packets": [{"kind": "quic"}]})
        assert error_of(response) == "BAD_REQUEST"

    def test_batch_size_cap(self):
        service = ControlService()
        response = run(
            service,
            "inject",
            {"packets": [{"kind": "udp", "count": ControlService.MAX_INJECT_PACKETS + 1}]},
        )
        assert error_of(response) == "BAD_REQUEST"

    def test_no_dataplane_rejected(self):
        from repro.controlplane import Controller

        ctl, _ = Controller.with_simulator()
        service = ControlService(ctl, None)
        response = run(service, "inject", {"packets": [{"kind": "udp"}]})
        assert error_of(response) == "BAD_REQUEST"


class TestInjectAuditInteraction:
    def test_inject_is_audited_but_not_replayed(self):
        service = ControlService()
        result_of(run(service, "deploy", {"source": CACHE}))
        result_of(run(service, "inject", {"packets": [{"kind": "udp", "count": 5}]}))
        methods = [record.method for record in service.audit.records()]
        assert "inject" in methods
        assert "inject" not in STATE_CHANGING_METHODS
        # Replay restores control-plane state and must skip traffic records.
        restored = replay(service.audit)
        assert (
            restored.manager.state_fingerprint()
            == service.controller.manager.state_fingerprint()
        )

    def test_inject_audit_record_is_bounded(self):
        """The journal keeps an inject's packet count and verdict totals,
        not its packet list: its size does not grow with traffic."""
        service = ControlService()
        result_of(run(service, "deploy", {"source": CACHE}))
        specs = [{"kind": "udp", "count": 5}, {"kind": "udp", "dst_port": 7777}]
        result = result_of(run(service, "inject", {"packets": specs}))
        record = [r for r in service.audit.records() if r.method == "inject"][-1]
        assert record.params == {"packets": 6}
        assert record.result == {"verdicts": result["verdicts"]}
        error_of(run(service, "inject", {"packets": "not-a-list"}))
        record = [r for r in service.audit.records() if r.method == "inject"][-1]
        assert record.params == {"packets": 0} and record.result == {}

    def test_inject_serialized_with_writes(self):
        """inject goes through the admission lock: during a drain it is
        refused like any other write."""
        service = ControlService()
        asyncio.run(service.drain())
        response = run(service, "inject", {"packets": [{"kind": "udp"}]})
        assert error_of(response) == "SHUTTING_DOWN"
