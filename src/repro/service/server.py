"""The northbound control service: asyncio server over one controller.

Turns the in-process :class:`~repro.controlplane.Controller` into a
long-lived daemon serving many concurrent tenants over the NDJSON-RPC
protocol (:mod:`repro.service.protocol`).  Layering:

* :class:`ControlService` is the transport-independent request executor:
  tenancy + quotas, the admission queue, deadlines, audit, metrics.
* :class:`ServiceServer` binds it to a TCP listener via asyncio streams.
* :class:`ServerThread` runs a server on a background thread for
  synchronous callers (the CLI, benchmarks, tests).

Concurrency model: requests from different connections are handled
concurrently on the event loop.  State-changing methods (deploy, revoke,
add_case, remove_case, write_mem, set_quota, inject) funnel through one FIFO
admission lock — the compiler and allocator always observe a quiescent
resource manager, and the audit log's order *is* the execution order
(which makes replay exact).  Read-only methods bypass the queue entirely,
so monitoring stays responsive while a deploy is in flight.  Handler
bodies are synchronous (controller calls take at most a few ms at
simulation scale), so within one handler nothing interleaves.

Robustness: the controller's southbound binding is wrapped in
:class:`~repro.service.robustness.RetryingBinding` at service
construction; per-request deadlines are enforced when a queued request is
finally admitted; shutdown drains the admission queue before the listener
closes (in-flight writes finish, queued-but-undispatched writes are
refused with ``SHUTTING_DOWN``).
"""

from __future__ import annotations

import asyncio
import time

from ..controlplane.controller import Controller
from ..controlplane.manager import ProgramNotFoundError, ProgramState
from ..lang.errors import AllocationError, P4runproError
from .audit import STATE_CHANGING_METHODS, AuditLog, compile_options_from_params
from .metrics import MetricsRegistry
from .protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ErrorCode,
    Request,
    ServiceError,
    decode_binary_frame,
    decode_frame,
    encode_binary_frame,
    encode_frame,
    error_response,
    ok_response,
)
from .robustness import RetryingBinding, RetryPolicy
from .tenants import TenantQuota, TenantRegistry
from .wire import FRAME_EVENT, FRAME_HEADER, FRAME_REQUEST, FRAME_RESPONSE, PREAMBLE

#: Methods serialized through the admission queue.  ``inject`` drives
#: traffic through the data plane: it mutates register arrays and
#: counters, so it must not interleave with a deploy's entry updates —
#: but it is deliberately *not* in STATE_CHANGING_METHODS, so audit
#: replay skips it (replay restores control-plane state, not traffic).
#: ``abort_deploy`` is a synthetic audit-only record, never a client RPC.
#: The batch RPCs (``deploy_many``/``add_cases``/``write_mems``/``batch``)
#: ride along from STATE_CHANGING_METHODS: N ops under ONE admission
#: ticket, one audit record, one response frame.
#: The elastic-engine RPCs (``scale``/``migrate``/``rebalance``) mutate
#: fleet topology and register placement, so they serialize through the
#: same queue but — like ``inject`` — stay out of audit replay (replay
#: restores control-plane state, not engine topology).
WRITE_METHODS = (STATE_CHANGING_METHODS - {"abort_deploy"}) | {
    "set_quota",
    "inject",
    "scale",
    "migrate",
    "rebalance",
}

#: Methods served without queueing.
READ_METHODS = frozenset(
    {
        "ping",
        "list",
        "stats",
        "read_mem",
        "snapshot",
        "utilization",
        "tenants",
        "metrics",
        "audit",
        "fingerprint",
    }
)


def _build_packet(spec: dict):
    """Build one packet from a JSON inject spec (kind + kind-specific args)."""
    from ..rmt import packet as pkt

    kind = spec.get("kind", "udp")
    src_ip = spec.get("src_ip", 0x0A00_0001)
    dst_ip = spec.get("dst_ip", 0x0A00_0002)
    try:
        if kind == "l2":
            packet = pkt.make_l2(size=spec.get("size", 64))
        elif kind == "udp":
            packet = pkt.make_udp(
                src_ip,
                dst_ip,
                spec.get("src_port", 10000),
                spec.get("dst_port", 20000),
                size=spec.get("size", 64),
            )
        elif kind == "tcp":
            packet = pkt.make_tcp(
                src_ip,
                dst_ip,
                spec.get("src_port", 10000),
                spec.get("dst_port", 20000),
                flags=spec.get("flags", 0x10),
                size=spec.get("size", 64),
            )
        elif kind == "cache":
            op = spec.get("op", "read")
            if op == "read":
                op = pkt.NC_READ
            elif op == "write":
                op = pkt.NC_WRITE
            if not isinstance(op, int):
                raise ValueError(f"unknown cache op {op!r}")
            packet = pkt.make_cache(
                src_ip,
                dst_ip,
                op=op,
                key=spec.get("key", 0),
                value=spec.get("value", 0),
                dst_port=spec.get("dst_port", 7777),
            )
        elif kind == "calc":
            packet = pkt.make_calc(
                src_ip,
                dst_ip,
                op=spec.get("op", 1),
                a=spec.get("a", 0),
                b=spec.get("b", 0),
                dst_port=spec.get("dst_port", 8888),
            )
        else:
            raise ServiceError(
                ErrorCode.BAD_REQUEST, f"unknown packet kind {kind!r}"
            )
    except ServiceError:
        raise
    except (TypeError, ValueError) as exc:
        raise ServiceError(ErrorCode.BAD_REQUEST, f"bad packet spec: {exc}") from exc
    packet.ingress_port = spec.get("ingress_port", 0)
    packet.queue_depth = spec.get("queue_depth", 0)
    return packet


class ControlService:
    """Transport-independent executor for northbound requests."""

    def __init__(
        self,
        controller: Controller | None = None,
        dataplane=None,
        *,
        engine=None,
        fabric=None,
        tenants: TenantRegistry | None = None,
        retry_policy: RetryPolicy | None = None,
        retry_sleep=None,
        audit: AuditLog | None = None,
        metrics: MetricsRegistry | None = None,
        clock=time.monotonic,
        pipelined_install: bool = True,
        min_workers: int | None = None,
        max_workers: int | None = None,
        rebalance_threshold: float | None = None,
    ):
        if fabric is not None:
            # Fabric mode: the service fronts a FabricController federating
            # one control plane per switch.  There is no single controller
            # or data plane; every handler routes through the fabric.
            if controller is not None or dataplane is not None or engine is not None:
                raise ValueError("pass either fabric or engine/controller/dataplane")
        elif engine is not None:
            # Sharded mode: the engine's coordinator controller is the
            # control plane (its FanoutBinding keeps every shard in sync),
            # and inject routes batches through the engine instead of the
            # coordinator's local replica.
            if controller is not None or dataplane is not None:
                raise ValueError("pass either engine or controller/dataplane")
            controller = engine.controller
            dataplane = engine.dataplane
        elif controller is None:
            controller, dataplane = Controller.with_simulator()
        self.engine = engine
        self.fabric = fabric
        self.controller = controller
        self.dataplane = dataplane
        retry_kwargs = {"sleep": retry_sleep} if retry_sleep is not None else {}
        if fabric is not None:
            # Every node's southbound gets the same retry armour; the
            # first wrapper doubles as the policy reference for error
            # mapping, and metrics report per-node retry stats.
            self._node_retrying = {}
            for name, node in fabric.topology.nodes.items():
                node_binding = node.controller.updater.binding
                if not isinstance(node_binding, RetryingBinding):
                    node_binding = RetryingBinding(
                        node_binding, retry_policy, **retry_kwargs
                    )
                    node.controller.updater.binding = node_binding
                self._node_retrying[name] = node_binding
            binding = next(iter(self._node_retrying.values()))
        else:
            self._node_retrying = None
            binding = controller.updater.binding
            if not isinstance(binding, RetryingBinding):
                binding = RetryingBinding(binding, retry_policy, **retry_kwargs)
                controller.updater.binding = binding
        self.retrying = binding
        self.tenants = tenants or TenantRegistry()
        self.audit = audit or AuditLog()
        self.metrics = metrics or MetricsRegistry()
        self.clock = clock
        self.draining = False
        #: overlap tenant A's entry installation with tenant B's solve
        #: (False restores the fully serialized reference path)
        self.pipelined_install = pipelined_install
        #: elastic-fleet bounds enforced by the ``scale`` RPC, and the
        #: skew threshold above which inject auto-triggers a rebalance
        #: (None disables auto-rebalancing)
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.rebalance_threshold = rebalance_threshold
        import weakref

        self._write_locks = weakref.WeakKeyDictionary()
        self._install_locks = weakref.WeakKeyDictionary()
        self._cases: dict[tuple[str, int], tuple[int, object]] = {}
        self._next_case_id = 1

    # -- dispatch ----------------------------------------------------------------
    def _lock(self) -> asyncio.Lock:
        # One admission lock per event loop (an asyncio.Lock binds to the
        # loop it first awaits on; a service may outlive short test loops).
        # Serialization across loops is not needed — a loop runs one thread.
        loop = asyncio.get_running_loop()
        lock = self._write_locks.get(loop)
        if lock is None:
            lock = asyncio.Lock()
            self._write_locks[loop] = lock
        return lock

    def _install_lock(self) -> asyncio.Lock:
        # The install half of pipelined deploys serializes on its own
        # lock: tenant B's solve (under the admission lock) overlaps
        # tenant A's entry writes.  asyncio.Lock wakes waiters FIFO, so
        # install order always equals admission order — which keeps the
        # audit journal's order equal to the southbound mutation order.
        loop = asyncio.get_running_loop()
        lock = self._install_locks.get(loop)
        if lock is None:
            lock = asyncio.Lock()
            self._install_locks[loop] = lock
        return lock

    async def handle_frame(self, line: bytes) -> dict:
        """One wire line in, one response object out (never raises)."""
        try:
            payload = decode_frame(line)
        except ServiceError as exc:
            return error_response(None, exc)
        return await self.handle_payload(payload)

    async def handle_payload(self, payload: dict) -> dict:
        """One decoded request envelope in (either codec), one response
        object out (never raises)."""
        try:
            request = Request.from_wire(payload)
        except ServiceError as exc:
            return error_response(payload.get("id") if isinstance(payload, dict) else None, exc)
        return await self.handle_request(request)

    async def handle_request(self, request: Request) -> dict:
        arrival = self.clock()
        method = request.method
        try:
            if method in WRITE_METHODS:
                result = await self._execute_write(request, arrival)
            elif method in READ_METHODS:
                self._check_deadline(request, arrival)
                result = self._execute(request)
                self._observe(method, "ok", arrival)
            else:
                raise ServiceError(
                    ErrorCode.UNKNOWN_METHOD, f"unknown method {method!r}"
                )
        except ServiceError as exc:
            self._observe(method, exc.code.value, arrival)
            return error_response(request.id, exc)
        except Exception as exc:  # pragma: no cover - defensive
            error = ServiceError(ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}")
            self._observe(method, error.code.value, arrival)
            return error_response(request.id, error)
        return ok_response(request.id, result)

    async def _execute_write(self, request: Request, arrival: float) -> dict:
        # Fabric deploys are not pipelined: the solve/install split assumes
        # one resource manager, while a fabric deploy is an all-or-nothing
        # transaction over many of them.
        if request.method == "deploy" and self.pipelined_install and self.fabric is None:
            return await self._execute_deploy_pipelined(request, arrival)
        async with self._lock():
            admitted = self.clock()
            queue_ms = (admitted - arrival) * 1e3
            try:
                if self.draining:
                    raise ServiceError(
                        ErrorCode.SHUTTING_DOWN, "service is draining; write refused"
                    )
                self._check_deadline(request, arrival)
                result = self._execute(request)
            except ServiceError as exc:
                self._audit(request, f"error:{exc.code.value}", {}, queue_ms, admitted)
                raise
            except Exception as exc:
                error = self._map_error(request.method, exc)
                self._audit(request, f"error:{error.code.value}", {}, queue_ms, admitted)
                raise error from exc
            self._audit(request, "ok", result, queue_ms, admitted)
            self._observe(request.method, "ok", arrival)
            return result

    def _execute(self, request: Request) -> dict:
        handler = getattr(self, f"_rpc_{request.method}")
        try:
            return handler(request.tenant, request.params)
        except ServiceError:
            raise
        except Exception as exc:
            raise self._map_error(request.method, exc) from exc

    def _map_error(self, method: str, exc: Exception) -> ServiceError:
        if isinstance(exc, ServiceError):
            return exc
        if isinstance(exc, self.retrying.policy.transient):
            return ServiceError(
                ErrorCode.SOUTHBOUND_FAILURE,
                f"southbound update failed after retries: {exc}",
            )
        if isinstance(exc, ProgramNotFoundError):
            return ServiceError(ErrorCode.NOT_FOUND, str(exc.args[0]) if exc.args else str(exc))
        if isinstance(exc, AllocationError):
            return ServiceError(ErrorCode.ALLOCATION_ERROR, str(exc))
        if isinstance(exc, P4runproError):
            code = ErrorCode.COMPILE_ERROR if method == "deploy" else ErrorCode.BAD_REQUEST
            return ServiceError(code, str(exc))
        if isinstance(exc, (KeyError, ValueError, TypeError)):
            return ServiceError(ErrorCode.BAD_REQUEST, str(exc))
        from ..engine import MigrationError

        if isinstance(exc, MigrationError):
            # Invalid migration requests (unpinned program, unknown
            # target, already migrating) are caller mistakes, not engine
            # failures.
            return ServiceError(ErrorCode.BAD_REQUEST, str(exc))
        return ServiceError(ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}")

    def _check_deadline(self, request: Request, arrival: float) -> None:
        if request.deadline_ms is None:
            return
        elapsed_ms = (self.clock() - arrival) * 1e3
        if elapsed_ms > request.deadline_ms:
            raise ServiceError(
                ErrorCode.DEADLINE_EXCEEDED,
                f"deadline of {request.deadline_ms} ms exceeded after "
                f"{elapsed_ms:.1f} ms in queue",
            )

    def _observe(self, method: str, outcome: str, arrival: float) -> None:
        latency_ms = (self.clock() - arrival) * 1e3
        suffix = "ok" if outcome == "ok" else "error"
        self.metrics.counter(f"rpc.{method}.{suffix}").inc()
        if outcome not in ("ok",):
            self.metrics.counter(f"rpc.{method}.error.{outcome}").inc()
        self.metrics.histogram(f"rpc.{method}.latency_ms").observe(latency_ms)

    def _audit(
        self, request: Request, outcome: str, result: dict, queue_ms: float, admitted: float
    ) -> None:
        params = request.params
        if request.method == "inject":
            # Audited but never replayed: keep the batch size and verdict
            # totals, not the packet list, so the journal's memory stays
            # flat however much traffic runs through the service.  The
            # list leaves the request here, so a large batch is freed
            # inside this request rather than delaying the connection's
            # next one.
            packets = params.pop("packets", None)
            params = {"packets": result.get(
                "processed", len(packets) if isinstance(packets, list) else 0)}
            result = {"verdicts": result["verdicts"]} if "verdicts" in result else {}
        self.audit.append(
            request.tenant,
            request.method,
            params,
            outcome,
            result,
            queue_ms=queue_ms,
            execute_ms=(self.clock() - admitted) * 1e3,
        )

    # -- shutdown ---------------------------------------------------------------
    async def drain(self) -> None:
        """Refuse new writes, then wait for in-flight work to finish —
        both the admitted write and any pipelined install still landing
        entries (acquiring both locks guarantees quiescence)."""
        self.draining = True
        async with self._lock():
            async with self._install_lock():
                pass

    # -- param plumbing ---------------------------------------------------------
    @staticmethod
    def _require(params: dict, key: str):
        if key not in params:
            raise ServiceError(ErrorCode.BAD_REQUEST, f"missing param {key!r}")
        return params[key]

    def _program_id(self, tenant_name: str, params: dict) -> int:
        program_id = self._require(params, "program_id")
        if not isinstance(program_id, int):
            raise ServiceError(ErrorCode.BAD_REQUEST, "program_id must be an integer")
        self.tenants.get(tenant_name).require(program_id)
        return program_id

    def _require_running(self, program_id: int) -> None:
        # With pipelined installs a program is visible (charged, id
        # minted) before its entries finish landing; mutating it mid-
        # install would race the southbound stream.
        if self.fabric is not None:
            return  # fabric deploys are never pipelined
        record = self.controller.manager.get(program_id)
        if record.state is ProgramState.INSTALLING:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"program {program_id} is still installing; retry shortly",
            )

    # -- the pipelined deploy fast path ------------------------------------------
    async def _execute_deploy_pipelined(self, request: Request, arrival: float) -> dict:
        """Deploy split into solve and install halves (deploy fast path).

        The solve half — compile, quota checks, admission, tenant charge —
        runs under the admission lock and appends the deploy's audit
        record *at admission time* (outcome ``installing``), because the
        audit order must equal the manager-mutation order for replay to
        reproduce first-fit memory bases byte-for-byte.  The install half
        streams grouped entry updates under a separate FIFO lock, handing
        the event loop back between groups so another tenant's solve can
        run concurrently.  A failed install aborts the admission and
        appends a synthetic ``abort_deploy`` record at the abort's
        position in the mutation order, keeping replay exact even across
        failures.
        """
        async with self._lock():
            admitted = self.clock()
            queue_ms = (admitted - arrival) * 1e3
            try:
                if self.draining:
                    raise ServiceError(
                        ErrorCode.SHUTTING_DOWN, "service is draining; write refused"
                    )
                self._check_deadline(request, arrival)
                prepared, tenant = self._deploy_prepare(request.tenant, request.params)
            except ServiceError as exc:
                self._audit(request, f"error:{exc.code.value}", {}, queue_ms, admitted)
                raise
            except Exception as exc:
                error = self._map_error(request.method, exc)
                self._audit(request, f"error:{error.code.value}", {}, queue_ms, admitted)
                raise error from exc
            record = self.audit.append(
                request.tenant,
                request.method,
                request.params,
                "installing",
                {"program_id": prepared.program_id},
                queue_ms=queue_ms,
            )
        try:
            async with self._install_lock():
                result = await self._install_chunks(prepared)
        except Exception as exc:
            # install_steps aborted the admission synchronously with the
            # failure; release the charge and log the abort at its
            # position in the mutation order (replay re-enacts both).
            tenant.release(prepared.program_id)
            self.audit.append(
                request.tenant, "abort_deploy", {"program_id": prepared.program_id}, "ok"
            )
            error = self._map_error(request.method, exc)
            record.outcome = f"error:{error.code.value}"
            record.execute_ms = (self.clock() - admitted) * 1e3
            if isinstance(exc, ServiceError):
                raise
            raise error from exc
        record.outcome = "ok"
        record.result = result
        record.execute_ms = (self.clock() - admitted) * 1e3
        self._observe(request.method, "ok", arrival)
        return result

    def _deploy_prepare(self, tenant_name: str, params: dict):
        """Solve half of a deploy: everything that must see (and mutate) a
        quiescent resource manager.  Caller holds the admission lock."""
        from .tenants import TenantProgram

        source = self._require(params, "source")
        tenant = self.tenants.get(tenant_name)
        # Program-count quota first: no compile time for a full namespace.
        tenant.check_admission(entries=0, memory_buckets=0)
        options = compile_options_from_params(params)
        compiled = self.controller.compile(
            source, program_name=params.get("program"), options=options
        )
        buckets = sum(size for _phys, size in compiled.memory_requests().values())
        # Exact entry footprint without reserving anything: emission is pure,
        # and the entry *count* does not depend on the real bases/id.
        probe_bases = {
            mid: (phys, [(0, 0, size)])
            for mid, (phys, size) in compiled.memory_requests().items()
        }
        entries = len(compiled.emit_entries(self.controller.spec, 0, probe_bases))
        tenant.check_admission(entries=entries, memory_buckets=buckets)
        prepared = self.controller.prepare_deploy(compiled)
        # Charge now, under the admission lock: a concurrently solving
        # tenant must count this deployment against the quota even though
        # its entries have not landed yet (released if the install fails).
        tenant.charge(
            TenantProgram(prepared.program_id, compiled.name, entries, buckets)
        )
        return prepared, tenant

    async def _install_chunks(self, prepared) -> dict:
        """Install half: drive the grouped southbound updates, yielding to
        the event loop between groups.  Caller holds the install lock."""
        for _installed in self.controller.install_steps(prepared):
            await asyncio.sleep(0)
        handle = prepared.result
        return self._deploy_result(handle)

    @staticmethod
    def _deploy_result(handle) -> dict:
        stats = handle.stats
        return {
            "program_id": handle.program_id,
            "name": handle.name,
            "entries": stats.entries,
            "logic_rpbs": stats.logic_rpbs,
            "parse_ms": stats.parse_ms,
            "allocation_ms": stats.allocation_ms,
            "update_ms": stats.update_ms,
            "overlap_warnings": [str(w) for w in stats.overlap_warnings],
            "cache_hit": stats.cache_hit,
        }

    # -- state-changing RPCs ----------------------------------------------------
    def _rpc_deploy(self, tenant_name: str, params: dict) -> dict:
        """Reference (fully serialized) deploy path, used when
        ``pipelined_install`` is off and for every batched sub-deploy:
        solve and install back-to-back under the admission lock."""
        if self.fabric is not None:
            return self._fabric_deploy(tenant_name, params)
        return self._deploy_sub(tenant_name, params)

    def _deploy_sub(self, tenant_name: str, params: dict) -> dict:
        """One serialized deploy (compile, quota, admit, install, charge).

        On an install failure the admission is already aborted by
        ``install_steps``; the burned program id is attached to the raised
        exception (``exc.program_id``) so batch callers can record it —
        audit replay must skip the same ids the live run consumed.
        """
        from .tenants import TenantProgram

        source = self._require(params, "source")
        tenant = self.tenants.get(tenant_name)
        # Program-count quota first: no compile time for a full namespace.
        tenant.check_admission(entries=0, memory_buckets=0)
        options = compile_options_from_params(params)
        compiled = self.controller.compile(
            source, program_name=params.get("program"), options=options
        )
        buckets = sum(size for _phys, size in compiled.memory_requests().values())
        if tenant.quota.max_table_entries is not None:
            # Exact entry footprint without reserving anything: emission is
            # pure, and the entry *count* does not depend on the real
            # bases/id.  Skipped for unlimited-entry tenants — the charge
            # below uses the real post-install count either way, and the
            # probe emission is the dominant per-deploy cost on the warm
            # batch path.
            probe_bases = {
                mid: (phys, [(0, 0, size)])
                for mid, (phys, size) in compiled.memory_requests().items()
            }
            entries = len(compiled.emit_entries(self.controller.spec, 0, probe_bases))
        else:
            entries = 0
        tenant.check_admission(entries=entries, memory_buckets=buckets)
        prepared = self.controller.prepare_deploy(compiled)
        try:
            for _installed in self.controller.install_steps(prepared):
                pass
        except Exception as exc:
            try:
                exc.program_id = prepared.program_id
            except AttributeError:  # pragma: no cover - exotic exceptions
                pass
            raise
        handle = prepared.result
        tenant.charge(
            TenantProgram(handle.program_id, handle.name, handle.stats.entries, buckets)
        )
        return self._deploy_result(handle)

    # -- multi-op batch RPCs -----------------------------------------------------
    #: sub-methods the generic ``batch`` envelope may carry (no nesting)
    BATCH_METHODS = frozenset(
        {"deploy", "revoke", "add_case", "remove_case", "write_mem", "set_quota"}
    )

    def _rpc_deploy_many(self, tenant_name: str, params: dict) -> dict:
        """All-or-nothing multi-deploy: N sources under one admission
        ticket, one audit record, one response frame.

        Each op is a deploy-params object (or a bare source string).  Any
        failure unwinds the installed prefix in reverse order (the
        fabric's rollback choreography) and the response reports per-op
        status with ``rolled_back`` markers; nothing stays deployed.  The
        audit record keeps every burned program id so replay reproduces
        the id counter — and hence the state fingerprint — byte-for-byte.
        """
        if self.fabric is not None:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                "deploy_many is not supported fabric-wide; deploy one at a time",
            )
        sources = self._require(params, "sources")
        if not isinstance(sources, list) or not sources:
            raise ServiceError(ErrorCode.BAD_REQUEST, "sources must be a non-empty list")
        tenant = self.tenants.get(tenant_name)
        results: list[dict] = []
        installed: list[int] = []
        failure: ServiceError | None = None
        for op_params in sources:
            if isinstance(op_params, str):
                op_params = {"source": op_params}
            if not isinstance(op_params, dict):
                failure = ServiceError(
                    ErrorCode.BAD_REQUEST, "each source must be a string or an object"
                )
                results.append({"ok": False, "error": failure.to_wire()})
                break
            try:
                result = self._deploy_sub(tenant_name, op_params)
            except Exception as exc:
                failure = self._map_error("deploy", exc)
                sub = {"ok": False, "error": failure.to_wire()}
                burned = getattr(exc, "program_id", None)
                if burned is not None:
                    sub["program_id"] = burned
                results.append(sub)
                break
            result["ok"] = True
            results.append(result)
            installed.append(result["program_id"])
        if failure is not None:
            # Reverse-order rollback: revoke what landed, release charges.
            for program_id in reversed(installed):
                self.controller.revoke(program_id)
                tenant.release(program_id)
            for sub in results:
                if sub.get("ok"):
                    sub["ok"] = False
                    sub["rolled_back"] = True
            return {"committed": False, "results": results, "error": failure.to_wire()}
        return {"committed": True, "results": results}

    def _rpc_add_cases(self, tenant_name: str, params: dict) -> dict:
        """N incremental cases on one program under one admission ticket.

        Per-op status, no rollback: a bad case spec fails alone while the
        rest land (audit replay applies exactly the ok sub-ops)."""
        program_id = self._program_id(tenant_name, params)
        self._require_running(program_id)
        if self.fabric is not None:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                "incremental cases are not supported fabric-wide; "
                "use the FabricController API directly",
            )
        specs = self._require(params, "cases")
        if not isinstance(specs, list) or not specs:
            raise ServiceError(ErrorCode.BAD_REQUEST, "cases must be a non-empty list")
        results: list[dict] = []
        for spec in specs:
            try:
                if not isinstance(spec, dict):
                    raise ServiceError(ErrorCode.BAD_REQUEST, "case spec must be an object")
                conditions = [tuple(c) for c in self._require(spec, "conditions")]
                case = self.controller.add_case(
                    program_id,
                    conditions,
                    branch_index=spec.get("branch_index", 0),
                    template_case=spec.get("template_case", 0),
                    loadi_values=spec.get("loadi_values"),
                )
            except Exception as exc:
                error = self._map_error("add_case", exc)
                results.append({"ok": False, "error": error.to_wire()})
                continue
            case_id = self._next_case_id
            self._next_case_id += 1
            self._cases[(tenant_name, case_id)] = (program_id, case)
            results.append({"ok": True, "case_id": case_id, "branch_id": case.branch_id})
        return {
            "results": results,
            "ok_count": sum(1 for r in results if r["ok"]),
        }

    def _rpc_write_mems(self, tenant_name: str, params: dict) -> dict:
        """N memory writes (possibly across programs) under one admission
        ticket; per-op status, no rollback."""
        writes = self._require(params, "writes")
        if not isinstance(writes, list) or not writes:
            raise ServiceError(ErrorCode.BAD_REQUEST, "writes must be a non-empty list")
        results: list[dict] = []
        for spec in writes:
            try:
                if not isinstance(spec, dict):
                    raise ServiceError(ErrorCode.BAD_REQUEST, "write spec must be an object")
                self._rpc_write_mem(tenant_name, spec)
            except Exception as exc:
                error = self._map_error("write_mem", exc)
                results.append({"ok": False, "error": error.to_wire()})
                continue
            results.append({"ok": True})
        return {
            "results": results,
            "ok_count": sum(1 for r in results if r["ok"]),
        }

    def _rpc_batch(self, tenant_name: str, params: dict) -> dict:
        """Generic multi-op envelope: ``ops`` is a list of
        ``{"method": ..., "params": {...}}`` drawn from
        :data:`BATCH_METHODS` (no nesting).  Per-op status, no rollback;
        audit replay re-applies exactly the ok sub-ops."""
        ops = self._require(params, "ops")
        if not isinstance(ops, list) or not ops:
            raise ServiceError(ErrorCode.BAD_REQUEST, "ops must be a non-empty list")
        results: list[dict] = []
        for op in ops:
            if not isinstance(op, dict) or not isinstance(op.get("method"), str):
                error = ServiceError(
                    ErrorCode.BAD_REQUEST, "each op must be a {method, params} object"
                )
                results.append({"ok": False, "error": error.to_wire()})
                continue
            method = op["method"]
            op_params = op.get("params") or {}
            if method not in self.BATCH_METHODS:
                error = ServiceError(
                    ErrorCode.BAD_REQUEST,
                    f"method {method!r} is not allowed inside a batch",
                )
                results.append({"ok": False, "error": error.to_wire()})
                continue
            try:
                result = getattr(self, f"_rpc_{method}")(tenant_name, op_params)
            except Exception as exc:
                error = self._map_error(method, exc)
                sub = {"ok": False, "error": error.to_wire()}
                burned = getattr(exc, "program_id", None)
                if method == "deploy" and burned is not None:
                    sub["program_id"] = burned
                results.append(sub)
                continue
            sub = dict(result)
            sub["ok"] = True
            results.append(sub)
        return {
            "results": results,
            "ok_count": sum(1 for r in results if r["ok"]),
        }

    def _fabric_deploy(self, tenant_name: str, params: dict) -> dict:
        """All-or-nothing fabric-wide deploy: one program on every switch.

        Quotas charge the *fabric-wide* footprint (entries and buckets
        summed across nodes — a fabric deploy really does consume that
        much hardware).  A quota breach after install rolls the program
        back off every switch before the error propagates, preserving the
        deploy's atomicity from the tenant's point of view.
        """
        from .tenants import TenantProgram

        source = self._require(params, "source")
        tenant = self.tenants.get(tenant_name)
        tenant.check_admission(entries=0, memory_buckets=0)
        options = compile_options_from_params(params)
        program = self.fabric.deploy(
            source, program_name=params.get("program"), options=options
        )
        entries = sum(program.stats["entries_per_node"].values())
        buckets = 0
        for node, handle in program.handles.items():
            record = self.fabric.topology.nodes[node].controller.manager.get(
                handle.program_id
            )
            buckets += sum(alloc.size for alloc in record.memory.values())
        try:
            tenant.check_admission(entries=entries, memory_buckets=buckets)
        except Exception:
            self.fabric.revoke(program)
            raise
        tenant.charge(
            TenantProgram(program.program_id, program.name, entries, buckets)
        )
        return {
            "program_id": program.program_id,
            "name": program.name,
            "entries": entries,
            "nodes": {n: h.program_id for n, h in program.handles.items()},
            "entries_per_node": dict(program.stats["entries_per_node"]),
            "update_ms": dict(program.stats["update_ms"]),
        }

    def _rpc_revoke(self, tenant_name: str, params: dict) -> dict:
        program_id = self._program_id(tenant_name, params)
        self._require_running(program_id)
        if self.fabric is not None:
            delays = self.fabric.revoke(program_id)
            self.tenants.get(tenant_name).release(program_id)
            return {"program_id": program_id, "update_ms_per_node": delays}
        delay_ms = self.controller.revoke(program_id)
        self.tenants.get(tenant_name).release(program_id)
        self._cases = {
            key: value
            for key, value in self._cases.items()
            if value[0] != program_id
        }
        return {"program_id": program_id, "update_ms": delay_ms}

    def _rpc_add_case(self, tenant_name: str, params: dict) -> dict:
        program_id = self._program_id(tenant_name, params)
        self._require_running(program_id)
        if self.fabric is not None:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                "incremental cases are not supported fabric-wide; "
                "use the FabricController API directly",
            )
        conditions = [tuple(c) for c in self._require(params, "conditions")]
        case = self.controller.add_case(
            program_id,
            conditions,
            branch_index=params.get("branch_index", 0),
            template_case=params.get("template_case", 0),
            loadi_values=params.get("loadi_values"),
        )
        case_id = self._next_case_id
        self._next_case_id += 1
        self._cases[(tenant_name, case_id)] = (program_id, case)
        return {"case_id": case_id, "branch_id": case.branch_id}

    def _rpc_remove_case(self, tenant_name: str, params: dict) -> dict:
        program_id = self._program_id(tenant_name, params)
        self._require_running(program_id)
        if self.fabric is not None:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                "incremental cases are not supported fabric-wide; "
                "use the FabricController API directly",
            )
        case_id = self._require(params, "case_id")
        entry = self._cases.get((tenant_name, case_id))
        if entry is None or entry[0] != program_id:
            raise ServiceError(
                ErrorCode.NOT_FOUND,
                f"tenant {tenant_name!r} has no case {case_id} on program {program_id}",
            )
        self.controller.remove_case(program_id, entry[1])
        del self._cases[(tenant_name, case_id)]
        return {"case_id": case_id}

    def _rpc_write_mem(self, tenant_name: str, params: dict) -> dict:
        program_id = self._program_id(tenant_name, params)
        if self.fabric is not None:
            self.fabric.write_memory(
                program_id,
                self._require(params, "mid"),
                self._require(params, "vaddr"),
                self._require(params, "value"),
            )
            return {}
        self.controller.write_memory(
            program_id,
            self._require(params, "mid"),
            self._require(params, "vaddr"),
            self._require(params, "value"),
        )
        return {}

    #: hard cap on packets per inject request (keeps one RPC from
    #: monopolizing the admission queue)
    MAX_INJECT_PACKETS = 65536

    def _rpc_inject(self, tenant_name: str, params: dict) -> dict:
        """Drive a batch of packets through the data plane's fast path.

        Each spec in ``packets`` is ``{"kind": ..., "count": N, ...}`` with
        kind-specific fields (see :mod:`repro.rmt.packet` constructors).
        Returns verdict counts and the measured packet rate, making the
        batch path reachable over the wire for load tests and benchmarks.
        In fabric mode each spec may name its ingress ``leaf`` (default:
        the first leaf) and the response accounts deliveries and drops by
        cause instead of raw verdicts.
        """
        if self.fabric is not None:
            return self._fabric_inject(params)
        if self.dataplane is None:
            raise ServiceError(
                ErrorCode.BAD_REQUEST, "service has no data-plane binding"
            )
        specs = self._require(params, "packets")
        if not isinstance(specs, list) or not specs:
            raise ServiceError(
                ErrorCode.BAD_REQUEST, "packets must be a non-empty list"
            )
        batch = []
        for spec in specs:
            if not isinstance(spec, dict):
                raise ServiceError(ErrorCode.BAD_REQUEST, "packet spec must be an object")
            count = spec.get("count", 1)
            if not isinstance(count, int) or count < 1:
                raise ServiceError(ErrorCode.BAD_REQUEST, "count must be a positive integer")
            if len(batch) + count > self.MAX_INJECT_PACKETS:
                raise ServiceError(
                    ErrorCode.BAD_REQUEST,
                    f"inject batch exceeds {self.MAX_INJECT_PACKETS} packets",
                )
            template = _build_packet(spec)
            batch.append(template)
            for _ in range(count - 1):
                batch.append(template.clone())
        started = time.perf_counter()
        verdicts: dict[str, int] = {}
        recirculations = 0
        if self.engine is not None:
            # Sharded path: the engine returns lightweight (verdict,
            # egress_port, recirculations) tuples in arrival order.
            outcomes = self.engine.inject(batch, mode="verdicts")
            elapsed = time.perf_counter() - started
            for verdict, _port, recircs in outcomes:
                verdicts[verdict] = verdicts.get(verdict, 0) + 1
                recirculations += recircs
            processed = len(outcomes)
        else:
            results = self.dataplane.process_many(batch)
            elapsed = time.perf_counter() - started
            for result in results:
                verdicts[result.verdict.value] = (
                    verdicts.get(result.verdict.value, 0) + 1
                )
                recirculations += result.recirculations
            processed = len(results)
        response = {
            "processed": processed,
            "verdicts": verdicts,
            "recirculations": recirculations,
            "elapsed_ms": elapsed * 1e3,
            "pps": processed / elapsed if elapsed > 0 else 0.0,
        }
        if self.engine is not None:
            response["workers"] = self.engine.num_workers
            shard_counts = list(
                self.engine.last_inject_stats.get("shard_counts", [])
            )
            response["shard_counts"] = shard_counts
            self._note_placement_skew(shard_counts)
            if self.rebalance_threshold is not None:
                report = self.engine.maybe_rebalance(self.rebalance_threshold)
                if report is not None and report.get("triggered"):
                    self.metrics.counter("engine.rebalance.auto").inc()
                    for migration in report.get("migrations", ()):
                        self._note_migration(migration)
                    response["rebalanced"] = {
                        "skew_before": report.get("skew_before"),
                        "migrations": len(report.get("migrations", ())),
                        "reweighted": report.get("reweighted", False),
                    }
        return response

    #: fraction of routed flows on one shard above which a pinned-owner
    #: placement counts as pathologically skewed (the worst case: every
    #: flow of a pinned program lands on its owner shard)
    PLACEMENT_SKEW_WARN = 0.8

    def _note_placement_skew(self, shard_counts: list) -> None:
        """Publish placement skew from the last engine inject.

        ``engine.placement_skew`` gauges the hottest shard's share of the
        routed flows; when it crosses :data:`PLACEMENT_SKEW_WARN` *and*
        some program is pinned to a shard (the only placement mode that
        defeats hash spreading), a structured warning counter increments
        so operators see it in the ``metrics`` RPC without log scraping.
        """
        total = sum(shard_counts)
        if len(shard_counts) < 2 or total == 0:
            return
        hottest = max(range(len(shard_counts)), key=shard_counts.__getitem__)
        skew = shard_counts[hottest] / total
        self.metrics.gauge("engine.placement_skew").set(round(skew, 4))
        self.metrics.gauge("engine.placement_skew_shard").set(hottest)
        placement = getattr(self.engine, "placement", None) or {}
        pinned = any(shard is not None for shard in placement.values())
        if skew > self.PLACEMENT_SKEW_WARN and pinned:
            self.metrics.counter("engine.placement_skew_warnings").inc()

    def _fabric_inject(self, params: dict) -> dict:
        """Fabric inject: drive packet specs through the fabric engine."""
        specs = self._require(params, "packets")
        if not isinstance(specs, list) or not specs:
            raise ServiceError(
                ErrorCode.BAD_REQUEST, "packets must be a non-empty list"
            )
        leaves = self.fabric.topology.leaves
        assignments = []
        for spec in specs:
            if not isinstance(spec, dict):
                raise ServiceError(ErrorCode.BAD_REQUEST, "packet spec must be an object")
            count = spec.get("count", 1)
            if not isinstance(count, int) or count < 1:
                raise ServiceError(ErrorCode.BAD_REQUEST, "count must be a positive integer")
            if len(assignments) + count > self.MAX_INJECT_PACKETS:
                raise ServiceError(
                    ErrorCode.BAD_REQUEST,
                    f"inject batch exceeds {self.MAX_INJECT_PACKETS} packets",
                )
            leaf = spec.get("leaf", leaves[0])
            if leaf not in leaves:
                raise ServiceError(
                    ErrorCode.BAD_REQUEST, f"unknown ingress leaf {leaf!r}"
                )
            template = _build_packet(spec)
            assignments.append((leaf, template))
            for _ in range(count - 1):
                assignments.append((leaf, template.clone()))
        started = time.perf_counter()
        report = self.fabric.fabric.run(assignments)
        elapsed = time.perf_counter() - started
        return {
            "processed": report.injected,
            "delivered": report.delivered,
            "drops": dict(report.drops),
            "reorders": report.reorders,
            "elapsed_ms": elapsed * 1e3,
            "pps": report.injected / elapsed if elapsed > 0 else 0.0,
        }

    # -- elastic engine RPCs ------------------------------------------------------
    def _require_engine(self):
        if self.engine is None:
            raise ServiceError(
                ErrorCode.BAD_REQUEST, "service has no sharded engine"
            )
        return self.engine

    def _note_migration(self, report: dict) -> None:
        """Feed one migration report into the wall-latency histograms."""
        self.metrics.counter("engine.migration.completed").inc()
        self.metrics.histogram("engine.migration.quiesce_ms").observe(
            report.get("quiesce_ms", 0.0)
        )
        self.metrics.histogram("engine.migration.flip_ms").observe(
            report.get("flip_ms", 0.0)
        )

    def _rpc_scale(self, tenant_name: str, params: dict) -> dict:
        """Grow or shrink the engine's worker fleet to ``workers``.

        New workers bootstrap from the coordinator's provisioning and
        merged register state; departing workers migrate their pinned
        programs away and have their counters harvested, so aggregate
        statistics never regress.  The consistent-hash ring remaps only
        ~1/N of hash-routed flows per step.
        """
        engine = self._require_engine()
        workers = self._require(params, "workers")
        if not isinstance(workers, int) or workers < 1:
            raise ServiceError(
                ErrorCode.BAD_REQUEST, "workers must be a positive integer"
            )
        if self.min_workers is not None and workers < self.min_workers:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"workers below the service floor of {self.min_workers}",
            )
        if self.max_workers is not None and workers > self.max_workers:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"workers above the service ceiling of {self.max_workers}",
            )
        added: list[int] = []
        removed: list[int] = []
        while engine.num_workers < workers:
            added.append(engine.add_worker())
        while engine.num_workers > workers:
            removed.append(engine.remove_worker())
        self.metrics.gauge("engine.workers").set(engine.num_workers)
        return {
            "workers": engine.num_workers,
            "worker_ids": engine.worker_ids,
            "added": added,
            "removed": removed,
        }

    def _rpc_migrate(self, tenant_name: str, params: dict) -> dict:
        """Live-migrate one pinned program to another shard (default:
        the least-loaded peer).  Zero packets dropped or reordered: the
        program's flows park during the quiesce and replay after the
        placement flip."""
        engine = self._require_engine()
        program_id = self._program_id(tenant_name, params)
        target = params.get("target")
        if target is not None and not isinstance(target, int):
            raise ServiceError(ErrorCode.BAD_REQUEST, "target must be a worker id")
        report = engine.migrate(program_id, target)
        self._note_migration(report)
        return report

    def _rpc_rebalance(self, tenant_name: str, params: dict) -> dict:
        """Run the load-aware rebalancer once: migrate hot pinned
        programs and reweight the hash ring when the skew threshold is
        exceeded."""
        engine = self._require_engine()
        threshold = params.get("threshold", 0.7)
        if not isinstance(threshold, (int, float)) or not 0.0 < threshold <= 1.0:
            raise ServiceError(
                ErrorCode.BAD_REQUEST, "threshold must be in (0, 1]"
            )
        report = engine.rebalance(float(threshold))
        if report.get("triggered"):
            self.metrics.counter("engine.rebalance.triggered").inc()
            for migration in report.get("migrations", ()):
                self._note_migration(migration)
        return report

    def _rpc_set_quota(self, tenant_name: str, params: dict) -> dict:
        target = params.get("tenant", tenant_name)
        quota = TenantQuota(
            max_programs=params.get("max_programs"),
            max_memory_buckets=params.get("max_memory_buckets"),
            max_table_entries=params.get("max_table_entries"),
        )
        self.tenants.set_quota(target, quota)
        return {"tenant": target, "quota": quota.__dict__}

    # -- read-only RPCs ---------------------------------------------------------
    def _rpc_ping(self, tenant_name: str, params: dict) -> dict:
        if self.fabric is not None:
            topo = self.fabric.topology
            return {
                "version": PROTOCOL_VERSION,
                "draining": self.draining,
                "programs": len(self.fabric.programs),
                "workers": 0,
                "fabric": {
                    "leaves": len(topo.leaves),
                    "spines": len(topo.spines),
                    "routing": self.fabric.fabric.routing,
                },
            }
        return {
            "version": PROTOCOL_VERSION,
            "draining": self.draining,
            "programs": len(self.controller.running_programs()),
            "workers": self.engine.num_workers if self.engine is not None else 0,
        }

    def _rpc_list(self, tenant_name: str, params: dict) -> dict:
        if self.fabric is not None:
            listing = self.fabric.list_programs()
        else:
            listing = self.controller.list_programs()
        if params.get("all"):
            for info in listing:
                info["tenant"] = self.tenants.owner_of(info["program_id"])
            return {"programs": listing}
        tenant = self.tenants.get(tenant_name)
        return {"programs": [p for p in listing if tenant.owns(p["program_id"])]}

    def _rpc_stats(self, tenant_name: str, params: dict) -> dict:
        if self.fabric is not None:
            # Fabric-wide breakdown: per-switch pipeline counters and
            # per-link drops by cause; with a program_id, that program's
            # per-node and summed counters too.
            stats = self.fabric.stats()
            if params.get("program_id") is not None:
                program_id = self._program_id(tenant_name, params)
                stats["program"] = self.fabric.program_stats(program_id)
            return stats
        if params.get("program_id") is None:
            # Service-wide overview: engine mode reports the aggregated
            # shard totals plus the migration section (so ``p4runpro
            # client stats`` surfaces elastic-fleet health without
            # naming a program); single-process mode reports the data
            # plane's own counters.
            if self.engine is not None:
                engine_stats = self.engine.stats()
                return {
                    "workers": engine_stats["workers"],
                    "worker_ids": engine_stats["worker_ids"],
                    "totals": engine_stats["totals"],
                    "migration": engine_stats["migration"],
                    "transport": engine_stats["transport"],
                }
            if self.dataplane is not None:
                return {"dataplane": self.dataplane.stats()}
            raise ServiceError(ErrorCode.BAD_REQUEST, "missing param 'program_id'")
        program_id = self._program_id(tenant_name, params)
        stats = self.controller.program_stats(program_id)
        flow_cache = self._flow_cache_stats()
        if flow_cache is not None:
            stats["flow_cache"] = flow_cache
        codegen = self._codegen_stats()
        if codegen is not None:
            stats["codegen"] = codegen
        return stats

    def _flow_cache_stats(self) -> dict | None:
        """Data-plane flow-cache counters (aggregated in engine mode)."""
        if self.engine is not None:
            return self.engine.stats()["totals"].get("flow_cache")
        cache = getattr(self.dataplane, "flow_cache", None)
        return cache.stats() if cache is not None else None

    def _codegen_stats(self) -> dict | None:
        """Codegen-tier counters (aggregated in engine mode)."""
        if self.engine is not None:
            return self.engine.stats()["totals"].get("codegen")
        cache = getattr(self.dataplane, "codegen", None)
        return cache.stats() if cache is not None else None

    def _rpc_read_mem(self, tenant_name: str, params: dict) -> dict:
        program_id = self._program_id(tenant_name, params)
        if self.fabric is not None:
            # Cross-device read: the merged value (per MERGE_SEMANTICS)
            # as "value", with the per-node breakdown alongside.
            merged = self.fabric.read_memory(
                program_id,
                self._require(params, "mid"),
                self._require(params, "vaddr"),
            )
            return {
                "value": merged["aggregate"],
                "kind": merged["kind"],
                "per_node": merged["per_node"],
            }
        value = self.controller.read_memory(
            program_id, self._require(params, "mid"), self._require(params, "vaddr")
        )
        return {"value": value}

    def _rpc_snapshot(self, tenant_name: str, params: dict) -> dict:
        program_id = self._program_id(tenant_name, params)
        if self.fabric is not None:
            merged = self.fabric.snapshot_memory(
                program_id, self._require(params, "mid")
            )
            return {
                "values": merged["aggregate"],
                "kind": merged["kind"],
                "per_node": merged["per_node"],
            }
        values = self.controller.snapshot_memory(program_id, self._require(params, "mid"))
        return {"values": values}

    def _rpc_utilization(self, tenant_name: str, params: dict) -> dict:
        if self.fabric is not None:
            per_node = {}
            for name, node in self.fabric.topology.nodes.items():
                util = node.controller.utilization()
                util["per_rpb"] = node.controller.manager.utilization_snapshot()
                per_node[name] = util
            return {"per_node": per_node}
        util = self.controller.utilization()
        util["per_rpb"] = self.controller.manager.utilization_snapshot()
        return util

    def _rpc_tenants(self, tenant_name: str, params: dict) -> dict:
        return {
            "tenants": [
                {"name": t.name, "quota": t.quota.__dict__, "usage": t.usage()}
                for t in self.tenants.tenants()
            ]
        }

    def _rpc_metrics(self, tenant_name: str, params: dict) -> dict:
        from ..compiler import solver

        snapshot = self.metrics.snapshot()
        snapshot["audit_records"] = len(self.audit)
        if self.fabric is not None:
            snapshot["southbound_retries"] = {
                name: wrapper.stats.as_dict()
                for name, wrapper in self._node_retrying.items()
            }
            snapshot["caches"] = {"solver": solver.cache_stats()}
            snapshot["fabric"] = self.fabric.stats()
            return snapshot
        snapshot["southbound_retries"] = self.retrying.stats.as_dict()
        snapshot["caches"] = {
            "deploy_cache": self.controller.deploy_cache.stats(),
            "solver": solver.cache_stats(),
        }
        flow_cache = self._flow_cache_stats()
        if flow_cache is not None:
            snapshot["caches"]["flow_cache"] = flow_cache
        codegen = self._codegen_stats()
        if codegen is not None:
            snapshot["caches"]["codegen"] = codegen
        if self.engine is not None:
            snapshot["engine"] = {
                "workers": self.engine.num_workers,
                "worker_ids": self.engine.worker_ids,
                "migration": self.engine.migration_stats(),
                "transport": self.engine.transport_stats(),
            }
        return snapshot

    def _rpc_audit(self, tenant_name: str, params: dict) -> dict:
        limit = params.get("limit", 0)
        records = self.audit.tail(limit) if limit else self.audit.records()
        return {"records": [r.as_dict() for r in records]}

    def _rpc_fingerprint(self, tenant_name: str, params: dict) -> dict:
        if self.fabric is not None:
            prints = self.fabric.state_fingerprints()
            return {"fingerprint": prints.pop("combined"), "per_node": prints}
        return {"fingerprint": self.controller.manager.state_fingerprint()}

    # -- streaming ---------------------------------------------------------------
    def stream_stats(self, tenant_name: str, program_id: int | None = None) -> dict:
        """One sample for the ``stats`` subscription stream (never raises)."""
        if self.fabric is not None:
            return self.fabric.stats()
        sample: dict = {"programs": len(self.controller.running_programs())}
        if self.engine is not None:
            sample["dataplane"] = self.engine.stats()["totals"]
        elif self.dataplane is not None:
            sample["dataplane"] = self.dataplane.stats()
        if program_id is not None:
            try:
                self.tenants.get(tenant_name).require(program_id)
                sample["program"] = self.controller.program_stats(program_id)
            except Exception as exc:
                sample["program_error"] = str(exc)
        return sample


class _Connection:
    """Per-connection push state: the subscription channel.

    A ``subscribe`` RPC flips the connection into push mode — alongside
    the usual request/response exchange, a background task periodically
    writes server-initiated messages (``FRAME_EVENT`` frames on a binary
    connection, NDJSON lines with an ``event`` key otherwise).  Streams:

    * ``metrics`` — counter *deltas* since the previous push plus current
      gauges (cheap to diff client-side, no unbounded growth);
    * ``stats``  — control/data-plane sample from ``stream_stats``;
    * ``audit``  — live tail: records appended since the previous push.
    """

    SUBSCRIBE_STREAMS = ("metrics", "stats", "audit")
    MIN_INTERVAL_MS = 10.0

    def __init__(self, service: ControlService, writer):
        self.service = service
        self.writer = writer
        self.binary = False
        self._task: asyncio.Task | None = None
        self._streams: tuple[str, ...] = ()
        self._interval_s = 0.5
        self._seq = 0
        self._audit_pos = 0
        self._last_counters: dict[str, int] = {}
        self._stats_program: int | None = None
        self._tenant = "default"

    def subscribe(self, request: Request) -> dict:
        streams = request.params.get("streams") or ["stats"]
        if not isinstance(streams, list) or not streams:
            raise ServiceError(ErrorCode.BAD_REQUEST, "streams must be a non-empty list")
        unknown = [s for s in streams if s not in self.SUBSCRIBE_STREAMS]
        if unknown:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"unknown stream(s) {unknown!r}; expected subset of "
                f"{list(self.SUBSCRIBE_STREAMS)}",
            )
        interval_ms = request.params.get("interval_ms", 500)
        if not isinstance(interval_ms, (int, float)) or interval_ms < self.MIN_INTERVAL_MS:
            raise ServiceError(
                ErrorCode.BAD_REQUEST,
                f"interval_ms must be a number >= {self.MIN_INTERVAL_MS}",
            )
        self._streams = tuple(dict.fromkeys(streams))
        self._interval_s = interval_ms / 1e3
        self._tenant = request.tenant
        program_id = request.params.get("program_id")
        self._stats_program = program_id if isinstance(program_id, int) else None
        # Tail from "now": the subscriber sees what happens after the ack.
        self._audit_pos = len(self.service.audit)
        self._last_counters = dict(self.service.metrics.snapshot()["counters"])
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._push_loop())
        return {
            "streams": list(self._streams),
            "interval_ms": interval_ms,
            "push": "binary" if self.binary else "ndjson",
        }

    async def unsubscribe(self) -> dict:
        await self._cancel()
        return {"unsubscribed": True}

    async def aclose(self) -> None:
        await self._cancel()

    async def _cancel(self) -> None:
        task, self._task = self._task, None
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
            except Exception:  # pragma: no cover - defensive
                pass

    async def _push_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(self._interval_s)
                for stream in self._streams:
                    data = self._build_event(stream)
                    if data is None:
                        continue
                    self._seq += 1
                    await self._send({"event": stream, "seq": self._seq, "data": data})
        except asyncio.CancelledError:
            raise
        except (ConnectionResetError, BrokenPipeError, RuntimeError):
            # Peer went away (or the loop is closing): stop pushing.
            pass

    def _build_event(self, stream: str):
        if stream == "audit":
            records = self.service.audit.records()[self._audit_pos :]
            self._audit_pos += len(records)
            if not records:
                return None
            return {"records": [r.as_dict() for r in records]}
        if stream == "metrics":
            snapshot = self.service.metrics.snapshot()
            counters = snapshot["counters"]
            delta = {
                name: value - self._last_counters.get(name, 0)
                for name, value in counters.items()
                if value != self._last_counters.get(name, 0)
            }
            self._last_counters = dict(counters)
            return {
                "counters_delta": delta,
                "gauges": snapshot["gauges"],
                "audit_records": len(self.service.audit),
            }
        return self.service.stream_stats(self._tenant, self._stats_program)

    async def _send(self, obj: dict) -> None:
        if self.binary:
            self.writer.write(encode_binary_frame(FRAME_EVENT, obj))
        else:
            self.writer.write(encode_frame(obj))
        await self.writer.drain()


class ServiceServer:
    """TCP front end: one asyncio stream server over a ControlService.

    Codec negotiation is first-byte sniffing (see
    :mod:`repro.service.wire`): a connection opening with the binary
    preamble speaks length-prefixed frames; anything else speaks NDJSON.
    """

    def __init__(self, service: ControlService | None = None, host: str = "127.0.0.1", port: int = 0):
        self.service = service or ControlService()
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=MAX_FRAME_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Graceful drain: finish the in-flight write, then close."""
        await self.service.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def _handle_payload(self, payload, conn: _Connection) -> dict:
        """Dispatch one decoded envelope; subscription RPCs are handled at
        the transport layer (they need the connection), everything else
        goes to the service."""
        method = payload.get("method") if isinstance(payload, dict) else None
        if method in ("subscribe", "unsubscribe"):
            try:
                request = Request.from_wire(payload)
                if method == "subscribe":
                    result = conn.subscribe(request)
                else:
                    result = await conn.unsubscribe()
            except ServiceError as exc:
                return error_response(
                    payload.get("id") if isinstance(payload, dict) else None, exc
                )
            return ok_response(request.id, result)
        return await self.service.handle_payload(payload)

    async def _handle_connection(self, reader: asyncio.StreamReader, writer) -> None:
        conn = _Connection(self.service, writer)
        try:
            first = await reader.read(1)
            if first:
                if first == PREAMBLE[:1]:
                    await self._serve_binary(reader, writer, conn, first)
                else:
                    await self._serve_ndjson(reader, writer, conn, first)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            await conn.aclose()
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,  # event loop tearing down mid-close
            ):  # pragma: no cover
                pass

    async def _serve_ndjson(
        self, reader, writer, conn: _Connection, prefix: bytes
    ) -> None:
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError):
                error = ServiceError(ErrorCode.PARSE_ERROR, "oversized frame")
                writer.write(encode_frame(error_response(None, error)))
                await writer.drain()
                break
            if prefix:
                line, prefix = prefix + line, b""
            if not line:
                break
            if not line.strip():
                continue
            try:
                payload = decode_frame(line)
            except ServiceError as exc:
                response = error_response(None, exc)
            else:
                response = await self._handle_payload(payload, conn)
            writer.write(encode_frame(response))
            await writer.drain()

    async def _serve_binary(
        self, reader, writer, conn: _Connection, first: bytes
    ) -> None:
        try:
            preamble = first + await reader.readexactly(len(PREAMBLE) - len(first))
        except asyncio.IncompleteReadError:
            return
        if preamble != PREAMBLE:
            error = ServiceError(
                ErrorCode.PARSE_ERROR,
                f"unsupported wire preamble {preamble!r}",
            )
            writer.write(encode_binary_frame(FRAME_RESPONSE, error_response(None, error)))
            await writer.drain()
            return
        conn.binary = True
        while True:
            try:
                header = await reader.readexactly(FRAME_HEADER.size)
            except asyncio.IncompleteReadError:
                break  # clean EOF (or truncated header): drop the connection
            kind, length = FRAME_HEADER.unpack(header)
            if kind != FRAME_REQUEST or length > MAX_FRAME_BYTES:
                message = (
                    "oversized frame"
                    if length > MAX_FRAME_BYTES
                    else f"unexpected frame kind {kind}"
                )
                error = ServiceError(ErrorCode.PARSE_ERROR, message)
                writer.write(
                    encode_binary_frame(FRAME_RESPONSE, error_response(None, error))
                )
                await writer.drain()
                break
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                break  # truncated mid-payload: drop the connection
            try:
                payload = decode_binary_frame(header + body)
            except ServiceError as exc:
                response = error_response(None, exc)
            else:
                response = await self._handle_payload(payload, conn)
            try:
                frame = encode_binary_frame(FRAME_RESPONSE, response)
            except ServiceError as exc:
                frame = encode_binary_frame(
                    FRAME_RESPONSE, error_response(response.get("id"), exc)
                )
            writer.write(frame)
            await writer.drain()


class ServerThread:
    """Runs a ServiceServer on a daemon thread (for synchronous callers).

    ::

        server = ServerThread(ControlService())
        server.start()                     # returns once the port is bound
        client = ServiceClient("127.0.0.1", server.port)
        ...
        server.stop()
    """

    def __init__(self, service: ControlService | None = None, host: str = "127.0.0.1", port: int = 0):
        self.service = service or ControlService()
        self.host = host
        self.port = port
        self._thread = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopped: asyncio.Event | None = None
        self._ready = None

    def start(self) -> "ServerThread":
        import threading

        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=10):
            raise RuntimeError("control service failed to start within 10 s")
        return self

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        server = ServiceServer(self.service, self.host, self.port)
        await server.start()
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        self._ready.set()
        await self._stopped.wait()
        await server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stopped is not None:
            self._loop.call_soon_threadsafe(self._stopped.set)
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


async def serve(
    host: str = "127.0.0.1",
    port: int = 9400,
    service: ControlService | None = None,
    on_ready=None,
) -> None:
    """Run a control service until cancelled (the ``p4runpro serve`` entry).

    ``on_ready(server)`` runs once the socket is bound, so whatever it
    announces (``server.port`` included, for ``port=0``) is connectable.
    """
    server = ServiceServer(service, host, port)
    await server.start()
    if on_ready is not None:
        on_ready(server)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:  # graceful drain on cancellation
        await server.stop()
        raise
