"""Run ``p4runpro serve`` with a span recorder around each layer's entry point.

Usage: ``python traced_serve.py SPANS.json serve --port P [serve flags]``

Before handing over to the CLI, the launcher wraps the public entry point
of every layer, patching each name where its caller looks it up.  Each
call records one span ``(name, start, end, parent, rpc_id, method)``;
spans stay in memory and are written to ``SPANS.json`` when ``serve``
exits.  Times
come from ``time.perf_counter`` (CLOCK_MONOTONIC), the same clock the
benchmark client uses.

A generator entry point (``Controller.install_steps``) gets one span per
resumption, so time other tasks spend between its steps is not charged to
it.  ``ControlService.handle_request`` is a coroutine: its span covers the
whole request, including waits on the admission locks.
"""

from __future__ import annotations

import contextvars
import functools
import json
import sys
import time
from pathlib import Path

now = time.perf_counter

#: (name, start, end, parent index or -1, rpc id or None, method or None)
SPANS: list[list] = []
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("span", default=(-1, None))


def _open(name: str, rpc_id=None, method=None) -> tuple[int, contextvars.Token]:
    parent, parent_rpc = _CURRENT.get()
    index = len(SPANS)
    SPANS.append([name, now(), 0.0, parent, rpc_id if rpc_id is not None else parent_rpc,
                  method])
    return index, _CURRENT.set((index, SPANS[index][4]))


def _close(index: int, token: contextvars.Token) -> None:
    SPANS[index][2] = now()
    _CURRENT.reset(token)


def span(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index, token = _open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            _close(index, token)

    return wrapper


def span_generator(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            index, token = _open(name)
            try:
                step = next(inner)
            except StopIteration as stop:
                return stop.value
            finally:
                _close(index, token)
            yield step

    return wrapper


def span_request(fn):
    @functools.wraps(fn)
    async def wrapper(self, request):
        index, token = _open("service.handle_request", request.id, request.method)
        try:
            return await fn(self, request)
        finally:
            _close(index, token)

    return wrapper


def install() -> None:
    import importlib

    from repro.compiler.compiler import CompiledProgram
    from repro.controlplane import controller as controller_mod
    from repro.dataplane.runpro import P4runproDataPlane
    from repro.engine.engine import ShardedEngine
    from repro.service.server import ControlService

    # ``repro.compiler`` re-exports the function under the module's name
    translate_mod = importlib.import_module("repro.compiler.translate")
    Controller = controller_mod.Controller
    ControlService.handle_request = span_request(ControlService.handle_request)
    for method in ("compile", "prepare_deploy", "revoke", "write_memory"):
        setattr(Controller, method, span(f"controlplane.{method}", getattr(Controller, method)))
    Controller.install_steps = span_generator("controlplane.install_steps",
                                              Controller.install_steps)
    controller_mod.parse_and_check = span("lang.parse_and_check", controller_mod.parse_and_check)
    translate_mod.translate = span("compiler.translate", translate_mod.translate)
    controller_mod.allocate_program = span("compiler.allocate_program",
                                           controller_mod.allocate_program)
    CompiledProgram.emit_entries = span("compiler.emit_entries", CompiledProgram.emit_entries)
    P4runproDataPlane.process_many = span("dataplane.process_many",
                                          P4runproDataPlane.process_many)
    ShardedEngine.inject = span("engine.inject", ShardedEngine.inject)
    ShardedEngine.barrier = span("engine.barrier", ShardedEngine.barrier)


def main(argv: list[str]) -> int:
    out = Path(argv[0])
    install()
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        tmp = out.with_suffix(".tmp")
        tmp.write_text(json.dumps(SPANS))
        tmp.replace(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
