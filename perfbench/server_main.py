"""Run one SparcleServer for the benchmark, in its own process.

Usage: ``python3 perfbench/server_main.py SPEC.json``

The spec names the network document, the sharding (``n_shards`` and
``zones``), the durable ``log_dir``, whether to ``recover`` from it, and,
for the traced run, ``trace_out``: where the spans go when the server
exits.  The server is built through :mod:`repro.api` with the shards and
log directory an operator would give it.  Once it listens, one JSON line
``{"port": ..., "recovered": ...}`` goes to stdout.  SIGTERM drains and
stops it.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path
from typing import Any

import program


async def serve(spec: dict[str, Any], assigner: Any) -> None:
    lib = program.api()
    server = lib.SparcleServer(
        program.build_network(spec["network"]),
        n_shards=spec["n_shards"],
        zones=spec["zones"],
        log_dir=spec["log_dir"],
        recover=spec["recover"],
        assigner=assigner,
        install_signal_handlers=True,
    )
    await server.start()
    print(json.dumps({"port": server.port, "recovered": server.recovered}), flush=True)
    await server.wait_closed()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    assigner = program.api().sparcle_assign
    tracer = None
    if spec.get("trace_out"):
        import tracer as tracing

        tracer = tracing.Tracer()
        assigner = tracer.install(assigner)
    asyncio.run(serve(spec, assigner))
    if tracer is not None:
        tracer.dump(spec["trace_out"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
