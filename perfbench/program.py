"""The benchmark's one door into the program under test.

The program is the ``repro`` package under ``src/`` of the checkout the
benchmark runs from; it is imported through its supported facade,
:mod:`repro.api`, only.  The server launcher and the in-process parts of
the benchmark (the restart-replay churn log, the torn-log fixture and the
serial baseline) all come through here.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def available() -> bool:
    """True when the checkout holds the program's source tree."""
    return (SRC / "repro" / "api.py").is_file()


def api() -> Any:
    """Import and return :mod:`repro.api` from this checkout."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro.api

    return repro.api


def build_network(doc: dict[str, Any]) -> Any:
    """A :class:`repro.api.Network` from the benchmark's network document."""
    lib = api()
    ncps = [
        lib.NCP(n["name"], dict(n["capacities"]), float(n["failure_probability"]))
        for n in doc["ncps"]
    ]
    links = [
        lib.Link(l["name"], l["a"], l["b"], float(l["bandwidth"]), float(l["failure_probability"]))
        for l in doc["links"]
    ]
    return lib.Network(doc["name"], ncps, links, directed=bool(doc.get("directed", False)))


def coordinator(layout: Any, log_dir: Path | None) -> Any:
    """The sharded control plane the server runs, built in this process."""
    lib = api()
    return lib.ShardCoordinator(
        build_network(layout.network),
        n_shards=layout.n_shards,
        zones=layout.zones,
        log_dir=log_dir,
    )


def decide(coord: Any, fields: dict[str, Any]) -> dict[str, Any]:
    """Submit one app in process, run epochs until decided; wire-form decision."""
    lib = api()
    ticket = coord.submit(lib.SubmitRequest(**fields))
    decision = coord.decision_for(ticket)
    while decision is None:
        coord.run_epoch()
        decision = coord.decision_for(ticket)
    return lib.DecisionReply.from_decision(decision).to_wire()
