"""Seeded inputs for the serving benchmark.

Everything here is plain data made with :class:`random.Random`: networks
in the scenario JSON form (``ncps``/``links``), drawn from a constant,
and submits as wire ``submit`` field dicts, drawn from the run's seed.  The program under test only
ever sees these generated inputs; nothing here imports it.

Two workloads (the README says why each exists):

* ``templated-mesh`` — one 6x5 grid region (79 elements, so routing uses
  the array kernel); apps are copies of three fixed shapes (linear-3,
  diamond, linear-5) with varied pins; two thirds GR with an availability
  target over a few fallible links, the rest BE.
* ``restart-replay`` — four 2x4 grid regions (18 elements each, under
  the dict-kernel size rule) joined by boundary links and given as
  explicit zones.  A long churn log of cheap two-stage apps is written
  first and the server is relaunched from it; it then serves distinct
  random layered DAGs, each inside one region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

CPU = "cpu"
MEMORY = "memory"

WORKLOADS = ("templated-mesh", "restart-replay")

#: Submits per connection per round.  A round is the unit of work every
#: run repeats whole, so counts per round never depend on the seed.
SUBMITS_PER_ROUND = 12

#: Live apps a connection keeps at the end of a round; it withdraws its
#: oldest ones past this.
HOLDING = 4

#: Connections the closed-loop client opens (the box has two CPUs).
CONNECTIONS = 2


@dataclass(frozen=True)
class Layout:
    """A network document plus how the server shards it."""

    network: dict[str, Any]
    zones: dict[str, int] | None
    n_shards: int
    #: NCPs that host pinned sources / sinks, per region.
    sources: tuple[tuple[str, ...], ...]
    sinks: tuple[tuple[str, ...], ...]


def _grid(
    rng: random.Random,
    prefix: str,
    rows: int,
    cols: int,
    ncps: list[dict[str, Any]],
    links: list[dict[str, Any]],
) -> list[list[str]]:
    """Append one rows x cols grid region; returns its NCP names by row."""
    names = [[f"{prefix}{r}{c}" for c in range(cols)] for r in range(rows)]
    for row in names:
        for name in row:
            ncps.append(
                {
                    "name": name,
                    "capacities": {
                        CPU: float(rng.randrange(1500, 3001, 50)),
                        MEMORY: float(rng.randrange(2048, 4097, 256)),
                    },
                    "failure_probability": 0.0,
                }
            )
    for r in range(rows):
        for c in range(cols):
            for dr, dc in ((0, 1), (1, 0)):
                rr, cc = r + dr, c + dc
                if rr < rows and cc < cols:
                    links.append(_link(rng, names[r][c], names[rr][cc]))
    return names


def _link(rng: random.Random, a: str, b: str, pf: float = 0.0) -> dict[str, Any]:
    return {
        "name": f"{a}~{b}",
        "a": a,
        "b": b,
        "bandwidth": float(rng.randrange(40, 121, 5)),
        "failure_probability": pf,
    }


def _make_fallible(
    rng: random.Random, links: list[dict[str, Any]], ends: set[str], count: int
) -> None:
    """Give ``count`` links touching ``ends`` a small failure probability."""
    candidates = [l for l in links if l["a"] in ends or l["b"] in ends]
    for link in rng.sample(candidates, min(count, len(candidates))):
        link["failure_probability"] = rng.choice((0.02, 0.03, 0.05))


def mesh_layout(seed: int) -> Layout:
    """``templated-mesh``: one 6x5 grid region with four fallible links."""
    rng = random.Random(f"mesh:{seed}")
    ncps: list[dict[str, Any]] = []
    links: list[dict[str, Any]] = []
    names = _grid(rng, "m", 6, 5, ncps, links)
    sources = tuple(names[0]) + (names[1][0],)
    sinks = (names[5][1], names[5][2], names[5][3])
    _make_fallible(rng, links, set(sources), 4)
    return Layout(
        network={"name": "mesh", "directed": False, "ncps": ncps, "links": links},
        zones=None,
        n_shards=1,
        sources=(sources,),
        sinks=(sinks,),
    )


def regions_layout(seed: int, tag: str) -> Layout:
    """Four 2x4 grid regions in a ring, two boundary links per neighbour."""
    rng = random.Random(f"{tag}:{seed}")
    ncps: list[dict[str, Any]] = []
    links: list[dict[str, Any]] = []
    zones: dict[str, int] = {}
    grids = []
    for region in range(4):
        before = len(links)
        names = _grid(rng, f"r{region}n", 2, 4, ncps, links)
        grids.append(names)
        for row in names:
            for name in row:
                zones[name] = region
        ends = {names[0][0], names[1][0]}
        _make_fallible(rng, links[before:], ends, 1)
    for region in range(4):
        nxt = (region + 1) % 4
        for row in range(2):
            links.append(_link(rng, grids[region][row][3], grids[nxt][row][0]))
    return Layout(
        network={"name": tag, "directed": False, "ncps": ncps, "links": links},
        zones=zones,
        n_shards=4,
        sources=tuple((g[0][0], g[1][0], g[0][1]) for g in grids),
        sinks=tuple((g[0][3], g[1][3], g[1][2]) for g in grids),
    )


#: Each workload's network is drawn once, from this constant; the seed
#: of a run varies only the apps.  A network drawn per seed made the
#: run-to-run spread mostly a spread between networks.
LAYOUT_SEED = 2020


def layout_for(workload: str) -> Layout:
    if workload == "templated-mesh":
        return mesh_layout(LAYOUT_SEED)
    if workload == "restart-replay":
        return regions_layout(LAYOUT_SEED, tag="replay")
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Task graphs (scenario JSON form)
# ----------------------------------------------------------------------
def _ct(name: str, cpu: float, mem: float, pin: str | None = None) -> dict[str, Any]:
    return {
        "name": name,
        "requirements": {CPU: cpu, MEMORY: mem},
        "pinned_host": pin,
    }


def _tt(src: str, dst: str, mb: float) -> dict[str, Any]:
    return {"name": f"{src}>{dst}", "src": src, "dst": dst, "megabits_per_unit": mb}


def _chain(name: str, cpus: list[float], mb: float, src: str, dst: str) -> dict[str, Any]:
    n = len(cpus)
    cts = [
        _ct(f"c{i}", cpu, 16.0 * (i + 1), src if i == 0 else dst if i == n - 1 else None)
        for i, cpu in enumerate(cpus)
    ]
    tts = [_tt(f"c{i}", f"c{i + 1}", mb) for i in range(n - 1)]
    return {"name": name, "cts": cts, "tts": tts}


SHAPES = ("linear-3", "diamond", "linear-5")


def shape_graph(shape: str, src: str, dst: str) -> dict[str, Any]:
    """One of the three fixed ``templated-mesh`` shapes, pinned src -> dst."""
    if shape == "linear-3":
        return _chain(shape, [20.0, 120.0, 20.0], 2.0, src, dst)
    if shape == "linear-5":
        return _chain(shape, [20.0, 80.0, 80.0, 80.0, 20.0], 1.5, src, dst)
    if shape == "diamond":
        cts = [
            _ct("c0", 20.0, 16.0, src),
            _ct("c1", 90.0, 32.0),
            _ct("c2", 90.0, 32.0),
            _ct("c3", 20.0, 16.0, dst),
        ]
        tts = [_tt("c0", "c1", 1.0), _tt("c0", "c2", 1.0), _tt("c1", "c3", 1.0), _tt("c2", "c3", 1.0)]
        return {"name": shape, "cts": cts, "tts": tts}
    raise ValueError(f"unknown shape {shape!r}")


def layered_graph(rng: random.Random, name: str, src: str, dst: str, depth: int) -> dict[str, Any]:
    """A random layered DAG: a pinned source, ``depth`` middle layers of
    1-3 CTs, a pinned sink."""
    layers: list[list[str]] = [["s"]]
    cts = [_ct("s", float(rng.randrange(10, 31)), 16.0, src)]
    count = 0
    for _ in range(depth):
        layer = []
        for _ in range(rng.randint(1, 3)):
            ct = f"m{count}"
            count += 1
            layer.append(ct)
            cts.append(_ct(ct, float(rng.randrange(40, 161, 5)), float(rng.randrange(16, 129, 16))))
        layers.append(layer)
    layers.append(["k"])
    cts.append(_ct("k", float(rng.randrange(10, 31)), 16.0, dst))
    tts = []
    for upper, lower in zip(layers, layers[1:]):
        for dst_ct in lower:
            srcs = rng.sample(upper, rng.randint(1, len(upper)))
            for src_ct in srcs:
                tts.append(_tt(src_ct, dst_ct, float(rng.choice((0.5, 1.0, 1.5, 2.0)))))
        for src_ct in upper:
            if not any(tt["src"] == src_ct for tt in tts):
                tts.append(_tt(src_ct, rng.choice(lower), 1.0))
    return {"name": name, "cts": cts, "tts": tts}


# ----------------------------------------------------------------------
# Submits
# ----------------------------------------------------------------------
def _gr(app_id: str, graph: dict[str, Any], rate: float, availability: float) -> dict[str, Any]:
    return {
        "app_id": app_id,
        "kind": "GR",
        "graph": graph,
        "min_rate": rate,
        "min_rate_availability": availability,
    }


def _be(app_id: str, graph: dict[str, Any], priority: float) -> dict[str, Any]:
    return {"app_id": app_id, "kind": "BE", "graph": graph, "priority": priority}


def round_submits(
    workload: str, layout: Layout, seed: int, conn: int, rnd: int
) -> list[dict[str, Any]]:
    """The submits connection ``conn`` sends in round ``rnd``, in order.

    A round's make-up is fixed: every block of three submits has two GR
    requests and one BE request, on ``templated-mesh`` one of each shape.
    GR rates and availability targets take each value of their set in
    turn.  On ``templated-mesh`` each source NCP is pinned twice and each
    sink four times per round; on ``restart-replay`` each region is home
    to three apps and each DAG depth (2-4 middle layers) comes four
    times.  The seed draws how these pair up, the DAGs and the order of
    the round.  Drawing the make-up too made the run-to-run spread mostly
    a spread of make-ups.
    """
    rng = random.Random(f"{workload}:{seed}:{conn}:{rnd}")
    count = SUBMITS_PER_ROUND
    srcs = _dealt(rng, layout.sources[0], count)
    sinks = _dealt(rng, layout.sinks[0], count)
    homes = _dealt(rng, range(len(layout.sources)), count)
    depths = _dealt(rng, (2, 3, 4), count)
    out = []
    for i in range(count):
        app_id = f"{workload[0]}{conn}-{rnd}-{i}"
        block, slot = divmod(i, 3)
        kind = "BE" if slot == (block + rnd) % 3 else "GR"
        if workload == "templated-mesh":
            graph = shape_graph(SHAPES[slot], srcs[i], sinks[i])
            rate, target = (4.0, 6.0, 8.0)[(block + slot) % 3], (0.9, 0.97, 0.99)[(block + 2 * slot) % 3]
        else:
            home = homes[i]
            graph = layered_graph(
                rng, app_id, rng.choice(layout.sources[home]), rng.choice(layout.sinks[home]), depths[i]
            )
            rate, target = (3.0, 5.0, 7.0)[(block + slot) % 3], (0.9, 0.97)[(block + slot) % 2]
        if kind == "GR":
            out.append(_gr(app_id, graph, rate, target))
        else:
            out.append(_be(app_id, graph, (1.0, 2.0)[block % 2]))
    rng.shuffle(out)
    return out


def _dealt(rng: random.Random, items: Any, count: int) -> list[Any]:
    """``count`` items taken from ``items`` in turn, in a seeded order."""
    items = list(items)
    dealt = [items[i % len(items)] for i in range(count)]
    rng.shuffle(dealt)
    return dealt


def cheap_submit(layout: Layout, rng: random.Random, app_id: str, rate: float) -> dict[str, Any]:
    """``restart-replay``'s cheap two-stage GR apps, inside one region."""
    region = rng.randrange(len(layout.sources))
    graph = _chain(
        "pair",
        [float(rng.randrange(20, 61, 5)), float(rng.randrange(20, 61, 5))],
        1.0,
        rng.choice(layout.sources[region]),
        rng.choice(layout.sinks[region]),
    )
    return _gr(app_id, graph, rate, 0.0)


def churn_submits(layout: Layout, seed: int, count: int) -> list[dict[str, Any]]:
    """The pre-crash churn stream ``restart-replay`` writes its log from."""
    rng = random.Random(f"churn:{seed}")
    return [cheap_submit(layout, rng, f"old-{i}", (2.0, 3.0, 4.0)[i % 3]) for i in range(count)]
