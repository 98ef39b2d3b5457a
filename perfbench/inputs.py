"""Seeded input files for the three benchmark workloads.

Every workload is written to disk as the files a user would hand to
``scpm``: an edge list, an attribute file and a sequence of edge edit
scripts.  The program only ever sees these files.

Every workload keeps its graph structure fixed (the generators' own
seeds), so that every benchmark seed asks for about the same amount of
search work.  The benchmark seed relabels the vertices, shuffles line
order and edge orientation — which changes the ingest order, the dense
vertex ids and the search's tie-breaking — and draws the edit scripts.

``evolve-serve`` uses the patch scenario of
:mod:`repro.datasets.evolving` with one change: every vertex gets at least
one intra-patch edge.  Ingest numbers vertices in first-seen order, and
only with no isolated vertices do the patches, written one after the
other, land on whole 1024-id chunks, so that an edit batch inside one
patch touches one chunk and dirties one root of sixteen.  Relabelling
keeps each patch inside one block of 1024 labels.

Edit scripts come in pairs: a batch of edge toggles relative to the
initial graph, then its inverse.  After every pair the graph is back in
its initial state, so the cost of an update does not drift with the
number of rounds a run manages to fit in its time budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

from repro.correlation.parameters import SCPMParams
from repro.datasets import citeseer_like, patch_scenario
from repro.datasets.synthetic import CommunitySpec, SyntheticSpec, generate

#: Forward batches of the fixed-graph workloads; each is followed by its
#: inverse.
EDIT_PAIRS = 8

#: Structure seed of the evolve-serve patch graph.
EVOLVE_GRAPH_SEED = 1

Edge = Tuple[int, int]


@dataclass
class WorkloadInputs:
    """The files of one workload plus the parameters it is mined with."""

    name: str
    params: SCPMParams
    edges: Path
    attributes: Path
    edit_scripts: List[Path]
    #: True when set-up also mines, saves and starts the server.
    serve_in_setup: bool


def _planted_graph():
    """The 245-vertex two-community graph (``build_graph(0.35)`` of the
    repository's benchmark trajectory script)."""
    scale = 0.35
    num_communities = max(2, int(round(6 * scale)))
    block = max(12, int(round(40 * scale)))
    communities = tuple(
        CommunitySpec(
            attributes=tuple(f"c{j}_a{i}" for i in range(4)),
            size=block + 2 * j,
            density=0.5,
        )
        for j in range(num_communities)
    )
    graph = generate(
        SyntheticSpec(
            num_vertices=max(120, int(round(700 * scale))),
            background_degree=2.5,
            vocabulary_size=20,
            attributes_per_vertex=0.5,
            communities=communities,
            seed=1234,
        )
    )
    params = SCPMParams(
        min_support=block - 2, gamma=0.6, min_size=4, min_epsilon=0.2, top_k=5
    )
    return graph, params


def _toggle_batches(
    rng: random.Random, present: Set[Edge], pools: Sequence[Sequence[int]], size: int
) -> List[List[Tuple[str, int, int]]]:
    """One toggle batch over each vertex pool, each followed by its inverse."""
    batches = []
    for pool in pools:
        chosen: Dict[Edge, None] = {}
        while len(chosen) < size:
            u, v = rng.sample(pool, 2)
            chosen[(min(u, v), max(u, v))] = None
        forward = [
            ("remove" if edge in present else "add", edge[0], edge[1])
            for edge in chosen
        ]
        inverse = [
            ("add" if op == "remove" else "remove", u, v)
            for op, u, v in reversed(forward)
        ]
        batches.extend([forward, inverse])
    return batches


def _write_edit_scripts(directory: Path, batches) -> List[Path]:
    paths = []
    for number, batch in enumerate(batches):
        path = directory / f"edits-{number:02d}.txt"
        path.write_text("".join(f"{op} {u} {v}\n" for op, u, v in batch))
        paths.append(path)
    return paths


def _write_relabelled(graph, rng: random.Random, directory: Path):
    """Write ``graph`` under a seeded vertex relabelling and line order."""
    vertices = sorted(graph.vertices())
    labels = list(range(len(vertices)))
    rng.shuffle(labels)
    label_of = dict(zip(vertices, labels))
    edges = []
    for u, v in graph.edges():
        a, b = label_of[u], label_of[v]
        edges.append((a, b) if rng.random() < 0.5 else (b, a))
    rng.shuffle(edges)
    edge_path = directory / "graph.edges"
    edge_path.write_text("".join(f"{a} {b}\n" for a, b in edges))
    lines = [
        " ".join([str(label_of[v])] + sorted(map(str, graph.attributes_of(v))))
        for v in vertices
    ]
    rng.shuffle(lines)
    attribute_path = directory / "graph.attrs"
    attribute_path.write_text("".join(line + "\n" for line in lines))
    present = {(min(a, b), max(a, b)) for a, b in edges}
    return edge_path, attribute_path, present, labels


def _fixed_graph_workload(name, graph, params, seed, directory, edits_per_batch):
    rng = random.Random(seed)
    edge_path, attribute_path, present, labels = _write_relabelled(
        graph, rng, directory
    )
    batches = _toggle_batches(rng, present, [labels] * EDIT_PAIRS, edits_per_batch)
    return WorkloadInputs(
        name=name,
        params=params,
        edges=edge_path,
        attributes=attribute_path,
        edit_scripts=_write_edit_scripts(directory, batches),
        serve_in_setup=False,
    )


def _evolve_serve(seed: int, directory: Path) -> WorkloadInputs:
    num_patches = 16
    scenario = patch_scenario(
        EVOLVE_GRAPH_SEED,
        num_patches=num_patches,
        edges_per_vertex=1.0,
        num_batches=0,
    )
    patch_size = len(scenario.vertices) // num_patches
    by_patch: List[Set[Edge]] = [set() for _ in range(num_patches)]
    for u, v in scenario.initial_edges:
        by_patch[u // patch_size].add((u, v))
    structure = random.Random(EVOLVE_GRAPH_SEED)
    for patch, edges in enumerate(by_patch):
        base = patch * patch_size
        touched = {x for edge in edges for x in edge}
        for vertex in range(base, base + patch_size):
            if vertex not in touched:
                other = structure.choice(
                    [x for x in range(base, base + patch_size) if x != vertex]
                )
                edges.add((min(vertex, other), max(vertex, other)))
                touched.update((vertex, other))

    # The seed moves each patch to another block of labels and relabels
    # the vertices inside it; blocks are written in label order.
    rng = random.Random(seed)
    blocks = list(range(num_patches))
    rng.shuffle(blocks)
    label_of: Dict[int, int] = {}
    for patch, block in enumerate(blocks):
        offsets = list(range(patch_size))
        rng.shuffle(offsets)
        for offset, vertex in zip(offsets, range(patch * patch_size, (patch + 1) * patch_size)):
            label_of[vertex] = block * patch_size + offset
    lines = []
    present: Set[Edge] = set()
    for patch in sorted(range(num_patches), key=blocks.__getitem__):
        relabelled = [
            (label_of[u], label_of[v]) if rng.random() < 0.5 else (label_of[v], label_of[u])
            for u, v in sorted(by_patch[patch])
        ]
        rng.shuffle(relabelled)
        lines.extend(f"{a} {b}\n" for a, b in relabelled)
        present.update((min(a, b), max(a, b)) for a, b in relabelled)
    edge_path = directory / "graph.edges"
    edge_path.write_text("".join(lines))
    attribute_path = directory / "graph.attrs"
    attribute_path.write_text(
        "".join(
            f"{label_of[vertex]} {' '.join(scenario.initial_attributes[vertex])}\n"
            for vertex in scenario.vertices
        )
    )
    # Each 64-edit batch stays inside one patch: one chunk, one dirty root.
    # Every patch gets one pair, in seeded order, so that the median update
    # cost does not hang on the structure of a single patch.
    rng.shuffle(blocks)
    pools = [range(b * patch_size, (b + 1) * patch_size) for b in blocks]
    batches = _toggle_batches(rng, present, pools, 64)
    return WorkloadInputs(
        name="evolve-serve",
        params=SCPMParams(min_support=3, gamma=0.6, min_size=3, top_k=3),
        edges=edge_path,
        attributes=attribute_path,
        edit_scripts=_write_edit_scripts(directory, batches),
        serve_in_setup=True,
    )


def write_inputs(name: str, seed: int, directory: Path) -> WorkloadInputs:
    """Generate workload ``name`` for ``seed`` as files under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    if name == "planted-topk":
        graph, params = _planted_graph()
        return _fixed_graph_workload(name, graph, params, seed, directory, 16)
    if name == "citeseer-coverage":
        profile = citeseer_like(scale=2.0)
        return _fixed_graph_workload(
            name, profile.build(), profile.params, seed, directory, 16
        )
    if name == "evolve-serve":
        return _evolve_serve(seed, directory)
    raise ValueError(f"unknown workload {name!r}")
