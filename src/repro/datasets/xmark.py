"""XMark-like document graph generator (paper Section 5.1, Table 1).

Mirrors the XMark benchmark schema [24] at configurable scale: a document
tree (site / regions / people / open_auctions / closed_auctions /
categories) plus ID/IDREF reference edges (``personref -> person``,
``itemref -> item``, ``seller -> person``, …) that turn it into the
"trees connected by cross edges" graph shape the paper evaluates on.

Node attributes follow the paper's setup: the ``label`` of most nodes is
the element tag, while person and item nodes are randomly classified into
ten groups (``person0..person9`` / ``item0..item9``) to stand for
distinct attribute values.

Determinism: everything derives from a seeded ``random.Random``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..graph.digraph import DataGraph

#: number of label groups for person/item nodes (paper Section 5.1).
NUM_GROUPS = 10


@dataclass
class XMarkGraph:
    """A generated XMark-like graph with the metadata baselines need."""

    graph: DataGraph
    scale: float
    #: the document-tree edges (forest view for tree algorithms).
    forest_edges: set[tuple[int, int]] = field(default_factory=set)
    persons: list[int] = field(default_factory=list)
    items: list[int] = field(default_factory=list)
    open_auctions: list[int] = field(default_factory=list)


def generate_xmark(scale: float = 0.1, seed: int = 42) -> XMarkGraph:
    """Generate an XMark-like graph.

    Args:
        scale: scaling factor; entity counts grow linearly with it.  The
            paper uses factors 0.5–4 on a C++ code base; this pure-Python
            reproduction sweeps the same shape at smaller absolute sizes
            (see docs/BENCHMARKS.md, "Paper-reproduction benchmarks").
        seed: RNG seed.
    """
    rng = random.Random(seed)
    num_persons = max(2, int(2550 * scale))
    num_items = max(2, int(2175 * scale))
    num_open = max(2, int(2175 * scale))
    num_closed = max(1, int(975 * scale))
    num_categories = max(1, int(100 * scale))

    out = XMarkGraph(graph=DataGraph(), scale=scale)
    graph = out.graph

    def node(label: str) -> int:
        return graph.add_node(label=label)

    def child(parent: int, label: str) -> int:
        target = node(label)
        graph.add_edge(parent, target)
        out.forest_edges.add((parent, target))
        return target

    def reference(source: int, target: int) -> None:
        graph.add_edge(source, target)

    site = node("site")

    categories = child(site, "categories")
    category_nodes = []
    for __ in range(num_categories):
        category = child(categories, "category")
        child(category, "name")
        category_nodes.append(category)

    people = child(site, "people")
    for __ in range(num_persons):
        person = child(people, f"person{rng.randrange(NUM_GROUPS)}")
        out.persons.append(person)
        child(person, "name")
        child(person, "emailaddress")
        if rng.random() < 0.6:
            address = child(person, "address")
            child(address, "street")
            child(address, "city")
            child(address, "country")
        if rng.random() < 0.7:
            profile = child(person, "profile")
            for __ in range(rng.randrange(3)):
                child(profile, "interest")
            if rng.random() < 0.7:
                child(profile, "education")
            child(profile, "age")
        if rng.random() < 0.3:
            child(person, "phone")

    regions = child(site, "regions")
    region_nodes = [child(regions, name) for name in ("africa", "asia", "europe")]
    for index in range(num_items):
        item = child(region_nodes[index % len(region_nodes)],
                     f"item{rng.randrange(NUM_GROUPS)}")
        out.items.append(item)
        child(item, "location")
        child(item, "name")
        child(item, "quantity")
        if rng.random() < 0.5:
            mailbox = child(item, "mailbox")
            for __ in range(rng.randrange(3)):
                mail = child(mailbox, "mail")
                child(mail, "date")
        if rng.random() < 0.4:
            child(item, "payment")

    open_auctions = child(site, "open_auctions")
    for __ in range(num_open):
        auction = child(open_auctions, "open_auction")
        out.open_auctions.append(auction)
        child(auction, "initial")
        child(auction, "current")
        for __ in range(rng.randrange(4)):
            bidder = child(auction, "bidder")
            child(bidder, "date")
            child(bidder, "increase")
            personref = child(bidder, "personref")
            reference(personref, rng.choice(out.persons))
        itemref = child(auction, "itemref")
        reference(itemref, rng.choice(out.items))
        seller = child(auction, "seller")
        reference(seller, rng.choice(out.persons))
        if rng.random() < 0.5:
            annotation = child(auction, "annotation")
            author = child(annotation, "author")
            reference(author, rng.choice(out.persons))

    closed_auctions = child(site, "closed_auctions")
    for __ in range(num_closed):
        auction = child(closed_auctions, "closed_auction")
        child(auction, "price")
        child(auction, "date")
        seller = child(auction, "seller")
        reference(seller, rng.choice(out.persons))
        buyer = child(auction, "buyer")
        reference(buyer, rng.choice(out.persons))
        itemref = child(auction, "itemref")
        reference(itemref, rng.choice(out.items))

    return out


def table1_row(xmark: XMarkGraph) -> dict[str, float]:
    """Table 1-style statistics row for one generated dataset."""
    return {
        "scale": xmark.scale,
        "nodes_millions": round(xmark.graph.num_nodes / 1e6, 4),
        "edges_millions": round(xmark.graph.num_edges / 1e6, 4),
        "nodes": xmark.graph.num_nodes,
        "edges": xmark.graph.num_edges,
    }
