"""Seeded inputs and reference answers of the four workloads.

Everything the program receives is generated here from ``--seed``; the
dataset generator seeds stay fixed (XMark 97, arXiv 7) so every seed
queries the same two graphs, and so do the ``serve_zipf`` query pool
and the ``arxiv_churn`` pattern set.  Inputs are *stratified*: each
query template contributes a fixed number of instances and the Zipf
stream uses the expected rank frequencies, so the seed picks labels,
samples and order but never the mix of cheap and expensive operations —
a second seed measures the same workload, not a different one.

Reference answers come from :func:`repro.query.naive.evaluate_naive`,
the semantics oracle, computed once per distinct query before timing.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from repro.datasets import (
    TABLE4_PREDICATES,
    exp1_query,
    exp2_query,
    fig7_query,
    generate_arxiv,
    generate_xmark,
    random_embedded_query,
)
from repro.query.naive import evaluate_naive
from repro.query.serialize import query_from_json, query_to_json

XMARK_SCALE = 0.2
XMARK_SEED = 97
ARXIV_SEED = 7

WORKLOADS = ("xmark_tpq", "xmark_gtpq", "serve_zipf", "arxiv_churn")

#: template -> (group digits that matter, instances per round).
_TPQ_MIX = {
    "q1": (1, 10), "q2": (2, 20), "q3": (3, 20),
    "Q4": (3, 30), "Q5": (3, 30), "Q6": (3, 30), "Q7": (3, 30), "Q8": (3, 30),
}
#: DIS_NEG4 costs about twice the other nine templates; with 20 of the
#: 109 steady operations, p90 is its median instance and not the edge
#: between two templates.
_GTPQ_MIX = {name: (3, 20 if name == "DIS_NEG4" else 10) for name in TABLE4_PREDICATES}
#: the serve_zipf pool: 35 % Fig. 7, 35 % Exp-1, 30 % Exp-2 of 1 000.
_POOL_MIX = {
    "q1": (1, 10), "q2": (2, 100), "q3": (3, 240),
    **{name: (3, 70) for name in ("Q4", "Q5", "Q6", "Q7", "Q8")},
    **{name: (3, 30) for name in TABLE4_PREDICATES},
}
SERVE_REQUESTS = 400
ZIPF_S = 1.1
CHURN_EPOCHS = 20
CHURN_QUERIES_PER_EPOCH = 3
CHURN_PATTERNS_PER_SIZE = 20
CHURN_SIZES = (5, 7, 9)


@dataclass(frozen=True)
class Op:
    """One operation of a round: a query line or a graph mutation."""

    kind: str  #: ``"query"`` | ``"mutate"``
    text: str = ""  #: the NDJSON query line
    reference: frozenset | None = frozenset()  #: expected answer rows
    attrs: tuple = ()  #: mutation: the new node's attribute items
    targets: tuple = ()  #: mutation: successor node ids of the new node


@dataclass
class Inputs:
    """What one workload replays every round."""

    name: str
    ops: list[Op]
    #: distinct query lines of ``ops`` in first-use order (layer probes).
    distinct: list[str]
    answers_sha256: str
    #: serve_zipf only: the untimed priming stream.
    prime: list[str] = field(default_factory=list)

    @property
    def query_ops(self) -> int:
        return sum(1 for op in self.ops if op.kind == "query")


def xmark_graph():
    return generate_xmark(scale=XMARK_SCALE, seed=XMARK_SEED).graph


def arxiv_graph():
    return generate_arxiv(seed=ARXIV_SEED).graph


def make_graph(workload: str):
    """A fresh data graph for ``workload`` (the set-up every round pays)."""
    return arxiv_graph() if workload == "arxiv_churn" else xmark_graph()


def apply_mutation(graph, op: Op) -> None:
    """Append one node with its out-edges (bumps the graph version)."""
    node = graph.add_node(dict(op.attrs))
    for target in op.targets:
        graph.add_edge(node, target)


def _template_query(name: str, person: int, item: int, seller: int):
    groups = {"person_group": person, "item_group": item, "seller_group": seller}
    if name in ("q1", "q2", "q3"):
        return fig7_query(name, **groups)
    if name in TABLE4_PREDICATES:
        return exp2_query(name, **groups)
    return exp1_query(name, **groups)


def _group_codes(rng: random.Random, digits: int, count: int) -> list[int]:
    """``count`` distinct group-label codes of ``digits`` decimal digits,
    drawn in Latin-hypercube blocks of ten: within a block every digit
    takes each value 0-9 once.  A template's cost follows its group
    labels, so this keeps a round's mix of labels the same for every seed."""
    if count > 10**digits:
        raise ValueError(f"{count} distinct codes do not fit {digits} digits")
    codes: dict[int, None] = {}
    while len(codes) < count:
        columns = [rng.sample(range(10), 10) for _ in range(digits)]
        for row in zip(*columns):
            codes[sum(digit * 10**place for place, digit in enumerate(row))] = None
    return list(codes)[:count]


def _instances(rng: random.Random, mix: dict, fraction: float) -> dict[str, list[str]]:
    """Distinct JSON lines per template, one per group-label code over the
    digits the template actually reads."""
    lines: dict[str, list[str]] = {}
    for name, (digits, count) in mix.items():
        lines[name] = []
        for code in _group_codes(rng, digits, max(1, round(count * fraction))):
            person, item, seller = code % 10, code // 10 % 10, code // 100
            lines[name].append(query_to_json(_template_query(name, person, item, seller)))
    return lines


def _shuffled_with_first(rng: random.Random, lines: dict[str, list[str]], first: str):
    """All lines in seeded order, led by an instance of template ``first``
    so the cold first answer always runs the same template."""
    head = lines[first][0]
    rest = [line for name, group in lines.items() for line in group if line != head]
    rng.shuffle(rest)
    return [head] + rest


def _render(reference) -> str:
    return "\n".join(sorted(repr(row) for row in reference))


def _digest(ops: list[Op]) -> str:
    digest = hashlib.sha256()
    for op in ops:
        if op.kind == "query":
            digest.update(_render(op.reference).encode("utf-8"))
            digest.update(b"\x00")
    return digest.hexdigest()


def _static_inputs(name: str, stream: list[str], graph, prime=()) -> Inputs:
    references: dict[str, frozenset] = {}
    for line in stream:
        if line not in references:
            references[line] = frozenset(evaluate_naive(query_from_json(line), graph))
    ops = [Op("query", text=line, reference=references[line]) for line in stream]
    return Inputs(name, ops, list(references), _digest(ops), prime=list(prime))


def zipf_counts(pool_size: int, requests: int) -> list[int]:
    """Requests per rank: the expected Zipf(s) counts, rounded by largest
    remainder so they sum to ``requests`` for every seed."""
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(pool_size)]
    total = sum(weights)
    exact = [requests * weight / total for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(range(pool_size), key=lambda r: (counts[r] - exact[r], r))
    for rank in by_remainder[: requests - sum(counts)]:
        counts[rank] += 1
    return counts


def _ranked_pool() -> list[tuple[str, str]]:
    """The pool as ``(template, line)`` in Zipf-rank order: an even
    interleave of the templates by pool share.  Like the graph it is
    drawn from a fixed seed — the hot queries of a service are what they
    are; ``--seed`` decides the order in which the requests arrive."""
    rng = random.Random(XMARK_SEED)
    keyed = []
    for position, (name, lines) in enumerate(_instances(rng, _POOL_MIX, 1.0).items()):
        offset = position * 0.618034 % 1.0
        keyed += [((index + offset) / len(lines), name, line) for index, line in enumerate(lines)]
    return [(name, line) for _, name, line in sorted(keyed)]


def _serve_streams(rng: random.Random, fraction: float) -> tuple[list[str], list[str]]:
    """The timed request stream and the priming stream over one ranked pool.

    The priming stream asks every second single-request rank of each
    template of the timed stream, fills up with ranks the timed stream
    never asks, and ends with the hot head (every rank the timed stream
    asks more than once): the primed store holds the head and half of
    the tail the timed rounds will want.  Some 15 % of the timed requests
    are then misses — enough that p90 lies well inside the misses and not
    on the edge between a miss and a hit.  Like the pool, the priming
    stream is the same for every seed (yesterday's traffic is what it
    was), so every seed starts from the same store; ``rng`` orders the
    timed stream.
    """
    pool = _ranked_pool()
    requests = max(20, round(SERVE_REQUESTS * fraction))
    counts = zipf_counts(len(pool), requests)
    head = [pool[rank][1] for rank, count in enumerate(counts) if count > 1]
    unused = [pool[rank][1] for rank, count in enumerate(counts) if count == 0]
    timed = [pool[rank][1] for rank, count in enumerate(counts) for _ in range(count)]
    hottest = timed.pop(0)
    rng.shuffle(timed)
    timed.insert(0, hottest)
    prime, seen = [], {}
    for rank, count in enumerate(counts):
        if count == 1:
            name, line = pool[rank]
            seen[name] = seen.get(name, 0) + 1
            if seen[name] % 2:
                prime.append(line)
    prime += unused[: requests // 2 - len(prime) - len(head)]
    random.Random(XMARK_SEED).shuffle(prime)
    # The head goes last, hottest at the very end: the plan cache is an
    # LRU a quarter the size of this stream, and it is persisted too.
    prime += reversed(head)
    return timed, prime


def _churn_patterns(graph) -> list[str]:
    """The 60 embedded AD patterns (sizes 5/7/9).  Like the graph they
    are drawn from a fixed seed: a pattern's cost depends on where it is
    embedded, so a per-seed pattern set would be a per-seed workload."""
    rng = random.Random(ARXIV_SEED)
    patterns: list[str] = []
    for size in CHURN_SIZES:
        wanted = len(patterns) + CHURN_PATTERNS_PER_SIZE
        while len(patterns) < wanted:
            query = random_embedded_query(graph, size, rng)
            if query is not None:
                line = query_to_json(query)
                if line not in patterns:
                    patterns.append(line)
    return patterns


def _churn_inputs(rng: random.Random, fraction: float) -> Inputs:
    """Append-one-paper epochs, each followed by pattern queries: a full
    round asks every pattern once, in seeded order, so every seed times
    the same queries; the reference answers follow the graph through its
    mutations."""
    arxiv = generate_arxiv(seed=ARXIV_SEED)
    graph = arxiv.graph
    rest = _churn_patterns(graph)
    first = rest[0]
    rng.shuffle(rest)
    parsed = {line: query_from_json(line) for line in rest}

    def query_op(line: str) -> Op:
        return Op("query", text=line, reference=frozenset(evaluate_naive(parsed[line], graph)))

    ops = [query_op(first)]  # the cold first answer always runs the same pattern
    papers = list(arxiv.papers)
    for epoch in range(max(1, round(CHURN_EPOCHS * fraction))):
        attrs = (
            ("label", f"paper_cat{rng.randrange(1000)}"),
            ("kind", "paper"),
            ("time", len(papers)),
        )
        targets = {rng.choice(arxiv.authors) for _ in range(rng.randint(1, 4))}
        targets.add(rng.choice(papers[-400:]))
        mutation = Op("mutate", attrs=attrs, targets=tuple(sorted(targets)))
        papers.append(graph.num_nodes)
        apply_mutation(graph, mutation)
        ops.append(mutation)
        for _ in range(CHURN_QUERIES_PER_EPOCH):
            ops.append(query_op(rest.pop()))
    distinct = list(dict.fromkeys(op.text for op in ops if op.kind == "query"))
    return Inputs("arxiv_churn", ops, distinct, _digest(ops))


def build_inputs(workload: str, seed: int, fraction: float = 1.0) -> Inputs:
    """The inputs of ``workload`` for ``seed`` (``fraction`` < 1: --quick)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "xmark_tpq":
        stream = _shuffled_with_first(rng, _instances(rng, _TPQ_MIX, fraction), "q1")
        return _static_inputs(workload, stream, xmark_graph())
    if workload == "xmark_gtpq":
        stream = _shuffled_with_first(rng, _instances(rng, _GTPQ_MIX, fraction), "DIS1")
        return _static_inputs(workload, stream, xmark_graph())
    if workload == "serve_zipf":
        timed, prime = _serve_streams(rng, fraction)
        return _static_inputs(workload, timed, xmark_graph(), prime=prime)
    if workload == "arxiv_churn":
        return _churn_inputs(rng, fraction)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
