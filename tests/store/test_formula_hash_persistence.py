"""Formula hash memos must not travel with a persisted plan.

``Formula`` caches its structural hash on the node.  ``str`` hashes are
salted per process, so a memo written by one server process and trusted
by another would make equal formulas hash apart: set and dict lookups
(``land``/``lor`` dedup, the Tseitin cache, the analysis memos) would
silently miss.  A plan compiled and pickled under ``PYTHONHASHSEED=1`` is
loaded under ``PYTHONHASHSEED=2`` and compared with a freshly compiled
one; the pickle's length, memo-free and memo-laden, also shows the memo
is not in the state.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

COMMON = """
import pickle, sys
from repro.datasets import exp2_query, generate_xmark
from repro.plan import compile_query

def compile_plan():
    graph = generate_xmark(scale=0.02, seed=97).graph
    query = exp2_query("DIS_NEG4", person_group=1, item_group=2, seller_group=3)
    return compile_query(graph, query)

def formulas(plan):
    for query in (plan.original, plan.query):
        for node_id in sorted(query.nodes):  # copy() orders nodes by a set walk
            yield from query.fs(node_id).walk()
"""

WRITER = COMMON + """
plan = compile_plan()
compound = [f for f in formulas(plan) if not f.is_constant()]
assert compound, "the plan must hold non-trivial structural predicates"
for formula in formulas(plan):
    hash(formula)
assert all(hasattr(f, "_hash") for f in compound)
sys.stdout.buffer.write(pickle.dumps(plan))
"""

READER = COMMON + """
blob = sys.stdin.buffer.read()
plan = pickle.loads(blob)
loaded = list(formulas(plan))
assert not any(hasattr(f, "_hash") for f in loaded), "a hash memo was pickled"
memo_free = len(pickle.dumps(plan))
fresh = list(formulas(compile_plan()))
assert len(loaded) == len(fresh) > 0
pool = set(fresh)
for mine, theirs in zip(loaded, fresh):
    assert mine == theirs
    assert hash(mine) == hash(theirs)
    assert mine in pool and mine in {theirs: None}
assert all(hasattr(f, "_hash") for f in loaded)
# Memo-laden, the plan pickles to the byte what it did memo-free.
assert len(pickle.dumps(plan)) == memo_free
assert plan.explain() == compile_plan().explain()
print(len(loaded))
"""


def run(script: str, hash_seed: int, stdin: bytes = b"") -> bytes:
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script], input=stdin, capture_output=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def test_plan_pickled_under_one_hash_seed_loads_under_another():
    blob = run(WRITER, hash_seed=1)
    assert int(run(READER, hash_seed=2, stdin=blob)) > 0
