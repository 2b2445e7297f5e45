"""The one-pass full trace against the closure-then-sum oracle.

``mark_live`` marks, counts, sums and ages in one loop and accounts
leaf children without pushing them. On random reference graphs (cycles,
shared children, self-references, roots already marked) it must reach
exactly the objects ``reachable_from`` reaches, and report the same
count and bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.heap.object_model import ObjectFactory, mark_live

from .oracles import mark_live_reference

EPOCH = 5


@st.composite
def graphs(draw):
    """``(sizes, edges, roots, premarked, old)`` over ``n`` objects."""
    n = draw(st.integers(1, 30))
    index = st.integers(0, n - 1)
    sizes = draw(st.lists(st.integers(0, 500), min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(index, index), max_size=3 * n))
    roots = draw(st.sets(index, max_size=n))
    premarked = draw(st.sets(index, max_size=n // 3))
    old = draw(st.sets(index, max_size=n // 3))
    return sizes, edges, sorted(roots), premarked, old


def build(sizes, edges, premarked, old):
    factory = ObjectFactory()
    objs = [factory.make(size) for size in sizes]
    for parent, child in edges:
        objs[parent].add_ref(objs[child])
    for i in premarked:
        objs[i].mark = EPOCH
    for i in old:
        objs[i].old = True
    return objs


def state(objs):
    return [(obj.mark, obj.old) for obj in objs]


class TestMarkLiveMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def test_counts_marks_and_old_bits(self, graph):
        sizes, edges, roots, premarked, old = graph
        fast = build(sizes, edges, premarked, old)
        reference = build(sizes, edges, premarked, old)
        got = mark_live([fast[i] for i in roots], EPOCH)
        expected = mark_live_reference([reference[i] for i in roots], EPOCH)
        assert got == expected
        assert state(fast) == state(reference)

    def test_cycle_self_reference_and_shared_leaf(self):
        # a -> b -> a (cycle), a -> a (self), a -> leaf, b -> leaf (shared).
        a, b, leaf, unreached = build([8, 16, 24, 32], [], (), ())
        a.add_ref(b)
        b.add_ref(a)
        a.add_ref(a)
        a.add_ref(leaf)
        b.add_ref(leaf)
        expected = (3, a.size + b.size + leaf.size)
        assert mark_live([a], EPOCH) == expected
        assert [obj.old for obj in (a, b, leaf, unreached)] == [True, True, True, False]
        # A second trace at the same epoch finds every root visited.
        assert mark_live([a], EPOCH) == (0, 0)

    def test_leaf_root_is_counted(self):
        (leaf,) = build([40], [], (), ())
        assert mark_live([leaf], EPOCH) == (1, leaf.size)
        assert leaf.old and leaf.mark == EPOCH
