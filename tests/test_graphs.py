import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirmarl.graphs import (
    build_artifacts,
    build_graph,
    check_weak_connectivity,
    derive_learning_graph,
    strongly_connected_components,
)
from dirmarl.learner import MessageBus
from dirmarl.validation import make_synthetic
from helpers import (
    agents,
    ascending_column_sum,
    assert_local_sums_are_reach_sums,
    brute_force_learning_edges,
    closed_reach,
    example2_expected_learning_edges,
    example2_graph,
    learning_edge_set,
    nine_agent_graph,
    random_weakly_connected_digraph,
    senders,
    transitive_closure,
)


def test_build_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\(1, 5\)"):
        build_graph(4, [(1, 2), (1, 5)])
    with pytest.raises(ValueError, match=r"\(0, 2\)"):
        build_graph(4, [(0, 2)])


def test_build_graph_rejects_self_loop():
    with pytest.raises(ValueError, match=r"\(3, 3\).*self-loop"):
        build_graph(4, [(1, 2), (3, 3)])


def test_build_graph_rejects_duplicate():
    with pytest.raises(ValueError, match=r"\(1, 2\).*more than once"):
        build_graph(4, [(1, 2), (2, 3), (1, 2)])


def test_neighbor_views_sorted():
    # the edge array is the one neighbour view: 0-based, by source, then target
    g = build_graph(4, [(3, 1), (2, 1), (1, 4), (1, 2)])
    assert g.edge_array.tolist() == [[0, 0, 1, 2], [1, 3, 0, 0]]
    assert not g.edge_array.flags.writeable
    assert g.edges == {(1, 2), (1, 4), (2, 1), (3, 1)}
    rng = np.random.default_rng(8)
    for g in [random_weakly_connected_digraph(rng, 1, 40) for _ in range(50)] + [
            build_graph(1, [])]:
        want = np.array(sorted(g.edges), dtype=np.intp).reshape(-1, 2) - 1
        assert (g.edge_array.dtype, g.edge_array.shape) == (want.dtype, want.T.shape)
        assert g.edge_array.tobytes() == want.T.tobytes()


def test_chain_reachability():
    # who each agent reaches (its senders) and who reaches it (the
    # synthetic term's dependencies), both closed with the agent itself
    g = build_graph(3, [(1, 2), (2, 3)])
    obj = make_synthetic(g, np.random.default_rng(0))
    batch = np.random.default_rng(1).uniform(-2.0, 2.0, size=(5, obj.total_dim))
    terms = obj.term_values(batch)
    for i, reach in zip(agents(g), [(1, 2, 3), (2, 3), (3,)]):
        assert obj.totals(batch, i).tobytes() == ascending_column_sum(terms, reach).tobytes()
    assert obj.deps == ((1,), (1, 2), (1, 2, 3))


def test_chain_learning_graph():
    g = build_graph(3, [(1, 2), (2, 3)])
    lg = derive_learning_graph(g, strongly_connected_components(g))
    assert lg.edges.tolist() == [[2, 1], [3, 1], [3, 2]]
    assert senders(lg, 1).tolist() == [2, 3]
    assert senders(lg, 3).tolist() == []


def test_two_cycle_is_single_cluster():
    g = build_graph(2, [(1, 2), (2, 1)])
    d = strongly_connected_components(g)
    assert d.clusters == ((1, 2),)
    lg = derive_learning_graph(g, d)
    # Self-pairs are never routing edges.
    assert learning_edge_set(lg) == {(1, 2), (2, 1)}


def test_weak_connectivity_components():
    g = build_graph(4, [(1, 2)])
    assert check_weak_connectivity(g) == ((1, 2), (3,), (4,))
    assert len(check_weak_connectivity(nine_agent_graph())) == 1


def test_nine_agent_clusters():
    d = strongly_connected_components(nine_agent_graph())
    assert d.clusters == ((1, 2), (3, 4), (5, 6), (7, 8, 9))
    # every agent lies on a directed cycle
    assert min(map(len, d.clusters)) >= 2


def test_nine_agent_reach_closed():
    obj = make_synthetic(nine_agent_graph(), np.random.default_rng(0))
    batch = np.random.default_rng(1).uniform(-2.0, 2.0, size=(5, obj.total_dim))
    terms = obj.term_values(batch)
    for i, reach in ((1, (1, 2, 7, 8, 9)), (2, (1, 2, 7, 8, 9)), (3, (3, 4, 7, 8, 9)),
                     (5, (5, 6, 7, 8, 9)), (8, (7, 8, 9))):
        assert obj.totals(batch, i).tobytes() == ascending_column_sum(terms, reach).tobytes()
    assert obj.deps[6] == tuple(range(1, 10))
    assert obj.deps[0] == (1, 2)


def test_example2_learning_graph_exact():
    g = example2_graph()
    assert len(g.edges) == 100
    art = build_artifacts(g)
    assert art.clusters.num_clusters == 100  # no cycles anywhere
    assert learning_edge_set(art.learning) == example2_expected_learning_edges()
    assert len(art.learning.edges) == 100


def digraph_edges(n: int):
    possible = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))


@st.composite
def digraphs(draw, max_n: int = 9):
    n = draw(st.integers(2, max_n))
    return build_graph(n, draw(digraph_edges(n)))


@st.composite
def planted_digraphs(draw, max_n: int = 12):
    """A sparse random digraph with a diamond (one descendant reached
    by two paths) and a directed cycle (a multi-member cluster) planted
    in it."""
    n = draw(st.integers(4, max_n))
    possible = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    edges = set(draw(st.lists(st.sampled_from(possible), unique=True, max_size=n)))
    a, b, c, x = draw(st.permutations(range(1, n + 1)))[:4]
    edges |= {(a, b), (a, c), (b, x), (c, x)}
    ring = draw(st.permutations(range(1, n + 1)))[:draw(st.integers(2, n))]
    edges |= {(u, v) for u, v in zip(ring, ring[1:] + ring[:1])}
    return build_graph(n, sorted(edges))


@given(planted_digraphs())
@settings(max_examples=150, deadline=None)
def test_csr_senders_and_bus_plan_match_brute_force(g):
    lg = build_artifacts(g).learning
    expected = brute_force_learning_edges(g)
    assert lg.indptr.shape == (g.num_agents + 1,)
    pairs = set()
    for i in agents(g):
        row = senders(lg, i).tolist()
        assert all(u < v for u, v in zip(row, row[1:])), row  # strictly ascending
        assert i not in row
        pairs |= {(j, i) for j in row}
    assert pairs == expected
    # the bus plan against one built from the brute-force pairs: each
    # agent's ascending sources (itself included), the first apart
    first, dst, src = [], [], []
    for i in agents(g):
        sources = sorted({j for j, t in expected if t == i} | {i})
        first.append(sources[0] - 1)
        dst += [i - 1] * (len(sources) - 1)
        src += [j - 1 for j in sources[1:]]
    bus = MessageBus(lg)
    assert bus._first.tolist() == first
    assert bus._dst.tolist() == dst
    assert bus._src.tolist() == src


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_clusters_partition_agents(g):
    d = strongly_connected_components(g)
    seen = [a for c in d.clusters for a in c]
    assert sorted(seen) == list(agents(g))
    assert len(seen) == len(set(seen))
    # Ordered by smallest member, members ascending.
    mins = [c[0] for c in d.clusters]
    assert mins == sorted(mins)
    for c in d.clusters:
        assert list(c) == sorted(c)


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_clusters_match_closure_equivalence(g):
    # i and j share a cluster exactly when each reaches the other.
    d = strongly_connected_components(g)
    cluster_of = {a: k for k, c in enumerate(d.clusters) for a in c}
    r = transitive_closure(g)
    for i in agents(g):
        for j in agents(g):
            same = cluster_of[i] == cluster_of[j]
            mutual = i == j or (r[i, j] and r[j, i])
            assert same == mutual


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_learning_graph_matches_brute_force(g):
    art = build_artifacts(g)
    assert learning_edge_set(art.learning) == brute_force_learning_edges(g)


@given(st.one_of(digraphs(), planted_digraphs()))
@settings(max_examples=150, deadline=None)
def test_synthetic_deps_match_closure_columns(g):
    # term j reads the blocks of j and of every agent that reaches j
    r = transitive_closure(g)
    obj = make_synthetic(g, np.random.default_rng(0))
    for j in agents(g):
        assert obj.deps[j - 1] == tuple(i for i in agents(g) if i == j or r[i, j])


@given(st.one_of(digraphs(), planted_digraphs()))
@settings(max_examples=150, deadline=None)
def test_local_sums_match_closure_rows(g):
    obj = make_synthetic(g, np.random.default_rng(0))
    assert_local_sums_are_reach_sums(obj, g, np.random.default_rng(1))


@given(st.one_of(digraphs(), planted_digraphs()))
@settings(max_examples=150, deadline=None)
def test_weak_components_match_brute_force(g):
    # components of the symmetrised graph: i's is i plus all it reaches there
    r = transitive_closure(build_graph(g.num_agents, g.edges | {(j, i) for i, j in g.edges}))
    expected = {tuple(j for j in agents(g) if j == i or r[i, j]) for i in agents(g)}
    assert check_weak_connectivity(g) == tuple(sorted(expected))


@given(digraphs())
@settings(max_examples=100, deadline=None)
def test_reach_ancestor_duality(g):
    # j is in i's closed reach exactly when i is in term j's dependencies
    obj = make_synthetic(g, np.random.default_rng(0))
    for i, reach in enumerate(closed_reach(g), 1):
        for j in agents(g):
            assert (j in reach) == (i in obj.deps[j - 1])


@given(digraphs())
@settings(max_examples=100, deadline=None)
def test_same_cluster_same_closed_reach(g):
    art = build_artifacts(g)
    for c in art.clusters.clusters:
        base = set(senders(art.learning, c[0]).tolist()) | {c[0]}
        for a in c[1:]:
            assert set(senders(art.learning, a).tolist()) | {a} == base


@given(digraphs())
@settings(max_examples=100, deadline=None)
def test_cluster_cliques_and_cross_cluster_completeness(g):
    art = build_artifacts(g)
    edges = learning_edge_set(art.learning)
    for c in art.clusters.clusters:
        if len(c) >= 2:
            for a in c:
                for b in c:
                    if a != b:
                        assert (a, b) in edges
    # If any edge joins two clusters, every cross pair is present.
    for ca in art.clusters.clusters:
        for cb in art.clusters.clusters:
            if ca is cb:
                continue
            linked = [(a, b) for a in ca for b in cb if (a, b) in edges]
            if linked:
                assert len(linked) == len(ca) * len(cb)


def test_random_weakly_connected_generator_is_connected():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = random_weakly_connected_digraph(rng)
        assert len(check_weak_connectivity(g)) == 1


def test_strongly_connected_graph_learns_globally():
    # Directed ring: one cluster, every agent hears every other reward.
    n = 6
    g = build_graph(n, [(i, i % n + 1) for i in range(1, n + 1)])
    art = build_artifacts(g)
    assert art.clusters.num_clusters == 1
    assert len(art.learning.edges) == n * (n - 1)
    for i in agents(g):
        assert set(senders(art.learning, i).tolist()) | {i} == set(agents(g))


def test_large_sparse_graph_scales():
    # Example-2 pattern at 10^4 agents: the full learning graph stays
    # sparse.
    n = 10_000
    edges = []
    for i in range(1, n + 1, 2):
        if i - 1 >= 1:
            edges.append((i, i - 1))
        if i + 1 <= n:
            edges.append((i, i + 1))
    edges.append((1, n))
    g = build_graph(n, edges)
    art = build_artifacts(g)
    assert art.clusters.num_clusters == n
    assert len(art.learning.edges) == len(edges)
    assert senders(art.learning, 3).tolist() == [2, 4]
    assert senders(art.learning, 2).tolist() == []

    # Set-up memory is linear in N + |E_L|: on a random recursive tree
    # of 8k agents with 6% back edges (|E_L| about 77k) the artifacts and
    # the bus retain about 40 bytes per entry; per-agent sets and tuples
    # retained about 380.
    rng = np.random.default_rng(8)
    n = 8000
    parent = rng.integers(1, np.arange(2, n + 1))
    edges = list(zip(parent.tolist(), range(2, n + 1)))
    back = rng.choice(np.arange(2, n + 1), size=n * 6 // 100, replace=False)
    edges += [(int(c), int(parent[c - 2])) for c in back]
    g = build_graph(n, edges)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        art = build_artifacts(g)
        bus = MessageBus(art.learning)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    entries = n + bus.num_edges
    assert retained <= 64 * entries, f"{retained / entries:.0f} bytes per entry"


def test_build_artifacts_is_one_read_only_memo_per_graph():
    edges = [(1, 2), (2, 3), (3, 1), (3, 4)]
    g = build_graph(4, edges)
    art = build_artifacts(g)
    assert build_artifacts(g) is art
    assert build_artifacts(build_graph(4, edges[::-1])) is art  # equal graph, new object
    pairs = art.learning.edges
    assert art.learning.edges is pairs and not pairs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        pairs[0, 0] = 4
    other = build_artifacts(build_graph(4, edges[:-1] + [(4, 3)]))
    assert other is not art and other.learning is not art.learning
    # (j, i): j sends to i, as i reaches j; the cycle 1-2-3 reaches 4, then 4 reaches it
    cycle = {(j, i) for i in (1, 2, 3) for j in (1, 2, 3) if i != j}
    assert learning_edge_set(art.learning) == cycle | {(4, 1), (4, 2), (4, 3)}
    assert learning_edge_set(other.learning) == cycle | {(1, 4), (2, 4), (3, 4)}


def test_deep_chain_cluster_level_reachability():
    # A long path: Tarjan's walk is 3000 deep and the learning graph is
    # built one cluster level at a time; agent 1 reaches everyone and
    # everyone reaches agent n.
    n = 3000
    g = build_graph(n, [(i, i + 1) for i in range(1, n)])
    art = build_artifacts(g)
    assert art.clusters.num_clusters == n
    assert senders(art.learning, 1).tolist() == list(range(2, n + 1))
    assert senders(art.learning, n).tolist() == []
    receivers = np.bincount(art.learning.indices, minlength=n)  # rows holding each agent
    assert receivers[0] == 0 and receivers[n - 1] == n - 1
