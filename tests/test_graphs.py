import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirmarl.graphs import (
    ReachabilitySets,
    build_artifacts,
    build_graph,
    check_weak_connectivity,
    derive_learning_graph,
    strongly_connected_components,
)
from helpers import (
    brute_force_learning_edges,
    example2_expected_learning_edges,
    example2_graph,
    nine_agent_graph,
    random_weakly_connected_digraph,
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
    g = build_graph(4, [(3, 1), (2, 1), (1, 4), (1, 2)])
    assert g.in_neighbors(1) == (2, 3)
    assert g.out_neighbors(1) == (2, 4)
    assert g.observation_set(1) == (1, 2, 3)
    assert g.observation_set(4) == (1, 4)


def test_chain_reachability():
    g = build_graph(3, [(1, 2), (2, 3)])
    r = ReachabilitySets(g, strongly_connected_components(g))
    assert r.reach(1) == {2, 3}
    assert r.reach(2) == {3}
    assert r.reach(3) == set()
    assert r.reach_closed(1) == {1, 2, 3}
    assert r.reach_closed(3) == {3}
    assert r.ancestors(1) == set()
    assert r.ancestors(3) == {1, 2}


def test_chain_learning_graph():
    g = build_graph(3, [(1, 2), (2, 3)])
    lg = derive_learning_graph(g, ReachabilitySets(g, strongly_connected_components(g)))
    assert lg.edges == {(2, 1), (3, 1), (3, 2)}
    assert lg.in_neighbors[1] == (2, 3)
    assert lg.in_neighbors[3] == ()


def test_two_cycle_is_single_cluster():
    g = build_graph(2, [(1, 2), (2, 1)])
    d = strongly_connected_components(g)
    assert d.clusters == ((1, 2),)
    r = ReachabilitySets(g, d)
    # Both agents are on a cycle, so they reach themselves.
    assert r.reach(1) == {1, 2}
    assert r.ancestors(2) == {1, 2}
    lg = derive_learning_graph(g, r)
    # Self-pairs are never routing edges.
    assert lg.edges == {(1, 2), (2, 1)}


def test_weak_connectivity_components():
    g = build_graph(4, [(1, 2)])
    assert check_weak_connectivity(g) == ((1, 2), (3,), (4,))
    assert len(check_weak_connectivity(nine_agent_graph())) == 1


def test_nine_agent_clusters():
    d = strongly_connected_components(nine_agent_graph())
    assert d.clusters == ((1, 2), (3, 4), (5, 6), (7, 8, 9))
    assert d.on_cycle(1) and d.on_cycle(9)


def test_nine_agent_reach_closed():
    g = nine_agent_graph()
    r = ReachabilitySets(g, strongly_connected_components(g))
    assert r.reach_closed(1) == {1, 2, 7, 8, 9}
    assert r.reach_closed(1) is r.reach_closed(2)  # shared per cluster
    assert r.reach_closed(3) == {3, 4, 7, 8, 9}
    assert r.reach_closed(5) == {5, 6, 7, 8, 9}
    assert r.reach_closed(8) == {7, 8, 9}


def test_example2_learning_graph_exact():
    g = example2_graph()
    assert len(g.edges) == 100
    art = build_artifacts(g)
    assert art.clusters.num_clusters == 100  # no cycles anywhere
    assert set(art.learning.edges) == example2_expected_learning_edges()
    assert len(art.learning.edges) == 100


def test_reach_closed_sorted_is_canonical():
    g = nine_agent_graph()
    r = ReachabilitySets(g, strongly_connected_components(g))
    assert r.reach_closed_sorted(2) == (1, 2, 7, 8, 9)
    assert r.reach_closed_sorted(7) == (7, 8, 9)


def digraph_edges(n: int):
    possible = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))


@st.composite
def digraphs(draw, max_n: int = 9):
    n = draw(st.integers(2, max_n))
    return build_graph(n, draw(digraph_edges(n)))


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_clusters_partition_agents(g):
    d = strongly_connected_components(g)
    seen = [a for c in d.clusters for a in c]
    assert sorted(seen) == list(g.agents)
    assert len(seen) == len(set(seen))
    # Ordered by smallest member, members ascending.
    mins = [c[0] for c in d.clusters]
    assert mins == sorted(mins)
    for c in d.clusters:
        assert list(c) == sorted(c)
    for a in g.agents:
        assert a in d.clusters[d.cluster_of[a]]


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_clusters_match_closure_equivalence(g):
    # i and j share a cluster exactly when each reaches the other.
    d = strongly_connected_components(g)
    r = transitive_closure(g)
    for i in g.agents:
        for j in g.agents:
            same = d.cluster_of[i] == d.cluster_of[j]
            mutual = i == j or (r[i, j] and r[j, i])
            assert same == mutual


@given(digraphs())
@settings(max_examples=150, deadline=None)
def test_learning_graph_matches_brute_force(g):
    art = build_artifacts(g)
    assert set(art.learning.edges) == brute_force_learning_edges(g)


@given(digraphs())
@settings(max_examples=100, deadline=None)
def test_reach_ancestor_duality(g):
    r = ReachabilitySets(g, strongly_connected_components(g))
    for i in g.agents:
        for j in g.agents:
            assert (j in r.reach(i)) == (i in r.ancestors(j))
        assert r.reach_closed(i) == r.reach(i) | {i}


@given(digraphs())
@settings(max_examples=100, deadline=None)
def test_same_cluster_same_closed_reach(g):
    art = build_artifacts(g)
    for c in art.clusters.clusters:
        base = art.reach.reach_closed(c[0])
        for a in c[1:]:
            assert art.reach.reach_closed(a) is base


@given(digraphs())
@settings(max_examples=100, deadline=None)
def test_cluster_cliques_and_cross_cluster_completeness(g):
    art = build_artifacts(g)
    edges = set(art.learning.edges)
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


@given(digraphs())
@settings(max_examples=100, deadline=None)
def test_sink_first_orders_clusters_after_their_targets(g):
    # The reachability folds rely on this: every cluster comes after
    # each cluster it has a graph edge into.
    d = strongly_connected_components(g)
    pos = {k: p for p, k in enumerate(d.sink_first)}
    assert sorted(d.sink_first) == list(range(d.num_clusters))
    for i, j in g.edges:
        a, b = d.cluster_of[i], d.cluster_of[j]
        if a != b:
            assert pos[b] < pos[a]


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
    for i in g.agents:
        assert art.reach.reach_closed(i) == set(g.agents)


def test_large_sparse_graph_scales():
    # Example-2 pattern at 10^4 agents: artifacts build quickly and the
    # full learning graph stays sparse.
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
    assert art.reach.reach_closed(3) == {2, 3, 4}
    assert art.reach.reach_closed(2) == {2}


def test_deep_chain_cluster_level_reachability():
    # A long path is the worst case for per-agent expansion; the
    # cluster-level masks stay cheap and individual queries work.
    n = 3000
    g = build_graph(n, [(i, i + 1) for i in range(1, n)])
    r = ReachabilitySets(g, strongly_connected_components(g))
    assert len(r.reach_closed(1)) == n
    assert r.reach(n) == set()
    assert r.ancestors(1) == set()
    assert len(r.ancestors(n)) == n - 1
