"""The array-built set-up tables, exchange plan and run-CSV writer give
the bytes of the per-agent, per-group and per-cell loops they replaced
(``helpers.reference_*``, ``helpers.grouped_gather``)."""

from __future__ import annotations

import os

import numpy as np

from dirmarl.configio import load_config
from dirmarl.experiments import write_run_csv
from dirmarl.graphs import build_artifacts
from dirmarl.learner import MessageBus
from dirmarl.policy import RbfPolicy
from dirmarl.warehouse import WarehouseConfig, WarehouseEnv

from helpers import (
    SPECIAL_VALUES,
    grouped_gather,
    observation_sets,
    out_neighbors,
    random_weakly_connected_digraph,
    reference_env_tables,
    reference_policy_tables,
    reference_write_run_csv,
    run_table,
    sprinkle,
    tree_with_back_edges,
)

CONFIG_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "configs")


def cases():
    """(graph, policy settings, warehouse config) for 25 random digraphs,
    a tree1k-sized tree and both bundled configs."""
    rng = np.random.default_rng(12)
    out = []
    for g in [random_weakly_connected_digraph(rng) for _ in range(25)] + [
            tree_with_back_edges(rng, 1000)]:
        settings = {"num_centers": int(rng.integers(1, 6)),
                    "stock_range": (-1.5, float(rng.uniform(0.5, 3.0))),
                    "demand_range": (0.0, 0.5)}
        out.append((g, settings, WarehouseConfig(graph=g)))
    for name in ("example1", "example2"):
        cfg = load_config(os.path.join(CONFIG_DIR, f"{name}.cfg"))
        p = cfg.policy
        out.append((cfg.graph, {"num_centers": p.num_centers, "stock_range": p.stock_range,
                                "demand_range": p.demand_range, "kernel": p.kernel},
                    cfg.warehouse))
    return out


def assert_same_array(got: np.ndarray, want: np.ndarray, name: str) -> None:
    assert (got.dtype, got.shape) == (want.dtype, want.shape), name
    assert got.tobytes() == want.tobytes(), name


def test_tables_match_the_per_agent_loops():
    for g, settings, wcfg in cases():
        policy = RbfPolicy(g, **settings)
        for name, want in reference_policy_tables(policy).items():
            assert_same_array(getattr(policy, name), want, name)
        env = WarehouseEnv(wcfg)
        for name, want in reference_env_tables(env).items():
            assert_same_array(getattr(env, name), want, name)
        assert policy.obs_dims.tolist() == [len(s) + 1 for s in observation_sets(g)]
        assert policy.num_slots.tolist() == [len(out) + 1 for out in out_neighbors(g)]
        assert policy.layout.dims == tuple(
            settings["num_centers"] * (len(out) + 1) for out in out_neighbors(g))
        # act_matrix takes rows ``_rows`` of the flat vector read as (N + |E|,
        # num_centers): row _rows[k] must be valid slot k, so each shipping
        # agent's block starts at its first slot's row.
        ships = policy.num_slots > 1
        assert np.array_equal(policy.layout.offsets[:-1][ships],
                              policy._rows[policy.slot_start] * settings["num_centers"])


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    """Bytes equal, signed zeros included; any NaN matches any NaN (a
    NaN's sign and payload depend on the ufunc loop that made it)."""
    return (got.shape == want.shape and np.array_equal(np.isnan(got), np.isnan(want))
            and np.where(np.isnan(got), 0.0, got).tobytes()
            == np.where(np.isnan(want), 0.0, want).tobytes())


def test_gather_matches_the_grouped_plan():
    rng = np.random.default_rng(13)
    for g, _, _ in cases():
        learning = build_artifacts(g).learning
        bus = MessageBus(learning)
        n = g.num_agents
        for shape in ((n,), (n, 2), (n, 3, 5)):
            values = rng.standard_normal(shape)
            values[rng.random(shape) < 0.1] = -0.0
            want = grouped_gather(learning, values)
            assert bus.gather(values).tobytes() == want.tobytes()
            if len(shape) > 1:  # a non-contiguous payload reads the same
                assert bus.gather(np.asfortranarray(values)).tobytes() == want.tobytes()
            values = sprinkle(rng, values, SPECIAL_VALUES, 0.05)
            with np.errstate(invalid="ignore"):
                assert same_bits(bus.gather(values), grouped_gather(learning, values))


def test_run_csv_matches_the_per_cell_writer(tmp_path):
    n = 1000
    cells = np.array([-0.0, 5e-324, 1e300, 1 / 3, 2.0 ** 53 + 1, -1e-300, np.nan, np.inf,
                      -np.inf, 0.0, 123456789.0, -2.5])
    k = len(cells)
    rng = np.random.default_rng(14)
    table = run_table(values=rng.choice(cells, (k, n)), global_values=cells,
                      grad_norms=np.abs(rng.choice(cells, (k, n))),
                      messages=[8662 + r for r in range(k - 1)] + [2 ** 63 - 1],
                      epochs=[2 ** 53 + 1] + list(range(1, k)))
    empty = run_table(np.empty((0, n)), [], np.empty((0, n)), [])
    for case in (table, run_table(table.values[:1], table.global_values[:1],
                                  table.grad_norms[:1], table.messages[:1]), empty):
        write_run_csv(str(tmp_path / "got.csv"), case)
        reference_write_run_csv(str(tmp_path / "want.csv"), case)
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()

