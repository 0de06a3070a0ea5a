"""Byte-identity tripwire for the experiment outputs.

Runs short versions of both bundled experiments, plus example1 with the
residual algorithms (whose carried value neither bundled config runs),
example1 at 4 epochs and the generated 1,000-agent tree1k benchmark
graph at seed 0 (some of its agents have 11 or more slots, whose
left-fold softmax denominators a reordered sum would round differently;
the bundled graphs' agents have at most 3), and compares the sha256 of
every run CSV and of ``summary.csv`` with ``golden_csv_sha256.json``.
Any change to the arithmetic of the rollout, the policy, the exchange,
the oracles or the CSV format moves a digest.  The digests were recorded
on x86-64 Linux with Python 3.11.7 and numpy 2.4.6.  They hold only
where both of these are true: numpy dispatches float64 ``exp`` and
``power`` to AVX-512, and OpenBLAS picks a SkylakeX-class kernel.  With
either dispatch lowered, as on an AVX2-only x86-64 CPU with the same
wheel, digests move.
After a change that is meant to move bits, re-record them with
``PYTHONPATH=src python tests/test_golden_csv.py > tests/golden_csv_sha256.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import numpy as np
import pytest

from dirmarl import load_config, run_experiment, summarize
from dirmarl.policy import RbfPolicy
from dirmarl.warehouse import WarehouseEnv

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG_DIR = os.path.join(os.path.dirname(HERE), "configs")
GOLDEN = os.path.join(HERE, "golden_csv_sha256.json")
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
import workloads  # noqa: E402

# case name -> (config name, epochs, repeats or None for the config's own
# count, algorithms or None for the config's own list); "tree1k" is the
# benchmark's generated graph at seed 0.
CASES = {
    "example1": ("example1", 3, 2, None),
    "example2": ("example2", 2, None, None),
    "example1_residual": ("example1", 5, 2, ("distributed_residual", "centralized_residual")),
    "example1_epochs4": ("example1", 4, 2, None),
    "tree1k": ("tree1k", 2, None, None),
}


def config_file(config: str, epochs: int, work_dir: str) -> str:
    if config == "tree1k":
        os.makedirs(work_dir, exist_ok=True)
        return workloads.write_tree1k(work_dir, 0, epochs)
    return os.path.join(CONFIG_DIR, f"{config}.cfg")


def run_case(name: str, out_dir: str):
    """Run case ``name`` into ``out_dir``; its summary."""
    config, epochs, repeats, algorithms = CASES[name]
    cfg = load_config(config_file(config, epochs, out_dir + ".input"))
    cfg = dataclasses.replace(cfg, epochs=epochs, repeats=repeats or cfg.repeats,
                              algorithms=algorithms or cfg.algorithms, output_dir=out_dir)
    return run_experiment(cfg)


def output_digests(name: str, out_dir: str) -> dict[str, str]:
    run_case(name, out_dir)
    digests = {}
    for fname in sorted(os.listdir(out_dir)):
        if fname.endswith(".csv"):
            with open(os.path.join(out_dir, fname), "rb") as fh:
                digests[fname] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_outputs_match_recorded_digests(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(golden) == sorted(CASES)
    for name in CASES:
        got = output_digests(name, str(tmp_path / name))
        assert sorted(got) == sorted(golden[name])
        moved = [f for f in golden[name] if got[f] != golden[name][f]]
        assert moved == [], f"{name}: output bytes changed in {moved}"


@pytest.mark.parametrize("name", ["example1", "example2", "tree1k"])
def test_summarize_is_bit_equal_with_and_without_checksums(tmp_path, name):
    # with the manifest's checksums summarize parses only the summary
    # columns; without them every cell, as an older manifest is read
    out = str(tmp_path / name)
    direct = run_case(name, out)
    manifest_path = os.path.join(out, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert len(manifest["run_csv_checksums"]) == sum(map(len, direct.executed.values()))
    fast = summarize(out)
    del manifest["run_csv_checksums"]
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    full = summarize(out)
    for got in (fast, full):
        assert (got.algorithms, got.executed, got.total_messages, got.aborted) == (
            direct.algorithms, direct.executed, direct.total_messages, direct.aborted)
        for alg in direct.mean_value:
            assert got.mean_value[alg].tobytes() == direct.mean_value[alg].tobytes()
            assert got.std_value[alg].tobytes() == direct.std_value[alg].tobytes()


def test_tree1k_case_has_wide_rows(tmp_path):
    cfg = load_config(config_file("tree1k", 2, str(tmp_path)))
    assert RbfPolicy(cfg.graph).num_slots.max() >= 11


def test_cases_pin_both_table_paths(tmp_path):
    # Sinks drop out of the policy's tables: the example2 and tree1k digests
    # pin the shorter tables, the example1 ones the all-ship tables.  On
    # every case the policy maps the (2N,) state to the (E,) out-edge fractions.
    for name, (config, epochs, _, _) in CASES.items():
        cfg = load_config(config_file(config, epochs, str(tmp_path / name)))
        policy = RbfPolicy(cfg.graph)
        ships = policy.num_slots > 1
        assert ships.all() == (config == "example1"), name
        assert policy._centers.shape[1] == policy.obs_dims[ships].sum()
        assert policy.slot_agent.size == policy.num_slots[ships].sum()
        env, n = WarehouseEnv(cfg.warehouse), cfg.graph.num_agents
        state = env.observation_matrix(np.ones(n), np.full(n, 0.2))
        frac = policy.bind(np.zeros(policy.layout.total_dim)).act_matrix(state)
        assert frac.shape == (len(cfg.graph.edges),), name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        json.dump({name: output_digests(name, os.path.join(tmp, name)) for name in CASES},
                  sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
