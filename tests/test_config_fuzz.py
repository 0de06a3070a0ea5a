"""Fuzzing of the config and graph-file loaders.

Random mutations of the bundled configs and graph file must either load
or fail with a ConfigError that names the key or line at fault, and
never with any other exception.  Every generated agent count is either
small or rejected by the edge count before a graph is built.
"""

from __future__ import annotations

import os
import re
import shutil

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dirmarl.configio import ConfigError, load_config

CONFIG_DIR = os.path.normpath(
    os.path.join(os.path.dirname(__file__), os.pardir, "configs"))
FUZZ = settings(max_examples=80, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _read(name: str) -> list[str]:
    with open(os.path.join(CONFIG_DIR, name), encoding="utf-8") as fh:
        return fh.read().splitlines()


BASES = {"example1": _read("example1.cfg"), "example2": _read("example2.cfg")}
GRAPH = _read("example2_graph.txt")
GRAPH_AGENTS = 100


def _key_lines(lines: list[str]) -> list[tuple[int, str, str]]:
    """(line index, section, key) of every ``key = value`` line."""
    found, section = [], None
    for k, line in enumerate(lines):
        header = re.match(r"\[(\w+)\]", line)
        if header:
            section = header.group(1)
        key = re.match(r"(\w+) *=", line)
        if key:
            found.append((k, section, key.group(1)))
    return found


KEYS = {key for lines in BASES.values() for _, _, key in _key_lines(lines)}
GARBAGE = st.one_of(
    st.sampled_from(["", "abc", "-1", "0", "0.5", "2 -1", "1 2 3", "nan", "1e309",
                     "yes", "1->", "10->1", "99999999999999999999", "%(x)s", "0x10"]),
    st.text(st.characters(codec="ascii", exclude_characters="\r\n#;"), max_size=12))


def _write(tmp_path, lines: list[str], name: str) -> str:
    path = str(tmp_path / name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return path


def _config(tmp_path, base: str, lines: list[str]) -> str:
    shutil.copy(os.path.join(CONFIG_DIR, "example2_graph.txt"), tmp_path)
    return _write(tmp_path, lines, f"{base}.cfg")


def _load_or_error(path: str) -> str | None:
    """None when the config loads, else the ConfigError's message."""
    try:
        load_config(path)
    except ConfigError as exc:
        return str(exc)
    return None


def _names_key_or_line(message: str) -> bool:
    return bool(re.search(r"\[line +\d+\]|:\d+: |\[graph\]|empty graph file|"
                          + "|".join(KEYS), message))


@pytest.fixture(scope="module")
def default_echo(tmp_path_factory):
    """The echo of a config that sets nothing but its graph."""
    path = tmp_path_factory.mktemp("defaults") / "graph_only.cfg"
    path.write_text("[graph]\nnum_agents = 2\nedges = 1->2\n", encoding="utf-8")
    return load_config(str(path)).echo()


@given(st.sampled_from(sorted(BASES)), st.data())
@FUZZ
def test_dropped_key_falls_back_to_its_default_or_is_named(tmp_path, default_echo,
                                                           base, data):
    lines = list(BASES[base])
    k, section, key = data.draw(st.sampled_from(_key_lines(lines)))
    del lines[k]
    path = _config(tmp_path, base, lines)
    if section == "graph":
        message = _load_or_error(path)
        assert message is not None and f"{path}: missing required field" in message
        assert "[graph]" in message
    else:
        assert load_config(path).echo()[section][key] == default_echo[section][key]


@given(st.sampled_from(sorted(BASES)), st.data(), GARBAGE)
@FUZZ
def test_garbage_value_loads_or_is_named(tmp_path, base, data, garbage):
    lines = list(BASES[base])
    k, section, key = data.draw(st.sampled_from(_key_lines(lines)))
    lines[k] = f"{key} = {garbage}"
    path = _config(tmp_path, base, lines)
    message = _load_or_error(path)
    if message is None:
        return
    if section == "graph":
        assert re.search(rf"^{re.escape(path)}: (num_agents|edges|file|\[graph\])",
                         message), message
    else:
        assert key in message and path in message, message


@given(st.data(), st.sampled_from(["duplicate", "self-loop", "out of range"]))
@FUZZ
def test_bad_inline_edge_is_named(tmp_path, data, kind):
    lines = list(BASES["example1"])
    k = next(k for k, _, key in _key_lines(lines) if key == "edges")
    tokens = lines[k].split("=", 1)[1].replace(",", " ").split()
    pick = data.draw(st.integers(0, len(tokens) - 1))
    a, b = tokens[pick].split("->")
    if kind == "duplicate":
        tokens.insert(data.draw(st.integers(pick + 1, len(tokens))), tokens[pick])
        bad = f"({a}, {b})"
    elif kind == "self-loop":
        tokens[pick] = f"{a}->{a}"
        bad = f"({a}, {a})"
    else:
        b = data.draw(st.sampled_from(["0", "-3", "10", "1000000000"]))
        tokens[pick] = f"{a}->{b}"
        bad = f"({a}, {b})"
    lines[k] = "edges = " + ", ".join(tokens)
    path = _config(tmp_path, "example1", lines)
    message = _load_or_error(path)
    assert message is not None and message.startswith(f"{path}: edges: edge {bad}"), message


def _edge_lines(lines: list[str]) -> list[int]:
    return [k for k, line in enumerate(lines) if re.match(r"\d+ \d+$", line)]


@given(st.data(), st.sampled_from(["duplicate", "self-loop", "out of range"]))
@FUZZ
def test_bad_graph_file_edge_names_its_line(tmp_path, data, kind):
    lines = list(GRAPH)
    edges = _edge_lines(lines)
    k = data.draw(st.sampled_from(edges))
    a, b = lines[k].split()
    if kind == "duplicate":
        k = data.draw(st.integers(k + 1, len(lines)))
        lines.insert(k, f"{a} {b}")
    elif kind == "self-loop":
        lines[k] = f"{b} {b}"
    else:
        out = data.draw(st.sampled_from(["0", "-1", str(GRAPH_AGENTS + 1), "1000000000"]))
        lines[k] = f"{a} {out}" if data.draw(st.booleans()) else f"{out} {b}"
    _write(tmp_path, lines, "example2_graph.txt")
    path = _write(tmp_path, BASES["example2"], "example2.cfg")
    message = _load_or_error(path)
    graph_path = os.path.join(str(tmp_path), "example2_graph.txt")
    assert message is not None, kind
    assert message.startswith(f"{path}: file: {graph_path}:{k + 1}: "), message


@given(st.data())
@FUZZ
def test_mangled_graph_file_loads_or_names_its_line(tmp_path, data):
    lines = list(GRAPH)
    kind = data.draw(st.sampled_from(["empty", "truncated", "agent count", "garbage line"]))
    text = "\n".join(lines) + "\n"
    if kind == "empty":
        text = ""
    elif kind == "truncated":
        text = text[:data.draw(st.integers(0, len(text)))]
    elif kind == "agent count":
        k = next(k for k, line in enumerate(lines) if line.startswith("agents"))
        count = data.draw(st.one_of(st.integers(-5, 2 * GRAPH_AGENTS),
                                    st.sampled_from([10**9, 10**30]), GARBAGE))
        lines[k] = f"agents {count}"
        text = "\n".join(lines) + "\n"
    else:
        k = data.draw(st.integers(0, len(lines)))
        lines.insert(k, data.draw(GARBAGE))
        text = "\n".join(lines) + "\n"
    graph_path = str(tmp_path / "example2_graph.txt")
    with open(graph_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    path = _write(tmp_path, BASES["example2"], "example2.cfg")
    message = _load_or_error(path)
    if message is not None:
        assert re.match(rf"{re.escape(path)}: file: {re.escape(graph_path)}"
                        r"(:\d+: |: empty graph file)", message), message


@given(st.sampled_from(sorted(BASES)), st.data())
@FUZZ
def test_truncated_config_loads_or_is_named(tmp_path, base, data):
    text = "\n".join(BASES[base]) + "\n"
    path = str(tmp_path / f"{base}.cfg")
    shutil.copy(os.path.join(CONFIG_DIR, "example2_graph.txt"), tmp_path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[:data.draw(st.integers(0, len(text)))])
    message = _load_or_error(path)
    if message is not None:
        assert path in message and _names_key_or_line(message), message
