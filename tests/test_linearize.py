"""Linearization and graph feature tests.

The worked example (want-01) is checked token by token against values
derived by hand; random graphs are checked against the brute-force
BFS/DFS oracles and the reference alignment walk in oracles.py.
"""

import numpy as np
import pytest

import oracles
from amr2text import graph
from amr2text.graph import AmrGraph, InvalidGraph, parse_penman
from amr2text.linearize import (
    AlreadyHasLanguageToken,
    LinearizedAmr,
    compute_node_features,
    linearize_for_language,
    prepend_language_token,
    read_linearized,
    write_linearized,
)
from amr2text.model import EncoderInput, ModelConfig, build, encode

WANT = "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))"

# Feature tables far smaller than the graphs below, so bucketing shows.
SMALL_TABLES = ModelConfig(
    enc_vocab=4, dec_vocab=4, d_model=8, n_heads=2, ffn_dim=8, enc_layers=1,
    dec_layers=1, max_positions=64, depth_buckets=8, subgraph_buckets=8,
    d_word=4, d_pos=4, d_depth=4, d_subgraph=4,
)


def _memory(depth_ids, subgraph_ids) -> np.ndarray:
    n = len(depth_ids)
    enc_in = EncoderInput(np.zeros(n, dtype=np.int64), np.asarray(depth_ids),
                          np.asarray(subgraph_ids))
    memory, _ = encode(build(SMALL_TABLES, seed=0), enc_in)
    return memory.data


def _via_files(tmp_path, lin: LinearizedAmr) -> LinearizedAmr:
    tpath, fpath = tmp_path / "g.lin", tmp_path / "g.lin.feat"
    write_linearized(tpath, fpath, [lin])
    return read_linearized(tpath, fpath)[0]


def test_linearize_want_example_tokens():
    lin = linearize_for_language(parse_penman(WANT))
    assert list(lin.tokens) == [
        "(", "want-01", ":ARG0", "(", "boy", ")",
        ":ARG1", "(", "go-02", ":ARG0", "boy", ")", ")",
    ]


def test_want_example_features():
    lin = linearize_for_language(parse_penman(WANT))
    assert list(lin.depth_ids) == [0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 1, 0]
    assert list(lin.subgraph_ids) == [0, 0, 0, 1, 1, 1, 0, 2, 2, 2, 1, 2, 0]


def test_reentrant_mention_aligned_to_target_node():
    lin = linearize_for_language(parse_penman(WANT))
    # second "boy" token comes from the re-entrant edge and carries the boy
    # node's features (subtree 1), not go-02's (subtree 2)
    idx = len(lin.tokens) - 1 - list(reversed(lin.tokens)).index("boy")
    go = lin.tokens.index("go-02")
    assert (lin.depth_ids[idx], lin.subgraph_ids[idx]) == (lin.depth_ids[4], lin.subgraph_ids[4])
    assert lin.subgraph_ids[idx] != lin.subgraph_ids[go]


def test_interleaved_items_linearize_in_source_order():
    lin = linearize_for_language(parse_penman("(w / want-01 :polarity - :ARG0 (b / boy))"))
    assert list(lin.tokens) == ["(", "want-01", ":polarity", "-", ":ARG0", "(", "boy", ")", ")"]


def test_attributes_linearize_as_role_plus_literal():
    lin = linearize_for_language(parse_penman('(c / city :name (n / name :op1 "Zintan"))'))
    assert '"Zintan"' in lin.tokens
    i = lin.tokens.index('"Zintan"')
    assert lin.tokens[i - 1] == ":op1"


def test_multiword_literal_splits_with_replicated_features():
    lin = linearize_for_language(parse_penman('(c / city :name (n / name :op1 "New York"))'))
    i = lin.tokens.index('"New')
    assert lin.tokens[i + 1] == 'York"'
    assert lin.depth_ids[i] == lin.depth_ids[i + 1] == lin.depth_ids[i - 1]
    assert lin.subgraph_ids[i] == lin.subgraph_ids[i + 1] == lin.subgraph_ids[i - 1]


def test_parens_balanced_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lin = linearize_for_language(oracles.random_graph(rng))
        depth = 0
        for tok in lin.tokens:
            depth += {"(": 1, ")": -1}.get(tok, 0)
            assert depth >= 0
        assert depth == 0


def test_features_match_oracle_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        g = oracles.random_graph(rng)
        nf = compute_node_features(g)
        assert nf.depth == oracles.oracle_depth(g)
        assert nf.subgraph == oracles.oracle_subgraph(g)


def test_token_features_follow_oracle_alignment():
    rng = np.random.default_rng(13)
    for _ in range(200):
        g = oracles.random_graph(rng)
        tokens, alignment = oracles.oracle_alignment(g)
        depth, subgraph = oracles.oracle_depth(g), oracles.oracle_subgraph(g)
        lin = linearize_for_language(g)
        assert list(lin.tokens) == tokens
        assert list(lin.depth_ids) == [depth[v] for v in alignment]
        assert list(lin.subgraph_ids) == [subgraph[v] for v in alignment]


def test_each_graph_validated_once(monkeypatch):
    """Parsing, linearizing and re-serializing one graph searches it for
    cycles once, when it is built; a graph that breaks an invariant cannot
    be built at all."""
    calls = []
    real = graph._find_cycle
    monkeypatch.setattr(graph, "_find_cycle", lambda adj: calls.append(adj) or real(adj))
    g = parse_penman(WANT)
    linearize_for_language(g, "en")
    graph.serialize_penman(g)
    assert len(calls) == 1
    with pytest.raises(InvalidGraph, match="DanglingEdgeTarget"):
        AmrGraph(root="w", nodes={"w": "want-01"}, edges=(("w", ":ARG0", "b"),))


def test_depth_bucket_clamps(tmp_path):
    # a chain deeper than the model's depth table
    n = SMALL_TABLES.depth_buckets + 5
    parts = ["(v0 / c0"]
    for i in range(1, n):
        parts.append(f":ARG0 (v{i} / c{i}")
    lin = _via_files(tmp_path, linearize_for_language(parse_penman(" ".join(parts) + ")" * n)))
    assert max(lin.depth_ids) == n - 1  # raw depth in the file
    clamped = np.minimum(lin.depth_ids, SMALL_TABLES.depth_buckets)
    np.testing.assert_array_equal(
        _memory(lin.depth_ids, lin.subgraph_ids), _memory(clamped, lin.subgraph_ids)
    )


def test_subgraph_bucket_clamps(tmp_path):
    n = SMALL_TABLES.subgraph_buckets + 3
    kids = " ".join(f":op{i} (k{i} / c{i})" for i in range(n))
    lin = _via_files(tmp_path, linearize_for_language(parse_penman(f"(r / root {kids})")))
    assert max(lin.subgraph_ids) == n  # raw subtree index in the file
    clamped = np.minimum(lin.subgraph_ids, SMALL_TABLES.subgraph_buckets)
    np.testing.assert_array_equal(
        _memory(lin.depth_ids, lin.subgraph_ids), _memory(lin.depth_ids, clamped)
    )


def test_language_token_prepended_with_zero_features():
    g = parse_penman(WANT)
    lin = linearize_for_language(g, "de")
    assert lin.tokens[0] == "<lang:de>"
    assert lin.depth_ids[0] == 0 and lin.subgraph_ids[0] == 0
    plain = linearize_for_language(g)
    assert (lin.tokens[1:], lin.depth_ids[1:], lin.subgraph_ids[1:]) == (
        plain.tokens, plain.depth_ids, plain.subgraph_ids
    )


def test_double_language_token_rejected():
    lin = linearize_for_language(parse_penman(WANT), "en")
    with pytest.raises(AlreadyHasLanguageToken):
        prepend_language_token(lin, "de")


def test_unknown_language_rejected():
    with pytest.raises(Exception):
        linearize_for_language(parse_penman(WANT), "tlh")


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    examples = [
        linearize_for_language(oracles.random_graph(rng), lang)
        for lang in ("en", "de", "it", "es", "en")
    ]
    tpath, fpath = tmp_path / "lin.tok", tmp_path / "lin.feat"
    write_linearized(tpath, fpath, examples)
    back = read_linearized(tpath, fpath)
    assert len(back) == len(examples)
    for a, b in zip(examples, back):
        assert b.tokens == a.tokens
        assert b.depth_ids == a.depth_ids
        assert b.subgraph_ids == a.subgraph_ids


def _write_pair(tmp_path, token_lines, feature_lines):
    tpath, fpath = tmp_path / "g.lin", tmp_path / "g.lin.feat"
    tpath.write_text("".join(line + "\n" for line in token_lines), encoding="utf-8")
    fpath.write_text("".join(line + "\n" for line in feature_lines), encoding="utf-8")
    return tpath, fpath


def test_feature_without_colon_names_file_and_line(tmp_path):
    tpath, fpath = _write_pair(tmp_path, ["( a )", "( b )"], ["0:0 0:0 0:0", "0:0 00 0:0"])
    with pytest.raises(ValueError) as info:
        read_linearized(tpath, fpath)
    assert str(info.value) == f"{fpath}: line 2: feature '00' is not depth:subgraph"


def test_non_integer_feature_names_file_and_line(tmp_path):
    tpath, fpath = _write_pair(tmp_path, ["( a )"], ["0:0 a:0 0:0"])
    with pytest.raises(ValueError) as info:
        read_linearized(tpath, fpath)
    assert str(info.value) == f"{fpath}: line 1: feature 'a:0' is not depth:subgraph"


def test_feature_count_mismatch_names_file_and_line(tmp_path):
    tpath, fpath = _write_pair(tmp_path, ["( a )", "( b )", "( c )"],
                               ["0:0 0:0 0:0", "0:0 0:0 0:0", "0:0 0:0"])
    with pytest.raises(ValueError) as info:
        read_linearized(tpath, fpath)
    assert str(info.value) == f"{fpath}: line 3: 2 features for 3 tokens"


def test_line_count_mismatch_names_both_files_and_counts(tmp_path):
    tpath, fpath = _write_pair(tmp_path, ["( a )", "( b )"], ["0:0 0:0 0:0"])
    with pytest.raises(ValueError) as info:
        read_linearized(tpath, fpath)
    assert str(info.value) == f"{tpath} has 2 lines but {fpath} has 1"


def test_feature_length_mismatch_rejected():
    with pytest.raises(ValueError):
        LinearizedAmr(tokens=("(", "x", ")"), depth_ids=(0, 0), subgraph_ids=(0, 0, 0))
