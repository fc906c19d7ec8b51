"""Linearization with per-token graph features.

The encoder consumes AMR as a flat token sequence: a depth-first pre-order
walk that keeps parentheses and role tokens but drops variable names and
the ``/`` instance-of separator.  Re-entrant nodes are rendered as a bare
repetition of their concept.  Every token additionally carries two small
integers, the depth of its governing node below the root and the index of
the root subtree containing that node, which the model embeds alongside
word and position.  The ids are raw; the model clamps them to the size of
its feature embedding tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import AmrGraph
from .langs import check_language, is_lang_token, lang_token


class AlreadyHasLanguageToken(ValueError):
    pass


@dataclass(frozen=True)
class NodeFeatures:
    """Per-node depth (hops from root) and root-subtree index."""

    depth: dict[str, int]
    subgraph: dict[str, int]


@dataclass(frozen=True)
class LinearizedAmr:
    """A token sequence with per-token depth and subgraph ids."""

    tokens: tuple[str, ...]
    depth_ids: tuple[int, ...]
    subgraph_ids: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.tokens) == len(self.depth_ids) == len(self.subgraph_ids)):
            raise ValueError("tokens and feature lists must align")


def compute_node_features(g: AmrGraph) -> NodeFeatures:
    """Depth by BFS from the root; subgraph by first covering root subtree.

    A non-root node's subgraph id is 1 + the index (in the root's outgoing
    edge order) of the first root child from which the node is reachable.
    """
    adj = g.children()
    depth = {g.root: 0}
    frontier = [g.root]
    while frontier:
        nxt_frontier: list[str] = []
        for node in frontier:
            for child in adj[node]:
                if child not in depth:
                    depth[child] = depth[node] + 1
                    nxt_frontier.append(child)
        frontier = nxt_frontier

    subgraph = {g.root: 0}
    for index, child in enumerate(adj[g.root], start=1):
        # Skipping a claimed node is exact: all below it was claimed with it.
        stack = [child]
        while stack:
            node = stack.pop()
            if node not in subgraph:
                subgraph[node] = index
                stack.extend(adj[node])
    return NodeFeatures(depth=depth, subgraph=subgraph)


def prepend_language_token(lin: LinearizedAmr, lang: str) -> LinearizedAmr:
    """Prefix the target-language token; it carries zero feature ids."""
    check_language(lang)
    if lin.tokens and is_lang_token(lin.tokens[0]):
        raise AlreadyHasLanguageToken(lin.tokens[0])
    token = lang_token(lang)
    return LinearizedAmr(
        tokens=(token,) + lin.tokens,
        depth_ids=(0,) + lin.depth_ids,
        subgraph_ids=(0,) + lin.subgraph_ids,
    )


def linearize_for_language(g: AmrGraph, lang: str | None = None) -> LinearizedAmr:
    """Flatten a graph to tokens and raw feature ids in one DFS pre-order
    walk, then prefix the language token if ``lang`` is given.

    At node entry emit "(" and the concept; per outgoing item emit the role
    token then the child rendering (a parenthesized subtree on first visit,
    the bare concept on re-entrant mention, the literal for attributes);
    emit ")" at exit.  A token's ids are those of its governing node: parens
    and concepts belong to their node, a re-entrant mention to the node it
    names, roles and attribute literals to the edge's source node.  Literals
    with internal whitespace split into one token per word (all governed by
    the source node) so the space-joined file layout stays invertible.
    """
    nf = compute_node_features(g)
    outgoing = g.outgoing()
    tokens: list[str] = []
    depth_ids: list[int] = []
    subgraph_ids: list[int] = []
    visited: set[str] = set()

    def emit(token: str, node: str) -> None:
        tokens.append(token)
        depth_ids.append(nf.depth[node])
        subgraph_ids.append(nf.subgraph[node])

    def walk(node: str) -> None:
        visited.add(node)
        emit("(", node)
        emit(g.nodes[node], node)
        for role, value, child in outgoing[node]:
            emit(role, node)
            if child is None:
                for piece in value.split():
                    emit(piece, node)
            elif child in visited:
                emit(g.nodes[child], child)
            else:
                walk(child)
        emit(")", node)

    walk(g.root)
    lin = LinearizedAmr(tuple(tokens), tuple(depth_ids), tuple(subgraph_ids))
    return lin if lang is None else prepend_language_token(lin, lang)


def write_linearized(token_path, feature_path, examples: Iterable[LinearizedAmr]) -> None:
    """One example per line of space-joined tokens; parallel "d:s" features."""
    with open(token_path, "w", encoding="utf-8") as tf, open(
        feature_path, "w", encoding="utf-8"
    ) as ff:
        for lin in examples:
            tf.write(" ".join(lin.tokens) + "\n")
            ff.write(" ".join(f"{d}:{s}" for d, s in zip(lin.depth_ids, lin.subgraph_ids)) + "\n")


def _feature_pair(item: str, where: str) -> tuple[int, int]:
    try:
        depth, subgraph = item.split(":")
        return int(depth), int(subgraph)
    except ValueError:
        raise ValueError(f"{where}: feature {item!r} is not depth:subgraph") from None


def read_linearized(token_path, feature_path) -> list[LinearizedAmr]:
    with open(token_path, encoding="utf-8") as tf:
        token_lines = tf.read().splitlines()
    with open(feature_path, encoding="utf-8") as ff:
        feature_lines = ff.read().splitlines()
    if len(token_lines) != len(feature_lines):
        raise ValueError(
            f"{token_path} has {len(token_lines)} lines but {feature_path} "
            f"has {len(feature_lines)}"
        )
    out: list[LinearizedAmr] = []
    for lineno, (tline, fline) in enumerate(zip(token_lines, feature_lines), start=1):
        tokens, items = tuple(tline.split()), fline.split()
        where = f"{feature_path}: line {lineno}"
        if len(items) != len(tokens):
            raise ValueError(f"{where}: {len(items)} features for {len(tokens)} tokens")
        pairs = [_feature_pair(item, where) for item in items]
        out.append(
            LinearizedAmr(
                tokens=tokens,
                depth_ids=tuple(d for d, _ in pairs),
                subgraph_ids=tuple(s for _, s in pairs),
            )
        )
    return out
