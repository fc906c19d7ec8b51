"""PENMAN notation parsing and serialization for AMR graphs.

An AMR is a rooted directed acyclic graph written in parenthesized PENMAN
form, e.g. ``(w / want-01 :ARG0 (b / boy))``.  Variables (``w``, ``b``)
bind nodes; a bare mention of an already-bound variable is a re-entrancy
(an extra edge into the existing node).  Role targets that never receive a
``(var / concept)`` binding are attribute literals (numbers, quoted
strings, polarity ``-`` and the like) and are stored verbatim, including
any quote marks.  An :class:`AmrGraph` checks that it is rooted,
connected and acyclic when it is built, so no later stage checks again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping

MAX_PARSE_DEPTH = 512

_VARIABLE_RE = re.compile(r"^[A-Za-z][A-Za-z0-9-]*$")
_SYMBOL_END = set(' \t\r\n()"/')


class PenmanError(ValueError):
    """Base class for PENMAN reader failures; carries a source offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class EmptyInput(PenmanError):
    pass


class UnbalancedParens(PenmanError):
    pass


class DuplicateVariableDefinition(PenmanError):
    pass


class CycleDetected(PenmanError):
    pass


class DepthLimitExceeded(PenmanError):
    pass


class InvalidGraph(ValueError):
    """Raised when a graph being built breaks an AmrGraph invariant."""


@dataclass(frozen=True)
class PenmanToken:
    """A lexical token with its character offset in the source text.

    ``kind`` is one of: open-paren, close-paren, variable, slash, role,
    concept, literal.  Bare symbols in role-target position are emitted as
    ``literal``; the parser promotes them to variable references when the
    symbol is bound somewhere in the same expression.
    """

    kind: str
    text: str
    position: int


Edge = tuple[str, str, str]
Attribute = tuple[str, str, str]


@dataclass(frozen=True)
class AmrGraph:
    """A rooted, connected, acyclic, ordered AMR graph.

    ``nodes`` maps node ids to concept labels (insertion order is the order
    of first definition).  ``edges`` and ``attributes`` keep the order in
    which they were written.  ``out_order`` records the interleaving of
    edges and attributes as ("edge"|"attr", list index) pairs in source
    order; it is derived data used to reproduce the original layout and is
    excluded from equality.

    Building one checks that the root, every edge end and every attribute
    source are nodes (else :class:`InvalidGraph` names each problem), that
    no edge path is a cycle (else :class:`CycleDetected`), and that the
    root reaches every node (else :class:`InvalidGraph`).  ``nodes`` is
    stored as a read-only copy, so a built graph cannot be broken later.
    """

    root: str
    nodes: Mapping[str, str]
    edges: tuple[Edge, ...]
    attributes: tuple[Attribute, ...] = ()
    out_order: tuple[tuple[str, int], ...] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "nodes", MappingProxyType(dict(self.nodes)))
        named = [("RootMissing", self.root)]
        for src, _, tgt in self.edges:
            named += [("DanglingEdgeSource", src), ("DanglingEdgeTarget", tgt)]
        named += [("DanglingAttributeSource", src) for src, _, _ in self.attributes]
        problems = [f"{kind}({name})" for kind, name in named if name not in self.nodes]
        if problems:
            raise InvalidGraph("; ".join(problems))
        children = self.children()
        cycle = _find_cycle(children)
        if cycle is not None:
            raise CycleDetected("cycle through " + " -> ".join(cycle))
        seen = {self.root}
        frontier = [self.root]
        while frontier:
            for nxt in children[frontier.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        unreachable = [f"UnreachableNode({n})" for n in self.nodes if n not in seen]
        if unreachable:
            raise InvalidGraph("; ".join(unreachable))

    def children(self) -> dict[str, list[str]]:
        """Each node's edge targets, in edge order."""
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for src, _, tgt in self.edges:
            adj[src].append(tgt)
        return adj

    def outgoing(self) -> dict[str, list[tuple[str, str, str | None]]]:
        """Per-node outgoing items as (role, target-or-literal, child-node-id).

        Items appear in source order when known, otherwise edges first and
        attributes second.  The third element is the target node id for
        edges and None for attributes.
        """
        order = self.out_order
        if order is None:
            order = tuple(("edge", i) for i in range(len(self.edges))) + tuple(
                ("attr", i) for i in range(len(self.attributes))
            )
        per_node: dict[str, list[tuple[str, str, str | None]]] = {n: [] for n in self.nodes}
        for kind, idx in order:
            if kind == "edge":
                src, role, tgt = self.edges[idx]
                per_node[src].append((role, tgt, tgt))
            else:
                src, role, value = self.attributes[idx]
                per_node[src].append((role, value, None))
        return per_node


def tokenize_penman(text: str) -> list[PenmanToken]:
    """Lex a PENMAN expression into tokens with source offsets."""
    tokens: list[PenmanToken] = []
    i, n = 0, len(text)
    # Context flags drive kind assignment: a symbol right after "(" is a
    # variable, right after "/" a concept, anywhere else a literal.
    prev_kind = None
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "(":
            tokens.append(PenmanToken("open-paren", "(", i))
            prev_kind = "open-paren"
            i += 1
        elif c == ")":
            tokens.append(PenmanToken("close-paren", ")", i))
            prev_kind = "close-paren"
            i += 1
        elif c == "/":
            tokens.append(PenmanToken("slash", "/", i))
            prev_kind = "slash"
            i += 1
        elif c == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1 if text[j] != "\\" else 2
            if j >= n:
                raise UnbalancedParens("unterminated string literal", i)
            tokens.append(PenmanToken("literal", text[i : j + 1], i))
            prev_kind = "literal"
            i = j + 1
        elif c == ":":
            j = i + 1
            while j < n and text[j] not in _SYMBOL_END:
                j += 1
            if j == i + 1:
                raise PenmanError("empty role name", i)
            tokens.append(PenmanToken("role", text[i:j], i))
            prev_kind = "role"
            i = j
        else:
            j = i
            while j < n and text[j] not in _SYMBOL_END:
                j += 1
            word = text[i:j]
            if prev_kind == "open-paren":
                kind = "variable"
            elif prev_kind == "slash":
                kind = "concept"
            else:
                kind = "literal"
            tokens.append(PenmanToken(kind, word, i))
            prev_kind = kind
            i = j
    return tokens


def _defined_variables(tokens: list[PenmanToken]) -> dict[str, int]:
    """Map each variable bound by ``( var / ...`` to its token index."""
    defined: dict[str, int] = {}
    for idx, tok in enumerate(tokens):
        if tok.kind == "variable":
            if tok.text in defined:
                raise DuplicateVariableDefinition(
                    f"variable {tok.text!r} defined twice", tok.position
                )
            defined[tok.text] = idx
    return defined


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize_penman(text)
        self.pos = 0
        self.defined = _defined_variables(self.tokens)
        self.nodes: dict[str, str] = {}
        self.edges: list[Edge] = []
        self.attributes: list[Attribute] = []
        self.out_order: list[tuple[str, int]] = []

    def peek(self) -> PenmanToken | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, kind: str | None = None) -> PenmanToken:
        tok = self.peek()
        if tok is None:
            raise UnbalancedParens("unexpected end of input", len(self.text))
        if kind is not None and tok.kind != kind:
            raise PenmanError(
                f"expected {kind}, found {tok.kind} {tok.text!r}", tok.position
            )
        self.pos += 1
        return tok

    def parse(self) -> AmrGraph:
        root = self.parse_node(depth=0)
        trailing = self.peek()
        if trailing is not None:
            if trailing.kind == "close-paren":
                raise UnbalancedParens("unmatched ')'", trailing.position)
            raise PenmanError(
                f"trailing content after graph: {trailing.text!r}", trailing.position
            )
        return AmrGraph(
            root=root,
            nodes=self.nodes,
            edges=tuple(self.edges),
            attributes=tuple(self.attributes),
            out_order=tuple(self.out_order),
        )

    def parse_node(self, depth: int) -> str:
        if depth >= MAX_PARSE_DEPTH:
            raise DepthLimitExceeded(f"nesting deeper than {MAX_PARSE_DEPTH}")
        self.next("open-paren")
        var_tok = self.next()
        if var_tok.kind != "variable" or not _VARIABLE_RE.match(var_tok.text):
            raise PenmanError(f"expected variable, found {var_tok.text!r}", var_tok.position)
        var = var_tok.text
        self.next("slash")
        concept = self.next("concept").text
        self.nodes[var] = concept
        while True:
            tok = self.peek()
            if tok is None:
                raise UnbalancedParens("missing ')'", len(self.text))
            if tok.kind == "close-paren":
                self.next()
                return var
            role = self.next("role").text
            target = self.peek()
            if target is None:
                raise UnbalancedParens("role without target", len(self.text))
            if target.kind == "open-paren":
                child = self.parse_node(depth + 1)
                self.out_order.append(("edge", len(self.edges)))
                self.edges.append((var, role, child))
            elif target.kind == "literal":
                self.next()
                if target.text[0] != '"' and target.text in self.defined:
                    # Bare symbol bound elsewhere in the expression: a
                    # re-entrant mention of that node.
                    self.out_order.append(("edge", len(self.edges)))
                    self.edges.append((var, role, target.text))
                else:
                    self.out_order.append(("attr", len(self.attributes)))
                    self.attributes.append((var, role, target.text))
            else:
                raise PenmanError(
                    f"invalid role target {target.text!r}", target.position
                )


def parse_penman(text: str) -> AmrGraph:
    """Parse a single PENMAN expression into an :class:`AmrGraph`."""
    if not text or not text.strip():
        raise EmptyInput("no PENMAN expression found", 0)
    return _Parser(text).parse()


def _find_cycle(adj: dict[str, list[str]]) -> list[str] | None:
    """Iterative DFS cycle search over an adjacency list whose targets are
    all keys; returns the node sequence of a cycle."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in adj}
    parent: dict[str, str] = {}
    for start in adj:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(adj[start]))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    cycle = [nxt, node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    parent[nxt] = node
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def serialize_penman(g: AmrGraph, indent: bool = False) -> str:
    """Write canonical PENMAN text for a graph.

    Each node is expanded at its first depth-first occurrence; later
    occurrences print the bare variable.  ``parse_penman`` on the result
    reproduces the node set, edge list, and per-node attribute order.
    """
    outgoing = g.outgoing()
    printed: set[str] = set()
    parts: list[str] = []

    def emit(node: str, depth: int) -> None:
        printed.add(node)
        parts.append(f"({node} / {g.nodes[node]}")
        for role, value, child in outgoing[node]:
            parts.append("\n" + "  " * (depth + 1) if indent else " ")
            parts.append(role + " ")
            if child is None:
                parts.append(value)
            elif child in printed:
                parts.append(child)
            else:
                emit(child, depth + 1)
        parts.append(")")

    emit(g.root, 0)
    return "".join(parts)


def iter_penman_blocks(text: str) -> Iterator[str]:
    """Yield PENMAN records from multi-graph text.

    A record ends where its parentheses balance, so both one-graph-per-line
    and blank-line-separated multi-line layouts work.  Comment lines
    (leading "#") between records are skipped.
    """
    block: list[str] = []
    depth = 0
    in_quote = False
    for line in text.splitlines():
        if not block and (not line.strip() or line.lstrip().startswith("#")):
            continue
        block.append(line)
        for ch in line:
            if ch == '"':
                in_quote = not in_quote
            elif not in_quote:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
        if depth <= 0 and any(l.strip() for l in block):
            yield "\n".join(block)
            block = []
            depth = 0
            in_quote = False
    if any(l.strip() for l in block):
        yield "\n".join(block)
