import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amr2text.graph import (
    AmrGraph,
    CycleDetected,
    DepthLimitExceeded,
    DuplicateVariableDefinition,
    EmptyInput,
    InvalidGraph,
    PenmanError,
    UnbalancedParens,
    iter_penman_blocks,
    parse_penman,
    serialize_penman,
    tokenize_penman,
)

from oracles import random_graph

WANT = "(w / want-01 :ARG0 (b / boy) :ARG1 (g / go-02 :ARG0 b))"


def test_parse_want_example_structure():
    g = parse_penman(WANT)
    assert g.root == "w"
    assert g.nodes == {"w": "want-01", "b": "boy", "g": "go-02"}
    assert set(g.edges) == {
        ("w", ":ARG0", "b"),
        ("w", ":ARG1", "g"),
        ("g", ":ARG0", "b"),
    }
    # written order is tracked per node, not in the global edge tuple
    assert [(r, c) for r, _, c in g.outgoing()["w"]] == [(":ARG0", "b"), (":ARG1", "g")]
    assert g.attributes == ()


def test_reentrancy_is_second_incoming_edge():
    g = parse_penman(WANT)
    incoming = [e for e in g.edges if e[2] == "b"]
    assert len(incoming) == 2


def test_attributes_kept_verbatim_with_quotes():
    g = parse_penman('(n / name :op1 "New" :op2 "York" :year 2002)')
    assert g.attributes == (
        ("n", ":op1", '"New"'),
        ("n", ":op2", '"York"'),
        ("n", ":year", "2002"),
    )


def test_negative_polarity_attribute():
    g = parse_penman("(p / possible-01 :polarity -)")
    assert g.attributes == (("p", ":polarity", "-"),)


def test_bare_symbol_matching_no_variable_is_attribute():
    g = parse_penman("(s / sleep-01 :mode imperative)")
    assert g.attributes == (("s", ":mode", "imperative"),)
    assert g.edges == ()


def test_parse_errors():
    with pytest.raises(EmptyInput):
        parse_penman("   ")
    with pytest.raises(UnbalancedParens):
        parse_penman("(a / alpha")
    with pytest.raises(UnbalancedParens):
        parse_penman("(a / alpha))")
    with pytest.raises(DuplicateVariableDefinition):
        parse_penman("(a / x :ARG0 (a / y))")
    with pytest.raises(CycleDetected):
        parse_penman("(a / x :ARG0 (b / y :ARG0 a))")
    with pytest.raises(PenmanError):
        parse_penman('(a / x :ARG0 (b / y :ARG1 "unterminated))')


def test_depth_limit():
    deep = ""
    for i in range(600):
        deep += f"(v{i} / c :ARG0 "
    deep += "(leaf / stop)" + ")" * 600
    with pytest.raises(DepthLimitExceeded):
        parse_penman(deep)


def test_error_carries_offset():
    try:
        parse_penman("(a / alpha")
    except PenmanError as err:
        assert isinstance(err.offset, int)
    else:
        pytest.fail("expected PenmanError")


def test_tokenizer_kinds():
    toks = tokenize_penman('(w / want-01 :ARG0 b :op1 "New York")')
    kinds = [(t.kind, t.text) for t in toks]
    assert ("variable", "w") in kinds
    assert ("concept", "want-01") in kinds
    assert ("role", ":ARG0") in kinds
    assert ("literal", '"New York"') in kinds  # quotes kept, spaces inside intact


def test_serialize_reentrant_uses_bare_variable():
    g = parse_penman(WANT)
    assert serialize_penman(g) == WANT


def test_serialize_indent_round_trips():
    g = parse_penman(WANT)
    text = serialize_penman(g, indent=True)
    assert "\n" in text
    assert parse_penman(text) == g


def test_validate_reports_dangling_and_unreachable():
    """Building a graph names every dangling end at once; unreachable nodes
    are looked for only once every end is a node."""
    with pytest.raises(InvalidGraph) as info:
        AmrGraph(root="a", nodes={"a": "x", "b": "y"},
                 edges=(("a", ":ARG0", "b"), ("ghost", ":ARG1", "b"), ("a", ":ARG2", "void")),
                 attributes=(("c", ":mod", "1"),))
    assert str(info.value) == (
        "DanglingEdgeSource(ghost); DanglingEdgeTarget(void); DanglingAttributeSource(c)"
    )
    with pytest.raises(InvalidGraph) as info:
        AmrGraph(root="a", nodes={"a": "x", "b": "y", "c": "z"},
                 edges=(("a", ":ARG0", "b"), ("c", ":ARG1", "b")))
    assert str(info.value) == "UnreachableNode(c)"


def test_validate_root_missing():
    with pytest.raises(InvalidGraph) as info:
        AmrGraph(root="zz", nodes={"a": "x"}, edges=())
    assert str(info.value) == "RootMissing(zz)"


def test_validate_cycle_as_parse_penman_reports_it():
    with pytest.raises(CycleDetected) as built:
        AmrGraph(root="a", nodes={"a": "x", "b": "y"},
                 edges=(("a", ":ARG0", "b"), ("b", ":ARG1", "a")))
    with pytest.raises(CycleDetected) as parsed:
        parse_penman("(a / x :ARG0 (b / y :ARG0 a))")
    assert str(built.value) == str(parsed.value) == "cycle through a -> b -> a"


def test_children_follow_edge_order():
    g = parse_penman('(d / date-entity :ARG1 (m / month) :value 2002 :ARG0 (y / year :ARG2 m))')
    assert g.children() == {"d": ["m", "y"], "m": [], "y": ["m"]}


def test_built_graph_cannot_be_broken():
    g = parse_penman("(w / want-01 :ARG0 (b / boy))")
    with pytest.raises(TypeError):
        del g.nodes["b"]
    with pytest.raises(TypeError):
        g.nodes["x"] = "extra"
    nodes = {"w": "want-01", "b": "boy"}
    built = AmrGraph(root="w", nodes=nodes, edges=(("w", ":ARG0", "b"),))
    del nodes["b"]  # the graph holds its own copy
    assert built == g and dict(g.nodes) == {"w": "want-01", "b": "boy"}


def test_iter_blocks_one_per_line():
    text = "(a / x)\n(b / y)\n(c / z)\n"
    assert len(list(iter_penman_blocks(text))) == 3


def test_iter_blocks_multiline_with_comments():
    text = "# header\n(a / x\n   :ARG0 (b / y))\n\n# two\n(c / z)"
    blocks = list(iter_penman_blocks(text))
    assert len(blocks) == 2
    assert parse_penman(blocks[0]).root == "a"
    assert parse_penman(blocks[1]).root == "c"


def test_round_trip_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        g0 = random_graph(rng)
        g1 = parse_penman(serialize_penman(g0))
        g2 = parse_penman(serialize_penman(g1))
        assert g1 == g2


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    g0 = random_graph(rng)
    text = serialize_penman(g0)
    g1 = parse_penman(text)
    assert serialize_penman(g1) == text
    assert parse_penman(serialize_penman(g1)) == g1


def test_outgoing_preserves_interleaved_order():
    g = parse_penman('(d / date-entity :ARG0 (y / year) :value 2002 :ARG1 (m / month))')
    items = g.outgoing()["d"]
    assert [role for role, _, _ in items] == [":ARG0", ":value", ":ARG1"]
    assert [child for _, _, child in items] == ["y", None, "m"]
