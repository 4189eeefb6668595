"""The library's error contract: a bad value raises `ValueError` or
`ArithmeticError`, never another exception.

`SolverTrace.from_json` gets the `json.dumps` of arbitrary JSON values and
of trace-shaped documents with up to two fields spoiled, and every trace
it returns goes to `verify_trace`.  `enumeration.step` gets stages of
nodes made of ints, bools, floats and strings.  Sizes stay small
(documents of a dozen leaves, colorings of at most 7 vertices, three
stages of four nodes).  Named cases pin the documents `to_json` never
writes and the node indexes `step` refuses, each checked in order."""

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsilon0.enumeration import MonotoneEnumeration, StepRejection, step
from epsilon0.ramsey import PairColoring, SolverTrace, TraceCheck, rt22_solve, verify_trace
from epsilon0.ramsey.instances import pair_count

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12)

#: Values of the JSON type `to_json` writes for each field annotation.
SHAPED = {
    "int": st.integers(-2, 8),
    "str": st.sampled_from(["ascending", "descending", "up"]),
    "Tuple[int, ...]": st.lists(st.integers(-2, 8), max_size=8),
    "Tuple[Tuple[int, int], ...]": st.lists(st.lists(st.integers(-2, 8), min_size=2, max_size=2),
                                            max_size=4),
}


@st.composite
def trace_documents(draw):
    """A document of every SolverTrace field, shaped as `to_json` writes
    it, then up to two fields dropped or replaced by any JSON value."""
    document = draw(st.fixed_dictionaries({f.name: SHAPED[f.type] for f in fields(SolverTrace)}))
    for name in draw(st.lists(st.sampled_from(sorted(document)), max_size=2)):
        if draw(st.booleans()):
            document.pop(name, None)
        else:
            document[name] = draw(JSON)
    return document


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.one_of(JSON, trace_documents()), st.integers(0, (1 << pair_count(7)) - 1))
def test_a_trace_document_is_verified_or_refused_with_a_value_error(document, bits):
    try:
        trace = SolverTrace.from_json(json.dumps(document))
    except (ValueError, ArithmeticError):
        return
    n = trace.n if 0 <= trace.n <= 7 else 3
    check = verify_trace(trace, PairColoring(n, bits & ((1 << pair_count(n)) - 1)))
    assert isinstance(check, TraceCheck)


def _spoiled(**changes):
    """The JSON of a real trace with some fields replaced (None: dropped)."""
    document = json.loads(rt22_solve(PairColoring(4, 0b101101)).to_json())
    document.update(changes)
    return json.dumps({k: v for k, v in document.items() if v is not None})


@pytest.mark.parametrize("text", [
    "{}", "[]", "null", "3", '"n"', _spoiled(n=None), _spoiled(cohesive_set=None),
    _spoiled(cohesive_set="[0, 1]"), _spoiled(n=True), _spoiled(window=1.0),
    _spoiled(final_color=[0]), _spoiled(monotone_direction=1),
    _spoiled(cohesive_sides=[True, 0, 1, 0]), _spoiled(transitive_steps=[[0, 1, 1]]),
    _spoiled(transitive_steps=[0, 1]), _spoiled(final_set=[0, 1.5]),
])
def test_a_document_that_to_json_never_writes_is_a_value_error(text):
    with pytest.raises(ValueError, match="^a trace is a JSON object with field"):
        SolverTrace.from_json(text)


def test_a_real_trace_with_other_keys_is_read():
    assert SolverTrace.from_json(_spoiled(extra=[1])) == rt22_solve(PairColoring(4, 0b101101))


def test_a_trace_nested_past_the_recursion_limit_is_a_value_error():
    for text in ("[" * 100_000, '{"n":' * 100_000):
        try:
            SolverTrace.from_json(text)
        except ValueError:
            continue
        raise AssertionError(f"{text[:10]}... was read")


@pytest.mark.parametrize("node", [(-1,), ("a",), (0.5,), (True,), (0, -1), (0, 1.0)])
def test_an_added_node_whose_last_index_is_no_non_negative_int_is_a_value_error(node):
    start = step(MonotoneEnumeration.initial(), [(0,)])
    with pytest.raises(ValueError, match="an index must be a non-negative int"):
        step(start, [(0, 0), node, (0, 1)])
    # checked in `additions` order: a node rejected before it returns first
    assert isinstance(step(start, [(0, 0, 0), node]), StepRejection)


NODE_ITEMS = st.integers(-2, 4) | st.booleans() | st.floats() | st.text(max_size=2)


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.lists(st.lists(st.lists(NODE_ITEMS, max_size=3).map(tuple), max_size=4), max_size=3))
def test_a_stage_of_any_nodes_is_stepped_or_refused_with_a_value_error(stages):
    enum = MonotoneEnumeration.initial()
    for additions in stages:
        try:
            result = step(enum, additions)
        except (ValueError, ArithmeticError):
            return
        if isinstance(result, StepRejection):
            return
        enum = result
        # what is enumerated equals a node of non-negative ints
        for node in enum.current.nodes:
            assert node == tuple(map(int, node)) and min(node, default=0) >= 0, node
