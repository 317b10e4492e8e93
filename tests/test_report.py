"""The JSON report's direct emitter against json.dumps.

`report.render_json` writes the report without json's pure-Python indent
encoder; its text must stay the bytes of
json.dumps(result_to_dict(...), indent=2, sort_keys=True).
"""
import json
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homapprox import approx as ap
from homapprox import report as rp
from homapprox.cli import parse_system_file, run_verification
from test_golden_reports import DEEP12, EARLY4, ROOT, WITNESS1

# the systems with a golden report: every benchmark system, and the
# one-state witness, order-12 and early-stopping systems
SYSTEMS = {
    path.stem: path.read_text() for path in sorted((ROOT / "perfbench" / "systems").glob("*.txt"))
}
SYSTEMS.update(witness1=WITNESS1, deep12=DEEP12, early4=EARLY4)


@lru_cache(maxsize=None)
def _result(name: str) -> ap.ApproximationResult:
    return ap.approximate(parse_system_file(SYSTEMS[name]))


@lru_cache(maxsize=None)
def _verification(name: str) -> dict:
    return run_verification(_result(name))


@pytest.mark.parametrize("verify", [False, True])
@pytest.mark.parametrize("mode", ["both", "nonautonomous", "autonomous"])
@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_render_json_is_the_json_dumps_text(name, mode, verify):
    result, verification = _result(name), _verification(name) if verify else None
    old = json.dumps(rp.result_to_dict(result, mode, verification), indent=2, sort_keys=True)
    assert rp.render_json(result, mode, verification) == old


strings = st.one_of(
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),  # control characters
    st.text(st.characters(min_codepoint=0x80)),  # non-ASCII
)
scalars = st.one_of(
    strings,
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(st.integers()),
        st.lists(strings),
        st.dictionaries(strings, inner),
    ),
    max_leaves=40,
)


@given(v=values)
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
def test_emitter_matches_json_dumps_property(v):
    out: list = []
    rp._emit(v, "", out)
    assert "".join(out) == json.dumps(v, indent=2, sort_keys=True)
