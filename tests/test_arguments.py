"""One table over the library's public integer and seed parameters.

Every row names a parameter and calls a public entry point with a value
for it.  A bool, a float (even a whole one), a str, None, a value just
below the parameter's range or, for a seed, 2**64 raises a `ValueError`
whose message starts with the parameter's name; a numpy integer gives the
result of the same Python int.  The `searchcost` sizes have the same cases
in their own table, `tests/test_searchcost.py::test_sizes_must_be_integers_at_least_one`.
"""

from __future__ import annotations

import ast
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import addrloc
from addrloc.cachesim import POLICIES, lru_curve_from_distances, simulate, sweep
from addrloc.locality import concentration_curve, stack_distances, working_set
from addrloc.searchcost import normalized_search_time
from addrloc.synth import Cyclic, GeneratorSpec, Interleave, Irm, LruStackModel, UniformIrm, generate

_SEQ = [0, 1, 2, 0, 3, 1, 0, 2]
_HIST = stack_distances(_SEQ)[1]

# The values below each rule's range, and the numpy types that must act
# as Python ints there.
_POSITIVE = ([0, -1], (np.int64, np.int32))
_NONNEGATIVE = ([-1], (np.int64, np.int32))
_SEED = ([-1, 2**64], (np.int64, np.uint64))
_NOT_INTEGERS = [True, np.True_, 2.5, 2.0, np.float64(3.0), "2", None]


def _trace(model, length=6, seed=1):
    return generate(GeneratorSpec(model, length, seed))


# (id, parameter, rule, a value in range, call)
_ROWS = [
    ("working_set", "window", _POSITIVE, 2, lambda v: working_set(_SEQ, v)),
    *(
        (f"sweep-{p}", "capacity", _POSITIVE, 2, lambda v, p=p: sweep(_SEQ, p, [3, v]))
        for p in POLICIES
    ),
    *((f"simulate-{p}", "capacity", _POSITIVE, 2, lambda v, p=p: simulate(_SEQ, p, v)) for p in POLICIES),
    (
        "lru_curve_from_distances", "capacity", _POSITIVE, 2,
        lambda v: lru_curve_from_distances(_HIST, [3, v]),
    ),
    ("UniformIrm", "n_addresses", _POSITIVE, 3, lambda v: _trace(UniformIrm(v))),
    ("Cyclic", "k", _POSITIVE, 3, lambda v: _trace(Cyclic(v))),
    (
        "Interleave", "pattern entry", _POSITIVE, 2,
        lambda v: _trace(Interleave((Cyclic(2), Cyclic(3)), (1, v))),
    ),
    ("GeneratorSpec", "length", _NONNEGATIVE, 5, lambda v: _trace(Cyclic(3), v)),
    ("GeneratorSpec", "seed", _SEED, 7, lambda v: _trace(UniformIrm(5), 20, v)),
    *(
        (f"sweep-{p}", "seed", _SEED, 7, lambda v, p=p: sweep(_SEQ, p, [2, 3], seed=v))
        for p in POLICIES
    ),
    *((f"simulate-{p}", "seed", _SEED, 7, lambda v, p=p: simulate(_SEQ, p, 2, seed=v)) for p in POLICIES),
    ("hits", "distance", _NONNEGATIVE, 2, _HIST.hits),
    ("pdf", "distance", _NONNEGATIVE, 2, _HIST.pdf),
    ("cdf", "distance", _NONNEGATIVE, 2, _HIST.cdf),
]
_ROW_IDS = [f"{row[0]}-{row[1]}" for row in _ROWS]


@pytest.mark.parametrize(
    "parameter, call, bad",
    [
        pytest.param(parameter, call, bad, id=f"{row_id}-{bad!r}")
        for row_id, (_, parameter, (below, _types), _good, call) in zip(_ROW_IDS, _ROWS)
        for bad in (*_NOT_INTEGERS, *below)
    ],
)
def test_bad_values_raise_a_value_error_naming_the_parameter(parameter, call, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(parameter)} must be an integer "):
        call(bad)


@pytest.mark.parametrize("row", _ROWS, ids=_ROW_IDS)
def test_numpy_integers_act_as_python_ints(row):
    _, _, (_, numpy_types), good, call = row
    want = call(good)
    for numpy_type in numpy_types:
        assert call(numpy_type(good)) == want


def test_models_and_specs_hold_python_ints():
    spec = GeneratorSpec(Interleave((UniformIrm(np.int64(3)), Cyclic(np.int32(2))), [1, np.int64(2)]),
                         np.int64(5), np.uint64(2**64 - 1))
    assert spec == GeneratorSpec(Interleave((UniformIrm(3), Cyclic(2)), (1, 2)), 5, 2**64 - 1)
    fields = [spec.length, spec.seed, *spec.model.pattern, spec.model.parts[0].n_addresses,
              spec.model.parts[1].k]
    assert all(type(value) is int for value in fields)
    with pytest.raises(ValueError, match=r"^n_addresses must be at most 2\*\*64, got "):
        UniformIrm(2**64 + 1)


def test_distance_zero_has_no_share():
    assert _HIST.hits(0) == 0 and _HIST.pdf(0) == _HIST.cdf(0) == 0.0


@pytest.mark.parametrize(
    "call, message, bad",
    [
        pytest.param(call, message, bad, id=f"{name}-{bad!r}")
        for name, call, message, extra in [
            (
                "quantile", lambda v: concentration_curve(_SEQ).quantile(v),
                r"^frame quantile must be in \(0, 1\], got ", [0],
            ),
            (
                "normalized_search_time", lambda v: normalized_search_time(v, 1, 2),
                r"^miss ratio must be in \[0, 1\], got ", [],
            ),
        ]
        for bad in [True, np.True_, "0.5", None, 0.5j, float("nan"), -0.25, 1.5, *extra]
    ],
)
def test_fractions_are_real_numbers_in_their_interval(call, message, bad):
    # True once read as 1.0: quantile(True) gave 1.0, normalized_search_time(True, 1, 2) 1.5.
    with pytest.raises(ValueError, match=message):
        call(bad)
    assert call(np.float64(0.5)) == call(0.5)


@pytest.mark.parametrize("model", [Irm, LruStackModel])
@pytest.mark.parametrize(
    "pmf",
    [(True,), (np.True_,), ("0.5", "0.5"), (None, 1.0), (0.5j, 0.5), (float("nan"), 1.0),
     (float("inf"), 1.0), (1.5, -0.5)],
    ids=repr,
)
def test_pmf_entries_are_finite_nonnegative_reals(model, pmf):
    # (True,) was once the pmf (1.0,), and ("0.5", "0.5") raised Python's TypeError.
    with pytest.raises(ValueError, match=r"^pmf entry must be a finite real number >= 0, got "):
        model(pmf)


@pytest.mark.parametrize("model", [Irm, LruStackModel])
def test_a_pmf_is_stored_as_a_tuple_of_floats(model):
    # A list pmf was once kept as given, so the frozen model could not be hashed.
    built = model([np.float32(0.5), Fraction(1, 4), np.int64(0), 0.25])
    assert built == model((0.5, 0.25, 0.0, 0.25))
    assert all(type(p) is float for p in built.pmf)
    assert hash(built) == hash(model([0.5, 0.25, 0, 0.25]))


def _rule_writers(source: str) -> list[int]:
    """Lines that use `np.issubdtype` or `operator.index`, however imported."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and (
            node.attr == "issubdtype"
            or node.attr == "index" and isinstance(node.value, ast.Name) and node.value.id == "operator"
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
            alias.name == "issubdtype" or node.module == "operator" and alias.name == "index"
            for alias in node.names
        ):
            lines.append(node.lineno)
    return lines


def test_only_checks_writes_the_integer_rules():
    # A module that tests dtypes or calls operator.index itself would grow
    # its own copy of a rule that `_checks` states once.
    package = Path(addrloc.__file__).parent
    found = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if path.name != "_checks.py" and (lines := _rule_writers(path.read_text(encoding="utf-8")))
    }
    assert found == {}
    assert _rule_writers((package / "_checks.py").read_text(encoding="utf-8"))
