"""The offline gates, run on a handful of components.

``gate_eval.py`` and ``gate_spans.py`` are run by hand and take minutes;
here their per-component comparisons run on a few components each, so a
rename in ``conftest`` or ``wittid`` that would break a gate fails the
suite instead, and a comparison that stops telling spans apart does too.
"""

import gate_eval
import gate_spans
import pytest
from conftest import oracle_rows

from wittid.fields import Field
from wittid.linalg import SubspaceBasis
from wittid.models import parse_model
from wittid.tideal import SpanMemo, u1_family, w1_family

FIELDS = [Field.gf(2), Field.gf(3)]
fields = pytest.mark.parametrize("field", FIELDS, ids=str)

EVAL_COMPONENTS = [
    ("u1", (1,)), ("u1", (1, 2, 3)), ("w1", (-1, 0, 2)), ("w1", (-2, 1)),
    ("ut3:0:2", (0, 2, 2)), ("ut3:-1:1", (-1, 1)), ("u1", (-1, 0, 1, 1, 2, 3)),
]
SPAN_COMPONENTS = [(1,), (0, 1), (-1, 1, 2), (1, 2, 2, 2)]


@fields
def test_eval_gate_compares_components(field):
    for spec, degrees in EVAL_COMPONENTS:
        assert not gate_eval.component_mismatch(parse_model(spec, field), degrees), (spec, degrees)


def test_eval_gate_sees_a_wrong_subspace(monkeypatch):
    model = parse_model("u1", Field.gf(2))
    monkeypatch.setattr(
        gate_eval, "identity_subspace", lambda m, space: SubspaceBasis.zero(m.field, space.dim)
    )
    assert gate_eval.component_mismatch(model, (1, 2, 3))


def test_eval_gate_parts():
    parts = {}
    for part, field, spec, degrees in gate_eval.components():
        parts[part] = parts.get(part, 0) + 1
        if part != "n <= 5":
            assert spec in gate_eval.WITT
            assert len(degrees) == {"n = 6": 6, "n = 7 sample": 7, "n = 8 sample": 8}[part]
    assert parts == {
        "n <= 5": 17402,
        "n = 6": 2 * 2 * 924,
        "n = 7 sample": 2 * 2 * gate_eval.N7_SAMPLE,
        "n = 8 sample": 2 * 2 * gate_eval.N8_SAMPLE,
    }


#: Small u1 and w1 components: functionals of rank 1 and of rank 0
#: (w1 below its support, and GF(2) parity zeros).
FUNCTIONAL_COMPONENTS = [
    ("u1", (1,)), ("u1", (1, 2, 3)), ("u1", (0, 2, 2, 4)), ("w1", (-1, 0, 2)),
    ("w1", (-2, 1)), ("w1", (-1, 1, 2, 2, 3)), ("u1", (-1, 0, 1, 1, 2, 3)),
]


@fields
def test_functional_gate_compares_components(field):
    for spec, degrees in FUNCTIONAL_COMPONENTS:
        model = parse_model(spec, field)
        assert not gate_eval.functional_mismatch(model, degrees), (spec, degrees)


@fields
def test_functional_gate_sees_a_wrong_subspace(field, monkeypatch):
    real = gate_eval.identity_subspace
    model = parse_model("u1", field)
    # Too small, then of the right size but not the kernel: the rank-one
    # functional's kernel with one row traded for the missing direction.
    monkeypatch.setattr(
        gate_eval, "identity_subspace", lambda m, space: SubspaceBasis.zero(m.field, space.dim)
    )
    assert gate_eval.functional_mismatch(model, (1, 2, 3))

    def shifted(m, space):
        ident = real(m, space)
        assert ident.dim == space.dim - 1
        values = oracle_rows(m, space.variables, space.basis)
        outside = next(j for j, row in enumerate(values) if any(row))
        vectors = list(ident.rows())[1:] + [tuple(int(i == outside) for i in range(space.dim))]
        return SubspaceBasis.from_vectors(m.field, space.dim, vectors)

    monkeypatch.setattr(gate_eval, "identity_subspace", shifted)
    assert gate_eval.functional_mismatch(model, (1, 2, 4, 6))


@fields
@pytest.mark.parametrize("name", ["u1", "w1-wide", "w1-tight"])
def test_span_gate_compares_components(field, name):
    family = {"u1": u1_family, "w1-wide": lambda: w1_family("wide"),
              "w1-tight": lambda: w1_family("tight")}[name]()
    memo = SpanMemo(family, field, largest=gate_spans.NMAX)
    for degrees in SPAN_COMPONENTS:
        assert gate_spans.component_mismatches(family, degrees, field, memo) == [], degrees


def test_span_gate_sees_a_wrong_span(monkeypatch):
    field = Field.gf(2)
    family = u1_family()
    memo = SpanMemo(family, field, largest=gate_spans.NMAX)
    monkeypatch.setattr(
        gate_spans, "instance_span", lambda fam, space: SubspaceBasis.zero(space.field, space.dim)
    )
    assert gate_spans.component_mismatches(family, (1, 2, 2), field, memo) == [
        "mismatch", "mismatch with a shared memo",
    ]


def test_span_gate_frontier_sample():
    sample = list(gate_spans.frontier_sample())
    sizes = {}
    for field, name, degrees in sample:
        sizes[len(degrees)] = sizes.get(len(degrees), 0) + 1
    per_field_family = len(FIELDS) * len(gate_spans.FAMILIES) * 2
    assert sizes == {
        6: per_field_family * gate_spans.N6_SAMPLE, 7: per_field_family * gate_spans.N7_SAMPLE,
    }
    # one n = 6 component of the sample whose span does not fill
    field, name, degrees = next(
        (f, n, d) for f, n, d in sample
        if len(d) == 6 and n == "u1" and sum(x % 2 for x in d) == 1
    )
    assert not gate_spans.frontier_mismatch(gate_spans.FAMILIES[name], degrees, field)


def test_span_gate_frontier_sees_a_wrong_span(monkeypatch):
    real = gate_spans.oracle_span_rows
    monkeypatch.setattr(
        gate_spans, "oracle_span_rows", lambda vectors, ncols, field: real(vectors, ncols, field)[1:]
    )
    assert gate_spans.frontier_mismatch(u1_family(), (1, 2, 2, 2), Field.gf(3))
