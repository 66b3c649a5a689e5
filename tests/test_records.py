"""The frozen record classes: construction, immutability, equality, repr
and validation, for every record a module exports, and the import cost
they were built to avoid."""

import importlib
import os
import subprocess
import sys
from functools import cached_property
from types import SimpleNamespace

import pytest

import compseq
from compseq import (
    BoolMatrix,
    CheckResult,
    ComponentChain,
    ConvergenceVerdict,
    Digraph,
    DivergenceWitness,
    GeneratorSpec,
    JbdVerdict,
    SimulationResult,
    UndirectedGraph,
    VerificationReport,
)

PATH = UndirectedGraph(3, (0b010, 0b101, 0b010))

# field values, in field order, of one valid instance of every record class
SAMPLES = {
    BoolMatrix: {"n": 2, "rows": (0b10, 0b01)},
    UndirectedGraph: {"n": 3, "rows": (0b010, 0b101, 0b010)},
    ComponentChain: {
        "class_masks": ((0b01, 0b10), (0b100,)),
        "loops": 0,
        "pairs": (frozenset({(2, 1)}),),
    },
    DivergenceWitness: {"j1": 1, "j2": 2, "excluded_residue": 0},
    ConvergenceVerdict: {"rule": "NontrivialTail", "witness": None},
    JbdVerdict: {"failing_level": 1, "levels": ("FAIL split", "b")},
    SimulationResult: {"index_mu": 1, "period_pi": 1, "gamma_cycle": (PATH,)},
    CheckResult: {"name": "limit", "passed": True, "detail": "ok"},
    VerificationReport: {"checks": (CheckResult("limit", True, "ok"),), "counterexample": None},
    GeneratorSpec: {"eta": 2, "sizes": (2, 4), "allow_trivial": False, "seed": 7},
}

# one construction per class with a __post_init__ check that must reject it
INVALID = [
    (BoolMatrix, (0, ()), "dimension must be >= 1"),
    (BoolMatrix, (2, (0b100, 0)), "bits outside"),
    (BoolMatrix, (2, (0,)), "expected 2 rows"),
    (UndirectedGraph, (2, (0b10, 0)), "not symmetric"),
    (ComponentChain, (((0b1,), (0,)), 0, ()), "empty imprimitivity class"),
    (ComponentChain, (((0b1,), (0b10,)), 0, ()), "0 interfaces for 2 components"),
    (ComponentChain, (((0b1,), (0b10,)), 0, (frozenset(),)), "interface 1 has no class pair"),
    (ComponentChain, (((0b1,), (0b10,)), 0, (frozenset({(1, 2)}),)), "outside 1..1 x 1..1"),
    (ComponentChain, (((0b1, 0b10), (0b100,)), 0, (frozenset({(0, 1)}),)), "outside 1..2 x 1..1"),
    (GeneratorSpec, (0,), "at least one component"),
]


def record_classes():
    """Every class a module exports that is not an exception."""
    found = []
    for name in ("bmat", "graphs", "theory", "oracle"):
        module = importlib.import_module(f"compseq.{name}")
        for attr in module.__all__:
            obj = getattr(module, attr)
            if isinstance(obj, type) and not issubclass(obj, BaseException):
                found.append(obj)
    return found


def test_samples_cover_every_record():
    assert set(record_classes()) == set(SAMPLES)


@pytest.fixture(params=list(SAMPLES), ids=lambda cls: cls.__name__)
def record(request):
    cls = request.param
    return cls, SAMPLES[cls]


class TestRecord:
    def test_positional_and_keyword_construction_agree(self, record):
        cls, fields = record
        by_position = cls(*fields.values())
        by_keyword = cls(**fields)
        assert by_position == by_keyword
        assert [getattr(by_keyword, name) for name in fields] == list(fields.values())

    def test_assignment_and_deletion_raise(self, record):
        cls, fields = record
        obj = cls(**fields)
        first = next(iter(fields))
        with pytest.raises(AttributeError, match=f"cannot assign to field '{first}'"):
            setattr(obj, first, fields[first])
        with pytest.raises(AttributeError):
            obj.extra = 1
        with pytest.raises(AttributeError, match=f"cannot delete field '{first}'"):
            delattr(obj, first)
        assert getattr(obj, first) == fields[first]

    def test_equality_within_the_class_only(self, record):
        cls, fields = record
        a, b = cls(**fields), cls(**fields)
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(tuple(fields.values()))
        assert a != SimpleNamespace(**fields)
        assert a != tuple(fields.values())

    def test_repr_names_every_field(self, record):
        cls, fields = record
        if cls is BoolMatrix:
            return  # BoolMatrix keeps its own compact repr
        body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({body})"

    def test_bad_calls_raise_type_error(self, record):
        cls, fields = record
        values = list(fields.values())
        first = next(iter(fields))
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*values, None)
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*values, bogus=1)
        with pytest.raises(TypeError, match=f"multiple values for argument '{first}'"):
            cls(*values, **{first: values[0]})
        if cls is not GeneratorSpec:
            last = list(fields)[-1]
            with pytest.raises(TypeError, match=f"missing .*'{last}'"):
                cls(*values[:-1])


def test_misspelt_keyword_takes_the_general_binder(record):
    # every field by keyword with one name misspelt: the same TypeError as
    # any other bad call, never a call that goes through
    cls, fields = record
    *rest, last = fields
    misspelt = {**{name: fields[name] for name in rest}, last + "_": fields[last]}
    if cls is GeneratorSpec:  # its last field has a default
        message = f"got an unexpected keyword argument '{last}_'"
    else:
        message = f"missing required argument '{last}'"
    with pytest.raises(TypeError, match=f"^{cls.__name__}\\(\\) {message}$"):
        cls(**misspelt)


def test_boolmatrix_repr():
    assert repr(BoolMatrix(2, (0b10, 0b01))) == "BoolMatrix(2, [01,10])"


def test_class_defaults():
    assert GeneratorSpec(3) == GeneratorSpec(3, (1, 5), True, 0)
    assert GeneratorSpec(eta=3, seed=4) == GeneratorSpec(3, (1, 5), True, 4)
    with pytest.raises(TypeError, match="missing .*'eta'"):
        GeneratorSpec(seed=4)


@pytest.mark.parametrize(
    "cls, args, message", INVALID, ids=[f"{cls.__name__}: {message}" for cls, _, message in INVALID]
)
def test_post_init_validates_every_construction(cls, args, message):
    with pytest.raises(ValueError, match=message):
        cls(*args)
    with pytest.raises(ValueError, match=message):
        cls(**dict(zip(SAMPLES[cls], args)))


def test_cached_properties_survive_freezing():
    d = Digraph(3, (0b010, 0b100, 0b001))
    assert isinstance(Digraph.__dict__["arcs"], cached_property)
    assert d.arcs is d.arcs == frozenset({(1, 2), (2, 3), (3, 1)})
    assert UndirectedGraph(**SAMPLES[UndirectedGraph]).edges == {(1, 2), (2, 3)}
    chain = ComponentChain(**SAMPLES[ComponentChain])
    assert chain.masks == (0b011, 0b100)
    assert chain.trivial_flags == (False, True)
    looped = ComponentChain(chain.class_masks, 0b100, chain.pairs)  # a looped vertex
    assert looped.trivial_flags == (False, False)
    assert d == Digraph(3, (0b010, 0b100, 0b001))  # a cached value is not a field


def test_derived_flags_read_the_fields():
    jbd = JbdVerdict(**SAMPLES[JbdVerdict])
    assert (jbd.holds, bool(jbd), jbd.detail) == (False, False, "split")
    assert JbdVerdict(None, ("ok   level 1",)).holds
    assert JbdVerdict(None, ("ok   level 1",)).detail is None
    sim = SimulationResult(**SAMPLES[SimulationResult])
    assert sim.converged and sim.limit is PATH
    edgeless = UndirectedGraph(3, (0, 0, 0))
    sim = SimulationResult(1, 2, (PATH, edgeless))
    assert not sim.converged and sim.limit is None
    report = VerificationReport(**SAMPLES[VerificationReport])
    assert report.passed and report.failed_check is None
    checks = (CheckResult("verdict", True, ""), CheckResult("limit", False, ""))
    report = VerificationReport(checks + (CheckResult("jbd", False, ""),), None)
    assert not report.passed and report.failed_check == "limit"


def test_cli_import_loads_no_dataclasses():
    # -S: no site hooks, so only compseq's own imports are counted
    root = os.path.dirname(os.path.dirname(compseq.__file__))
    code = "import sys, compseq.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": root},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
