"""The record types: construction by position and keyword, validation, immutability, equality."""

import re

import pytest

from golomb import (
    BenchRow,
    CollisionSite,
    CollisionWitness,
    DifferenceTriangle,
    GracefulnessReport,
    QuadraticFamilyParams,
    ResidueForm,
    Ruler,
    SearchConfig,
    SearchResult,
    TriangularParams,
)
from golomb.cli import main

BENCH_HEADER = ["n", "lower_bound", "optimal", "pow2", "thm1", "thm1_nminus2", "thm2"]

# each record type with one value per field, in field order
RECORDS = [
    (Ruler, {"marks": (0, 1, 3)}),
    (DifferenceTriangle, {"order": 3, "entries": (1, 3, 2)}),
    (CollisionSite, {"first": (2, 1), "second": (3, 2), "value": 4}),
    (GracefulnessReport, {"graceful": False, "witness": CollisionSite((2, 1), (3, 2), 4)}),
    (ResidueForm, {"value": 17, "modulus": 5, "quotient": 3, "residue": 2}),
    (TriangularParams, {"order": 6, "modulus": 3}),
    (QuadraticFamilyParams, {"a": 1, "b": 1, "c": 0}),
    (CollisionWitness, {"n": 12, "i1": 11, "j1": 2, "i2": 4, "j2": 4, "value": 40}),
    (SearchConfig, {"order": 8, "time_limit": 1.5, "parallelism": 2}),
    (SearchResult, {"ruler": Ruler((0, 1, 3)), "length": 3, "optimal": True,
                    "nodes_explored": 5, "elapsed": 0.25}),
    (BenchRow, dict(zip(BENCH_HEADER, (10, 45, 55, 511, 369, 297, 185)))),
]
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, values", RECORDS, ids=RECORD_IDS)
def test_built_by_position_and_keyword_with_equal_hashes(cls, values):
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    for record in (by_position, by_keyword):
        assert {name: getattr(record, name) for name in values} == values
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)


@pytest.mark.parametrize("cls, values", RECORDS, ids=RECORD_IDS)
def test_fields_cannot_be_assigned(cls, values):
    record = cls(**values)
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert {name: getattr(record, name) for name in values} == values


def test_unequal_fields_give_unequal_records():
    assert Ruler((0, 1, 3)) != Ruler((0, 2, 3))
    assert TriangularParams(6, 3) != TriangularParams(6, 4)
    assert SearchConfig(8) != SearchConfig(9)


def test_defaults():
    config = SearchConfig(8)
    assert (config.order, config.time_limit, config.parallelism) == (8, None, 1)
    assert SearchConfig(order=8) == config
    report = GracefulnessReport(True)
    assert (report.graceful, report.witness) == (True, None)
    assert GracefulnessReport(graceful=True) == report


def test_ruler_stores_its_marks_as_a_tuple():
    ruler = Ruler([0, 1, 3])
    assert ruler.marks == (0, 1, 3)
    assert isinstance(ruler.marks, tuple)
    assert ruler == Ruler((0, 1, 3))
    assert hash(ruler) == hash(Ruler((0, 1, 3)))


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Ruler(()), ValueError, "ruler needs at least one mark"),
        (lambda: Ruler((1, 2)), ValueError, "first mark must be 0, got 1"),
        (lambda: Ruler((0, 3, 3)), ValueError, "marks must be strictly increasing"),
        (lambda: Ruler((0, 2**64)), OverflowError, "value %d outside unsigned 64-bit range" % 2**64),
        (lambda: GracefulnessReport(True, CollisionSite((2, 1), (3, 2), 4)), ValueError,
         "graceful report cannot carry a witness"),
        (lambda: GracefulnessReport(False), ValueError, "non-graceful report needs a witness"),
        (lambda: TriangularParams(1, 3), ValueError, "order must be at least 2, got 1"),
        (lambda: TriangularParams(5, 0), ValueError, "modulus must be positive, got 0"),
        (lambda: QuadraticFamilyParams(0, 1, 0), ValueError, "constraint violated: a must be nonzero"),
        (lambda: QuadraticFamilyParams(1, 0, 0), ValueError, "constraint violated: b must be positive"),
        (lambda: QuadraticFamilyParams(-2, 3, 0), ValueError,
         "constraint violated: 2a + b must be positive"),
        (lambda: QuadraticFamilyParams(1, 1, -3), ValueError,
         "constraint violated: c must exceed -a - 2b"),
        (lambda: SearchConfig(1), ValueError, "order must be at least 2, got 1"),
        (lambda: SearchConfig(16), ValueError, "exact search is limited to orders up to 15, got 16"),
        (lambda: SearchConfig(8, parallelism=0), ValueError, "parallelism must be at least 1"),
    ],
)
def test_validation_errors_keep_type_and_message(build, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        build()


def test_bench_row_fields_are_the_csv_header(capsys):
    assert main(["bench", "--n-max", "3", "--format", "csv"]) == 0
    header = capsys.readouterr().out.splitlines()[0].split(",")
    assert header == BENCH_HEADER
    row = BenchRow(*range(len(BENCH_HEADER)))
    assert [getattr(row, name) for name in header] == list(range(len(BENCH_HEADER)))
