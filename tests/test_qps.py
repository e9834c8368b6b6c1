import codecs
import contextlib
import dataclasses
import decimal
import fractions
import hashlib
import importlib.util
import math
import random
import shutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from cfpopt import _kernels, qps
from cfpopt.model import AffineConstraint, Bounds, Problem, QuadraticFunction
from cfpopt.qps import QpsDocument, QpsParseError, load_qps, parse_qps, parse_qps_document, write_qps


def _benchmark_module(name):
    spec = importlib.util.spec_from_file_location(name, Path(__file__).parents[1] / "benchmarks" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_problems = _benchmark_module("make_problems")
qps_digest = _benchmark_module("qps_digest")

BLOCKS = (1, 7, 64)  # block sizes (characters) that cut inside every section of the test files
needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler (cc) on PATH")
# the backends to read a file with: numpy reads it in Python alone, the
# reference, and c with the scan kernel, which must agree with it
WAYS = ("numpy", "c") if shutil.which("cc") else ("numpy",)


@contextlib.contextmanager
def _reading(way, block=None):
    """Parse under the backend ``way``, in blocks of ``block`` characters (default ``_BLOCK``)."""
    saved = _kernels.active_backend()
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(qps, "_BLOCK", block)
        _kernels.set_backend(way)
        try:
            yield
        finally:
            _kernels.set_backend(saved)


def _inputs(text):
    """``text``, and for a str its UTF-8 bytes too, which must read the same."""
    if not isinstance(text, str):
        return [text]
    try:
        return [text, text.encode()]
    except UnicodeEncodeError:  # a lone surrogate
        return [text]


def _diagnostic(text, parse=parse_qps):
    """The ``(line, section, message)`` that ``parse(text)`` fails with, which
    must be the same for the text and its bytes, under each of the ``WAYS``,
    at the default block size and at each of ``BLOCKS``."""
    found = {}
    for way in WAYS:
        for block in (qps._BLOCK, *BLOCKS):
            for data in _inputs(text):
                with _reading(way, block), pytest.raises(QpsParseError) as exc:
                    parse(data)
                d = exc.value.diagnostic
                found[way, block, type(data)] = (d.line, d.section, d.message)
    assert len(set(found.values())) == 1, found
    return found["numpy", qps._BLOCK, type(text)]


def _document(text):
    """``parse_qps_document(text)``, which must read the same, warnings
    included, for the text and its bytes, under each of the ``WAYS`` and at
    each of ``BLOCKS``."""
    with _reading("numpy"):
        doc = parse_qps_document(text)
    for way in WAYS:
        for block in (qps._BLOCK, *BLOCKS):
            for data in _inputs(text):
                with _reading(way, block):
                    _same_document(parse_qps_document(data), doc)
    return doc


FIXTURE_QP = """\
NAME          FIXQP1
ROWS
 N  OBJ
 L  C1
COLUMNS
    X1        OBJ       -1.0      C1        1.0
    X2        C1        1.0
RHS
    RHS       C1        2.0
QUADOBJ
    X1        X1        1.0
    X2        X2        1.0
ENDATA
"""


class TestParseFixture:
    def test_hand_assembled_matrices(self):
        p = parse_qps(FIXTURE_QP)
        assert p.name == "FIXQP1"
        assert p.n == 2
        obj = p.objective
        np.testing.assert_array_equal(obj.Q, np.eye(2))
        np.testing.assert_array_equal(obj.c, [-1.0, 0.0])
        assert obj.constant == 0.0
        assert len(p.constraints) == 1
        row = p.constraints[0]
        np.testing.assert_array_equal(row.a, [1.0, 1.0])
        assert row.sense == "<="
        assert row.hi == 2.0
        np.testing.assert_array_equal(p.bounds.lo, [0.0, 0.0])
        np.testing.assert_array_equal(p.bounds.hi, [np.inf, np.inf])

    def test_objective_value_matches_formula(self):
        p = parse_qps(FIXTURE_QP)
        x = np.array([1.0, 0.0])
        # 1/2 (x1^2 + x2^2) - x1 at (1, 0)
        assert p.objective.value(x) == pytest.approx(-0.5)

    def test_variable_with_zero_coefficients(self):
        text = FIXTURE_QP.replace("    X2        C1        1.0",
                                  "    X2        OBJ       0.0")
        p = parse_qps(text)
        assert p.n == 2
        np.testing.assert_array_equal(p.constraints[0].a, [1.0, 0.0])
        assert p.objective.c[1] == 0.0

    def test_comments_and_blanks_skipped(self):
        text = "* leading comment\n\n" + FIXTURE_QP.replace(
            "ROWS", "* inner comment\nROWS")
        p = parse_qps(text)
        assert p.n == 2

    def test_load_from_file(self, fixtures_dir):
        p = load_qps(fixtures_dir / "fix_qp1.qps")
        assert p.name == "FIXQP1"
        assert p.n == 2


class TestQuadConventions:
    QUADOBJ = """\
NAME Q1
ROWS
 N  OBJ
 L  C1
COLUMNS
    X1        OBJ       1.0       C1        1.0
    X2        OBJ       1.0       C1        1.0
RHS
    RHS       C1        2.0
QUADOBJ
    X1        X1        2.0
    X2        X1        0.5
    X2        X2        1.0
ENDATA
"""
    QMATRIX = """\
NAME Q1
ROWS
 N  OBJ
 L  C1
COLUMNS
    X1        OBJ       1.0       C1        1.0
    X2        OBJ       1.0       C1        1.0
RHS
    RHS       C1        2.0
QMATRIX
    X1        X1        2.0
    X1        X2        0.5
    X2        X1        0.5
    X2        X2        1.0
ENDATA
"""

    def test_quadobj_mirrors_offdiagonal(self):
        p = parse_qps(self.QUADOBJ)
        np.testing.assert_array_equal(p.objective.Q, [[2.0, 0.5], [0.5, 1.0]])

    def test_qmatrix_matches_quadobj(self):
        a = parse_qps(self.QUADOBJ)
        b = parse_qps(self.QMATRIX)
        np.testing.assert_array_equal(a.objective.Q, b.objective.Q)

    def test_asymmetric_qmatrix_rejected(self):
        bad = self.QMATRIX.replace("    X2        X1        0.5\n", "")
        _diagnostic(bad)


class TestRangesAndBounds:
    def test_ranges_fixture(self, fixtures_dir):
        p = load_qps(fixtures_dir / "fix_rng.qps")
        assert p.name == "FIXRNG"
        np.testing.assert_array_equal(p.objective.Q, [[2.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(p.objective.c, [0.0, 1.0])
        assert p.objective.constant == 5.0  # sign-flipped RHS on the N row
        r1, r2, r3 = p.constraints
        assert (r1.lo, r1.hi) == (1.0, np.inf)
        assert (r2.lo, r2.hi) == (0.0, 0.5)  # E row with positive range
        assert (r3.lo, r3.hi) == (3.0, 4.0)  # L row with range 1
        np.testing.assert_array_equal(p.bounds.lo, [-np.inf, 0.0])
        np.testing.assert_array_equal(p.bounds.hi, [np.inf, 10.0])

    def test_negative_range_on_e_row(self):
        text = """\
NAME R
ROWS
 N  OBJ
 E  R1
COLUMNS
    X1        OBJ       1.0       R1        1.0
RHS
    RHS       R1        2.0
RANGES
    RNG       R1        -0.5
ENDATA
"""
        p = parse_qps(text)
        assert (p.constraints[0].lo, p.constraints[0].hi) == (1.5, 2.0)

    def test_bound_types(self):
        text = """\
NAME B
ROWS
 N  OBJ
 G  R1
COLUMNS
    X1        OBJ       1.0       R1        1.0
    X2        R1        1.0
    X3        R1        1.0
    X4        R1        1.0
BOUNDS
 LO BND       X1        -2.0
 UP BND       X1        3.0
 FX BND       X2        1.5
 MI BND       X3
 BV BND       X4
ENDATA
"""
        doc = _document(text)
        p = doc.to_problem()
        np.testing.assert_array_equal(p.bounds.lo, [-2.0, 1.5, -np.inf, 0.0])
        np.testing.assert_array_equal(p.bounds.hi, [3.0, 1.5, np.inf, 1.0])
        assert any(w.message.startswith("binary bound") for w in doc.warnings)

    def test_inconsistent_bounds_rejected(self):
        text = """\
NAME B
ROWS
 N  OBJ
 G  R1
COLUMNS
    X1        OBJ       1.0       R1        1.0
BOUNDS
 LO BND       X1        5.0
 UP BND       X1        1.0
ENDATA
"""
        assert _diagnostic(text)[0] == 9


class TestDiagnostics:
    def test_unknown_section(self):
        line, _, message = _diagnostic("NAME X\nROWS\n N OBJ\nBONDS\nENDATA\n")
        assert line == 4
        assert "unknown section" in message

    def test_duplicate_objective_row(self):
        line, _, message = _diagnostic("NAME X\nROWS\n N OBJ\n N OBJ2\nENDATA\n")
        assert "duplicate N" in message
        assert line == 4

    def test_undeclared_row_reference(self):
        text = "NAME X\nROWS\n N OBJ\nCOLUMNS\n    X1   NOPE  1.0\nENDATA\n"
        line, _, message = _diagnostic(text)
        assert line == 5
        assert "undeclared row" in message

    def test_undeclared_column_in_bounds(self):
        text = ("NAME X\nROWS\n N OBJ\n L R1\nCOLUMNS\n    X1   R1   1.0\n"
                "BOUNDS\n UP BND  X9  1.0\nENDATA\n")
        assert "undeclared column" in _diagnostic(text)[2]

    def test_malformed_numeric(self):
        text = "NAME X\nROWS\n N OBJ\n L R1\nCOLUMNS\n    X1   R1   abc\nENDATA\n"
        line, _, message = _diagnostic(text)
        assert line == 6
        assert "malformed numeric" in message

    def test_no_objective_row(self):
        assert "no N" in _diagnostic("NAME X\nROWS\n L R1\nENDATA\n")[2]

    def test_missing_endata_warns(self):
        doc = _document("NAME X\nROWS\n N OBJ\n")
        assert any(w.section == "ENDATA" for w in doc.warnings)

    def test_fortran_exponent_accepted(self):
        text = "NAME X\nROWS\n N OBJ\n L R1\nCOLUMNS\n    X1   R1   1.5D2\nENDATA\n"
        p = parse_qps(text)
        assert p.constraints[0].a[0] == pytest.approx(150.0)


EVERY_SECTION = """\
NAME          ALL
ROWS
 N  OBJ
 L  C1
 G  C2
COLUMNS
    X1        OBJ       -1.0      C1        1.0
    X2        C1        1.0       C2        1.0
RHS
    RHS       C1        2.0
RANGES
    RNG       C1        4.0
BOUNDS
 UP BND       X1        4.0
 FR BND       X2
QUADOBJ
    X1        X1        1.0
ENDATA
"""


def _with_line(*changes):
    """EVERY_SECTION with line ``line_no`` replaced by ``new``, for each ``line_no, new`` of ``changes``."""
    lines = EVERY_SECTION.split("\n")
    for line_no, new in zip(changes[::2], changes[1::2]):
        lines[line_no - 1] = new
    return "\n".join(lines)


def _planted_columns_line_with_extra_token():
    p, _ = make_problems.planted_instance(0, 120, 160)
    lines = write_qps(p).splitlines()
    lines[9000 - 1] += "  R1"  # past the first blocks of data lines
    return "\n".join(lines)


@pytest.mark.parametrize("text, line_no, section, message", [
    (_with_line(5, " Q  C2"), 5, "ROWS", "unknown row sense 'Q'"),
    (_with_line(5, " G  C1"), 5, "ROWS", "duplicate row 'C1'"),
    (_with_line(5, " G  C2  C3"), 5, "ROWS", "expected 'SENSE NAME', got 'G  C2  C3'"),
    (_with_line(8, "    X2        C1        1.0       C2"), 8, "COLUMNS",
     "expected 'COL ROW VAL [ROW VAL]'"),
    (_planted_columns_line_with_extra_token, 9000, "COLUMNS", "expected 'COL ROW VAL [ROW VAL]'"),
    (_with_line(10, "    RHS       C1"), 10, "RHS", "expected 'RHSNAME ROW VAL [ROW VAL]'"),
    (_with_line(12, "    RNG       C1        4.0       C2"), 12, "RANGES",
     "expected 'RNGNAME ROW VAL [ROW VAL]'"),
    (_with_line(17, "    X1        X1"), 17, "QUADOBJ", "expected 'COL COL VAL'"),
    (_with_line(14, " XX BND       X1        4.0"), 14, "BOUNDS", "unknown bound type 'XX'"),
    (_with_line(14, " LO BND       X1"), 14, "BOUNDS", "LO bound expects 'TYPE SET COL VAL'"),
    (_with_line(15, " FR BND"), 15, "BOUNDS", "FR bound expects 'TYPE SET COL'"),
    ("    X1\n" + EVERY_SECTION, 1, "-", "data before any section header"),
    (_with_line(1, "NAME          ALL\n    X1"), 2, "NAME", "unexpected data in NAME section"),
    (EVERY_SECTION + "    X1\n", 19, "ENDATA", "data after ENDATA"),
], ids=["row sense", "duplicate row", "rows tokens", "columns tokens", "columns tokens mid-block",
        "rhs tokens", "ranges tokens", "quadobj tokens", "bound type", "short LO", "short FR",
        "before any header", "in NAME", "after ENDATA"])
def test_malformed_line_names_its_line_and_section(text, line_no, section, message):
    parse_qps(EVERY_SECTION)  # the base file itself is well formed
    assert _diagnostic(text() if callable(text) else text) == (line_no, section, message)


@pytest.mark.parametrize("text, line_no, section, message", [
    # two faults on one line: the value before the row, the first column before the value, the
    # BOUNDS value before the column
    (_with_line(8, "    X2        C9        1.0x"), 8, "COLUMNS", "malformed numeric field '1.0x'"),
    (_with_line(8, "    X2        C9        nan"), 8, "COLUMNS", "non-finite numeric field 'nan'"),
    (_with_line(17, "    X9        X1        1.0x"), 17, "QUADOBJ", "undeclared column 'X9'"),
    (_with_line(14, " UP BND       X9        nan"), 14, "BOUNDS", "non-finite numeric field 'nan'"),
    # a two-entry line: its entries in turn, each whole before the next
    (_with_line(8, "    X2        C1        1.0       C9        1.0"), 8, "COLUMNS", "undeclared row 'C9'"),
    (_with_line(8, "    X2        C9        1.0       C2        1.0x"), 8, "COLUMNS", "undeclared row 'C9'"),
    (_with_line(10, "    RHS       C1        2.0       C2        1e999"), 10, "RHS",
     "non-finite numeric field '1e999'"),
    # a fault on a line before one with the wrong token count
    (_with_line(7, "    X1        OBJ       -1.0      C9        1.0",
                8, "    X2        C1        1.0       C2"), 7, "COLUMNS", "undeclared row 'C9'"),
    (_with_line(4, " Q  C1", 5, " G  C2  C3"), 4, "ROWS", "unknown row sense 'Q'"),
    # a box emptied before a later malformed line
    (_with_line(14, " UP BND       X1        -1.0", 15, " FR BND"), 14, "BOUNDS",
     "inconsistent bounds on 'X1': [0.0, -1.0]"),
], ids=["columns value and row", "columns nan and row", "quadobj column and value", "bounds value and column",
        "second entry", "first entry's row before second's value", "rhs second entry", "columns before a cut",
        "rows before a cut", "bounds inconsistent before a cut"])
def test_the_first_fault_in_file_order_is_reported(text, line_no, section, message):
    assert _diagnostic(text) == (line_no, section, message)


class TestRoundTrip:
    def test_fixture_round_trip_exact(self):
        p = parse_qps(FIXTURE_QP)
        q = parse_qps(write_qps(p))
        np.testing.assert_array_equal(p.objective.Q, q.objective.Q)
        np.testing.assert_array_equal(p.objective.c, q.objective.c)
        assert p.objective.constant == q.objective.constant
        for ca, cb in zip(p.constraints, q.constraints):
            np.testing.assert_array_equal(ca.a, cb.a)
            assert (ca.lo, ca.hi) == (cb.lo, cb.hi)
        np.testing.assert_array_equal(p.bounds.lo, q.bounds.lo)
        np.testing.assert_array_equal(p.bounds.hi, q.bounds.hi)

    def test_ranges_fixture_round_trip(self, fixtures_dir):
        p = load_qps(fixtures_dir / "fix_rng.qps")
        text = write_qps(p)
        assert "RANGES" in text  # the slab row needs a range entry
        assert " FR " in text  # the free variable needs an FR bound
        q = parse_qps(text)
        np.testing.assert_allclose(p.objective.Q, q.objective.Q, atol=1e-12)
        np.testing.assert_allclose(p.objective.c, q.objective.c, atol=1e-12)
        assert p.objective.constant == pytest.approx(q.objective.constant, abs=1e-12)
        for ca, cb in zip(p.constraints, q.constraints):
            np.testing.assert_allclose(ca.a, cb.a, atol=1e-12)
            assert ca.lo == pytest.approx(cb.lo, abs=1e-12)
            assert ca.hi == pytest.approx(cb.hi, abs=1e-12)
        np.testing.assert_array_equal(p.bounds.lo, q.bounds.lo)
        np.testing.assert_array_equal(p.bounds.hi, q.bounds.hi)

    def test_awkward_numbers_survive(self):
        Q = np.array([[2.0 / 3.0, 0.1], [0.1, 1e-7]])
        p = Problem(
            QuadraticFunction(Q, [1 / 3, -2e9], constant=np.pi),
            [AffineConstraint.interval([1.0, 1e-13], -1 / 7, 22.0)],
            bounds=Bounds([-np.inf, 0.25], [4.5, np.inf]),
        )
        q = parse_qps(write_qps(p))
        np.testing.assert_array_equal(q.objective.Q, Q)
        np.testing.assert_array_equal(q.objective.c, p.objective.c)
        assert q.objective.constant == p.objective.constant
        np.testing.assert_array_equal(q.constraints[0].a, p.constraints[0].a)
        # a slab round-trips through RHS + RANGES, one rounding step for lo
        assert q.constraints[0].lo == pytest.approx(p.constraints[0].lo, abs=1e-12)
        assert q.constraints[0].hi == p.constraints[0].hi
        np.testing.assert_array_equal(q.bounds.lo, p.bounds.lo)
        np.testing.assert_array_equal(q.bounds.hi, p.bounds.hi)

    def test_problem_without_box_comes_back_free(self):
        # min x^2 + 4x s.t. x >= -3: the MPS default 0 <= x would move the
        # minimizer from -2 to 0
        p = Problem(QuadraticFunction([[2.0]], [4.0]), [AffineConstraint.geq([1.0], -3.0)])
        text = write_qps(p)
        assert " FR BND       X1" in text.splitlines()
        q = parse_qps(text)
        np.testing.assert_array_equal(q.bounds.lo, [-np.inf])
        np.testing.assert_array_equal(q.bounds.hi, [np.inf])

    def test_output_is_pinned(self, fixtures_dir, tmp_path, monkeypatch):
        # the SHA-256 of the text written for the fixtures and of the planted
        # benchmark files at seeds 101-110, which the benchmark writes with
        # write_qps: a change to how the text is put together must not move a byte
        root = Path(__file__).parents[1]
        monkeypatch.syspath_prepend(str(root / "benchmarks"))
        monkeypatch.syspath_prepend(str(root / "solvebench"))
        import workloads

        h = hashlib.sha256()
        for path in sorted(fixtures_dir.glob("*.qps")):
            h.update(write_qps(load_qps(path)).encode())
        for name in ("plant-cspm", "plant-art3"):
            for seed in range(101, 111):
                workdir = tmp_path / f"{name}-{seed}"
                workdir.mkdir()
                for path in workloads.make_inputs(workloads.WORKLOADS[name], seed, workdir).files:
                    h.update(path.read_bytes())
        assert h.hexdigest() == "d0b4ebfe2b51143a00bd2e4677086b47aaf339d7b653affb9bd43970d147b231"

    def test_nonrepresentable_rejected(self):
        from cfpopt.model import CustomFunction

        p = Problem(
            QuadraticFunction([[1.0]], [0.0]),
            [CustomFunction(lambda x: float(x[0] ** 2) - 1, lambda x: 2 * x, name="ball")],
        )
        with pytest.raises(ValueError):
            write_qps(p)
        p2 = Problem(CustomFunction(lambda x: 0.0, lambda x: np.zeros(1), name="z"), [], n=1)
        with pytest.raises(ValueError):
            write_qps(p2)


def _same_problem(p, q):
    """Bitwise equality of everything a QPS file carries."""
    assert p.objective.Q.tobytes() == q.objective.Q.tobytes()
    assert p.objective.c.tobytes() == q.objective.c.tobytes()
    assert p.objective.constant == q.objective.constant
    assert len(p.constraints) == len(q.constraints)
    for ca, cb in zip(p.constraints, q.constraints):
        assert ca.a.tobytes() == cb.a.tobytes()
        assert (ca.lo, ca.hi) == (cb.lo, cb.hi)
    assert p.bounds.lo.tobytes() == q.bounds.lo.tobytes()
    assert p.bounds.hi.tobytes() == q.bounds.hi.tobytes()
    assert (p.var_names, p.row_names) == (q.var_names, q.row_names)


def _replace_line(text, line_no, old, new):
    lines = text.split("\n")
    assert old in lines[line_no - 1]
    lines[line_no - 1] = lines[line_no - 1].replace(old, new)
    return "\n".join(lines)


MIXED = """\
NAME          MIXED
ROWS
 N  OBJ
 L  R1
 G  R2
 E  R3
COLUMNS
    X1        OBJ       1.5       R1        1.0
    X1        R2        2.0
    X2        R1        -1.0      R3        0.5
    X3        OBJ       -2.0
    X3        R2        1.0       R3        4.0
RHS
    RHS       R1        3.0       R2        -1.0
    RHS       R3        2.0
QUADOBJ
    X1        X1        2.0
    X3        X1        0.5
    X3        X3        1.0
ENDATA
"""

MIXED_SPLIT = """\
NAME          MIXED
ROWS
 N  OBJ
 L  R1
 G  R2
 E  R3
COLUMNS
    X1        OBJ       1.5
    X1        R1        1.0
    X1        R2        2.0
    X2        R1        -1.0
    X2        R3        0.5
    X3        OBJ       -2.0
    X3        R2        1.0
    X3        R3        4.0
RHS
    RHS       R1        3.0
    RHS       R2        -1.0
    RHS       R3        2.0
QUADOBJ
    X1        X1        2.0
    X3        X1        0.5
    X3        X3        1.0
ENDATA
"""


class TestBulkPath:
    """The reader against what each format feature means."""

    @pytest.mark.parametrize("i", range(4))
    def test_planted_round_trip_is_bitwise(self, i):
        p, _ = make_problems.planted_instance(i, 120, 160)
        q = parse_qps(write_qps(p))
        assert p.objective.Q.tobytes() == q.objective.Q.tobytes()
        assert p.objective.c.tobytes() == q.objective.c.tobytes()
        for ca, cb in zip(p.constraints, q.constraints, strict=True):
            assert ca.a.tobytes() == cb.a.tobytes()
            assert cb.hi == ca.hi
            # a slab travels as RHS hi plus RANGES hi - lo: lo comes back as
            # exactly the value that pair carries
            slab = np.isfinite(ca.lo) and np.isfinite(ca.hi) and ca.lo != ca.hi
            assert cb.lo == (ca.hi - (ca.hi - ca.lo) if slab else ca.lo)
        assert p.bounds.lo.tobytes() == q.bounds.lo.tobytes()
        assert p.bounds.hi.tobytes() == q.bounds.hi.tobytes()

    def test_two_entry_lines_mixed_with_one_entry_lines(self):
        p = _document(MIXED).to_problem()
        _same_problem(p, _document(MIXED_SPLIT).to_problem())
        np.testing.assert_array_equal(p.objective.c, [1.5, 0.0, -2.0])
        np.testing.assert_array_equal([r.a for r in p.constraints],
                                      [[1.0, -1.0, 0.0], [2.0, 0.0, 1.0], [0.0, 0.5, 4.0]])
        assert [(r.lo, r.hi) for r in p.constraints] == [(-np.inf, 3.0), (-1.0, np.inf), (2.0, 2.0)]

    def test_comments_and_blanks_inside_data_sections(self):
        text = (MIXED.replace("    X2        R1", "* a comment\n\n    X2        R1")
                .replace("    X3        OBJ", "   * an indented comment\n  \t\n    X3        OBJ")
                .replace("    X3        X1", "\n*\n    X3        X1"))
        _same_problem(parse_qps(MIXED), _document(text).to_problem())
        # the lines after them keep their numbers
        bad = text.replace("    X3        X3        1.0", "    X3        X3        1.0x")
        assert _diagnostic(bad)[0] == bad.splitlines().index("    X3        X3        1.0x") + 1

    def test_duplicates_sum_in_file_order(self):
        # 1e16 + 1 rounds back to 1e16, so each order of the three entries
        # gives another sum: ((0 + 1e16) + 1) - 1e16 is 0, (1e16 - 1e16) + 1 is 1
        text = """\
NAME          DUP
ROWS
 N  OBJ
 L  R1
COLUMNS
    X1        R1        1e16      OBJ       1e16
    X1        R1        1.0
    X2        R1        1.0       OBJ       1.0
    X1        R1        -1e16     OBJ       -1e16
    X1        OBJ       1.0
QUADOBJ
    X2        X1        1e16
    X1        X2        1.0
    X2        X1        -1e16
    X1        X1        1e16
    X1        X1        1.0
    X1        X1        -1e16
ENDATA
"""
        p = _document(text).to_problem()
        np.testing.assert_array_equal(p.constraints[0].a, [0.0, 1.0])
        np.testing.assert_array_equal(p.objective.c, [1.0, 1.0])
        np.testing.assert_array_equal(p.objective.Q, [[0.0, 0.0], [0.0, 0.0]])

        # the reference: one entry at a time, each QUADOBJ mirror right after its entry
        cols = {"X1": 0, "X2": 1}
        a, c, Q = np.zeros(2), np.zeros(2), np.zeros((2, 2))
        section = None
        for line in text.splitlines():
            toks = line.split()
            if not line[0].isspace():
                section = toks[0]
                continue
            if section == "COLUMNS":
                for row, v in zip(toks[1::2], toks[2::2]):
                    (c if row == "OBJ" else a)[cols[toks[0]]] += float(v)
            elif section == "QUADOBJ":
                i, j = cols[toks[0]], cols[toks[1]]
                Q[i, j] += float(toks[2])
                if i != j:
                    Q[j, i] += float(toks[2])
        assert p.constraints[0].a.tobytes() == a.tobytes()
        assert p.objective.c.tobytes() == c.tobytes()
        assert p.objective.Q.tobytes() == Q.tobytes()

    @pytest.mark.parametrize("section", ["QUADOBJ", "QMATRIX"])
    @pytest.mark.parametrize("seed", range(3))
    def test_assembly_is_np_add_at_on_zeros_byte_for_byte(self, section, seed):
        # few positions and many entries, so that most positions sum several
        # values of mixed magnitude (their order shows in the bits), -0.0
        # among them, and a quarter of the COLUMNS entries on the objective row
        rng = np.random.default_rng(seed)
        n, m, k = 6, 4, 400

        def values(size):
            v = rng.standard_normal(size) * 10.0 ** rng.integers(-18, 18, size)
            v[rng.random(size) < 0.2] = -0.0
            return v

        # each row's first entry is nonzero, and the last column holds -0.0 entries only
        rows = np.concatenate([np.arange(m), rng.integers(-1, m, k), np.arange(-1, m)])
        cols = np.concatenate([np.arange(m) % n, rng.integers(0, n - 1, k), np.full(m + 1, n - 1)])
        a_values = np.concatenate([np.ones(m), values(k), np.full(m + 1, -0.0)])
        qi, qj, qv = rng.integers(0, n, k), rng.integers(0, n, k), values(k)
        if section == "QMATRIX":
            # both sides of each off-diagonal entry, the mirror right after it
            keep = np.column_stack([np.ones(k, dtype=bool), qi != qj]).ravel()
            qi, qj = np.column_stack([qi, qj]).ravel()[keep], np.column_stack([qj, qi]).ravel()[keep]
            qv = np.repeat(qv, 2)[keep]
        names = [f"R{r}" for r in range(m)]
        doc = QpsDocument(name="ADD", objective_row="OBJ", row_order=names, row_lines=list(range(4, 4 + m)),
                          row_sense=dict.fromkeys(names, "L"), col_order=[f"X{j}" for j in range(n)],
                          entry_rows=rows, entry_cols=cols, entry_values=a_values,
                          quad_rows=qi, quad_cols=qj, quad_values=qv, quad_section=section)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = doc.to_problem()

        A = np.zeros((m + 1, n))
        np.add.at(A, (rows, cols), a_values)  # row -1 is the objective row, A's last
        Q = np.zeros((n, n))
        if section == "QUADOBJ":  # each off-diagonal entry adds to both sides, in file order
            ii, jj, vv = zip(*((a, b, v) for i, j, v in zip(qi, qj, qv)
                               for a, b in ([(i, j), (j, i)] if i != j else [(i, j)])))
            np.add.at(Q, (list(ii), list(jj)), list(vv))
        else:
            np.add.at(Q, (qi, qj), qv)
        assert np.vstack([c.a for c in p.constraints] + [p.objective.c]).tobytes() == A.tobytes()
        assert p.objective.Q.tobytes() == Q.tobytes()
        assert not np.signbit(A[:, -1]).any()  # 0.0 + -0.0 is 0.0

    def test_marker_lines_warn(self):
        text = MIXED_SPLIT.replace(
            "    X2        R1", "    MARKER    'MARKER'    'INTORG'\n    X2        R1").replace(
            "    X3        OBJ", "    M2        MARKER      'INTEND'   extra\n    X3        OBJ")
        doc = _document(text)
        lines = text.splitlines()
        assert [(w.line, w.section, w.message) for w in doc.warnings] == [
            (lines.index("    MARKER    'MARKER'    'INTORG'") + 1, "COLUMNS", "MARKER line ignored"),
            (lines.index("    M2        MARKER      'INTEND'   extra") + 1, "COLUMNS", "MARKER line ignored"),
        ]
        _same_problem(doc.to_problem(), parse_qps(MIXED_SPLIT))

    def test_a_row_named_like_a_marker_keyword_keeps_its_entries_out(self):
        # the reader takes 'COL MARKER VAL' for a MARKER line, even for a row named MARKER
        text = MIXED_SPLIT.replace(" E  R3", " E  R3\n L  MARKER").replace(
            "    X2        R3        0.5", "    X2        R3        0.5\n    X2        MARKER    3.0")
        doc = _document(text)
        assert [w.message for w in doc.warnings] == ["MARKER line ignored"]

    def test_rows_and_columns_that_share_names(self):
        # each section resolves its names in its own table: rows in COLUMNS, columns in QUADOBJ
        text = """\
NAME          SHARED
ROWS
 N  OBJ
 L  B
 L  A
COLUMNS
    A         OBJ       1.0       B         2.0
    B         A         3.0
QUADOBJ
    A         A         1.0
    B         A         0.5
    B         B         2.0
ENDATA
"""
        p = _document(text).to_problem()
        np.testing.assert_array_equal([r.a for r in p.constraints], [[2.0, 0.0], [0.0, 3.0]])
        np.testing.assert_array_equal(p.objective.Q, [[1.0, 0.5], [0.5, 2.0]])

    @pytest.mark.parametrize("field, token, message", [
        (2, "1.0.0", "malformed numeric field '1.0.0'"),
        (2, "nan", "non-finite numeric field 'nan'"),
        (1, "NOPE", "undeclared row 'NOPE'"),
    ])
    def test_fault_deep_in_columns_reports_its_line(self, field, token, message):
        p, _ = make_problems.planted_instance(0, 120, 160)
        lines = write_qps(p).splitlines()
        line_no = 9000  # past the first blocks of data lines
        toks = lines[line_no - 1].split()
        toks[field] = token
        lines[line_no - 1] = "    " + "  ".join(toks)
        assert _diagnostic("\n".join(lines)) == (line_no, "COLUMNS", message)


class TestRejectedInput:
    @pytest.mark.parametrize("text", [
        FIXTURE_QP.replace(" L  C1\n", " L  C1\n G  C2\n"),  # no COLUMNS entry
        FIXTURE_QP.replace(" L  C1\n", " L  C1\n G  C2\n").replace(
            "    X2        C1        1.0", "    X2        C2        0.0"),  # zeros only
    ])
    def test_empty_row_names_its_rows_line(self, text):
        assert _diagnostic(text) == (5, "ROWS", "row 'C2' has no nonzero coefficient")

    @pytest.mark.parametrize("line_no, old, new, section", [
        (6, "-1.0", "nan", "COLUMNS"),
        (7, "1.0", "-inf", "COLUMNS"),
        (9, "2.0", "inf", "RHS"),
        (9, "2.0", "NaN", "RHS"),
        (11, "1.0", "nan", "QUADOBJ"),
        (12, "1.0", "1e400", "QUADOBJ"),
    ])
    def test_non_finite_rejected(self, line_no, old, new, section):
        text = _replace_line(FIXTURE_QP, line_no, old, new)
        assert _diagnostic(text) == (line_no, section, f"non-finite numeric field {new!r}")

    @pytest.mark.parametrize("old, new, diagnostic", [
        ("    X2        C1        1.0\n", "    X2        C1        1e308\n" * 2,
         (4, "ROWS", "entries of row 'C1' in column 'X2' sum to a non-finite value")),
        ("    X2        C1        1.0\n", "    X2        C1        1e308\n    X2        OBJ       -1e308\n"
         "    X2        OBJ       -1e308\n",
         (3, "ROWS", "entries of row 'OBJ' in column 'X2' sum to a non-finite value")),
        ("    X2        X2        1.0\n", "    X2        X2        1e308\n" * 2,
         (0, "QUADOBJ", "entries of columns 'X2' and 'X2' sum to a non-finite value")),
        ("    X2        X2        1.0\n", "    X1        X2        1e308\n" * 2,
         (0, "QUADOBJ", "entries of columns 'X1' and 'X2' sum to a non-finite value")),
    ], ids=["row", "objective-row", "diagonal", "off-diagonal"])
    def test_sums_that_overflow_rejected(self, old, new, diagnostic):
        # every entry is finite, but duplicates overflow; the sum is rejected
        # at its row, without a numpy warning
        text = FIXTURE_QP.replace(old, new)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _diagnostic(text) == diagnostic

    def test_ranges_non_finite_rejected(self, fixtures_dir):
        text = (fixtures_dir / "fix_rng.qps").read_text().replace("RNG       R2        0.5",
                                                                  "RNG       R2        inf")
        assert _diagnostic(text)[:2] == (17, "RANGES")

    def test_bounds_take_infinity_but_not_nan(self):
        text = FIXTURE_QP.replace("QUADOBJ", "BOUNDS\n UP BND       X1        inf\n"
                                  " LO BND       X2        -Infinity\nQUADOBJ")
        p = parse_qps(text)
        np.testing.assert_array_equal(p.bounds.lo, [0.0, -np.inf])
        np.testing.assert_array_equal(p.bounds.hi, [np.inf, np.inf])
        assert _diagnostic(text.replace("X1        inf", "X1        nan")) == (
            11, "BOUNDS", "non-finite numeric field 'nan'")

    @pytest.mark.parametrize("bound", [" LO BND       X1        inf", " UP BND       X1        -inf",
                                       " FX BND       X1        Infinity"])
    def test_bound_that_empties_the_box_rejected(self, bound):
        text = FIXTURE_QP.replace("QUADOBJ", f"BOUNDS\n MI BND       X1\n{bound}\nQUADOBJ")
        line, section, message = _diagnostic(text)
        assert (line, section) == (12, "BOUNDS")
        assert message.startswith("inconsistent bounds on 'X1'")

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "latin1.qps"
        path.write_bytes(FIXTURE_QP.replace("X2        C1", "X\u00e9        C1").encode("latin-1"))
        line, section, message = _diagnostic(path, load_qps)
        assert (line, section) == (7, "-")
        assert message.startswith("not UTF-8 text: invalid continuation byte")


class TestEncodings:
    """What the reader takes besides ASCII text: bytes, a byte-order mark and any str."""

    @pytest.mark.parametrize("text", [FIXTURE_QP, MIXED, EVERY_SECTION.replace("\n", "\r\n")],
                             ids=["fixture", "mixed", "crlf"])
    def test_a_leading_byte_order_mark_is_skipped(self, text, tmp_path):
        # the str with the mark and its UTF-8 bytes, under each backend and at each block size
        _same_document(_document("\ufeff" + text), parse_qps_document(text))
        path = tmp_path / "bom.qps"
        path.write_bytes(codecs.BOM_UTF8 + text.encode())
        for way in WAYS:
            with _reading(way):
                _same_problem(load_qps(path), parse_qps(text))

    def test_diagnostics_after_a_byte_order_mark_keep_their_numbers(self, tmp_path):
        assert _diagnostic("\ufeff" + _with_line(5, " Q  C2")) == (5, "ROWS", "unknown row sense 'Q'")
        # one mark is skipped, and a second one is text
        assert _diagnostic("\ufeff\ufeff" + FIXTURE_QP) == (1, "-", "unknown section '\\ufeffNAME'")
        # a UTF-8 fault counts its bytes from the start of the file, mark included
        data = FIXTURE_QP.encode()
        bad = data.index(b"X2 ")
        path = tmp_path / "bom.qps"
        path.write_bytes(codecs.BOM_UTF8 + data[:bad] + b"\xff" + data[bad:])
        assert _diagnostic(path, load_qps) == (7, "-", f"not UTF-8 text: invalid start byte at byte {bad + 3}")

    def test_a_utf8_fault_is_reported_before_an_earlier_fault(self, tmp_path):
        # bytes are decoded before they are parsed, as a whole file always was
        data = _with_line(5, " Q  C2").replace("    X1        X1        1.0", "    X1        X1        1.0\xe9")
        data = data.encode("latin-1")
        path = tmp_path / "late.qps"
        path.write_bytes(data)
        expected = (17, "-", "not UTF-8 text: invalid continuation byte at byte " + str(data.index(b"\xe9")))
        assert _diagnostic(path, load_qps) == expected
        assert _diagnostic(data) == expected

    def test_a_str_with_a_lone_surrogate_reads_as_any_other_text(self):
        # such a str has no UTF-8 bytes, and is read as text alone
        doc = _document(FIXTURE_QP.replace("X2", "X\ud800"))
        assert doc.col_order == ["X1", "X\ud800"]
        text = FIXTURE_QP.replace("    X2        C1        1.0", "    X2        C\udc80        1.0")
        assert _diagnostic(text) == (7, "COLUMNS", "undeclared row 'C\\udc80'")


def _same_document(a, b):
    """Field-by-field equality of two documents, the arrays bit for bit."""
    for f in dataclasses.fields(QpsDocument):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes()), f.name
        else:
            assert x == y, f.name


class TestBlocks:
    """The reader walks the text in blocks cut just after a line feed; where
    the cuts fall must change nothing it reads."""

    @pytest.mark.parametrize("block", BLOCKS)
    def test_every_file_reads_the_same_at_any_block_size(self, block, fixtures_dir):
        # each text, and its UTF-8 bytes, read as the text reads at the default block size
        texts = [FIXTURE_QP, EVERY_SECTION, MIXED, MIXED_SPLIT, TestQuadConventions.QUADOBJ,
                 TestQuadConventions.QMATRIX, EVERY_SECTION.replace("\n", "\r\n"),
                 EVERY_SECTION.replace("\n", "\f\n"), MIXED.replace("X3", "X\u00e93").replace("R2", "R\u00f82")]
        texts += [path.read_text() for path in sorted(fixtures_dir.glob("*.qps"))]
        texts.append(write_qps(make_problems.planted_instance(0, 120, 160)[0]))
        expected = [parse_qps_document(text) for text in texts]
        for way in WAYS:
            with _reading(way, block):
                for text, doc in zip(texts, expected):
                    for data in (text, text.encode()):
                        got = parse_qps_document(data)
                        _same_document(got, doc)
                        _same_problem(got.to_problem(), doc.to_problem())

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("brk", ["\r\n", "\r", "\f", "\u2028"], ids=["crlf", "cr", "ff", "u2028"])
    def test_line_breaks_at_a_cut_give_the_lines_of_splitlines(self, block, brk, monkeypatch):
        # every line feed, and so every cut, has the break on both sides, after
        # lines of every length up to past the block size
        text = "".join("a" * k + brk + "\n" + brk for k in range(2 * block + 2)) + "end"
        monkeypatch.setattr(qps, "_BLOCK", block)
        blocks = [block.splitlines() for block in qps._blocks(text)]
        assert len(blocks) > 1
        assert [line for lines in blocks for line in lines] == text.splitlines()

    def test_a_comment_only_in_a_later_block_is_skipped(self, monkeypatch):
        text = MIXED.replace("    X3        X1", "    * an indented comment\n* a comment\n    X3        X1")
        monkeypatch.setattr(qps, "_BLOCK", 64)
        first, *later = qps._blocks(text)
        assert "*" not in first and any("*" in block for block in later)
        _same_document(_document(text), parse_qps_document(MIXED))


def test_parse_peak_memory_stays_below_twice_the_text():
    # a planted file of the plant-art3 workload's size, 1.2 MB
    text = write_qps(make_problems.planted_instance(0, 120, 160)[0])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parse_qps_document(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 * len(text), f"peak {peak / len(text):.2f}x the text"


def test_parse_holds_one_copy_of_the_entries(monkeypatch):
    # in small blocks the entry arrays outweigh a block's lines and tokens,
    # so a parse that kept one array per block and concatenated them would
    # peak at about twice what it keeps (2.03x measured); growing one set of
    # arrays peaks at about what it keeps (1.07x)
    text = write_qps(make_problems.planted_instance(0, 120, 160)[0])
    monkeypatch.setattr(qps, "_BLOCK", 4096)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        doc = parse_qps_document(text)
        kept, peak = (size - base for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    entries = sum(a.nbytes for a in (doc.entry_rows, doc.entry_cols, doc.entry_values,
                                     doc.quad_rows, doc.quad_cols, doc.quad_values))
    assert entries > 0.8 * kept
    assert peak < 1.3 * kept, f"peak {peak / kept:.2f}x what the parse keeps"


def _outcome(text):
    """What parsing ``text`` ends in: its problem's digest, or the ``(line,
    section, message)`` it fails with."""
    try:
        return qps_digest.digest(parse_qps(text))
    except QpsParseError as exc:
        d = exc.diagnostic
        return d.line, d.section, d.message


class TestScanNumbers:
    """The scan kernel converts a number token as ``float`` does, or refuses it to the Python reader."""

    @staticmethod
    def _tokens():
        rng = random.Random(7)
        tokens = [f"{rng.uniform(-1, 1) * 10.0 ** rng.randint(-300, 300):.17g}" for _ in range(400)]
        # any bits that are a finite double, and subnormals
        tokens += [repr(v) for v in np.frombuffer(rng.randbytes(8 * 200), dtype=np.float64).tolist()
                   if math.isfinite(v)]
        tokens += [f"{rng.random() * 2.0 ** -1022:.17g}" for _ in range(100)]
        tokens += ["4.9406564584124654e-324", "2.4703282292062328e-324", "2.2250738585072011e-308",
                   "1.7976931348623157e308", "-0.0", "+0", "0.", ".5", "5.", "+.5e+3", "1E-5", "00012",
                   "1e-400", "-1e-400", "123456789012345678901234567890.5e-10"]
        return tokens

    @staticmethod
    def _assert_bitwise_float(tokens):
        """The c scan converts each of ``tokens`` to the bits of ``float(token)``."""
        data = "".join(f"    X1  R1  {token}\n" for token in tokens).encode()
        scan = _kernels.QpsScan(len(tokens), 1)
        with _reading("c"):
            assert _kernels.qps_scan(data, 0, "COLUMNS", scan) == 0
        assert scan.out[2] == len(tokens)
        got = scan.val[:len(tokens)].view(np.int64).tolist()
        want = np.array([float(t) for t in tokens]).view(np.int64).tolist()
        assert [t for t, a, b in zip(tokens, got, want) if a != b] == []

    @needs_cc
    def test_converted_tokens_are_bitwise_float(self):
        self._assert_bitwise_float(self._tokens())

    @staticmethod
    def _significands():
        """Tokens of 1 to 19 significant digits, with and without a point, a sign and an exponent."""
        rng = random.Random(11)
        tokens = []
        for d in range(1, 20):
            for _ in range(40):
                digits = str(rng.randrange(10 ** (d - 1), 10 ** d))
                point = rng.randint(0, d)
                token = rng.choice(["", "+", "-"]) + digits[:point] + "." + digits[point:]
                tokens += [token, digits, f"{token}e{rng.randint(-40, 30)}", f"{digits}E+{rng.randint(0, 25)}"]
        # values of the size that planted files hold, written as write_qps writes them
        tokens += [f"{rng.uniform(-10, 10) * 10.0 ** rng.randint(-20, 20):.17g}" for _ in range(400)]
        tokens += [repr(rng.uniform(-1, 1)) for _ in range(100)]
        return tokens

    ZEROS = ["000123", "0.000123", "123000", "123.000", "1230000000000000000", "0000000000000000000000001",
             "1.000000000000000000", "1.0000000000000000000", "0012.3400e-2", "+.5", "-.5", "0e5", "-0.0",
             "0", "-0", "+0.", "00.00", "0.0e-999", "-0e+999", "0e99999999999999999999", ".0000000000000001"]

    @staticmethod
    def _edges():
        """Tokens whose exponent is on each side of each edge of the exact range, and 20-digit significands."""
        tokens = []
        for w in ("1", "7", "5", "12345678901234567", "9999999999999999999", "1000000000000000000",
                  "4503599627370497", "18446744073709551615"[:19]):
            for e in (-29, -28, -27, -26, 18, 19, 20, 21):
                tokens += [f"{w}e{e}", f"-{w}e{e}"]
        tokens += ["0." + "0" * 26 + "1", "0." + "0" * 27 + "1", "1" + "0" * 19, "1" + "0" * 20,
                   "0.000000000000000000000000001234567890123456789"]
        # values that round up to the next power of two
        tokens += ["9007199254740991.5", "18014398509481983", "1.999999999999999999", "0.9999999999999999999",
                   "3.999999999999999999e-27", "1.8446744073709551615e19"]
        # 20 significant digits, which strtod converts, around the same edges
        tokens += [f"{w}e{e}" for w in ("12345678901234567890", "99999999999999999999", "10000000000000000000",
                                        "0.12345678901234567890") for e in (-28, -27, -8, 0, 19, 20)]
        return tokens

    @staticmethod
    def _ties():
        """Points halfway between adjacent doubles that fit in 19 significant digits."""
        rng = random.Random(13)
        ties = [decimal.Decimal(t) for t in ("9007199254740993", "9007199254740995", "4503599627370496.5",
                                             "4503599627370497.5", "1125899906842624.125")]
        for t in range(-3, 11):
            for _ in range(30):
                # halfway between m * 2^(t + 1) and (m + 1) * 2^(t + 1), for a 53-bit m
                tie = decimal.Decimal(2 * rng.randrange(2 ** 52, 2 ** 53) + 1) * decimal.Decimal(2) ** t
                if len(tie.as_tuple().digits) <= 19:
                    ties.append(tie)
        return ties

    # 19-digit tokens within 1/4096 of an ulp above (the first eight) or below a tie
    NEAR_TIES = ["8242608453558430821e-11", "3528610001915651051e-19", "8830022021456358910e-9",
                 "7135565799121193118e-22", "2587379565483915993e-25", "9954353611164419912e-12",
                 "2069941643205075323e-23", "6328916155010644161e-15", "4929496287072419533e-20",
                 "5565657431977982167e-12", "8981254968377473842e-21", "3277738393402074890e-7"]

    @classmethod
    def _halfway(cls):
        """The ties, each written three ways, their nearest 17-digit neighbours, and the near ties."""
        ctx = decimal.Context(prec=17)
        tokens = list(cls.NEAR_TIES)
        for tie in cls._ties():
            text = f"{tie:f}"
            tokens += [text, f"-{tie:e}", text + ("0" if "." in text else ".0"),
                       str(ctx.next_minus(tie)), str(ctx.next_plus(tie))]
        return tokens

    @needs_cc
    @pytest.mark.parametrize("kind", ["significands", "zeros", "edges", "halfway"])
    def test_exact_conversions_are_bitwise_float(self, kind):
        tokens = {"significands": self._significands, "zeros": lambda: self.ZEROS, "edges": self._edges,
                  "halfway": self._halfway}[kind]()
        assert len(tokens) > 20
        self._assert_bitwise_float(tokens)

    @staticmethod
    def _from_tie(exact):
        """How far the positive rational ``exact`` lies above the tie nearest to it, in ulps."""
        near = float(exact)
        below = near if fractions.Fraction(near) < exact else math.nextafter(near, 0.0)
        below, above = fractions.Fraction(below), fractions.Fraction(math.nextafter(below, math.inf))
        return (exact - (below + above) / 2) / (above - below)

    def test_the_ties_are_halfway_between_adjacent_doubles(self):
        ties = self._ties()
        assert len(ties) > 200
        assert {self._from_tie(fractions.Fraction(tie)) for tie in ties} == {0}
        near = [self._from_tie(fractions.Fraction(decimal.Decimal(t))) for t in self.NEAR_TIES]
        assert all(0 < d < fractions.Fraction(1, 4096) for d in near[:8])
        assert all(-fractions.Fraction(1, 4096) < d < 0 for d in near[8:])

    REFUSED = ["1e400", "-1e999", "1_0", "1D3", "1d3", "inf", "-Infinity", "nan", "0x1p3", "1e", ".", "e5",
               "1.2.3", "--1", "\u0661"]

    @needs_cc
    @pytest.mark.parametrize("token", REFUSED)
    def test_the_scan_refuses_tokens_float_reads_otherwise(self, token):
        with _reading("c"):
            data = f"    X1  R1  {token}\n".encode()
            assert _kernels.qps_scan(data, 0, "COLUMNS", _kernels.QpsScan(4, 4)) == -1

    @pytest.mark.parametrize("token", REFUSED)
    def test_refused_tokens_end_as_the_python_reader_ends_them(self, token):
        self._same_end(FIXTURE_QP.replace("    X2        C1        1.0", f"    X2        C1        {token}"))

    @pytest.mark.parametrize("old, new", [
        ("    X2        C1        1.0", "    X2\x1cC1        1.0"),  # a separator only str.split knows
        ("    X2        C1        1.0", "    X2        C1\x1c1.0"),
        ("    X2        C1        1.0", "    X\u00e9        C1        1.0"),  # a non-ASCII name
        ("    X1        X1        1.0", "    X1        X\u00e9        1.0"),
        ("    X2        C1        1.0", "    X2        C1        1.0\x0b"),
        ("    X2        C1        1.0", "    X2        C1\r        1.0"),  # a line break only splitlines knows
    ])
    def test_refused_bytes_end_as_the_python_reader_ends_them(self, old, new):
        self._same_end(FIXTURE_QP.replace(old, new))

    @staticmethod
    def _same_end(text):
        ends = {}
        for way in WAYS:
            for block in (qps._BLOCK, *BLOCKS):
                with _reading(way, block):
                    ends[way, block] = _outcome(text)
        assert len(set(ends.values())) == 1, ends


@pytest.mark.parametrize("old, new", [
    ("    X2        C1        1.0", "    X2        C9        1.0"),
    ("    X1        OBJ       -1.0      C1        1.0", "    X1        OBJ       -1.0      C9        1.0"),
    ("    RHS       C1        2.0", "    RHS       C9        2.0"),
    ("    RHS       C1        2.0", "    RHS       C1        2.0\nRANGES\n    RNG       OBJ       1.0"),
    ("    X2        X2        1.0", "    X9        X2        1.0"),
    ("    X2        X2        1.0", "    X2        X9        1.0"),
    ("QUADOBJ\n    X1        X1        1.0", "QMATRIX\n    X1        C1        1.0"),
])
def test_names_the_scan_leaves_unknown_end_as_the_python_reader_ends_them(old, new):
    # the reader looks up the scan's name tokens, and refuses the lines when one is unknown
    assert old in FIXTURE_QP
    TestScanNumbers._same_end(FIXTURE_QP.replace(old, new))


def _planted_file(tmp_path, n=120, m=160):
    path = tmp_path / "planted.qps"
    path.write_text(write_qps(make_problems.planted_instance(0, n, m)[0]))
    return path


def test_fixtures_and_a_planted_file_load_alike_every_way(tmp_path, fixtures_dir):
    for path in [*sorted(fixtures_dir.glob("*.qps")), _planted_file(tmp_path)]:
        digests = set()
        for way in WAYS:
            with _reading(way):
                digests.add(qps_digest.digest(load_qps(path)))
        assert len(digests) == 1, path.name


@pytest.mark.parametrize("room", [1, 2, 5])
def test_a_scan_out_of_room_goes_on_where_it_stopped(room, monkeypatch):
    text = write_qps(make_problems.planted_instance(1, 12, 9)[0])
    with _reading("numpy"):
        expected = parse_qps_document(text)
    monkeypatch.setattr(qps, "_SCAN_LINES", room)
    for way in WAYS:
        with _reading(way):
            _same_document(parse_qps_document(text), expected)


@pytest.mark.parametrize("room", [1, 2, 5])
def test_a_scan_out_of_names_goes_on_where_it_stopped(room, monkeypatch):
    # a planted file's lines bring one name each, MIXED's two-entry lines two
    monkeypatch.setattr(qps, "_SCAN_NAMES", room)
    for text in (write_qps(make_problems.planted_instance(1, 12, 9)[0]), MIXED, EVERY_SECTION):
        _document(text)


@needs_cc
class TestScanKernel:
    """What ``qps_scan`` reads under the c backend, and what it refuses."""

    @staticmethod
    def _scan(data, section, pos=0, room=64, names=64):
        """The status, the stop and next offsets, and the info, ia, ib, val,
        run and name outputs, the spans as the tokens they mark; or -1."""
        scan = _kernels.QpsScan(room, names)
        with _reading("c"):
            status = _kernels.qps_scan(data, pos, section, scan)
        if status < 0:
            return status
        stop, lines, k, runs, count, after = scan.out.tolist()
        spans = [[data[a:b] for a, b in array[:2 * n].reshape(-1, 2).tolist()]
                 for array, n in ((scan.runs, runs), (scan.names, count))]
        return (status, (stop, after), scan.info[:lines].tolist(), scan.ia[:k].tolist(),
                scan.ib[:k].tolist(), scan.val[:k].tolist(), *spans)

    def test_columns_entries_runs_and_the_header_it_stops_at(self):
        data = (b"    X1  OBJ 1.5  R1 -2\n\n  \t\n    X1  R2 3e1\r\n    X2\tR1 .25\n"
                b"RHS  extra\n    RHS R1 1\n")
        status, (stop, after), info, ia, ib, val, runs, names = self._scan(data, "COLUMNS")
        assert status == 1 and data[stop:after] == b"RHS  extra\n"
        assert info == [5, 0, 0, 3, 3, -1]
        # each distinct name once, numbered as it first appears
        assert (ib, names) == ([0, 1, 2, 1], [b"OBJ", b"R1", b"R2"])
        assert (ia, runs, val) == ([0, 0, 0, 1], [b"X1", b"X2"], [1.5, -2.0, 30.0, 0.25])
        # the next scan starts after the header line, reads to the end and numbers its names afresh
        assert self._scan(data, "RHS", pos=after) == (0, (len(data), len(data)), [3], [0], [0], [1.0],
                                                      [b"RHS"], [b"R1"])

    def test_quadratic_and_rhs_entries(self):
        assert self._scan(b" X2 X1 -1\n X1 X1 2\n X1 X2 3", "QUADOBJ")[3:] == (
            [0, 1, 1], [0, 0, 1], [-1.0, 2.0, 3.0], [b"X2", b"X1"], [b"X1", b"X2"])
        assert self._scan(b" RHS OBJ 4 R2 5\n", "RHS")[3:] == ([0, 0], [0, 1], [4.0, 5.0], [b"RHS"],
                                                               [b"OBJ", b"R2"])

    def test_names_are_told_apart_by_every_byte(self):
        # names that share a prefix, or differ only in length, and a name that is also a first token
        data = b" C R 1\n C R1 2 R12 3\n C R12 4\n C R 5 R2 6\n R1 R1 7\n R1 C 8 C 9\n"
        *_, ia, ib, _, runs, names = self._scan(data, "COLUMNS")
        assert names == [b"R", b"R1", b"R12", b"R2", b"C"]
        assert ib == [0, 1, 2, 2, 0, 3, 1, 4, 4]
        assert (runs, ia) == ([b"C", b"R1"], [0, 0, 0, 0, 0, 0, 1, 1, 1])

    def test_many_names_in_any_order(self):
        # a table near half full, so that many names share a probe sequence
        rng = random.Random(5)
        order = [rng.randrange(250) for _ in range(1000)]
        data = "".join(f" C N{i} {i}\n" for i in order).encode()
        *_, ib, val, _, names = self._scan(data, "COLUMNS", room=1000, names=256)
        first = list(dict.fromkeys(order))
        assert names == [f"N{i}".encode() for i in first]
        assert [first[j] for j in ib] == order == val

    def test_two_new_names_on_one_line(self):
        # in a table of four slots, some of these pairs probe the same slot first
        for i in range(64):
            first, second = f"P{i}", f"Q{i * i}R"
            data = f" C {first} 1 {second} 2\n C {second} 3\n".encode()
            assert self._scan(data, "COLUMNS", names=2)[4:] == ([0, 1, 1], [1.0, 2.0, 3.0], [b"C"],
                                                                [first.encode(), second.encode()])

    def test_other_sections_count_tokens_only(self):
        data = b" N  OBJ\n L  R1 R2 R3 R4 R5 R6\n\nCOLUMNS\n"
        assert self._scan(data, "ROWS")[:4] == (1, (len(data) - 8, len(data)), [2, 7, 0, -1], [])
        assert self._scan(data, None) == self._scan(data, "ROWS")

    def test_a_full_room_stops_before_the_next_line(self):
        data = b" X1 R1 1\n X1 R2 2\n X2 R1 3\nRHS\n"
        status, (stop, after), info, *_ = self._scan(data, "COLUMNS", room=2)
        assert (status, stop, after, info) == (0, 18, 18, [3, 3])
        # with room for the lines and not the header line, the header waits too
        assert self._scan(data, "COLUMNS", room=3)[:3] == (0, (27, 27), [3, 3, 3])
        assert self._scan(data, "COLUMNS", room=4)[:2] == (1, (27, 31))
        # a two-entry line needs room for two entries
        assert self._scan(b" X1 R1 1\n X1 R2 2 R3 3\n", "COLUMNS", room=2)[:3] == (0, (9, 9), [3])

    def test_a_full_name_room_stops_before_a_line_with_a_new_name(self):
        data = b" X1 R1 1\n X1 R2 2\n X2 R1 3 R2 4\n X2 R3 5\n X3 R3 6\n"
        # the known names R1 and R2 fit into a full room, the new R3 does not
        assert self._scan(data, "COLUMNS", names=2)[:3] == (0, (32, 32), [3, 3, 5])
        assert self._scan(data, "COLUMNS", names=3)[1] == (len(data), len(data))
        assert self._scan(data, "COLUMNS", names=1)[:3] == (0, (9, 9), [3])
        # a line with more new names than the room is refused
        assert self._scan(data, "COLUMNS", pos=18, names=1) == -1
        assert self._scan(b" X1 R1 1 R1 2\n", "COLUMNS", names=1) == -1
        assert self._scan(b" X1 R1 1 R1 2\n", "COLUMNS", names=2)[4:] == ([0, 0], [1.0, 2.0], [b"X1"], [b"R1"])

    @pytest.mark.parametrize("data, section", [
        (b" X1 R1 1\x0b\n", "COLUMNS"), (b" X1 R1 1\x0c\n", "ROWS"), (b" X1\x1cR1 1\n", "COLUMNS"),
        (b" X1 R1 1\r X1 R2 1\n", "COLUMNS"), (b" X1 R1 1\r", "COLUMNS"), (b" X1 R1 \x00\n", None),
        (b" X1 R1 1\x7f\n", "COLUMNS"), (" X\u00e9 R1 1\n".encode(), "COLUMNS"),
        (b" X1 R1 1\n* comment\n", "COLUMNS"), (b"   * comment\n", None), (b" X1 R1 *\n", "COLUMNS"),
        (b" X1 R1 1\nRHS\x0b\n", "COLUMNS"),  # the header line it stops at is checked too
        (b" X1 R1\n", "COLUMNS"), (b" X1 R1 1 R2\n", "RHS"), (b" X1 R1 1 R2 2 R1\n", "COLUMNS"),
        (b" X1 X2 1 X1 1\n", "QUADOBJ"), (b" X1 R1 1D3\n", "COLUMNS"), (b" X1 R1 1e999\n", "COLUMNS"),
    ])
    def test_refusals(self, data, section):
        assert self._scan(data, section) == -1

    def test_the_lines_after_the_header_are_not_checked(self):
        assert self._scan(b" X1 R1 1\nRHS\n\x0b\xff\n", "COLUMNS")[0] == 1


def test_the_numpy_backend_scans_nothing():
    with _reading("numpy"):
        assert _kernels.qps_scan(b" X1 R1 1\n", 0, "COLUMNS", _kernels.QpsScan(4, 4)) == -1
