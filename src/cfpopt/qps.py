"""Reader and writer for the QPS format (MPS plus a quadratic objective).

Supported sections: NAME, ROWS, COLUMNS, RHS, RANGES, BOUNDS, QUADOBJ (or
QMATRIX) and ENDATA, in fixed or whitespace-delimited free format.  Comment
lines (leading ``*``) and blank lines are skipped anywhere.  Every parse
error carries the offending line number.

Conventions follow the convex QP test-set usage: QUADOBJ entries are the
lower triangle of Q with the objective reading ``1/2 x'Qx + c'x`` (an
off-diagonal entry contributes to both symmetric positions), QMATRIX lists
the full matrix.  An RHS entry on the objective row is the objective
constant with its sign flipped.  Default variable bounds are
``0 <= x < +inf``.  Repeated COLUMNS and quadratic entries sum, in file
order; a repeated RHS, RANGES or BOUNDS entry replaces the earlier one.
Numeric fields may use Fortran ``D`` exponents; NaN is rejected everywhere,
and an infinite value everywhere but in BOUNDS, where a lower bound of
``+inf`` or an upper bound of ``-inf`` is rejected as an empty box.  A
constraint row whose coefficients are all zero (or absent) is rejected at
its ROWS line.

The text is a ``str`` or UTF-8 ``bytes``.  ASCII bytes are read as they are,
so ``load_qps``, which hands over the file's bytes, makes no decoded copy of
the file; other bytes are decoded first, so that a file that is not UTF-8
fails before any of it is parsed.  One leading byte-order mark is skipped.

The reader works a block at a time: it walks the text in blocks of about
``_BLOCK`` characters (bytes, for bytes), each cut just after a line feed,
so that it holds the text plus one block's lines, never a list of all the
lines.

Each ASCII block goes first, as bytes (a block of a ``str`` is encoded
once), to the scan kernel, ``qps_scan`` of :mod:`cfpopt._kernels`
(``cfp_qps_scan`` in C; the numpy backend has no scan and reads every block
by the Python path below).  It reads the block's lines up to the next
header line, which the reader reads.  For the data lines of COLUMNS, RHS,
RANGES and QUADOBJ/QMATRIX it converts the values and numbers the distinct
name tokens of each call; the reader decodes each distinct name once, looks
it up in its dicts, and maps the entries to indices with a numpy index.  It
only counts the lines of the other sections (ROWS, BOUNDS), which the
Python path then reads.  It reads only the plain case: lines of printable
ASCII but ``*``, spaces and tabs, ended by ``\\n`` or ``\\r\\n``; the token
counts the section allows; and finite numbers
``[+-]?(d+[.d*]|.d+)([eE][+-]?d+)?``, converted to the value ``float`` reads
(exactly in integers for up to 19 significant digits and decimal exponents
in [-27, 19], by ``strtod`` otherwise).  Anything else (a comment, a ``D``
exponent, a MARKER line, a non-finite or malformed number), or a name the
Python path would reject, refuses the lines, and the rest of the block is
read by the Python path, as a block that is not ASCII is from its start.

The Python path is the reference and the only source of diagnostics and
warnings.  It reads one line at a time: each data line is split, its
fields are checked in turn and its entries recorded, so the first fault
raises at its own line.  COLUMNS and quadratic entries are kept as index
and value arrays, grown by reallocation (so one copy of them is held): by
each scan's entries, and by the entries the Python path gathers, at each
section header and at the end of each run of lines it reads.
``to_problem`` sums them into ``A``, ``c`` and ``Q`` with ``np.bincount``
in file order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _kernels
from .model import AffineConstraint, Bounds, Problem, QuadraticFunction

__all__ = [
    "ParseDiagnostic",
    "QpsParseError",
    "QpsDocument",
    "parse_qps_document",
    "parse_qps",
    "load_qps",
    "write_qps",
]

_SECTIONS = ("NAME", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "QUADOBJ", "QMATRIX", "ENDATA")
_QUADRATIC = ("QUADOBJ", "QMATRIX")
_SCANNED = ("COLUMNS", "RHS", "RANGES", *_QUADRATIC)  # the sections whose entries the scan kernel converts
_MARKERS = ("'MARKER'", "MARKER")
_BLOCK = 1 << 16  # characters (or bytes) of text read at a time, up to the end of a line
_SCAN_LINES = 1536  # the lines a scan kernel call reads at most
_SCAN_NAMES = 512  # the distinct name tokens a scan kernel call numbers at most
_BOM = "\ufeff"  # a byte-order mark, skipped at the start of a text
# the message of a data line in a section without data lines (None: before any header)
_NO_DATA = {None: "data before any section header", "NAME": "unexpected data in NAME section",
            "ENDATA": "data after ENDATA"}
_PAIRS = {"COLUMNS": "COL", "RHS": "RHSNAME", "RANGES": "RNGNAME"}  # the first field of a two-entry line


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    section: str
    message: str
    severity: str = "error"  # "error" | "warning"

    def __str__(self):
        return f"line {self.line} [{self.section}]: {self.message}"


class QpsParseError(ValueError):
    """Parse failure; ``diagnostic`` pinpoints the offending line."""

    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


@dataclass
class QpsDocument:
    """Sections of one QPS file, with the entries as index arrays.

    The COLUMNS and quadratic entries are parallel index and value arrays in
    file order; a COLUMNS entry on the objective row has row index -1, and
    the others index ``row_order`` and ``col_order``.
    """

    name: str = ""
    objective_row: str | None = None
    objective_line: int = 0  # ROWS line of the objective row
    row_order: list[str] = field(default_factory=list)
    row_lines: list[int] = field(default_factory=list)  # ROWS line of each row
    row_sense: dict = field(default_factory=dict)  # row -> 'L' | 'G' | 'E'
    col_order: list[str] = field(default_factory=list)
    entry_rows: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    entry_cols: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    entry_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    rhs: dict = field(default_factory=dict)  # row -> value
    rhs_objective: float = 0.0
    ranges: dict = field(default_factory=dict)  # row -> range value
    bound_lo: dict = field(default_factory=dict)  # column index -> lower (explicit)
    bound_hi: dict = field(default_factory=dict)  # column index -> upper (explicit)
    quad_rows: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    quad_cols: np.ndarray = field(default_factory=lambda: np.empty(0, np.intp))
    quad_values: np.ndarray = field(default_factory=lambda: np.empty(0))
    quad_section: str | None = None
    warnings: list = field(default_factory=list)

    def interval(self, row: str) -> tuple[float, float]:
        """Resolve sense + RHS + optional RANGES into (lo, hi) for a row."""
        sense = self.row_sense[row]
        b = self.rhs.get(row, 0.0)
        if row not in self.ranges:
            if sense == "L":
                return -np.inf, b
            if sense == "G":
                return b, np.inf
            return b, b
        r = self.ranges[row]
        if sense == "L":
            return b - abs(r), b
        if sense == "G":
            return b, b + abs(r)
        # E row: the range sign picks the side
        return (b, b + r) if r >= 0.0 else (b + r, b)

    def to_problem(self, name: str | None = None) -> Problem:
        n, m = len(self.col_order), len(self.row_order)
        # the objective row (index -1) is the last row of A, so that c sums
        # its entries as the constraint rows do; bincount adds each
        # position's entries in file order from 0.0, as np.add.at on zeros
        # does, and an overflowing sum is rejected below, not warned about
        A = np.bincount(self.entry_rows % (m + 1) * n + self.entry_cols, weights=self.entry_values,
                        minlength=(m + 1) * n).reshape(m + 1, n)
        bad = np.argwhere(~np.isfinite(A))
        if bad.size:
            k, j = bad[0]
            line, row = ((self.row_lines[k], self.row_order[k]) if k < m
                         else (self.objective_line, self.objective_row))
            _fail(line, "ROWS", f"entries of row {row!r} in column {self.col_order[j]!r} "
                  "sum to a non-finite value")
        i, j, v = self.quad_rows, self.quad_cols, self.quad_values
        if self.quad_section == "QUADOBJ":
            # each off-diagonal entry's mirror right after it, so that every
            # position of Q sums its contributions in file order
            keep = np.column_stack([np.ones_like(i, dtype=bool), i != j]).ravel()
            i, j = np.column_stack([i, j]).ravel()[keep], np.column_stack([j, i]).ravel()[keep]
            v = np.repeat(v, 2)[keep]
        Q = np.bincount(i * n + j, weights=v, minlength=n * n).reshape(n, n)
        bad = np.argwhere(~np.isfinite(Q))
        if bad.size:
            i, j = bad[0]
            _fail(0, self.quad_section, f"entries of columns {self.col_order[i]!r} and "
                  f"{self.col_order[j]!r} sum to a non-finite value")
        try:
            objective = QuadraticFunction(Q, A[m], constant=-self.rhs_objective)
        except ValueError:  # Q, c and the constant are finite: Q is not symmetric
            raise QpsParseError(ParseDiagnostic(0, self.quad_section or "QUADOBJ",
                                                "assembled quadratic matrix is not symmetric")) from None

        empty = np.flatnonzero(~A[:m].any(axis=1))
        if empty.size:
            k = empty[0]
            _fail(self.row_lines[k], "ROWS", f"row {self.row_order[k]!r} has no nonzero coefficient")
        constraints = [AffineConstraint(A[k], *self.interval(row)) for k, row in enumerate(self.row_order)]

        lo = np.zeros(n)
        hi = np.full(n, np.inf)
        lo[list(self.bound_lo)] = list(self.bound_lo.values())
        hi[list(self.bound_hi)] = list(self.bound_hi.values())
        bounds = Bounds(lo, hi)

        return Problem(
            objective,
            constraints,
            bounds=bounds,
            n=n,
            name=name if name is not None else self.name,
            var_names=list(self.col_order),
            row_names=list(self.row_order),
        )


def _fail(line_no: int, section: str, message: str):
    raise QpsParseError(ParseDiagnostic(line_no, section, message))


def _spans(data: bytes, spans, count: int) -> list[str]:
    """The ``count`` tokens of ``data`` whose start and end offsets ``spans`` lists in turn."""
    spans = spans[:2 * count].tolist()
    return [data[start:end].decode() for start, end in zip(spans[::2], spans[1::2])]


def _number(token: str, line_no: int, section: str, allow_inf: bool = False) -> float:
    """``float`` of the numeric field ``token`` of line ``line_no``, read again
    with ``D`` exponents when ``float`` rejects it; NaN fails, and so does an
    infinite value unless ``allow_inf``."""
    try:
        value = float(token)
    except ValueError:
        try:
            value = float(token.replace("D", "E").replace("d", "e"))
        except ValueError:
            _fail(line_no, section, f"malformed numeric field {token!r}")
    if math.isnan(value) or not (allow_inf or math.isfinite(value)):
        _fail(line_no, section, f"non-finite numeric field {token!r}")
    return value


def _blocks(text, pos: int = 0):
    """``text[pos:]``, a ``str`` or ASCII ``bytes``, in blocks of about ``_BLOCK`` characters.

    Each block but the last ends just after a line feed, so no line break is
    cut in two (``\\r\\n`` included) and the blocks' lines are those of
    ``text[pos:].splitlines()``.
    """
    feed = "\n" if isinstance(text, str) else b"\n"
    while pos < len(text):
        stop = text.find(feed, pos + _BLOCK) + 1 or len(text)
        yield text[pos:stop]
        pos = stop


class _Entries:
    """Parallel row index, column index and value arrays (``arrays``), grown a block at a time.

    Each block's entries are appended after ``ndarray.resize``, which
    reallocates the buffer, in place where the allocator can, so a parse
    holds one copy of the entries, not one array per block and then their
    concatenation.  Growing by exactly one block's entries keeps the arrays
    no longer than the entries; it measured no slower than growing by half.
    """

    def __init__(self):
        self.arrays = (np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))

    def append(self, rows, cols, values) -> None:
        start = self.arrays[2].shape[0]
        end = start + len(values)
        for array, block in zip(self.arrays, (rows, cols, values)):
            # no view of the arrays is alive while the parse runs, so the
            # check for one is skipped
            array.resize(end, refcheck=False)
            array[start:end] = block


class _Reader:
    """One parse: the section, the document, the name-to-index maps and the entries read so far."""

    def __init__(self):
        self.section = None  # the section of the lines being read
        self.offset = 0  # the number of lines read
        self.doc = QpsDocument()
        self.rows: dict[str, int] = {}  # row -> index; the objective row -> -1
        self.cols: dict[str, int] = {}  # column -> index
        self.marker_rows = False  # a row named like a MARKER keyword
        self.entries = _Entries()  # the COLUMNS entries
        self.quad = _Entries()  # the quadratic entries
        self.pending = ([], [], [])  # the entries :meth:`_lines` read since it last flushed them
        # a scan that runs out of room stops, and the next goes on from there
        self.scan = _kernels.QpsScan(_SCAN_LINES, _SCAN_NAMES)

    def read(self, text) -> QpsDocument:
        """Read ``text``, a ``str`` (after one leading byte-order mark, if any) or ASCII ``bytes``."""
        doc = self.doc
        for block in _blocks(text, 1 if isinstance(text, str) and text.startswith(_BOM) else 0):
            # a str block is encoded once for the scan, unless it is not ASCII
            data = block if isinstance(block, bytes) else block.encode() if block.isascii() else b""
            done = self._scan(data)
            if done < len(block):
                rest = block[done:]
                self._lines(rest if isinstance(rest, str) else rest.decode())

        if doc.objective_row is None:
            _fail(0, "ROWS", "no N (objective) row declared")
        if self.section != "ENDATA":
            doc.warnings.append(ParseDiagnostic(0, "ENDATA", "missing ENDATA", "warning"))
        doc.col_order = list(self.cols)
        doc.entry_rows, doc.entry_cols, doc.entry_values = self.entries.arrays
        doc.quad_rows, doc.quad_cols, doc.quad_values = self.quad.arrays
        return doc

    def _scan(self, data: bytes) -> int:
        """Read the lines of the ASCII ``data`` with the scan kernel, up to
        where it refuses them; returns that offset, or the length of ``data``.

        The kernel converts the values of the sections it knows, whose names
        are looked up here, and counts the others' lines, which
        :meth:`_lines` then reads; header lines are read here.
        """
        scan, pos = self.scan, 0
        while pos < len(data):
            # with a row named like a MARKER keyword, MARKER lines must reach _lines
            section = None if self.section == "COLUMNS" and self.marker_rows else self.section
            status = _kernels.qps_scan(data, pos, section, scan)
            if status < 0:
                return pos
            stop, lines, k, runs, distinct, after = scan.out.tolist()
            lines -= status  # the header line, if any, is read below
            if section in _SCANNED:
                if k and not self._put_scanned(section, data, k, runs, distinct):
                    return pos
                self.offset += lines
            else:
                self._lines(data[pos:stop].decode())
            if status:
                self._header(data[stop:after].decode().split(), self.offset + 1)
                self.offset += 1
            pos = after
        return pos

    def _put_scanned(self, section, data: bytes, k: int, runs: int, distinct: int) -> bool:
        """Add the ``k`` entries of the last scan of ``data``, with its ``runs``
        runs and ``distinct`` names, each of which is looked up once.

        Returns False, and adds nothing, when a name is unknown (or, in
        RANGES, is the objective row), so that :meth:`_lines` reads the
        lines and reports it.
        """
        scan = self.scan
        names = _spans(data, scan.names, distinct)
        ib, values = scan.ib[:k], scan.val[:k]
        if section in _QUADRATIC:
            firsts = list(map(self.cols.get, _spans(data, scan.runs, runs)))
            cols = list(map(self.cols.get, names))
            if None in firsts or None in cols:
                return False
            self.quad.append(np.array(firsts, dtype=np.intp)[scan.ia[:k]], np.array(cols, dtype=np.intp)[ib],
                             values)
            return True
        rows = list(map(self.rows.get, names))
        if None in rows or (section == "RANGES" and -1 in rows):
            return False
        if section == "COLUMNS":
            cols = [self.cols.setdefault(col, len(self.cols)) for col in _spans(data, scan.runs, runs)]
            self.entries.append(np.array(rows, dtype=np.intp)[ib], np.array(cols, dtype=np.intp)[scan.ia[:k]],
                                values)
        else:
            self._put_rhs(section, list(map(names.__getitem__, ib.tolist())), values.tolist())
        return True

    def _lines(self, text: str) -> None:
        """Read ``text``, a run of whole lines, in Python alone, one line at a time."""
        lines = text.splitlines()
        for line_no, line in enumerate(lines, self.offset + 1):
            toks = line.split()
            if not toks or toks[0][0] == "*":
                continue  # a blank line or a comment
            if line[0].isspace():
                self._line(line, toks, line_no)
            else:
                self._flush()
                self._header(toks, line_no)
        self._flush()
        self.offset += len(lines)

    def _flush(self) -> None:
        """Append the pending entries to the current section's entry arrays."""
        rows, cols, values = self.pending
        if values:
            (self.quad if self.section in _QUADRATIC else self.entries).append(rows, cols, values)
            self.pending = ([], [], [])

    def _header(self, toks: list[str], line_no: int) -> None:
        """Start the section that the header line ``line_no``, split into ``toks``, names."""
        if self.section == "ENDATA":
            _fail(line_no, "ENDATA", "data after ENDATA")
        head = toks[0].upper()
        if head not in _SECTIONS:
            _fail(line_no, self.section or "-", f"unknown section {toks[0]!r}")
        self.section = head
        if head == "NAME":
            self.doc.name = toks[1] if len(toks) > 1 else ""
        elif head in _QUADRATIC:
            self.doc.quad_section = head

    def _line(self, line: str, toks: list[str], line_no: int) -> None:
        """Check the data line ``line_no``, split into ``toks``, and record it in the current section.

        Its fields are checked in turn, each entry of a two-entry line whole
        before the next, so that the first fault of the line raises.
        """
        section, doc = self.section, self.doc
        if section in _PAIRS:  # 'NAME ROW VAL [ROW VAL]'
            columns = section == "COLUMNS"
            if columns and len(toks) >= 3 and toks[1].upper() in _MARKERS:
                doc.warnings.append(ParseDiagnostic(line_no, section, "MARKER line ignored", "warning"))
                return
            if len(toks) != 3 and len(toks) != 5:
                _fail(line_no, section, f"expected '{_PAIRS[section]} ROW VAL [ROW VAL]'")
            # COLUMNS entries wait for the next flush; an RHS or RANGES line sets its values at once
            rows, cols, values = self.pending if columns else ([], [], [])
            col = self.cols.setdefault(toks[0], len(self.cols)) if columns else None
            for p in range(1, len(toks), 2):
                values.append(_number(toks[p + 1], line_no, section))
                row = self.rows.get(toks[p])
                if section == "RANGES" and (row is None or row < 0):
                    _fail(line_no, section, f"undeclared or non-constraint row {toks[p]!r}")
                if row is None:
                    _fail(line_no, section, f"undeclared row {toks[p]!r}")
                rows.append(row)
                cols.append(col)
            if not columns:
                self._put_rhs(section, toks[1::2], values)
        elif section in _QUADRATIC:
            if len(toks) != 3:
                _fail(line_no, section, "expected 'COL COL VAL'")
            first, second = self.cols.get(toks[0]), self.cols.get(toks[1])
            if first is None or second is None:
                _fail(line_no, section, f"undeclared column {toks[0] if first is None else toks[1]!r}")
            rows, cols, values = self.pending
            rows.append(first)
            cols.append(second)
            values.append(_number(toks[2], line_no, section))
        elif section == "ROWS":
            if len(toks) != 2:
                _fail(line_no, section, f"expected 'SENSE NAME', got {line.strip()!r}")
            sense, row = toks
            kind = sense.upper()
            if row in self.rows:
                _fail(line_no, section, f"duplicate row {row!r}")
            if kind == "N":
                if doc.objective_row is not None:
                    _fail(line_no, section, "duplicate N (objective) row")
                doc.objective_row, doc.objective_line = row, line_no
                self.rows[row] = -1
            elif kind in ("L", "G", "E"):
                self.rows[row] = len(doc.row_order)
                doc.row_order.append(row)
                doc.row_lines.append(line_no)
                doc.row_sense[row] = kind
            else:
                _fail(line_no, section, f"unknown row sense {sense!r}")
            self.marker_rows |= row.upper() in _MARKERS
        elif section == "BOUNDS":
            # its entries apply in order, each checked against the box so far
            kind = toks[0].upper()
            if kind in ("LO", "UP", "FX"):
                if len(toks) != 4:
                    _fail(line_no, section, f"{kind} bound expects 'TYPE SET COL VAL'")
                value = _number(toks[3], line_no, section, allow_inf=True)
            elif kind not in ("FR", "MI", "PL", "BV"):
                _fail(line_no, section, f"unknown bound type {toks[0]!r}")
            elif len(toks) < 3:
                _fail(line_no, section, f"{kind} bound expects 'TYPE SET COL'")
            j = self.cols.get(toks[2])
            if j is None:
                _fail(line_no, section, f"undeclared column {toks[2]!r}")
            if kind in ("LO", "FX"):
                doc.bound_lo[j] = value
            if kind in ("UP", "FX"):
                doc.bound_hi[j] = value
            if kind in ("FR", "MI"):
                doc.bound_lo[j] = -np.inf
            if kind in ("FR", "PL"):
                doc.bound_hi[j] = np.inf
            if kind == "BV":
                doc.bound_lo[j], doc.bound_hi[j] = 0.0, 1.0
                doc.warnings.append(ParseDiagnostic(
                    line_no, section, f"binary bound on {toks[2]!r} relaxed to [0, 1]", "warning"))
            lo, hi = doc.bound_lo.get(j, 0.0), doc.bound_hi.get(j, np.inf)
            if lo > hi or lo == np.inf or hi == -np.inf:
                _fail(line_no, section, f"inconsistent bounds on {toks[2]!r}: [{lo}, {hi}]")
        else:
            _fail(line_no, section or "-", _NO_DATA[section])

    def _put_rhs(self, section, names, values):
        """Set the RHS or RANGES ``values`` of the rows ``names``, in order."""
        values = dict(zip(names, values))
        if section == "RANGES":
            self.doc.ranges.update(values)
            return
        self.doc.rhs_objective = values.pop(self.doc.objective_row, self.doc.rhs_objective)
        self.doc.rhs.update(values)


def parse_qps_document(text: str | bytes) -> QpsDocument:
    """Parse QPS text, a ``str`` or UTF-8 ``bytes``, into its raw sections (see :class:`QpsDocument`).

    ASCII bytes are read as they are; other bytes are decoded first, and
    bytes that are not UTF-8 fail at the line of the first bad byte.  One
    leading byte-order mark is skipped.
    """
    if isinstance(text, bytes) and not text.isascii():
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise QpsParseError(ParseDiagnostic(text.count(b"\n", 0, exc.start) + 1, "-",
                                                f"not UTF-8 text: {exc.reason} at byte {exc.start}")) from None
    return _Reader().read(text)


def parse_qps(text: str | bytes, name: str | None = None) -> Problem:
    """Parse QPS text into a :class:`~cfpopt.model.Problem`."""
    return parse_qps_document(text).to_problem(name=name)


def load_qps(path) -> Problem:
    """Parse a UTF-8 QPS file; the problem name falls back to the file stem."""
    path = Path(path)
    doc = parse_qps_document(path.read_bytes())
    return doc.to_problem(name=doc.name or path.stem)


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def write_qps(problem: Problem, name: str | None = None) -> str:
    """Serialize a quadratic-objective, affine-constraint problem as QPS text.

    ``parse_qps(write_qps(p))`` reproduces the matrices, vectors and bounds
    of ``p``; a problem without bounds comes back with free columns.  Raises
    ValueError for objectives or constraints the format cannot carry.
    """
    obj = problem.objective
    if not isinstance(obj, QuadraticFunction):
        raise ValueError("QPS can only carry a quadratic objective")
    for con in problem.constraints:
        if not isinstance(con, AffineConstraint):
            raise ValueError(f"QPS can only carry affine constraints, got {con!r}")

    n = problem.n
    cols = problem.var_names if problem.var_names else [f"X{j + 1}" for j in range(n)]
    rows = problem.row_names if problem.row_names else [f"R{i + 1}" for i in range(len(problem.constraints))]
    if len(cols) != n or len(rows) != len(problem.constraints):
        raise ValueError("name lists do not match problem dimensions")

    out = [f"NAME          {name if name is not None else (problem.name or 'CFPOPT')}"]
    out.append("ROWS")
    out.append(" N  OBJ")
    senses = []
    rhs_vals = []
    range_vals = []
    for con in problem.constraints:
        if con.sense == "<=":
            senses.append("L")
            rhs_vals.append(con.hi)
            range_vals.append(None)
        elif con.sense == ">=":
            senses.append("G")
            rhs_vals.append(con.lo)
            range_vals.append(None)
        elif con.sense == "==":
            senses.append("E")
            rhs_vals.append(con.hi)
            range_vals.append(None)
        else:  # finite slab: L row plus a range
            senses.append("L")
            rhs_vals.append(con.hi)
            range_vals.append(con.hi - con.lo)
    for s, r in zip(senses, rows):
        out.append(f" {s}  {r}")

    # each column's lines, and each QUADOBJ row's, are joined into one
    # string, so that the text is not also held as one string per line
    out.append("COLUMNS")
    # a stacked mask, not a stacked A: a float A of plant-art3's size (154 KB)
    # raised that workload's solvebench peak_rss_mb by about 0.3 MB
    constraints = problem.constraints
    nonzero = np.array([con.a != 0.0 for con in constraints], dtype=bool).reshape(len(rows), n)
    for j, col in enumerate(cols):
        # always emit the objective coefficient so every variable is declared
        out.append("\n".join([f"    {col:<10}{'OBJ':<10}{_fmt(obj.c[j])}"] + [
            f"    {col:<10}{rows[i]:<10}{_fmt(constraints[i].a.item(j))}"
            for i in np.flatnonzero(nonzero[:, j]).tolist()]))

    out.append("RHS")
    if obj.constant != 0.0:
        out.append(f"    RHS       {'OBJ':<10}{_fmt(-obj.constant)}")
    for r, v in zip(rows, rhs_vals):
        if v != 0.0:
            out.append(f"    RHS       {r:<10}{_fmt(v)}")

    if any(rv is not None for rv in range_vals):
        out.append("RANGES")
        for r, rv in zip(rows, range_vals):
            if rv is not None:
                out.append(f"    RNG       {r:<10}{_fmt(rv)}")

    # a problem without a box has free columns, not the MPS default 0 <= x
    if problem.bounds is None:
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    else:
        lo, hi = problem.bounds.lo, problem.bounds.hi
    blines = []
    for j, col in enumerate(cols):
        if lo[j] == 0.0 and hi[j] == np.inf:
            continue  # MPS default
        if lo[j] == -np.inf and hi[j] == np.inf:
            blines.append(f" FR BND       {col}")
            continue
        if lo[j] == hi[j]:
            blines.append(f" FX BND       {col:<10}{_fmt(lo[j])}")
            continue
        if lo[j] == -np.inf:
            blines.append(f" MI BND       {col}")
        elif lo[j] != 0.0:
            blines.append(f" LO BND       {col:<10}{_fmt(lo[j])}")
        if hi[j] != np.inf:
            blines.append(f" UP BND       {col:<10}{_fmt(hi[j])}")
    if blines:
        out.append("BOUNDS")
        out.extend(blines)

    quad = []
    for i, q in enumerate(obj.Q):
        nonzero = np.flatnonzero(q[:i + 1])  # the lower triangle
        quad.append("\n".join(f"    {cols[i]:<10}{cols[j]:<10}{_fmt(v)}"
                               for j, v in zip(nonzero.tolist(), q[nonzero].tolist())))
    if any(quad):
        out += ["QUADOBJ", *filter(None, quad)]

    out.append("ENDATA")
    return "\n".join(out) + "\n"
