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

The reader works a block at a time, not a line at a time: it walks the text
in blocks of about ``_BLOCK`` characters (bytes, for bytes), each cut just
after a line feed, so that it holds the text plus one block's lines and
tokens, never a list of all the lines.

Each ASCII block goes first, as bytes (a block of a ``str`` is encoded
once), to the scan kernel, ``qps_scan`` of :mod:`cfpopt._kernels`
(``cfp_qps_scan`` in C; the numpy backend has no scan and reads every block
by the Python path below).  It reads the block's lines up to the next
header line, which the reader reads.  For the data lines of COLUMNS, RHS,
RANGES and QUADOBJ/QMATRIX it converts the values and numbers the distinct
name tokens of each call; the reader decodes each distinct name once, looks
it up in its dicts, and maps the entries to indices with a numpy index.  It
only counts the lines of the other sections, whose handlers then read them.
It reads only the plain case: lines of printable ASCII but ``*``, spaces
and tabs, ended by ``\\n`` or ``\\r\\n``; the token counts the section
allows; and finite numbers ``[+-]?(d+[.d*]|.d+)([eE][+-]?d+)?``, converted
to the value ``float`` reads (exactly in integers for up to 19 significant
digits and decimal exponents in [-27, 19], by ``strtod`` otherwise).
Anything else (a comment, a ``D`` exponent, a MARKER line, a non-finite or
malformed number), or a name the section's handler rejects, refuses the
lines, and the rest of the block is read by the Python path, as a block
that is not ASCII is from its start.

The Python path is the reference and the only source of diagnostics and
warnings: the data lines of each section in a block are tokenised, checked,
mapped from names to indices and converted to floats in bulk by the
section's handler.  A check that fails on a block searches it for the first
offending line, so a diagnostic names the same line a line-by-line reader
would.  COLUMNS and quadratic entries are kept as index and value arrays,
each grown a block at a time by reallocation (so one copy of them is held),
and ``to_problem`` sums them into ``A``, ``c`` and ``Q`` with ``np.bincount``
in file order.
"""

from __future__ import annotations

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


def _fail_first(section: str, line_of, *faults):
    """Raise the first of the faults found in a block, if any.

    A fault is ``(entry, rank, message)`` or None: ``entry`` indexes the
    block's entries (``line_of`` maps it to its line), and ``rank`` orders
    the checks made on one entry.
    """
    found = [f for f in faults if f]
    if found:
        entry, _, message = min(found)
        _fail(line_of[entry], section, message)


def _spans(data: bytes, spans, count: int) -> list[str]:
    """The ``count`` tokens of ``data`` whose start and end offsets ``spans`` lists in turn."""
    spans = spans[:2 * count].tolist()
    return [data[start:end].decode() for start, end in zip(spans[::2], spans[1::2])]


def _fields(toks):
    """The 3-token lists ``toks`` as three tuples: first, second and third tokens."""
    return tuple(zip(*toks)) or ((), (), ())


def _truncate(line_of, toks, counts):
    """Cut ``toks`` before its first line with a token count not in ``counts``.

    Returns the kept lines and the number of the cut line, or None.
    """
    if set(map(len, toks)).issubset(counts):
        return toks, None
    k = next(k for k, t in enumerate(toks) if len(t) not in counts)
    return toks[:k], line_of[k]


def _pairs(line_of, toks):
    """The entries of a ``NAME ROW VAL [ROW VAL]`` block as 3-token lists.

    A 5-token line gives two entries, and ``line_of`` becomes the line of
    each entry.  Entries stop before the first line with another token
    count, whose number is returned too (see ``_truncate``).
    """
    toks, cut = _truncate(line_of, toks, (3, 5))
    if 5 in map(len, toks):
        line_of = [line_of[k] for k, t in enumerate(toks) for _ in range(len(t) // 2)]
        toks = [(t[0], t[p], t[p + 1]) for t in toks for p in range(1, len(t), 2)]
    return line_of, toks, cut


def _first_missing(indices, names, rank: int, what: str):
    """The fault for the first name that ``indices`` could not resolve."""
    if None not in indices:
        return None
    k = indices.index(None)
    return k, rank, f"{what} {names[k]!r}"


def _numbers(tokens, rank: int, allow_inf: bool = False):
    """``float`` of each token, and the first fault (see ``_fail_first``).

    A token ``float`` rejects is read again with ``D`` exponents; NaN is a
    fault, and so is an infinite value unless ``allow_inf``.
    """
    fault = None
    try:
        values = list(map(float, tokens))
    except ValueError:
        values = []
        for tok in tokens:
            try:
                values.append(float(tok.replace("D", "E").replace("d", "e")))
            except ValueError:
                fault = (len(values), rank, f"malformed numeric field {tok!r}")
                break
    values = np.array(values, dtype=np.float64)
    bad = np.isnan(values) if allow_inf else ~np.isfinite(values)
    if bad.any():
        k = int(bad.argmax())
        fault = (k, rank, f"non-finite numeric field {tokens[k]!r}")
    return values, fault


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
    """One parse: the section, the document, the name-to-index maps and the lines being read."""

    def __init__(self):
        self.section = None  # the section of the lines being read
        self.lines: list[str] = []  # the lines being read, which a diagnostic may quote
        self.offset = 0  # the number of lines before the ones being read
        self.comments = False  # a '*' in self.lines, else no line needs the comment test
        self.doc = QpsDocument()
        self.rows: dict[str, int] = {}  # row -> index; the objective row -> -1
        self.cols: dict[str, int] = {}  # column -> index
        self.marker_rows = False  # a row named like a MARKER keyword
        self.entries = _Entries()  # the COLUMNS entries
        self.quad = _Entries()  # the quadratic entries
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
        are looked up here, and counts the others' lines, which the
        section's handler then reads; header lines are read here.
        """
        scan, pos = self.scan, 0
        while pos < len(data):
            # with a row named like a MARKER keyword, MARKER lines must reach the handler
            section = None if self.section == "COLUMNS" and self.marker_rows else self.section
            status = _kernels.qps_scan(data, pos, section, scan)
            if status < 0:
                return pos
            stop, lines, k, runs, distinct, after = scan.out.tolist()
            lines -= status  # the header line, if any, is read below
            if section in _SCANNED:
                if k and not self._put_scanned(section, data, k, runs, distinct):
                    return pos
            else:
                data_lines = np.flatnonzero(scan.info[:lines]).tolist()
                if data_lines:
                    self.lines = data[pos:stop].decode().splitlines()
                    _HANDLERS[self.section](self, self.section, [self.offset + j + 1 for j in data_lines],
                                            [self.lines[j].split() for j in data_lines])
            self.offset += lines
            if status:
                self._header(data[stop:after].decode().split(), self.offset + 1)
                self.offset += 1
            pos = after
        return pos

    def _put_scanned(self, section, data: bytes, k: int, runs: int, distinct: int) -> bool:
        """Add the ``k`` entries of the last scan of ``data``, with its ``runs``
        runs and ``distinct`` names, each of which is looked up once.

        Returns False, and adds nothing, when a name is unknown (or, in
        RANGES, is the objective row), so that the handler reports it.
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
        """Read ``text``, a run of whole lines, in Python alone."""
        lines = self.lines = text.splitlines()
        self.comments, start = "*" in text, 0
        for i in [i for i, line in enumerate(lines) if line and not line[0].isspace()]:
            toks = lines[i].split()
            if toks[0][0] == "*":
                continue
            self._section(start, i)
            self._header(toks, self.offset + i + 1)
            start = i + 1
        self._section(start, len(lines))
        self.offset += len(lines)

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

    def _section(self, start: int, stop: int):
        """Hand the data lines ``lines[start:stop]`` to the current section's handler."""
        if start == stop:
            return
        section = self.section
        handler = _HANDLERS[section]
        toks = list(map(str.split, self.lines[start:stop]))
        first = self.offset + start + 1
        if all(toks) and not self.comments:
            handler(self, section, range(first, first + len(toks)), toks)
        else:
            keep = [k for k, t in enumerate(toks) if t and t[0][0] != "*"]
            handler(self, section, [first + k for k in keep], [toks[k] for k in keep])

    def _no_data(self, section, line_of, toks):
        if toks:
            if section is None:
                _fail(line_of[0], "-", "data before any section header")
            _fail(line_of[0], section, "data after ENDATA" if section == "ENDATA"
                  else "unexpected data in NAME section")

    def _rows(self, section, line_of, toks):
        doc = self.doc
        toks, cut = _truncate(line_of, toks, (2,))
        for line_no, (sense, row) in zip(line_of, toks):
            kind = sense.upper()
            if row in self.rows:
                _fail(line_no, section, f"duplicate row {row!r}")
            if kind == "N":
                if doc.objective_row is not None:
                    _fail(line_no, section, "duplicate N (objective) row")
                doc.objective_row = row
                doc.objective_line = line_no
                self.rows[row] = -1
            elif kind in ("L", "G", "E"):
                self.rows[row] = len(doc.row_order)
                doc.row_order.append(row)
                doc.row_lines.append(line_no)
                doc.row_sense[row] = kind
            else:
                _fail(line_no, section, f"unknown row sense {sense!r}")
        if cut is not None:
            _fail(cut, section, f"expected 'SENSE NAME', got {self.lines[cut - 1 - self.offset].strip()!r}")
        self.marker_rows = any(row.upper() in _MARKERS for row in self.rows)

    def _entries(self, section, line_of, toks):
        """A COLUMNS block: its entries become index and value arrays."""
        rows = None
        if not self.marker_rows and set(map(len, toks)) == {3}:
            cols, names, values = _fields(toks)
            rows = list(map(self.rows.get, names))
        cut = None
        if rows is None or None in rows:
            # MARKER lines, two-entry lines or a fault: take the general path
            markers = [k for k, t in enumerate(toks) if len(t) >= 3 and t[1].upper() in _MARKERS]
            if markers:
                self.doc.warnings += [ParseDiagnostic(line_of[k], section, "MARKER line ignored", "warning")
                                      for k in markers]
                skip = set(markers)
                line_of = [ln for k, ln in enumerate(line_of) if k not in skip]
                toks = [t for k, t in enumerate(toks) if k not in skip]
            line_of, toks, cut = _pairs(line_of, toks)
            cols, names, values = _fields(toks)
            rows = list(map(self.rows.get, names))
        values, bad_value = _numbers(values, 0)
        _fail_first(section, line_of, bad_value, _first_missing(rows, names, 1, "undeclared row"))
        if cut is not None:
            _fail(cut, section, "expected 'COL ROW VAL [ROW VAL]'")
        for col in dict.fromkeys(cols):
            self.cols.setdefault(col, len(self.cols))
        self.entries.append(rows, list(map(self.cols.__getitem__, cols)), values)

    def _rhs(self, section, line_of, toks):
        """An RHS or RANGES block: each entry replaces the row's earlier one."""
        line_of, toks, cut = _pairs(line_of, toks)
        _, names, values = _fields(toks)
        values, bad_value = _numbers(values, 0)
        if section == "RHS":
            bad_row = _first_missing(list(map(self.rows.get, names)), names, 1, "undeclared row")
        else:
            rows = [self.rows.get(row, -1) for row in names]
            k = rows.index(-1) if -1 in rows else None
            bad_row = k is not None and (k, 1, f"undeclared or non-constraint row {names[k]!r}")
        _fail_first(section, line_of, bad_value, bad_row)
        if cut is not None:
            _fail(cut, section, f"expected '{'RHS' if section == 'RHS' else 'RNG'}NAME ROW VAL [ROW VAL]'")
        self._put_rhs(section, names, values.tolist())

    def _put_rhs(self, section, names, values):
        """Set the RHS or RANGES ``values`` of the rows ``names``, in order."""
        values = dict(zip(names, values))
        if section == "RANGES":
            self.doc.ranges.update(values)
            return
        self.doc.rhs_objective = values.pop(self.doc.objective_row, self.doc.rhs_objective)
        self.doc.rhs.update(values)

    def _quad(self, section, line_of, toks):
        toks, cut = _truncate(line_of, toks, (3,))
        first, second, values = _fields(toks)
        rows = list(map(self.cols.get, first))
        cols = list(map(self.cols.get, second))
        values, bad_value = _numbers(values, 2)
        _fail_first(section, line_of, _first_missing(rows, first, 0, "undeclared column"),
                    _first_missing(cols, second, 1, "undeclared column"), bad_value)
        if cut is not None:
            _fail(cut, section, "expected 'COL COL VAL'")
        self.quad.append(rows, cols, values)

    def _bounds(self, section, line_of, toks):
        """A BOUNDS block; its entries apply in order, each checked against the box so far."""
        doc = self.doc
        kinds = [t[0].upper() for t in toks]
        # the first line whose type or token count is wrong ends the block
        stop = len(toks)
        for k, (kind, t) in enumerate(zip(kinds, toks)):
            if kind in ("LO", "UP", "FX"):
                if len(t) != 4:
                    stop, fault = k, f"{kind} bound expects 'TYPE SET COL VAL'"
                    break
            elif kind not in ("FR", "MI", "PL", "BV"):
                stop, fault = k, f"unknown bound type {t[0]!r}"
                break
            elif len(t) < 3:
                stop, fault = k, f"{kind} bound expects 'TYPE SET COL'"
                break
        valued = [k for k in range(stop) if kinds[k] in ("LO", "UP", "FX")]
        values, bad_value = _numbers([toks[k][3] for k in valued], 0, allow_inf=True)
        if bad_value:
            stop, fault = valued[bad_value[0]], bad_value[2]
        names = [t[2] for t in toks[:stop]]
        cols = list(map(self.cols.get, names))
        bad_col = _first_missing(cols, names, 1, "undeclared column")
        if bad_col:
            stop, fault = bad_col[0], bad_col[2]

        values = dict(zip(valued, values.tolist()))
        for k in range(stop):
            kind, j = kinds[k], cols[k]
            if kind in ("LO", "FX"):
                doc.bound_lo[j] = values[k]
            if kind in ("UP", "FX"):
                doc.bound_hi[j] = values[k]
            if kind in ("FR", "MI"):
                doc.bound_lo[j] = -np.inf
            if kind in ("FR", "PL"):
                doc.bound_hi[j] = np.inf
            if kind == "BV":
                doc.bound_lo[j], doc.bound_hi[j] = 0.0, 1.0
                doc.warnings.append(ParseDiagnostic(
                    line_of[k], section, f"binary bound on {names[k]!r} relaxed to [0, 1]", "warning"))
            lo, hi = doc.bound_lo.get(j, 0.0), doc.bound_hi.get(j, np.inf)
            if lo > hi or lo == np.inf or hi == -np.inf:
                _fail(line_of[k], section, f"inconsistent bounds on {names[k]!r}: [{lo}, {hi}]")
        if stop < len(toks):
            _fail(line_of[stop], section, fault)


_HANDLERS = {
    None: _Reader._no_data, "NAME": _Reader._no_data, "ENDATA": _Reader._no_data,
    "ROWS": _Reader._rows, "COLUMNS": _Reader._entries, "RHS": _Reader._rhs, "RANGES": _Reader._rhs,
    "BOUNDS": _Reader._bounds, "QUADOBJ": _Reader._quad, "QMATRIX": _Reader._quad,
}


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
    for j, col in enumerate(cols):
        # always emit the objective coefficient so every variable is declared
        out.append("\n".join([f"    {col:<10}{'OBJ':<10}{_fmt(obj.c[j])}"] + [
            f"    {col:<10}{rows[i]:<10}{_fmt(con.a[j])}"
            for i, con in enumerate(problem.constraints) if con.a[j] != 0.0]))

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

    quad = ["\n".join([f"    {cols[i]:<10}{cols[j]:<10}{_fmt(obj.Q[i, j])}"
                        for j in range(i + 1) if obj.Q[i, j] != 0.0]) for i in range(n)]
    if any(quad):
        out += ["QUADOBJ", *filter(None, quad)]

    out.append("ENDATA")
    return "\n".join(out) + "\n"
