"""Exact linear algebra over GF(2) on Python ints.

One format runs between layers: a vector is one int (bit k is
coordinate k), a matrix a tuple of row ints, and every target, kernel
vector and solution an int; row operations are int XORs.  uint64 words
(coordinate k in word k // 64 at bit k % 64) are built, by
:func:`_ints_to_words` and :func:`_words_to_ints`, only where a numpy
routine takes them: :func:`_rref`, :func:`_product` and ``@``, the chase
on words, the product backend's assembly and the bit arrays of
:mod:`.symmetry`.  All values are immutable after construction: the
public constructors check the words they are given and read them once.
A game matrix of :func:`.game.adjacency_matrix` is made from its game
alone and never stores rows: they are built from the game on each read,
and its mat-vec and diagonal are read from the game axis by axis
(:mod:`.chase`) without them.  All operations are pure functions, so
everything here can be shared freely across threads.

Every rank, kernel, solve, certificate and image query reads one
:class:`Elimination` record, the one place that picks a backend.  Its
answers are those of the canonical reduced row echelon form: pivots are
the first nonzero row in column order, rows are swapped, and free
variables are fixed to zero when a solution is extracted.  Every
backend answers through one call, ``solve(target ints)``, which returns
the kernel as ints and a solution int or None per target.  A game
matrix (its ``_game`` slot set) of 64 cells or more is handed to
:func:`.chase.pick`.  A product game (terms E_1 x ... x E_d, d >= 2) is
eliminated axis by axis: one n_i-column RREF per axis gives the
canonical kernel and solutions in closed form.  Otherwise, when an axis
qualifies, it is chased: one layer of total / n cells is eliminated and
the answers are lifted to the grid, then put in the same canonical form
(the free columns are the highest set bits of the kernel vectors).
Every other matrix is eliminated whole (:class:`_Dense`).

Every system reaches elimination in one format: int rows whose first
ncols bits are the matrix and whose bit ncols + j is target j, and
:func:`_solve_rows` solves it, for the dense backend and for the end
system of either chase, returning the kernel and the solutions as ints.
It picks the routine by size: a system of at most 200 rows and columns
(``_INT_PATH_MAX``) is eliminated by :func:`_echelon_rows` and read by
:func:`_read_rows`; a larger one is packed once, eliminated 8 columns at
a time by the Method of Four Russians (:func:`_rref`) and read off the
reduced words.  Every routine gives the same pivots and reduced matrix
columns.  A matrix product (:func:`_product`, shared with the chase)
with a one-word right side and a small left side XORs the rows its
bits select, with no table; any other goes through Four Russians
tables as well.

Sums of Kronecker products are built by :func:`_kron_sum` from per-axis
factors, grouped by one rule (:func:`_kron_groups`): the bounding box
of the exponents plus the missing monomials, or one product per term,
whichever is fewer.  The game matrix and the multiplication operator
both read it.

The first elimination of a matrix extracts the kernel and stores the
basis, a tuple of ints, in the matrix's write-once ``_kernel`` slot (the
kernel vectors only, never the reduced rows).  Later rank, kernel and
certificate queries on the same object read it instead of eliminating
again, and a later target hands it to its backend, which then solves
for the target only (see :class:`Elimination`).  It is the only state
a matrix gains after construction.  The basis is a function of the
matrix alone, so two threads that race on the slot write equal values
and either write may stand.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Optional, Sequence

import numpy as np

_WORD = 64  # internal word width; public behavior does not depend on it


def _nwords(n: int) -> int:
    return (n + _WORD - 1) >> 6


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a uint8 0/1 array along its last axis into little-endian
    uint64 words, zero-padded to whole words."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    buf = np.zeros(bits.shape[:-1] + (_nwords(bits.shape[-1]) * 8,), dtype=np.uint8)
    buf[..., : packed.shape[-1]] = packed
    return buf.view(np.uint64)


def _unpack_words_2d(words: np.ndarray, ncols: int) -> np.ndarray:
    return np.unpackbits(np.ascontiguousarray(words).view(np.uint8),
                         axis=1, bitorder="little")[:, :ncols]


def _ints_to_words(ints: Sequence[int], n: int) -> np.ndarray:
    """Rows given as ints below 2^n, packed as read-only (rows, words)
    uint64 words.  Rows of one word go through numpy's own int
    conversion, wider ones through bytes."""
    if _nwords(n) == 1:
        words = np.array(ints, dtype=np.uint64).reshape(len(ints), 1)
        words.flags.writeable = False
        return words
    nb = _nwords(n) * 8
    raw = b"".join(v.to_bytes(nb, "little") for v in ints)
    return np.frombuffer(raw, dtype=np.uint64).reshape(len(ints), _nwords(n))


def _words_to_ints(words: np.ndarray) -> list:
    """Packed (rows, words) uint64 rows, one int per row."""
    if words.shape[1] == 1:
        return words[:, 0].tolist()
    nb = words.shape[1] * 8
    raw = words.tobytes()
    return [int.from_bytes(raw[i * nb: (i + 1) * nb], "little") for i in range(words.shape[0])]


def _int_bits(ints: Sequence[int], n: int) -> np.ndarray:
    """The (len(ints), n) uint8 0/1 array whose entry (i, k) is bit k of
    ints[i], each below 2^n."""
    return _unpack_words_2d(_ints_to_words(ints, n), n)


def _bits_int(bits: np.ndarray) -> int:
    """The int whose bit k is entry k of a 1-D uint8 0/1 array."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _check_words(words, shape: tuple, nbits: int) -> None:
    """Check words passed to a public constructor: the dtype, the shape,
    and that no bit past nbits is set (a padding bit would be a
    coordinate past the end)."""
    if not isinstance(words, np.ndarray) or words.dtype != np.uint64:
        raise TypeError(f"words must be a numpy uint64 array, got "
                        f"{getattr(words, 'dtype', type(words).__name__)}")
    if words.shape != shape:
        raise ValueError(f"words have shape {words.shape}, expected {shape}")
    if nbits & 63 and (words[..., -1] >> np.uint64(nbits & 63)).any():
        raise ValueError(f"words have bits set past bit {nbits - 1}")


class BitVector:
    """An immutable length-n vector over GF(2), held as one int whose bit
    k is coordinate k; addition is XOR."""

    __slots__ = ("n", "_bits")

    def __init__(self, n: int, words: Optional[np.ndarray] = None):
        """``words``: a uint64 array of shape (ceil(n / 64),) with zero
        bits past n, coordinate k at bit k % 64 of word k // 64; it is
        read once."""
        if n < 0:
            raise ValueError(f"negative length {n}")
        if words is not None:
            _check_words(words, (_nwords(n),), n)
        self.n = n
        self._bits = 0 if words is None else int.from_bytes(words.tobytes(), "little")

    @classmethod
    def _of(cls, n: int, bits: int) -> "BitVector":
        """Internal constructor: trusts ``bits`` to lie below 2^n."""
        v = object.__new__(cls)
        v.n = n
        v._bits = bits
        return v

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls.from_int(n, (1 << n) - 1)

    @classmethod
    def from_int(cls, n: int, value: int) -> "BitVector":
        """Coordinate k = bit k of value; bits at or beyond n are dropped.
        A negative value is refused."""
        if value < 0:
            raise ValueError(f"negative value {value}")
        return cls._of(n, value & (1 << n) - 1)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        """Coordinate k = entry k of bits; an entry other than 0 and 1 is
        refused."""
        bits = list(bits)
        for k, b in enumerate(bits):
            if b != 0 and b != 1:
                raise ValueError(f"entry {k} is {b!r}, not 0 or 1")
        return cls._of(len(bits), _bits_int(np.array(bits, dtype=np.uint8)))

    # -- queries ------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return self._bits >> i & 1

    def to_int(self) -> int:
        return self._bits

    def to_array(self) -> np.ndarray:
        """The coordinates as a uint8 0/1 array (a copy)."""
        return _int_bits([self._bits], self.n)[0]

    def to_bits(self) -> tuple:
        return tuple(self.to_array().tolist())

    def weight(self) -> int:
        return self._bits.bit_count()

    def is_zero(self) -> bool:
        return not self._bits

    def dot(self, other: "BitVector") -> int:
        """GF(2) inner product."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return (self._bits & other._bits).bit_count() & 1

    # -- arithmetic ---------------------------------------------------

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector._of(self.n, self._bits ^ other._bits)

    __add__ = __xor__

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.n == other.n and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((self.n, self._bits))

    def __repr__(self) -> str:
        return f"BitVector({''.join(map(str, self.to_bits()))})"


class BitMatrix:
    """An immutable rows x cols matrix over GF(2), held as a tuple of row
    ints: bit j of row i is entry (i, j).

    A public constructor verifies that a matrix flagged ``symmetric``
    equals its transpose (``_of`` trusts the flag); the flag lets
    :meth:`Elimination.certificate` prove a target outside the image by
    a kernel vector not orthogonal to it (Im m = (Ker m)^perp).

    The first elimination of the matrix leaves its kernel basis, a tuple
    of ints, in ``_kernel``; later rank, kernel and certificate queries
    on the same object read it.  That is the only state set after
    construction.  A game matrix (:meth:`_of_game`) holds its game in
    ``_game`` and no rows: :mod:`.chase` reads the game to eliminate it,
    and :meth:`mul_vec` and :meth:`diagonal` to apply M axis by axis.
    Its int rows (:meth:`row_ints`, :func:`.chase.game_rows`) are built
    from the game on each read and not kept, by whatever reads them: the
    dense backend, ``@``, ``==``, ``hash`` and the like.  :meth:`row_ints`
    is also the one source of every matrix's words (``_words``), packed
    on each read for the numpy routines that take them.
    """

    __slots__ = ("rows", "cols", "symmetric", "_rows", "_kernel", "_game")

    def __init__(self, rows: int, cols: int, words: Optional[np.ndarray] = None,
                 symmetric: bool = False):
        """``words``: a uint64 array of shape (rows, ceil(cols / 64)) with
        zero bits past cols in every row; it is read once."""
        if rows < 0 or cols < 0:
            raise ValueError(f"bad dimensions {rows}x{cols}")
        if words is None:
            ints = (0,) * rows
        else:
            _check_words(words, (rows, _nwords(cols)), cols)
            ints = tuple(_words_to_ints(words))
        self._init(rows, cols, ints, symmetric)
        self._check_flag()

    def _init(self, rows: int, cols: int, ints: Optional[tuple], symmetric: bool,
              game: Optional[tuple] = None) -> None:
        self.rows = rows
        self.cols = cols
        self._rows = ints
        self._kernel = None
        self._game = game
        self.symmetric = symmetric

    def _check_flag(self) -> "BitMatrix":
        """self, after a check that a symmetric flag holds."""
        if self.symmetric and (self.rows != self.cols or self != self.transpose()):
            raise ValueError("matrix flagged symmetric is not symmetric")
        return self

    @classmethod
    def _of(cls, rows: int, cols: int, ints: tuple, symmetric: bool = False) -> "BitMatrix":
        """Internal constructor: takes a tuple of row ints below 2^cols
        and trusts a symmetric flag."""
        m = object.__new__(cls)
        m._init(rows, cols, ints, symmetric)
        return m

    @classmethod
    def _of_game(cls, dims: tuple, terms: tuple) -> "BitMatrix":
        """Internal constructor of the symmetric game matrix of the grid
        ``dims`` and the sorted exponent tuples ``terms``
        (:mod:`.game`), with no rows."""
        total = math.prod(dims)
        m = object.__new__(cls)
        m._init(total, total, None, True, (dims, terms))
        return m

    @property
    def _words(self) -> np.ndarray:
        """:meth:`row_ints` packed, read-only, on each read."""
        return _ints_to_words(self.row_ints(), self.cols)

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, symmetric: bool = False) -> "BitMatrix":
        return cls(rows, cols, symmetric=symmetric)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls._of(n, n, tuple(1 << i for i in range(n)), symmetric=True)

    @classmethod
    def from_row_ints(cls, rows: int, cols: int, ints: Sequence[int],
                      symmetric: bool = False) -> "BitMatrix":
        if len(ints) != rows:
            raise ValueError(f"expected {rows} row ints, got {len(ints)}")
        for v in ints:
            if v < 0 or v >> cols:
                raise ValueError(f"row int {v} is outside 0 .. 2^{cols} - 1")
        if cols < 0:
            raise ValueError(f"bad dimensions {rows}x{cols}")
        return cls._of(rows, cols, tuple(ints), symmetric)._check_flag()

    @classmethod
    def _from_bit_array(cls, bits: np.ndarray, symmetric: bool = False) -> "BitMatrix":
        rows, cols = bits.shape
        return cls._of(rows, cols, tuple(_words_to_ints(_pack_rows(bits))), symmetric)

    # -- queries ------------------------------------------------------

    def _row(self, i: int) -> int:
        return (self._rows if self._game is None else self.row_ints())[i]

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self._row(i) >> j & 1

    def row(self, i: int) -> BitVector:
        return BitVector._of(self.cols, self._row(i))

    def row_ints(self) -> list:
        """The rows as ints, a new list; a game matrix's from the game."""
        return list(self._rows) if self._game is None else _chase.game_rows(*self._game)

    def to_bit_array(self) -> np.ndarray:
        """Dense uint8 0/1 matrix (a copy)."""
        return _int_bits(self.row_ints(), self.cols)

    def diagonal(self) -> BitVector:
        """Entries (i, i) for i < min(rows, cols), read as bit i of row
        i.  A game matrix's is read from its per-axis factors
        (:func:`.chase.diagonal`)."""
        if self._game is not None:
            return _chase.diagonal(*self._game)
        k = min(self.rows, self.cols)
        out = 0
        for i, v in enumerate(self._rows[:k]):
            out |= v & 1 << i
        return BitVector._of(k, out)

    def transpose(self) -> "BitMatrix":
        return BitMatrix._from_bit_array(self.to_bit_array().T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.row_ints() == other.row_ints())

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, tuple(self.row_ints())))

    def __repr__(self) -> str:
        body = "\n".join("".join(map(str, r)) for r in self.to_bit_array())
        return f"BitMatrix({self.rows}x{self.cols})\n{body}"

    # -- arithmetic ---------------------------------------------------

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        return BitMatrix._of(self.rows, self.cols,
                             tuple(a ^ b for a, b in zip(self.row_ints(), other.row_ints())),
                             symmetric=self.symmetric and other.symmetric)

    __add__ = __xor__

    def mul_vec(self, v: BitVector) -> BitVector:
        """Matrix-vector product over GF(2): entry i is the parity of row
        i masked by v.  A game matrix is applied to v on the grid, axis
        by axis (:func:`.chase.apply`), and never builds its rows."""
        if v.n != self.cols:
            raise ValueError(f"vector length {v.n} != cols {self.cols}")
        if self._game is not None:
            dims, terms = self._game
            return BitVector._of(self.rows, _chase.apply(dims, _chase.kron_factors(dims, terms),
                                                         v._bits))
        x, out = v._bits, 0
        for i, row in enumerate(self._rows):
            out |= ((row & x).bit_count() & 1) << i
        return BitVector._of(self.rows, out)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        product = _product(self._words, self.cols, other._words)
        return BitMatrix._of(self.rows, other.cols, tuple(_words_to_ints(product)))


# ----------------------------------------------------------------------
# Elimination core
# ----------------------------------------------------------------------

# up to this size an elimination runs on plain int bitsets: the numpy
# dispatch overhead beats the vectorization gain for small systems.
# Best of 25 on a 2-vCPU Xeon, int rows against Four Russians in ms,
# all-on: the chase's end systems of r = 169-196 (13x13x13 to 14x14x14
# sigma+:box and sigma-:box) 0.55-0.99 against 0.82-1.54; dense
# sigma-:boxtimes systems of 143-256 columns 0.41-1.18 against
# 1.17-1.96; from r = 204 up, end systems lose as often as they win
# (12x17x17 sigma+:box 2.5 against 1.7)
_INT_PATH_MAX = 200


class Elimination:
    """One elimination of [m | t_1 ... t_k] over GF(2).

    Every rank, kernel, solve, certificate and image query is read off
    this record, and every backend gives the answers of the reduced row
    echelon form (RREF) of m under the pivot rule "first nonzero row at
    or below the current row, in column order, with a row swap": the
    kernel basis has one vector per free column, in increasing column
    order, each the identity on the free columns; a solution has its
    free variables zero.  These answers depend only on Ker m and on
    each target's coset of solutions: column j is free exactly when
    some kernel vector has its highest set bit at j, exactly one kernel
    basis is the identity on those columns, and exactly one solution in
    a coset is zero on them.

    The backend is picked here and nowhere else, and every backend
    answers through one call, ``solve(target ints)``, which returns the
    kernel as ints and a solution int or None per target.  What
    qualifies a game for the product backend or the chase is decided
    by :func:`.chase.pick`:

    - product: a game matrix of :func:`.game.adjacency_matrix` whose
      terms are a product E_1 x ... x E_d, so m = U_1 (x) ... (x) U_d,
      is eliminated one factor U_i at a time; the canonical kernel and
      solutions are assembled from the per-axis RREFs;
    - chase: a game matrix with an axis that qualifies is reduced to an
      r x r end system of r = total / n cells, whose kernel and
      solutions are lifted to the grid and, unless the axis is the
      first, made canonical by one RREF of the kernel with its columns
      reversed;
    - dense (:class:`_Dense`): the RREF of m itself, for every other
      matrix: its int rows with the targets tagged on, solved on int
      rows or by Four Russians by its size (:func:`_solve_rows`).

    The kernel is stored on m, as a tuple of ints, by the elimination
    that finds it first.  A later elimination hands it to the backend,
    so the chase lifts and orders no kernel and the product builds
    none; the dense backend finds it again in the RREF of [m | t].
    """

    __slots__ = ("m", "targets", "_solutions")

    def __init__(self, m: BitMatrix, targets: Sequence[BitVector] = ()):
        self.m = m
        self.targets = tuple(targets)
        for j, t in enumerate(self.targets):
            if t.n != m.rows:
                raise ValueError(f"target {j} has length {t.n} != rows {m.rows}")
        backend = (_chase.pick(m) if m._game is not None else None) or _Dense(m)
        kernel, self._solutions = backend.solve([t.to_int() for t in self.targets], m._kernel)
        if m._kernel is None:
            m._kernel = tuple(kernel)

    def kernel(self) -> tuple:
        """Basis of {x : m x = 0}, one int per vector, in RREF order, as
        stored on m."""
        return self.m._kernel

    def consistent(self) -> list:
        """Per target, whether it lies in the column space of m."""
        return [s is not None for s in self._solutions]

    def solution(self, j: int = 0) -> Optional[BitVector]:
        """Some x with m x = t_j (free variables zero), or None."""
        x = self._solutions[j]
        return None if x is None else BitVector._of(self.m.cols, x)

    def certificate(self, j: int = 0) -> Optional[BitVector]:
        """A kernel vector k with k . t_j = 1, or None.

        Only a symmetric m yields one: there Im m = (Ker m)^perp, so k
        proves t_j outside the image, and such a k exists whenever t_j
        is outside it.
        """
        if not self.m.symmetric or self._solutions[j] is not None:
            return None
        return _first_not_orthogonal(self.m.cols, self.kernel(), self.targets[j])


class _Dense:
    """The dense backend: the RREF of m's int rows with the targets
    tagged on (:func:`_solve_rows`)."""

    __slots__ = ("m",)

    def __init__(self, m: BitMatrix):
        self.m = m

    def solve(self, ts: Sequence[int], kernel: Optional[tuple] = None):
        """(kernel, solution or None per target) of m as ints, for the
        targets ``ts`` (ints, bit i for row i): target j is set at bit
        cols + j of the rows it has.  A stored ``kernel`` is not read:
        the RREF finds it anyway."""
        rows, ncols = self.m.row_ints(), self.m.cols
        for j, t in enumerate(ts):
            while t:
                low = t & -t
                rows[low.bit_length() - 1] |= 1 << (ncols + j)
                t ^= low
        return _solve_rows(rows, ncols, len(ts))


def _solve_rows(rows: list, ncols: int, ntargets: int):
    """(kernel, solution or None per target) as ints, of the RREF of the
    first ``ncols`` bits of int rows that carry target j at bit ncols +
    j; this is where the routine is picked by size.  A system of at most
    ``_INT_PATH_MAX`` rows and columns is eliminated by
    :func:`_echelon_rows` and read by :func:`_read_rows`.  A larger one
    is packed once, eliminated by Four Russians (:func:`_rref`) and read
    off the reduced words."""
    if len(rows) <= _INT_PATH_MAX and ncols <= _INT_PATH_MAX:
        return _read_rows(*_echelon_rows(rows, ncols), ncols, ntargets)
    words = _ints_to_words(rows, ncols + ntargets).copy()
    pivots = _rref(words, ncols)
    rank = len(pivots)
    piv = np.asarray(pivots, dtype=np.intp)
    free = np.ones(ncols, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    strips = words.view(np.uint8)
    # kernel vector f: e_f plus the pivots whose reduced row has bit f,
    # read as a rank x nullity block of the pivot rows' strips
    bits = np.zeros((free.size, ncols), dtype=np.uint8)
    bits[np.arange(free.size), free] = 1
    bits[:, piv] = ((strips[:rank, free >> 3] >> (free & 7).astype(np.uint8)) & 1).T
    # solution j: the pivots whose reduced row has bit ncols + j, or None
    # when a vanishing row has it
    tcols = ncols + np.arange(ntargets)
    rhs = (strips[:, tcols >> 3] >> (tcols & 7).astype(np.uint8)) & 1
    xbits = np.zeros((ntargets, ncols), dtype=np.uint8)
    xbits[:, piv] = rhs[:rank].T
    bad = rhs[rank:].any(axis=0)
    xs = _words_to_ints(_pack_rows(xbits))
    return _words_to_ints(_pack_rows(bits)), [None if bad[j] else xs[j] for j in range(ntargets)]


def _read_rows(pivots: list, rows: list, ncols: int, ntargets: int):
    """(kernel, solutions) as ints, read off the reduced rows of
    :func:`_echelon_rows` whose target j sits at bit ncols + j; bits
    above the targets are ignored.  Kernel vector f, one per free
    column in increasing order, is e_f plus the pivots whose reduced
    row has bit f.  Solution j is the pivots whose reduced row has bit
    ncols + j (free variables zero), or None when a vanishing row has
    that bit."""
    width = ncols + ntargets
    # picks[c]: the pivots whose reduced row has bit c; a reduced row has
    # no other pivot's bit
    picks = [0] * width
    for p, v in zip(pivots, rows):
        rest = v & ((1 << width) - 1) ^ 1 << p
        while rest:
            low = rest & -rest
            picks[low.bit_length() - 1] |= 1 << p
            rest ^= low
    bad = 0
    for v in rows[len(pivots):]:
        bad |= v
    free = sorted(set(range(ncols)).difference(pivots))
    return ([1 << f | picks[f] for f in free],
            [None if bad >> c & 1 else picks[c] for c in range(ncols, width)])


def _first_not_orthogonal(n: int, kernel: Sequence[int], t: BitVector) -> Optional[BitVector]:
    """The first kernel vector k with k . t = 1, or None."""
    for k in kernel:
        if (k & t._bits).bit_count() & 1:
            return BitVector._of(n, k)
    return None


# _BYTE_BITS[x, u] = bit u of byte x; _PARITY[m] maps byte x to the
# parity of x & m, as a bytes.translate table
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1
_PARITY = [t.tobytes() for t in
           np.bitwise_count(np.arange(256, dtype=np.uint8)[:, None]
                            & np.arange(256, dtype=np.uint8)) & np.uint8(1)]


def _subset_sums(rows: np.ndarray) -> np.ndarray:
    """The 2^k sums of k packed rows (the last two axes of ``rows``):
    entry c of the table is the XOR of the rows picked by the bits of c.
    Leading axes are independent batches."""
    k, width = rows.shape[-2:]
    table = np.zeros(rows.shape[:-2] + (1 << k, width), dtype=np.uint64)
    for i in range(k):
        np.bitwise_xor(table[..., : 1 << i, :], rows[..., i, None, :],
                       out=table[..., 1 << i: 2 << i, :])
    return table


# words one step of :func:`_product` may stage, for its tables or its
# gathers: 1 MB
_STAGE_WORDS = 1 << 17

# the largest unpacked a (rows x 64 x words of a) that :func:`_product`
# multiplies by a one-word b directly: timeit on a 2-vCPU AMD EPYC, random
# a and b, direct against Four Russians in microseconds, gives 48x48x48 4.2
# against 17.0, 89x89x4 7.9 against 19.1 and 128x128x64 12.0 against
# 20.2 at or below it, and from 24,576 bits up a loss or a draw:
# 384x64x64 23.0 against 22.0, 2,500x2x50 36.2 against 15.3
_DIRECT_MAX_BITS = 1 << 14


def _product(a: np.ndarray, ncols: int, b: np.ndarray) -> np.ndarray:
    """The GF(2) product of packed rows a (ncols columns) with packed
    rows b (ncols of them).  When b is one word wide and a unpacks to at
    most ``_DIRECT_MAX_BITS`` bits, each result row is the XOR of the
    rows of b that its bits select, read off a's unpacked bits with no
    table.  Otherwise by Four Russians: per byte of a's columns, a table
    of the 256 sums of the 8 rows of b it covers, and per row of a one
    gather of a table entry per byte.  Tables and gathers are built in
    blocks of at most ``_STAGE_WORDS`` words."""
    groups = (ncols + 7) >> 3
    width = b.shape[1]
    if not groups or not width:
        return np.zeros((a.shape[0], width), dtype=np.uint64)
    if width == 1 and a.shape[0] * a.shape[1] * _WORD <= _DIRECT_MAX_BITS:
        bits = np.unpackbits(a.view(np.uint8), axis=1, count=ncols, bitorder="little")
        return np.bitwise_xor.reduce(bits * b[:, 0], axis=1).reshape(-1, 1)
    rows = np.zeros((groups * 8, width), dtype=np.uint64)
    rows[:ncols] = b
    rows = rows.reshape(groups, 8, width)
    keys = a.view(np.uint8)[:, :groups].T  # keys[g, i]: byte g of row i
    out = np.empty((a.shape[0], width), dtype=np.uint64)
    gstep = max(1, _STAGE_WORDS // (256 * width))
    for g in range(0, groups, gstep):
        tables = _subset_sums(rows[g:g + gstep]).reshape(-1, width)
        block = keys[g:g + gstep] + (np.arange(tables.shape[0] >> 8) << 8)[:, None]
        step = max(1, _STAGE_WORDS // (block.shape[0] * width))
        for i in range(0, a.shape[0], step):
            picked = np.take(tables, block[:, i:i + step], axis=0)
            if g:
                out[i:i + step] ^= np.bitwise_xor.reduce(picked, axis=0)
            else:
                np.bitwise_xor.reduce(picked, axis=0, out=out[i:i + step])
    return out


def _rref(words: np.ndarray, ncols: int) -> list:
    """Vectorized in-place RREF of the first ncols columns by the Method
    of Four Russians; returns the pivot columns.  Bits past ncols
    receive the same row operations.

    Columns go in byte-aligned blocks of 8 (M4RI; Albrecht, Bard & Hart,
    ACM TOMS 37(1), 2010).  A block's pivots are found on its strip of
    one byte per row with the per-column rule: the first row at or
    below the current row whose bit is set once the block's earlier
    pivots are applied, swapped up.  Then one XOR over all rows from a
    table of the 2^r combinations of the block's r pivot rows clears
    the block.  The same original rows become pivots in the same
    positions, and the RREF is determined by them, so the result is
    bit-identical to eliminating one column at a time.
    """
    nrows = words.shape[0]
    strips = words.view(np.uint8)  # column c is bit c & 7 of byte c >> 3
    pivots = []
    row = 0
    for c0 in range(0, ncols, 8):
        if row == nrows:
            break
        byte = c0 >> 3
        # raw strip bytes of the rows at or below `row`, swapped as the
        # pivots are taken
        s = bytearray(strips[row:, byte].tobytes())
        found = []  # pivot bits
        swaps = []
        # reducing a strip by the block's pivots so far is linear: bit j
        # of the reduced strip x is the parity of x & masks[j].  A row
        # with no bit at or above j can still qualify.
        masks = [1 << j for j in range(8)]
        width = min(8, ncols - c0)
        for j in range(width):
            top = len(found)
            if top == len(s):
                break
            mask = masks[j]
            if not (s[top] & mask).bit_count() & 1:
                r = s.translate(_PARITY[mask]).find(1, top)
                if r < 0:
                    continue
                s[top], s[r] = s[r], s[top]
                swaps.append((top, r))
            x = s[top]
            for k in range(j + 1, width):
                if (x & masks[k]).bit_count() & 1:
                    masks[k] ^= mask
            found.append(1 << j)
            pivots.append(c0 + j)
        rank = len(found)
        if not rank:
            continue
        if swaps:
            span = max(q for _, q in swaps) + 1
            perm = list(range(span))
            for a, q in swaps:
                perm[a], perm[q] = perm[q], perm[a]
            words[row:row + span] = words[row + np.array(perm)]
        # Gauss-Jordan on the r pivot strips, tagged above bit 8 with the
        # swapped raw rows each reduced pivot row combines
        tagged = []
        for i in range(rank):
            v = s[i] | 1 << (8 + i)
            for b, t in zip(found, tagged):
                if v & b:
                    v ^= t
            tagged.append(v)
        for i in range(rank - 1, 0, -1):
            b, t = found[i], tagged[i]
            for k in range(i):
                if tagged[k] & b:
                    tagged[k] ^= t
        combos = [v >> 8 for v in tagged]
        # table[c] = XOR of the raw pivot rows picked by the bits of c.
        # Rows at or below `row` are zero left of c0 (a column with no
        # pivot had no bit there either), so the words before lo are
        # left alone; rows from end on have a zero strip.
        lo = c0 >> 6
        end = row + len(s.rstrip(b"\0"))
        table = _subset_sums(words[row:row + rank, lo:])
        reduced = table[combos]
        # lut[x]: the raw combination that clears the pivot bits of byte x
        clear = np.zeros(8, dtype=np.intp)
        for b, c in zip(found, combos):
            clear[b.bit_length() - 1] = c
        lut = np.bitwise_xor.reduce(_BYTE_BITS * clear, axis=1)
        words[:end, lo:] ^= table[lut[strips[:end, byte]]]
        words[row:row + rank, lo:] = reduced
        row += rank
    return pivots


def _echelon_rows(rows: Iterable[int], ncols: int):
    """(pivots, rows): the RREF of the first ``ncols`` bits of int rows.
    The reduced pivot rows come in pivot order, then the rows that vanish
    on the first ``ncols`` bits; bits past ``ncols`` get the same row
    operations, so a row tagged there records its combination.

    Each row is reduced by its lowest set bit against the rows kept so
    far, and kept when it stays nonzero; then, from the top pivot down,
    each kept row is cleared on the pivots above its own.  On a banded
    system such as I + J each row takes a few XORs, where a column by
    column RREF tests every row per column.  The pivots and the reduced
    first ``ncols`` bits are the RREF's, which is unique; the bits past
    ``ncols`` may differ from a column by column RREF's by rows of the
    left kernel, which changes no consistency test and no solution with
    free variables zero."""
    low = (1 << ncols) - 1
    kept, left = {}, []
    for v in rows:
        while v & low:
            c = (v & -v).bit_length() - 1
            p = kept.get(c)
            if p is None:
                kept[c] = v
                break
            v ^= p
        else:
            left.append(v)
    pivots = sorted(kept)
    pivot_bits = sum(1 << p for p in pivots)
    for p in reversed(pivots):
        # a kept row has no bit below its pivot
        v = kept[p]
        above = v & pivot_bits ^ 1 << p
        while above:
            v ^= kept[(above & -above).bit_length() - 1]
            above &= above - 1
        kept[p] = v
    return pivots, [kept[p] for p in pivots] + left


def _kernel_of(m: BitMatrix) -> tuple:
    """m's kernel basis as ints; m is eliminated only if no earlier
    query stored it."""
    return Elimination(m).kernel() if m._kernel is None else m._kernel


def rank(m: BitMatrix) -> int:
    """GF(2) rank, as cols minus the nullity; it reads the kernel stored
    on m, and an elimination of m stores it."""
    return m.cols - len(_kernel_of(m))


def kernel_basis(m: BitMatrix) -> list:
    """Basis of the right kernel {x : m x = 0}, deterministic ordering.

    m is eliminated at most once for all kernel, rank and certificate
    queries; each call returns a new list.
    """
    return [BitVector._of(m.cols, k) for k in _kernel_of(m)]


def solve(m: BitMatrix, b: BitVector) -> Optional[BitVector]:
    """Some x with m x = b (free variables zero), or None if infeasible."""
    return Elimination(m, [b]).solution()


def solve_with_certificate(m: BitMatrix, b: BitVector):
    """(solution, certificate) from at most one elimination.

    Exactly one side is set when m is symmetric: either a solution of
    m x = b, or a kernel vector k with k . b = 1 witnessing b outside
    the image, the first such vector of :func:`kernel_basis`.  For a
    non-symmetric m an infeasible system yields (None, None).

    For a symmetric m the kernel stored on m answers a b outside the
    image without an elimination; otherwise [m | b] is eliminated and
    the kernel is stored on m for later queries.
    """
    if m.symmetric and m._kernel is not None and b.n == m.rows:
        k = _first_not_orthogonal(m.cols, m._kernel, b)
        if k is not None:
            return None, k
    e = Elimination(m, [b])
    return e.solution(), e.certificate()


def in_image_many(m: BitMatrix, targets: Sequence[BitVector]) -> list:
    """Whether each target lies in the column space of m, with a single
    elimination."""
    return Elimination(m, targets).consistent()


# the largest rows x cols of one dense build, counted in the bytes of the
# refusal message: boards of up to 32,768 cells
DENSE_MAX_BYTES = 1 << 30


def _check_dense(rows: int, cols: int) -> None:
    """ValueError when a dense rows x cols build is over
    :data:`DENSE_MAX_BYTES`."""
    if rows * cols > DENSE_MAX_BYTES:
        raise ValueError(f"a dense {rows}x{cols} matrix needs {rows * cols:,} bytes, "
                         f"over the limit of {DENSE_MAX_BYTES:,}")


def _spread(v: int, w: int) -> int:
    """v with bit j moved to bit j * w, one set bit at a time (the rows
    of a banded factor such as J have at most two)."""
    out = 0
    while v:
        low = v & -v
        out |= 1 << (low.bit_length() - 1) * w
        v ^= low
    return out


def _kron_rows(factors: Sequence[tuple]) -> tuple:
    """(width, row ints) of the Kronecker product of factors given as
    (width, row ints); the empty product is the 1 x 1 identity.  Row
    (a, b) of A (x) B is spread(A[a], width_B) * B[b]: the shifted copies
    of B[b] do not overlap, so the integer product is their XOR.  The
    axes go last to first, so each factor row is spread once."""
    width, rows = 1, [1]
    for w, frows in reversed(factors):
        if width > 1:
            frows = [_spread(v, width) for v in frows]
        rows = [v * u for v in frows for u in rows]
        width *= w
    return width, rows


def _kron_sum(products: Iterable[Sequence[tuple]], rows: int, cols: int) -> BitMatrix:
    """XOR of the Kronecker products of each sequence of factors, each
    (width, row ints) (:func:`_kron_rows`), as a rows x cols matrix.  The size is checked before anything is built."""
    _check_dense(rows, cols)
    return BitMatrix._of(rows, cols, tuple(_kron_row_sum(products, rows)))


def _kron_row_sum(products: Iterable[Sequence[tuple]], rows: int) -> list:
    """The ``rows`` int rows of the XOR of the Kronecker products of each
    sequence of factors (:func:`_kron_rows`), a new list."""
    acc = None
    for factors in products:
        term = _kron_rows(factors)[1]
        acc = term if acc is None else [a ^ b for a, b in zip(acc, term)]
    return acc or [0] * rows


def _kron_groups(terms: Sequence[tuple]) -> list:
    """The sum of the monomials x_1^{e_1} ... x_d^{e_d} of ``terms``
    (exponent tuples) as a sum of products of per-axis sums: per
    product, its per-axis exponent sets (tuples).  Over GF(2) the sum
    over the terms equals the product over their bounding box E_1 x ...
    x E_d (E_i the exponents on axis i, summed) plus one product per box
    term that is not a term.  That description is taken when it has
    fewer products than one per term, so a separable sum is one
    product.  The game matrix (:func:`.chase.kron_factors`) and the
    multiplication operator (:func:`.algebra.mult_operator`) read it."""
    if not terms:
        return []
    sets = [tuple(sorted({t[i] for t in terms})) for i in range(len(terms[0]))]
    if 1 + math.prod(map(len, sets)) - len(terms) >= len(terms):
        return [tuple((e,) for e in t) for t in terms]
    present = set(terms)
    return [tuple(sets)] + [tuple((e,) for e in t) for t in itertools.product(*sets)
                            if t not in present]


def _kron_vec(factors: Sequence[tuple]) -> int:
    """The Kronecker product of vectors given as (length, bits int), as
    an int: the one-row case of :func:`_kron_rows`."""
    return _kron_rows([(w, [v]) for w, v in factors])[1][0]


# the product backend and the chase build on the helpers above, and
# Elimination hands them game matrices
from . import chase as _chase  # noqa: E402
