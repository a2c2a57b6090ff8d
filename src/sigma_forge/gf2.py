"""Bit-packed exact linear algebra over GF(2).

Vectors and matrices store their coordinates packed into 64-bit machine
words (coordinate k lives in word k // 64 at bit k % 64); row operations
are whole-word XORs vectorized with numpy.  All values are immutable
after construction: the public constructors check and copy the words
they are given, and the internal ones take ownership of words built
here.  A game matrix of :func:`.game.adjacency_matrix` is made from its
game alone: its packed words are built on their first read, and its
mat-vec and diagonal are read from the game axis by axis
(:mod:`.chase`) without them.  The words are a function of the game,
so a matrix's value never changes.  All operations are pure functions,
so everything here can be shared freely across threads.

Every rank, kernel, solve, certificate and image query reads one
:class:`Elimination` record, the one place that picks a backend.  Its
answers are those of the canonical reduced row echelon form: pivots are
the first nonzero row in column order, rows are swapped, and free
variables are fixed to zero when a solution is extracted.  A game
matrix (its ``_game`` slot set) of 64 cells or more is handed to
:func:`.chase.pick`.  A product game (terms E_1 x ... x E_d, d >= 2) is
eliminated axis by axis: one n_i-column RREF per axis gives the
canonical kernel and solutions in closed form.  Otherwise, when an axis
qualifies, it is chased: one layer of total / n cells is eliminated and
the answers are lifted to the grid, then put in the same canonical form
(the free columns are the highest set bits of the kernel vectors).
Every other matrix is eliminated whole.  A system of packed words, a
whole matrix or the end system of a chase on words, is eliminated 8
columns at a time by the Method of Four Russians above 128 rows or
columns and on Python-int rows below, by its own size
(:func:`_rref_any`); a singular axis factor and the end system of a
chase on ints are eliminated on their int rows directly
(:func:`_echelon_rows`).  Every routine gives the same pivots and
reduced matrix columns.  Matrix products go through Four Russians
tables as well (:func:`_product`, shared with the chase).

The first elimination that extracts a matrix's kernel stores the packed
basis in the matrix's write-once ``_kernel`` slot (the kernel vectors
only, never the reduced rows).  Later rank, kernel and certificate
queries on the same object read it instead of eliminating again.  The
basis is a function of the matrix alone, so two threads that race on
the slot write equal values and either write may stand; the same holds
for a game matrix's words.
"""
from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

_WORD = 64  # internal word width; public behavior does not depend on it
_ONE = np.uint64(1)


def _nwords(n: int) -> int:
    return (n + _WORD - 1) >> 6


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a uint8 0/1 array along its last axis into little-endian
    uint64 words, zero-padded to whole words."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    buf = np.zeros(bits.shape[:-1] + (_nwords(bits.shape[-1]) * 8,), dtype=np.uint8)
    buf[..., : packed.shape[-1]] = packed
    return buf.view(np.uint64)


def _unpack_words(words: np.ndarray, n: int) -> np.ndarray:
    """Unpack uint64 words to a 1-D uint8 0/1 array of length n."""
    return np.unpackbits(np.ascontiguousarray(words).view(np.uint8), bitorder="little")[:n]


def _unpack_words_2d(words: np.ndarray, ncols: int) -> np.ndarray:
    return np.unpackbits(np.ascontiguousarray(words).view(np.uint8),
                         axis=1, bitorder="little")[:, :ncols]


def _int_to_words(value: int, n: int) -> np.ndarray:
    value &= (1 << n) - 1
    raw = value.to_bytes(_nwords(n) * 8, "little")
    return np.frombuffer(raw, dtype=np.uint64).copy()


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


def _checked_words(words, shape: tuple, nbits: int) -> np.ndarray:
    """A private copy of words passed to a public constructor, after
    checking the dtype, the shape, and that no bit past nbits is set
    (padding bits would break ==, hash and weight)."""
    if not isinstance(words, np.ndarray) or words.dtype != np.uint64:
        raise TypeError(f"words must be a numpy uint64 array, got "
                        f"{getattr(words, 'dtype', type(words).__name__)}")
    if words.shape != shape:
        raise ValueError(f"words have shape {words.shape}, expected {shape}")
    if nbits & 63 and (words[..., -1] >> np.uint64(nbits & 63)).any():
        raise ValueError(f"words have bits set past bit {nbits - 1}")
    return words.copy()


class BitVector:
    """An immutable length-n vector over GF(2); addition is XOR."""

    __slots__ = ("n", "_words")

    def __init__(self, n: int, words: Optional[np.ndarray] = None):
        """``words``: a uint64 array of shape (ceil(n / 64),) with zero
        bits past n; it is copied."""
        if n < 0:
            raise ValueError(f"negative length {n}")
        if words is None:
            words = np.zeros(_nwords(n), dtype=np.uint64)
        else:
            words = _checked_words(words, (_nwords(n),), n)
        self._init(n, words)

    def _init(self, n: int, words: np.ndarray) -> None:
        self.n = n
        self._words = words
        self._words.flags.writeable = False

    @classmethod
    def _of(cls, n: int, words: np.ndarray) -> "BitVector":
        """Internal constructor: takes ownership of well-formed words."""
        v = object.__new__(cls)
        v._init(n, words)
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
        """Coordinate k = bit k of value; bits at or beyond n are dropped."""
        return cls._of(n, _int_to_words(value, n))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        arr = np.fromiter((b & 1 for b in bits), dtype=np.uint8)
        return cls._of(arr.shape[0], _pack_rows(arr))

    # -- queries ------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return int((self._words[i >> 6] >> np.uint64(i & 63)) & _ONE)

    def to_int(self) -> int:
        return int.from_bytes(self._words.tobytes(), "little")

    def to_array(self) -> np.ndarray:
        """The coordinates as a uint8 0/1 array (a copy)."""
        return _unpack_words(self._words, self.n)

    def to_bits(self) -> tuple:
        return tuple(int(b) for b in self.to_array())

    def weight(self) -> int:
        return int(np.bitwise_count(self._words).sum())

    def is_zero(self) -> bool:
        return not self._words.any()

    def dot(self, other: "BitVector") -> int:
        """GF(2) inner product."""
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return int(np.bitwise_count(self._words & other._words).sum()) & 1

    # -- arithmetic ---------------------------------------------------

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector._of(self.n, self._words ^ other._words)

    __add__ = __xor__

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.n == other.n and np.array_equal(self._words, other._words)

    def __hash__(self) -> int:
        return hash((self.n, self._words.tobytes()))

    def __repr__(self) -> str:
        return f"BitVector({''.join(map(str, self.to_bits()))})"


class BitMatrix:
    """An immutable rows x cols matrix over GF(2), rows packed into words.

    A public constructor verifies that a matrix flagged ``symmetric``
    equals its transpose (``_of`` trusts the flag); the flag lets
    :meth:`Elimination.certificate` prove a target outside the image by
    a kernel vector not orthogonal to it (Im m = (Ker m)^perp).

    The first elimination that extracts the kernel leaves its packed
    basis in ``_kernel``; later rank, kernel and certificate queries on
    the same object read it.  A game matrix (:meth:`_of_game`) keeps its
    game in the write-once ``_game`` slot and is made without words:
    :mod:`.chase` reads the game to eliminate it, and :meth:`mul_vec`
    and :meth:`diagonal` to apply M axis by axis.  Its packed words are
    built from the game on their first read (``_words``), by whatever
    reads them: the dense backend, ``@``, ``==``, ``hash``, ``row_ints``
    and the like.  They are a function of the game, so the value never
    changes and two threads that race to build them write equal words.
    """

    __slots__ = ("rows", "cols", "symmetric", "_packed", "_kernel", "_game")

    def __init__(self, rows: int, cols: int, words: Optional[np.ndarray] = None,
                 symmetric: bool = False):
        """``words``: a uint64 array of shape (rows, ceil(cols / 64)) with
        zero bits past cols in every row; it is copied."""
        if rows < 0 or cols < 0:
            raise ValueError(f"bad dimensions {rows}x{cols}")
        if words is None:
            words = np.zeros((rows, _nwords(cols)), dtype=np.uint64)
        else:
            words = _checked_words(words, (rows, _nwords(cols)), cols)
        self._init(rows, cols, words, symmetric)
        if symmetric and (rows != cols or self != self.transpose()):
            raise ValueError("matrix flagged symmetric is not symmetric")

    def _init(self, rows: int, cols: int, words: Optional[np.ndarray], symmetric: bool,
              game: Optional[tuple] = None) -> None:
        self.rows = rows
        self.cols = cols
        if words is not None:
            words.flags.writeable = False
        self._packed = words
        self._kernel = None
        self._game = game
        self.symmetric = symmetric

    @classmethod
    def _of(cls, rows: int, cols: int, words: np.ndarray, symmetric: bool = False) -> "BitMatrix":
        """Internal constructor: takes ownership of well-formed words and
        trusts a symmetric flag."""
        m = object.__new__(cls)
        m._init(rows, cols, words, symmetric)
        return m

    @classmethod
    def _of_game(cls, dims: tuple, terms: tuple) -> "BitMatrix":
        """Internal constructor of the symmetric game matrix of the grid
        ``dims`` and the sorted exponent tuples ``terms``
        (:mod:`.game`), with no words yet."""
        total = math.prod(dims)
        m = object.__new__(cls)
        m._init(total, total, None, True, (dims, terms))
        return m

    @property
    def _words(self) -> np.ndarray:
        """The packed rows, read-only; a game matrix packs them on first
        read (:func:`.chase.game_words`)."""
        if self._packed is None:
            self._packed = _chase.game_words(*self._game)
        return self._packed

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int, symmetric: bool = False) -> "BitMatrix":
        return cls(rows, cols, symmetric=symmetric)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        w = np.zeros((n, _nwords(n)), dtype=np.uint64)
        idx = np.arange(n)
        w[idx, idx >> 6] = _ONE << (idx.astype(np.uint64) & np.uint64(63))
        return cls._of(n, n, w, symmetric=True)

    @classmethod
    def from_row_ints(cls, rows: int, cols: int, ints: Sequence[int],
                      symmetric: bool = False) -> "BitMatrix":
        if len(ints) != rows:
            raise ValueError(f"expected {rows} row ints, got {len(ints)}")
        mask = (1 << cols) - 1
        return cls(rows, cols, _ints_to_words([v & mask for v in ints], cols), symmetric)

    @classmethod
    def _from_bit_array(cls, bits: np.ndarray, symmetric: bool = False) -> "BitMatrix":
        rows, cols = bits.shape
        return cls._of(rows, cols, _pack_rows(bits), symmetric)

    # -- queries ------------------------------------------------------

    def get(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return int((self._words[i, j >> 6] >> np.uint64(j & 63)) & _ONE)

    def row(self, i: int) -> BitVector:
        return BitVector._of(self.cols, self._words[i].copy())

    def row_ints(self) -> list:
        return _words_to_ints(self._words)

    def to_bit_array(self) -> np.ndarray:
        """Dense uint8 0/1 matrix (a copy)."""
        return _unpack_words_2d(self._words, self.cols)

    def diagonal(self) -> BitVector:
        """Entries (i, i) for i < min(rows, cols), read as bit i of each
        row's words; the matrix is not unpacked.  A game matrix's is
        read from its per-axis factors (:func:`.chase.diagonal`)."""
        if self._game is not None:
            return _chase.diagonal(*self._game)
        idx = np.arange(min(self.rows, self.cols))
        bits = (self._words[idx, idx >> 6] >> (idx.astype(np.uint64) & np.uint64(63))) & _ONE
        return BitVector._of(idx.size, _pack_rows(bits.astype(np.uint8)))

    def transpose(self) -> "BitMatrix":
        return BitMatrix._from_bit_array(self.to_bit_array().T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and np.array_equal(self._words, other._words))

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._words.tobytes()))

    def __repr__(self) -> str:
        body = "\n".join("".join(map(str, r)) for r in self.to_bit_array())
        return f"BitMatrix({self.rows}x{self.cols})\n{body}"

    # -- arithmetic ---------------------------------------------------

    def __xor__(self, other: "BitMatrix") -> "BitMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        return BitMatrix._of(self.rows, self.cols, self._words ^ other._words,
                             symmetric=self.symmetric and other.symmetric)

    __add__ = __xor__

    def mul_vec(self, v: BitVector) -> BitVector:
        """Matrix-vector product over GF(2).  A game matrix is applied to
        v on the grid, axis by axis (:func:`.chase.apply`), and never
        builds its words."""
        if v.n != self.cols:
            raise ValueError(f"vector length {v.n} != cols {self.cols}")
        if self._game is not None:
            dims, terms = self._game
            mx = _chase.apply(dims, _chase.kron_factors(dims, terms), v.to_int())
            return BitVector.from_int(self.rows, mx)
        folded = np.bitwise_xor.reduce(self._words & v._words[None, :], axis=1)
        bits = np.bitwise_count(folded).astype(np.uint8) & 1
        return BitVector._of(self.rows, _pack_rows(bits))

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return BitMatrix._of(self.rows, other.cols, _product(self._words, self.cols, other._words))


# ----------------------------------------------------------------------
# Elimination core
# ----------------------------------------------------------------------

# below this size an elimination runs on plain int bitsets: the numpy
# dispatch overhead beats the vectorization gain for small systems
_INT_PATH_MAX = 128


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

    The backend is picked here and nowhere else (what qualifies a game
    for the product backend or the chase is decided by
    :func:`.chase.pick`):

    - dense: the RREF of m itself;
    - product: a game matrix of :func:`.game.adjacency_matrix` whose
      terms are a product E_1 x ... x E_d, so m = U_1 (x) ... (x) U_d,
      is eliminated one factor U_i at a time; the canonical kernel and
      solutions are assembled from the per-axis RREFs;
    - chase: a game matrix with an axis that qualifies is reduced to an
      r x r end system of r = total / n cells, whose kernel and
      solutions are lifted to the grid and, unless the axis is the
      first, made canonical by one RREF of the kernel with its columns
      reversed.

    A system of packed words, m or a chase's end system on words, gets
    its routine from its own size (:func:`_rref_any`): Python-int rows
    up to ``_INT_PATH_MAX`` rows and columns, the blocked Four Russians
    path (:func:`_rref`, 8 columns per table XOR) above.  The chase's
    int rows and a singular axis factor go to :func:`_echelon_rows`
    directly.  Every routine gives the same pivots and reduced matrix
    columns.
    """

    __slots__ = ("m", "targets", "rank", "_solutions", "_echelon")

    def __init__(self, m: BitMatrix, targets: Sequence[BitVector] = ()):
        self.m = m
        self.targets = tuple(targets)
        for j, t in enumerate(self.targets):
            if t.n != m.rows:
                raise ValueError(f"target {j} has length {t.n} != rows {m.rows}")
        backend = _chase.pick(m) if m._game is not None else None
        if backend is None:
            tbits = np.zeros((len(self.targets), m.rows), dtype=np.uint8)
            for j, t in enumerate(self.targets):
                tbits[j] = t.to_array()
            self._echelon = _Echelon(m._words, m.cols, tbits)
            self.rank = self._echelon.rank
            self._solutions = [self._echelon.solution(j) for j in range(len(self.targets))]
        else:
            self._echelon = None
            kernel, self._solutions = backend.solve([t.to_int() for t in self.targets])
            self.rank = m.cols - kernel.shape[0]
            if m._kernel is None:
                kernel.flags.writeable = False
                m._kernel = kernel

    def kernel(self) -> np.ndarray:
        """Basis of {x : m x = 0}, packed one vector per row, in RREF
        order.  The first call for m stores the basis on m; later calls,
        from this record or another of m, read it there."""
        m = self.m
        if m._kernel is None:
            words = self._echelon.kernel()
            words.flags.writeable = False
            m._kernel = words
        return m._kernel

    def consistent(self) -> list:
        """Per target, whether it lies in the column space of m."""
        return [s is not None for s in self._solutions]

    def solution(self, j: int = 0) -> Optional[BitVector]:
        """Some x with m x = t_j (free variables zero), or None."""
        words = self._solutions[j]
        return None if words is None else BitVector._of(self.m.cols, words.copy())

    def certificate(self, j: int = 0) -> Optional[BitVector]:
        """A kernel vector k with k . t_j = 1, or None.

        Only a symmetric m yields one: there Im m = (Ker m)^perp, so k
        proves t_j outside the image, and such a k exists whenever t_j
        is outside it.
        """
        if not self.m.symmetric or self._solutions[j] is not None:
            return None
        return _first_not_orthogonal(self.m.cols, self.kernel(), self.targets[j])


class _Echelon:
    """The RREF of the first ``ncols`` columns of packed rows, with a
    (k, rows) block of target bits riding in the words after them.

    ``rows`` holds the reduced matrix columns, ``rhs`` the transformed
    target block (bit j of a row is target j) and ``pivots`` the pivot
    columns.
    """

    __slots__ = ("ncols", "pivots", "rows", "rhs")

    def __init__(self, words: np.ndarray, ncols: int, tbits: np.ndarray):
        self.ncols = ncols
        split = words.shape[1]
        aug = np.zeros((words.shape[0], split + _nwords(tbits.shape[0])), dtype=np.uint64)
        aug[:, :split] = words
        if tbits.shape[0]:
            aug[:, split:] = _pack_rows(np.ascontiguousarray(tbits.T))
        self.pivots = _rref_any(aug, ncols)
        self.rows, self.rhs = aug[:, :split], aug[:, split:]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def kernel(self) -> np.ndarray:
        """The packed kernel basis: one vector per free column, in
        increasing column order, each with its free coordinate set."""
        if self.rank == self.ncols:
            return np.zeros((0, _nwords(self.ncols)), dtype=np.uint64)
        piv = np.asarray(self.pivots, dtype=np.intp)
        free = np.ones(self.ncols, dtype=bool)
        free[piv] = False
        free = np.flatnonzero(free)
        bits = np.zeros((free.size, self.ncols), dtype=np.uint8)
        bits[np.arange(free.size), free] = 1
        # the pivot rows' bits in the free columns, a rank x nullity block
        strips = self.rows[: self.rank].view(np.uint8)
        bits[:, piv] = ((strips[:, free >> 3] >> (free & 7).astype(np.uint8)) & 1).T
        return _pack_rows(bits)

    def solution(self, j: int) -> Optional[np.ndarray]:
        """The packed solution for target j with free variables zero, or
        None when target j is inconsistent."""
        col = ((self.rhs[:, j >> 6] >> np.uint64(j & 63)) & _ONE).astype(np.uint8)
        if col[self.rank:].any():
            return None
        xbits = np.zeros(self.ncols, dtype=np.uint8)
        xbits[np.asarray(self.pivots, dtype=np.intp)] = col[: self.rank]
        return _pack_rows(xbits)


def _first_not_orthogonal(n: int, kernel: np.ndarray, t: BitVector) -> Optional[BitVector]:
    """The first packed kernel row k with k . t = 1, or None."""
    hits = np.flatnonzero(np.bitwise_count(kernel & t._words).sum(axis=1) & 1)
    return BitVector._of(n, kernel[hits[0]]) if hits.size else None


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


def _product(a: np.ndarray, ncols: int, b: np.ndarray) -> np.ndarray:
    """The GF(2) product of packed rows a (ncols columns) with packed
    rows b (ncols of them), by Four Russians: per byte of a's columns, a
    table of the 256 sums of the 8 rows of b it covers, and per row of
    a one gather of a table entry per byte.  Tables and gathers are
    built in blocks of at most ``_STAGE_WORDS`` words."""
    groups = (ncols + 7) >> 3
    width = b.shape[1]
    if not groups or not width:
        return np.zeros((a.shape[0], width), dtype=np.uint64)
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


def _rref_any(words: np.ndarray, ncols: int) -> list:
    """:func:`_rref_ints` on a system of at most ``_INT_PATH_MAX`` rows
    and columns, :func:`_rref` on a larger one: the one routine pick."""
    if 0 < words.shape[0] <= _INT_PATH_MAX and ncols <= _INT_PATH_MAX:
        return _rref_ints(words, ncols)
    return _rref(words, ncols)


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


def _rref_ints(words: np.ndarray, ncols: int) -> list:
    """:func:`_echelon_rows` on packed rows, in place; returns the pivot
    columns."""
    pivots, rows = _echelon_rows(_words_to_ints(words), ncols)
    words[:] = _ints_to_words(rows, words.shape[1] * _WORD)
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


def _kernel_of(m: BitMatrix) -> np.ndarray:
    """m's packed kernel basis; m is eliminated only if no earlier query
    stored it."""
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
    if m.symmetric:
        e.kernel()  # stored on m even when b is reachable
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


def _kron_sum(products: Iterable[Sequence[tuple]], rows: int, cols: int,
              symmetric: bool = False) -> BitMatrix:
    """XOR of the Kronecker products of each sequence of factors, each
    (width, row ints) (:func:`_kron_rows`), packed once into a rows x
    cols matrix; ``symmetric`` is trusted.  The size is checked before
    anything is built."""
    _check_dense(rows, cols)
    return BitMatrix._of(rows, cols, _ints_to_words(_kron_row_sum(products, rows), cols), symmetric)


def _kron_row_sum(products: Iterable[Sequence[tuple]], rows: int) -> list:
    """The ``rows`` int rows of the XOR of the Kronecker products of each
    sequence of factors (:func:`_kron_rows`), unpacked."""
    acc = None
    for factors in products:
        term = _kron_rows(factors)[1]
        acc = term if acc is None else [a ^ b for a, b in zip(acc, term)]
    return acc or [0] * rows


def _kron_vec(factors: Sequence[tuple]) -> int:
    """The Kronecker product of vectors given as (length, bits int), as
    an int: the one-row case of :func:`_kron_rows`."""
    return _kron_rows([(w, [v]) for w, v in factors])[1][0]


# the product backend and the chase build on the helpers above, and
# Elimination hands them game matrices
from . import chase as _chase  # noqa: E402
