"""Game matrices solved without eliminating them whole: axis by axis
when the game is a Kronecker product, else one layer at a time (light
chasing).

A game whose term set is a product E_1 x ... x E_d of d >= 2 axes has
the matrix M = U_1 (x) ... (x) U_d, U_i = f_i(J) with f_i the sum of
X^e over E_i (reduced mod Q_{n_i}).  Per axis, its pivots P_i, an
invertible T_i with T_i U_i = R_i in RREF, and the canonical kernel of
U_i: an invertible U_i (f_i prime to Q_{n_i}) needs no elimination, as
its RREF is I: P_i is every column and T_i = U_i^-1 = g_i(J) for the
inverse g_i of f_i mod Q_{n_i}; a singular one is eliminated on int
rows (:func:`.gf2._echelon_rows`, read by :func:`.gf2._read_rows`),
each row reduced by its lowest set bit, which costs a few XORs a row on
a banded U_i such as I + J.  T_i is then not unique, but any invertible
T_i with T_i U_i = R_i gives the same answers.  As (T_1 (x) ... (x) T_d) M =
R_1 (x) ... (x) R_d, M x = t holds iff (R_1 (x) ... (x) R_d) x = t' =
(T_1 (x) ... (x) T_d) t: on an invertible axis T_i = g_i(J) is applied
by Horner's rule on the grid as one Python int (:func:`apply`), and on a
singular one as a mode product of the packed T_i; t is
consistent iff t' vanishes outside the leading rank_1 x ... x rank_d
block, and that block put on P_1 x ... x P_d, zero elsewhere, solves
it.  Column c of U_i is U_i W_i[c], where W_i[c] = e_c for a pivot c
and, for a free c, the pivot part of its kernel vector, set on pivots
below c only.  So v_c = e_c + W_1[c_1] (x) ... (x) W_d[c_d] lies in Ker
M, and when some c_i is free its other bits lie on P_1 x ... x P_d,
below c: c is a free column of the dense RREF of M and v_c its canonical
kernel vector.  These are total - prod(rank_i) columns, the nullity, so
they are all of them, and the solution above is zero on every one.  The
answers are the dense RREF's, byte for byte, and no RREF spans more than
one axis; working memory is the kernel's nullity x total bytes and the
targets'.  When every U_i is invertible M is, so the kernel is empty
and x = (g_1 (x) ... (x) g_d)(J) t, with no mode product, pack or
elimination.

Light chasing: pick an axis p of length n and cut the grid into the n
layers across it, each of r = total / n cells.  When every term has
exponent 0 or 1 on p, the game matrix is

    M = I_n (x) B + J_n (x) A

(axis p moved first), where A sums the other-axis factors of the
exponent-1 terms and B those of the exponent-0 terms.  Row k of
M x = t reads A x_{k-1} + B x_k + A x_{k+1} = t_k.  When A is
invertible each layer fixes the one before it:

    x_{k-1} = C x_k + x_{k+1} + A^-1 t_k,    C = A^-1 B,

so a grid vector is fixed by its last layer w = x_{n-1} (with
x_n = 0), and M x = t becomes the r x r end system x_{-1} = 0, that is
P w = s with P = Q_n(C) (light chasing: Sutner, Math. Intelligencer 11,
1989; Hunziker, Machiavelo & Park, TCS 320, 2004).  The recurrence is
run once over the r unit starts and the affine columns; it gives P and s.

Every nonzero kernel vector has a nonzero last layer (from
x_n = x_{n-1} = 0 and t = 0 the recurrence gives zero layers only), so
Ker M is the lift of Ker P.  When p is the first axis, the last layer
is the last block of r flat indices, so every kernel vector has its
highest set bit there; the free columns of the dense RREF of M are then the free columns of the
RREF of P, shifted into that block, and lifting the RREF kernel basis
and the free-variables-zero solution of P gives the dense RREF's
kernel basis and solution byte for byte.  On any other axis the lifted
kernel is put in the same canonical form by one RREF with its columns
reversed (free columns are the highest set bits), and the solution's
free coordinates are cleared with it.  Every routine that eliminates
gives the same pivots and reduced matrix columns.

A and C are Kronecker sums of polynomials in the path matrices J.  The
chase needs A to be a product of per-axis factors a_i(J); it is
invertible iff each a_i is prime to Q_{n_i}, the minimal polynomial of
J_{n_i}, and then A^-1 is the product of the inverses mod Q_{n_i}.

Arithmetic is exact over GF(2).  A^-1 t is applied to the targets on
the grid by Horner's rule (:func:`apply`).  C is grouped as the game
is: one product per group of :func:`.gf2._kron_groups` over the
exponent-0 terms, each factor times g_i.  A product with a zero
factor, such as X mod Q_1 = 0 on an axis of length 1, is zero and left
out.  When the r unit starts and the T targets fit one 64-bit word
(r + T <= 64) the chase runs on Python ints, where numpy's per-call
cost, not the XORs, would set the time of a layer.  A layer is one int
whose 64-bit chunk i holds the chased row of its cell i.  Each
target's cells are chunked once for all layers, and t_k is read from
that one int's bytes.  C acts on a whole layer by Horner's rule on
64-bit cells, in the one loop that :func:`apply` runs too
(:func:`_act`), its shift masks read once per solve.  The layers then
go to numpy once, and every kernel vector and solution, each a
selection of chased columns, is lifted in one pass: entry (v, i) is
the parity of chunk i masked by selection v (:func:`_parities`, one
``bitwise_count`` in blocks of at most ``_STAGE_WORDS`` words), put in
grid order and read back as ints once.  A chase of wider rows runs on
vectors packed in uint64 words: a step by a sparse C XORs the words of
the rows each row of C selects, a product by a dense matrix goes
through Four Russians tables (:func:`.gf2._product`), and the lift is
one product of the layers by the selections.  Off the first axis the
lifted kernel is made canonical by one RREF with its columns reversed,
on int rows (:func:`.gf2._echelon_rows`).

Either way the end system is the int rows of x_{-1}, [P | s] with
target j at bit r + j: the one system format of :func:`.gf2._solve_rows`,
which solves it on int rows or by Four Russians by its size and returns
the kernel and the solutions as ints.  The grid vector of a kernel
vector k sums the unit starts k selects, and that of target j's
solution x also its affine column: the selection k, or 1 << (r + j) | x.

A run on words holds C, built on int rows and packed for that run, a
few transient arrays of r x r bytes (C's gather index, the end system),
the n + 2 packed layers over the r + T chased columns, and the lifted
vectors, total x (nullity + T) bytes; gathers and tables are staged in
blocks of at most 1 MB.  On 2^12 cells, sigma-:box (r and the
nullity both 2,048) peaks at 26 MB under tracemalloc, below two bytes
per entry of the matrix.

:func:`pick` is called by :class:`.gf2.Elimination` for a matrix of
:func:`.game.adjacency_matrix`, which keeps the game's dims and terms in
its ``_game`` slot.  On 64 cells or more it picks the product backend
for a product game, else the chase on the longest axis that qualifies,
else the dense RREF, and logs one DEBUG line naming the backend.  Both
backends here answer through ``solve(target ints)``, as the dense one
does: the canonical kernel as ints and a solution int or None per
target, so words never leave this module.

The same matrix is described once, by :func:`kron_factors`, as a sum of
Kronecker products of per-axis factors f_i(J), grouped by the rule the
multiplication operator reads too (:func:`.gf2._kron_groups`): the
terms' bounding box plus the terms it has too many, or one product per
term, whichever is fewer.  A game is a product game iff that is one
product.  Its dense rows (:func:`game_rows`, built on each read), its
mat-vec (:func:`apply`, which checks every answer without the dense
matrix, by Horner's rule on the grid as one Python int), its diagonal
(:func:`diagonal`) and the pick all read that description.

The per-axis pieces that boards share, the inverse g_i of an axis
factor (:func:`_inverse_mod`), a singular axis's (pivots, T, W)
(:func:`_axis_echelon`) and the rows of f_i(J)
(:func:`.poly2._path_poly_rows`), are kept by (n, f) in the one
byte-budgeted store of :mod:`._memo` (``BUDGET_BYTES``, 64 MiB, oldest
entries dropped first).  :func:`pick` builds a backend from them for
each elimination, and no backend keeps what a solve builds (a chase
on words builds C for each run).  A later elimination of a matrix
hands its backend the kernel stored on the matrix: the chase then
lifts only the solutions and orders no kernel, and the product builds
none.  The caches keyed by a whole game, :func:`kron_factors` and
:func:`.game.adjacency_matrix`, are bounded by count: their entries
do not grow, bar a game matrix's kernel.
"""
from __future__ import annotations

import logging
import math
import sys
from functools import lru_cache
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import poly2
from ._memo import memo
from .gf2 import (_STAGE_WORDS, _WORD, BitVector, _echelon_rows, _int_bits, _ints_to_words,
                  _kron_groups, _kron_row_sum, _kron_vec, _nwords, _pack_rows, _product,
                  _read_rows, _solve_rows, _spread, _unpack_words_2d, _words_to_ints)

_log = logging.getLogger(__name__)

# a backend's fixed cost is paid on every board it takes; below this
# many cells the dense RREF runs on int rows and is cheap, and a backend
# built afresh is no sure win.  At 36-64 cells (timeit, one target, the
# per-axis store warm, 2-vCPU Xeon), picked and solved, a one-word chase
# takes 0.045-0.12 ms against 0.06-0.27 ms dense (5x8 sigma-:box 0.082
# against 0.073), a product of invertible axes 0.009-0.014 ms against
# 0.06-0.13 ms, and one of singular axes 0.07-0.09 ms against 0.07-0.11
# ms (8x8 sigma+:boxtimes 0.084 against 0.113); moving the gate is
# measured by whole sweeps, not by these
_MIN_CELLS = 64


@memo
def _inverse_mod(a: int, m: int) -> Optional[int]:
    """The inverse of polynomial a modulo m (bit k = coefficient of X^k),
    or None when gcd(a, m) != 1; extended Euclid."""
    r0, r1 = m, poly2._mod_int(a, m)
    s0, s1 = 0, 1
    while r1:
        q, rem = poly2._divmod_int(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 ^ poly2._mul_int(q, s1)
    return poly2._mod_int(s0, m) if r0 == 1 else None


def _gather_index(c: np.ndarray, r: int) -> Optional[np.ndarray]:
    """The rows a step x_{k-1} = C x_k + x_{k+1} XORs for each entry, as
    indices into the step's block [x_k; 0; x_{k+1}] of 2r + 1 rows: row i
    lists the columns of packed C set in row i, padded with r (the zero
    row), and then r + 1 + i.  None when a row of C has more than
    max(48, r / 8) entries, where Four Russians tables win: one step on
    a random C of k entries per row, r from 16 to 2,048, gathers faster
    below that line (up to 50x at k = 1) and slower above it."""
    rows, cols = np.nonzero(_unpack_words_2d(c, r))
    counts = np.bincount(rows, minlength=r)
    k = int(counts.max(initial=0))
    if k > max(48, r // 8):
        return None
    index = np.full((r, k + 1), r, dtype=np.intp)
    index[rows, np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)] = cols
    index[:, k] = r + 1 + np.arange(r)
    return index


# bytes.translate table: b"0"/b"1" to bytes 0/1
_FROM_ASCII = bytes.maketrans(b"01", b"\x00\x01")


def _chunks(cells: bytes) -> int:
    """The int whose 64-bit chunk i holds byte i of ``cells``."""
    buf = bytearray(8 * len(cells))
    buf[::8] = cells
    return int.from_bytes(buf, "little")


def _parities(chunks: np.ndarray, select: Sequence[int]) -> np.ndarray:
    """(q, cells) bits: entry (v, i) is the parity of chunk i masked by
    the v-th of the q ints of ``select`` (each below 2^64), one
    :func:`numpy.bitwise_count` over blocks of at most ``_STAGE_WORDS``
    masked words."""
    sel = np.array(select, dtype=np.uint64)[:, None]
    out = np.empty((sel.shape[0], chunks.size), dtype=np.uint8)
    step = _STAGE_WORDS // max(1, sel.shape[0])
    for i in range(0, chunks.size, step):
        np.bitwise_count(chunks[i:i + step] & sel, out=out[:, i:i + step])
    out &= 1
    return out


class _Chase:
    """A game on ``dims`` chased along ``axis``; see the module notes.

    ``c_polys`` is C as a sum of Kronecker products over the other axes,
    one per group of :func:`.gf2._kron_groups`, per product its per-axis
    polynomials (as in :func:`apply`), and ``a_inv`` holds the per-axis
    factors g_i of A^-1 (1 on ``axis``), or is None when A = I.  A solve
    on packed words builds C's words and its gather index
    (:meth:`_c_words`) for that solve, and keeps neither.
    """

    __slots__ = ("dims", "axis", "n", "r", "inner", "others", "c_polys", "a_inv")

    def __init__(self, dims: Tuple[int, ...], axis: int, c_polys: list, a_inv: Optional[tuple]):
        self.dims = dims
        self.axis = axis
        self.n = dims[axis]
        self.others = dims[:axis] + dims[axis + 1:]
        self.r = math.prod(self.others)
        # the cells of a layer come in runs of ``inner`` consecutive grid cells
        self.inner = math.prod(dims[axis + 1:])
        self.c_polys = c_polys
        self.a_inv = a_inv

    # -- answers -------------------------------------------------------

    def solve(self, ts: Sequence[int], kernel: Optional[tuple] = None):
        """(canonical kernel, solution or None per target) of the game
        matrix as ints, for the targets ``ts`` (grid ints), in the dense
        RREF's canonical form (see :class:`.gf2.Elimination`); a stored
        canonical ``kernel`` is returned as it is, and no kernel vector
        is lifted.  A^-1 t is applied on the whole grid by Horner's rule
        (:func:`apply`).  When the r unit starts and T targets fit one
        64-bit word the chase runs on ints (:meth:`_solve_ints`), else on
        packed words (:meth:`_solve_words`)."""
        if self.a_inv is not None:
            ts = [apply(self.dims, (self.a_inv,), t) for t in ts]
        if self.r + len(ts) <= _WORD:
            return self._solve_ints(ts, kernel)
        return self._solve_words(ts, kernel)

    def _solve_ints(self, ts: Sequence[int], kernel: Optional[tuple]):
        """:meth:`solve` on Python ints.  A layer x_k is one int whose
        64-bit chunk i is the chased row of its cell i: bit j of the row
        is its coefficient of chased column j (unit start j, or target
        j - r).  The targets' cells are chunked once for every layer, so
        t_k is a slice of one int's bytes, and C acts on a whole layer
        by Horner's rule on 64-bit cells (:func:`_act`, its masks read
        once), so a step x_{k-1} = C x_k + x_{k+1} + (A^-1 t)_k is a few
        big-int operations.  The end system [P | s] is the rows of
        x_{-1}, solved by :func:`.gf2._solve_rows`; the kernel and the
        solutions are selections of chased columns, all lifted to every
        cell in one pass (:func:`_parities`)."""
        r, n, total, ntargets = self.r, self.n, self.n * self.r, len(ts)
        # chunk k r + i holds bit r + j of target j's cell i of layer k
        sources = 0
        for j, t in enumerate(ts):
            sources ^= _chunks(self._layer_cells(t)) << (r + j)
        sources = sources.to_bytes(8 * total, "little")
        masks = _shift_masks(self.others, _WORD)
        # x_{n-1}: chunk i is unit start i; x_n = 0
        x, nxt = ((1 << 65 * r) - 1) // ((1 << 65) - 1), 0
        layers = [x]
        for k in range(n - 1, -1, -1):
            x, nxt = (_act(masks, self.c_polys, x) ^ nxt
                      ^ int.from_bytes(sources[8 * k * r:8 * (k + 1) * r], "little")), x
            layers.append(x)
        end = memoryview(layers.pop().to_bytes(8 * r, sys.byteorder)).cast("Q").tolist()
        lifted, xs = _solve_rows(end, r, ntargets)
        if kernel is not None:
            lifted = []
        select = lifted + [1 << (r + j) | x for j, x in enumerate(xs) if x is not None]
        # every layer, x_0 first
        chunks = np.frombuffer(b"".join(x.to_bytes(8 * r, sys.byteorder)
                                        for x in reversed(layers)), dtype=np.uint64)
        bits = _parities(chunks, select).reshape(len(select), n, r)
        return self._answers(bits, len(lifted), xs, kernel)

    def _answers(self, layers: np.ndarray, nkernel: int, xs: Sequence,
                 kernel: Optional[tuple]):
        """(canonical kernel, solution or None per target) as ints, from
        the (q, n, r) layer bits of the ``nkernel`` lifted kernel vectors
        and then of the solutions of the targets whose entry of ``xs`` is
        not None, packed once.  A stored ``kernel`` stands for the lifted
        one (none is lifted then).  Off the first axis the lifted kernel
        is made canonical, and a solution's free coordinates are cleared
        by the canonical kernel (:func:`_free_cleared`)."""
        grid = self._grid(layers)
        if self.axis and nkernel:
            kernel = _canonical_kernel(grid[:nkernel])
            grid, nkernel = grid[nkernel:], 0
        ints = _words_to_ints(_pack_rows(grid))
        if kernel is None:
            kernel = ints[:nkernel]
        solved = iter(_free_cleared(x, kernel) if self.axis else x for x in ints[nkernel:])
        return kernel, [None if x is None else next(solved) for x in xs]

    def _layer_cells(self, t: int) -> bytes:
        """Grid int t as one byte 0 or 1 a cell, in layer order (byte
        k r + i is cell i of layer k)."""
        n, inner = self.n, self.inner
        cells = format(t, f"0{n * self.r}b")[::-1].encode().translate(_FROM_ASCII)
        if inner == self.r:
            return cells
        if inner == 1:
            return b"".join(cells[k::n] for k in range(n))
        step = n * inner
        return b"".join(cells[b:b + inner] for k in range(n)
                        for b in range(k * inner, len(cells), step))

    # -- packed words --------------------------------------------------

    def _c_words(self):
        """(C packed, its :func:`_gather_index` or None for a dense C,
        whose steps go through Four Russians tables), built for one run
        on words."""
        products = [[(n, poly2._path_poly_rows(n, f)) for n, f in zip(self.others, factors)]
                    for factors in self.c_polys]
        c = _ints_to_words(_kron_row_sum(products, self.r), self.r)
        return c, _gather_index(c, self.r)

    def _grid(self, layers: np.ndarray) -> np.ndarray:
        """(q, n, r) layer bits -> (q, total) grid bits."""
        q, n, r, inner = layers.shape[0], self.n, self.r, self.inner
        return layers.reshape(q, n, r // inner, inner).transpose(0, 2, 1, 3).reshape(q, n * r)

    def _sources(self, ts: Sequence[int]) -> np.ndarray:
        """t_k for every layer k and each of the T targets ``ts`` (grid
        ints, A^-1 already applied), packed as (n, r, w) words that line
        up with the words of a chased row from word r // 64 on, so that
        target j lands in column r + j."""
        n, r = self.n, self.r
        pad = r & 63
        bits = np.zeros((n, r, pad + len(ts)), dtype=np.uint8)
        for j, t in enumerate(ts):
            bits[:, :, pad + j] = np.frombuffer(self._layer_cells(t), dtype=np.uint8).reshape(n, r)
        return _pack_rows(bits)

    def run(self, ts: Sequence[int]):
        """Chase the r unit starts of the last layer and one affine column
        per target of ``ts`` (grid ints, A^-1 already applied) on packed
        words: r + T chased columns.  Returns the rows of x_{-1} as
        packed words, [P | s] with target j at bit r + j, and the packed
        layers x_0 .. x_{n-1}, for :meth:`lift`."""
        r, n, ntargets = self.r, self.n, len(ts)
        c, gather = self._c_words()
        width = _nwords(r + ntargets)
        # buf[k + 1] holds x_k, with an all-zero row after its r rows
        buf = np.zeros((n + 2, r + 1, width), dtype=np.uint64)
        idx = np.arange(r)
        buf[n, idx, idx >> 6] = np.uint64(1) << (idx & 63).astype(np.uint64)
        sources = self._sources(ts) if ntargets else None
        flat = buf.reshape((n + 2) * (r + 1), width)
        if gather is not None:
            step = max(1, _STAGE_WORDS // (gather.shape[1] * width))
        for k in range(n - 1, -1, -1):
            # x_{k-1} = C x_k + x_{k+1}
            if gather is None:
                np.bitwise_xor(_product(c, r, buf[k + 1, :r]), buf[k + 2, :r], out=buf[k, :r])
            else:
                block, out = flat[(k + 1) * (r + 1):(k + 3) * (r + 1)], buf[k, :r]
                for i in range(0, r, step):
                    np.bitwise_xor.reduce(np.take(block, gather[i:i + step], axis=0), axis=1,
                                          out=out[i:i + step])
            if sources is not None:
                buf[k, :r, r >> 6:] ^= sources[k]
        return buf[0, :r], buf[1:n + 1, :r]

    def lift(self, layers: np.ndarray, select: Sequence[int], ncols: int) -> np.ndarray:
        """Vectors from :meth:`run`'s layers: the ints of ``select`` pick
        the chased columns (unit starts and targets, ``ncols`` in all)
        each vector sums.  Returns their (q, n, r) layer bits."""
        q, n, r = len(select), self.n, self.r
        if not q:
            return np.zeros((0, n, r), dtype=np.uint8)
        picks = _int_bits(select, ncols)
        picked = _product(layers.reshape(n * r, -1), ncols,
                          _pack_rows(np.ascontiguousarray(picks.T)))
        return _unpack_words_2d(picked, q).reshape(n, r, q).transpose(2, 0, 1)

    def _solve_words(self, ts: Sequence[int], kernel: Optional[tuple]):
        """:meth:`solve` on packed words (:meth:`run`, :meth:`lift`)."""
        r, ntargets = self.r, len(ts)
        end, layers = self.run(ts)
        lifted, xs = _solve_rows(_words_to_ints(end), r, ntargets)
        if kernel is not None:
            lifted = []
        # a grid vector sums the unit starts its last layer selects, plus
        # its target's affine column
        select = lifted + [1 << (r + j) | x for j, x in enumerate(xs) if x is not None]
        return self._answers(self.lift(layers, select, r + ntargets), len(lifted), xs, kernel)


def _free_cleared(x: int, kernel: Sequence[int]) -> int:
    """x with its free coordinates cleared by the canonical kernel: each
    kernel vector is the identity on the free columns, the highest set
    bits of the vectors, so x is the one solution of its coset that is
    zero on them."""
    for k in kernel:
        if x >> (k.bit_length() - 1) & 1:
            x ^= k
    return x


def _canonical_kernel(bits: np.ndarray) -> list:
    """The RREF kernel basis, as ints, of the span of the rows of a
    full-rank 0/1 array: the RREF of the rows with their columns
    reversed, on int rows (:func:`.gf2._echelon_rows`), pivots on the
    highest set bits.  On the lifted kernels of 85 boards of 847-24,863
    cells (65-515 vectors) int rows took 229 ms in all against 297 ms
    by Four Russians (:func:`.gf2._rref`), and lost by more than 10%
    only on the two densest, sigma-:boxtimes 15x15x47 (211 vectors,
    14.5 against 7.4 ms) and 15x31x31 (451 vectors, 41 against 20 ms);
    on 7-21 vectors they take 17-53 us against 53-252 us."""
    ncols = bits.shape[1]
    words = _pack_rows(np.ascontiguousarray(bits[:, ::-1]))
    rows = _echelon_rows(_words_to_ints(words), ncols)[1]
    return _words_to_ints(_pack_rows(np.ascontiguousarray(_int_bits(rows, ncols)[::-1, ::-1])))


def _axis_factor(e_set: Sequence[int], n: int, g: int = 1) -> int:
    """g times the sum of X^e over e_set, reduced mod Q_n; polynomials
    are ints, bit k the coefficient of X^k."""
    f = poly2._power_sum(n, e_set)
    return poly2._mod_int(poly2._mul_int(g, f), poly2.chebyshev_q(n).value)


@lru_cache(maxsize=512)
def kron_factors(dims: Tuple[int, ...], terms: Tuple[tuple, ...]) -> tuple:
    """The game matrix as a sum of Kronecker products f_1(J) (x) ... (x)
    f_d(J): per product, its per-axis factors f_i (ints, reduced mod
    Q_{n_i}), f_i the sum of X^e over the product's exponent set E_i on
    axis i.  The products are those of :func:`.gf2._kron_groups`, the
    rule the multiplication operator reads too: the terms' bounding box
    plus the box terms that are not terms, or one product per term,
    whichever is fewer.  So a game is a product game iff it is one
    product, whose factors are then the f_i; sigma-:boxtimes is two.
    The pick, the dense rows, the mat-vec and the diagonal of a game
    matrix all read it."""
    return tuple(tuple(poly2._power_sum(n, e_set) for n, e_set in zip(dims, group))
                 for group in _kron_groups(terms))


def game_rows(dims: Tuple[int, ...], terms: Sequence[tuple]) -> list:
    """The int rows of the dense game matrix, a new list: one
    :func:`.gf2._kron_row_sum` of the int rows of the factors f_i(J)."""
    products = [[(n, poly2._path_poly_rows(n, f)) for n, f in zip(dims, factors)]
                for factors in kron_factors(dims, terms)]
    return _kron_row_sum(products, math.prod(dims))


@lru_cache(maxsize=64)
def _shift_masks(dims: Tuple[int, ...], width: int) -> tuple:
    """Per axis of the row-major grid of ``width``-bit cells, (s,
    not_first, not_last): its stride in bits, and the masks of the cells
    that are not first and not last along it, each one block of n s bits
    times the repunit that repeats it over the grid."""
    total = math.prod(dims) * width
    masks = []
    for i, n in enumerate(dims):
        s = math.prod(dims[i + 1:]) * width
        repunit = ((1 << total) - 1) // ((1 << n * s) - 1)
        not_first = ((1 << n * s) - (1 << s)) * repunit
        masks.append((s, not_first, ((1 << (n - 1) * s) - 1) * repunit))
    return tuple(masks)


def _act(masks: tuple, products: Sequence[tuple], x: int) -> int:
    """(sum of f_1(J) (x) ... (x) f_d(J) over ``products``) x on the grid
    whose axes have the (stride, not_first, not_last) of ``masks``
    (:func:`_shift_masks`), one axis at a time: the factor 1 leaves an
    axis alone, and any other factor f runs Horner's rule on the whole
    grid, J along the axis being one shift each way, (J y)_k = y_{k-1} +
    y_{k+1}, from the leading coefficient down (the digits of ``bin``).
    The one Horner loop of :func:`apply` and the int chase."""
    out = 0
    for factors in products:
        y = x
        for f, (s, not_first, not_last) in zip(factors, masks):
            if f != 1:
                acc = y if f else 0
                for c in bin(f)[3:]:
                    acc = (acc << s) & not_first ^ (acc >> s) & not_last
                    if c == "1":
                        acc ^= y
                y = acc
        out ^= y
    return out


def apply(dims: Tuple[int, ...], products: Sequence[tuple], x: int, width: int = 1) -> int:
    """(sum of f_1(J) (x) ... (x) f_d(J) over ``products``) x for the grid
    vector x, an int whose bits k w .. k w + w - 1 are cell k for w =
    ``width`` (a mat-vec when w = 1; for w > 1 the same operator on w
    columns at once), each product given by its per-axis factors f_i
    (ints, as in :func:`kron_factors`), applied one axis at a time
    without building a matrix, by Horner's rule on the whole grid
    (:func:`_act`)."""
    return _act(_shift_masks(dims, width), products, x)


def diagonal(dims: Tuple[int, ...], terms: Sequence[tuple]) -> BitVector:
    """The diagonal of the game matrix, from :func:`kron_factors`: that
    of a Kronecker product is the Kronecker product of the factors'
    diagonals (:func:`_poly_diagonal`)."""
    out = 0
    for factors in kron_factors(dims, terms):
        out ^= _kron_vec([(n, _poly_diagonal(n, f)) for n, f in zip(dims, factors)])
    return BitVector.from_int(math.prod(dims), out)


def _poly_diagonal(n: int, f: int) -> int:
    """The diagonal of f(J_n) as an int: the constant f(0) when f has
    degree 1 or less, as J has a zero one; else bit c of row c of
    :func:`.poly2._path_poly_rows`."""
    if f < 4:
        return (1 << n) - 1 if f & 1 else 0
    out = 0
    for c, row in enumerate(poly2._path_poly_rows(n, f)):
        out |= row & 1 << c
    return out


def _mode_product(t: np.ndarray, axis: int, words: np.ndarray) -> np.ndarray:
    """(q,) + dims bits t with the packed n x n matrix ``words`` applied
    along grid axis ``axis`` (n long): one :func:`.gf2._product`."""
    n = t.shape[axis + 1]
    moved = np.moveaxis(t, axis + 1, 0)
    cols = moved.size // n
    product = _product(words, n, _pack_rows(moved.reshape(n, cols)))
    return np.moveaxis(_unpack_words_2d(product, cols).reshape(moved.shape), 0, axis + 1)


@memo
def _axis_echelon(n: int, f: int):
    """(pivots, T, W) of a singular U = f(J_n) (f not prime to Q_n): the
    pivot columns and T, packed n x n, both read-only, as boards that
    share an axis share them, and W, a tuple of n row ints.  T is
    invertible and T U is the RREF of U, row c of W is the pivot part
    of the canonical kernel vector of free column c, and W[p] = e_p for
    a pivot p.  :func:`.gf2._echelon_rows` eliminates U on int rows, row
    i tagged with bit n + i, so the tags the rows end with are the rows
    of T; every step is a row operation, so T is invertible.  The kernel
    is read off the reduced rows by :func:`.gf2._read_rows`."""
    rows = poly2._path_poly_rows(n, f)
    pivots, rows = _echelon_rows((u | 1 << (n + i) for i, u in enumerate(rows)), n)
    t = [v >> n for v in rows]
    # W[c] of a free c: its kernel vector, whose highest set bit is c,
    # less e_c
    w = [1 << c for c in range(n)]
    for k in _read_rows(pivots, rows, n, 0)[0]:
        c = k.bit_length() - 1
        w[c] = k ^ 1 << c
    pivots = np.asarray(pivots, dtype=np.intp)
    pivots.flags.writeable = False
    return pivots, _ints_to_words(t, n), tuple(w)


class _Product:
    """A game of two or more axes whose term set is a product E_1 x ...
    x E_d, eliminated one axis at a time; see the module notes.

    Per axis i, ``pivots[i]`` are the pivot columns of U_i = f_i(J).
    ``inverse`` holds, per axis, the inverse g_i of f_i mod Q_{n_i} where
    U_i is invertible and 1 elsewhere, or is None when that is 1 on
    every axis.  A singular U_i has the T_i (packed) and W_i (row ints)
    of :func:`_axis_echelon` in ``transforms[i]`` and ``parts[i]``; both
    are None on an invertible axis, whose T_i is g_i(J) and W_i = I.
    """

    __slots__ = ("dims", "pivots", "inverse", "transforms", "parts")

    def __init__(self, dims: Tuple[int, ...], factors: Sequence[int]):
        self.dims = dims
        self.pivots, self.transforms, self.parts, inverse = [], [], [], []
        for n, f in zip(dims, factors):
            g = _inverse_mod(f, poly2.chebyshev_q(n).value)
            pivots, t, w = (np.arange(n), None, None) if g is not None else _axis_echelon(n, f)
            self.pivots.append(pivots)
            self.transforms.append(t)
            self.parts.append(w)
            inverse.append(1 if g is None else g)
        self.inverse = tuple(inverse) if any(g != 1 for g in inverse) else None

    def solve(self, ts: Sequence[int], kernel: Optional[tuple] = None):
        """(canonical kernel, solution or None per target) of the game
        matrix as ints, for the targets ``ts`` (grid ints), in the dense
        RREF's canonical form (see :class:`.gf2.Elimination`); the kernel
        is built (:meth:`_kernel`) unless a stored one is given."""
        if kernel is None:
            kernel = self._kernel()
        dims, ntargets, total = self.dims, len(ts), math.prod(self.dims)
        # t' = (T_1 (x) ... (x) T_d) t: Horner's rule on the grid applies
        # every invertible axis's g_i(J) at once
        if self.inverse is not None:
            ts = [apply(dims, (self.inverse,), t) for t in ts]
        singular = [i for i, t in enumerate(self.transforms) if t is not None]
        if not singular or not ntargets:
            # M is invertible, and x = t', or there is no target
            return kernel, list(ts)
        # a singular axis's T_i, one mode product each
        t = _int_bits(ts, total).reshape((ntargets,) + dims)
        for i in singular:
            t = _mode_product(t, i, self.transforms[i])
        t = t.copy()
        # consistent iff t' vanishes outside the leading rank_1 x ... x
        # rank_d block, which then lands on the pivots P_1 x ... x P_d
        lead = (slice(None),) + tuple(slice(0, p.size) for p in self.pivots)
        x = np.zeros_like(t)
        x[(slice(None),) + np.ix_(*self.pivots)] = t[lead]
        t[lead] = 0
        bad = t.reshape(ntargets, total).any(axis=1)
        xs = _words_to_ints(_pack_rows(x.reshape(ntargets, total)))
        return kernel, [None if bad[j] else xs[j] for j in range(ntargets)]

    def _kernel(self) -> list:
        """The canonical kernel: free column c has some c_i free, and its
        kernel vector is e_c + W_1[c_1] (x) ... (x) W_d[c_d].  The rows
        are built from the last axis up, each spread to its axis's
        stride, as :func:`.gf2._kron_rows` builds them, and multiplied:
        the free columns of the axes so far are kept with their
        products, which a pivot c_i extends, and every row of those axes
        is kept too, which a free c_i extends.  W_i[c_i] has no bit c_i
        at a free c_i, so no product has bit c.  Building only these
        rows, not all of W_1 (x) ... (x) W_d, takes about 0.1 ms against
        0.76 ms on 50x50 sigma+:boxtimes (99 of 2,500 rows; best of 50,
        2-vCPU Xeon)."""
        if all(w is None for w in self.parts):
            return []
        width, rows, free = 1, [1], []
        for i in range(len(self.dims) - 1, -1, -1):
            n, w = self.dims[i], self.parts[i]
            if w is None:
                w = [1 << c for c in range(n)]
            if width > 1:
                w = [_spread(v, width) for v in w]
            pivots = set(self.pivots[i].tolist())
            free = [(c * width + k, v * u) for c, v in enumerate(w)
                    for k, u in (free if c in pivots else enumerate(rows))]
            if i:
                rows = [v * u for v in w for u in rows]
            width *= n
        return [u | 1 << c for c, u in free]


def _chase_on(dims: Tuple[int, ...], terms: Tuple[tuple, ...], axis: int):
    """(_Chase, None) when the game chases along ``axis``, else (None,
    the reason)."""
    n = dims[axis]
    if n < 2:
        return None, f"axis {axis} has length {n}"
    if any(t[axis] > 1 for t in terms):
        return None, f"exponent above 1 on axis {axis}"
    others = [i for i in range(len(dims)) if i != axis]
    ones = tuple(sorted({tuple(t[i] for i in others) for t in terms if t[axis] == 1}))
    zeros = [tuple(t[i] for i in others) for t in terms if t[axis] == 0]
    a_factors = kron_factors(tuple(dims[i] for i in others), ones)
    if len(a_factors) != 1:
        return None, f"A is not a product of per-axis factors on axis {axis}"
    a_inv = [1] * len(dims)
    for i, f in zip(others, a_factors[0]):
        a_inv[i] = _inverse_mod(f, poly2.chebyshev_q(dims[i]).value)
        if a_inv[i] is None:
            return None, f"A is singular on axis {axis}"
    # C = A^-1 B: B grouped as the game is (:func:`.gf2._kron_groups`),
    # each group's factors times g_i; a product with a zero factor is
    # zero and is left out (a one-cell layer has the empty product, the
    # 1 x 1 identity)
    c_polys = [tuple(_axis_factor(e_set, dims[i], a_inv[i]) for i, e_set in zip(others, group))
               for group in _kron_groups(zeros)]
    c_polys = [p for p in c_polys if all(p)]
    return _Chase(dims, axis, c_polys, tuple(a_inv) if any(g != 1 for g in a_inv) else None), None


def _pick(dims: Tuple[int, ...], terms: Tuple[tuple, ...]):
    """(backend, None): the product backend for a product game of two
    or more axes, else the chase on the longest axis that qualifies
    (the first of equals); or (None, the reasons no axis does)."""
    if len(dims) > 1:
        products = kron_factors(dims, terms)
        if len(products) == 1:
            return _Product(dims, products[0]), None
    reasons = []
    for axis in sorted(range(len(dims)), key=lambda i: (-dims[i], i)):
        chase, why = _chase_on(dims, terms, axis)
        if chase is not None:
            return chase, None
        reasons.append(why)
    return None, "; ".join(reasons)


def pick(m) -> Union[_Product, _Chase, None]:
    """The product backend or the chase for a game matrix m (its
    ``_game`` slot set), or None for the dense backend; one DEBUG line
    names the choice."""
    dims, terms = m._game
    shape = "x".join(map(str, dims))
    if m.cols < _MIN_CELLS:
        _log.debug("dense elimination of %s: %d cells, fewer than %d", shape, m.cols, _MIN_CELLS)
        return None
    backend, why = _pick(dims, terms)
    if backend is None:
        _log.debug("dense elimination of %s: %s", shape, why)
    elif isinstance(backend, _Product):
        _log.debug("product of %s: axis ranks %s", shape,
                   ", ".join(str(p.size) for p in backend.pivots))
    else:
        _log.debug("chase of %s along axis %d: r = %d", shape, backend.axis, backend.r)
    return backend
