"""Sigma-game specifications on d-dimensional grids.

A game is a grid shape plus a set of exponent tuples; each tuple
(i_1, ..., i_d) contributes J^{i_1} (x) ... (x) J^{i_d} to the
generalized adjacency matrix, where J is the path adjacency matrix per
axis.  The four standard neighborhoods are presets:

    sigma-:box       the d unit tuples
    sigma+:box       unit tuples plus the all-zero tuple
    sigma-:boxtimes  all 0/1 tuples except all-zero
    sigma+:boxtimes  all 0/1 tuples

Cells are 1-based as usual, (j_1, ..., j_d) flattening row-major with
axis 1 slowest, the same convention as the tensor algebra.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from . import chase, gf2
from .algebra import QuotientShape, TensorElement
from .gf2 import BitMatrix, BitVector

PRESET_NAMES = ("sigma+:box", "sigma-:box", "sigma+:boxtimes", "sigma-:boxtimes")


@dataclass(frozen=True)
class GridShape:
    dims: Tuple[int, ...]

    def __post_init__(self):
        if not self.dims:
            raise ValueError("grid needs at least one axis")
        if any(n < 1 for n in self.dims):
            raise ValueError(f"axis sizes must be >= 1, got {self.dims}")

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def total(self) -> int:
        t = 1
        for n in self.dims:
            t *= n
        return t

    def __str__(self) -> str:
        return "x".join(map(str, self.dims))


@dataclass(frozen=True)
class GameSpec:
    shape: GridShape
    terms: frozenset

    def __post_init__(self):
        for t in self.terms:
            if len(t) != self.shape.d:
                raise ValueError(f"term {t} has wrong arity for shape {self.shape}")
            if any(e < 0 for e in t):
                raise ValueError(f"term {t} has a negative exponent")

    @classmethod
    def preset(cls, name: str, shape: GridShape) -> "GameSpec":
        return cls(shape, preset_terms(name, shape.d))

    def label(self) -> str:
        """Canonical game string: a preset name when the terms match one."""
        for name in PRESET_NAMES:
            if self.terms == preset_terms(name, self.shape.d):
                return name
        parts = sorted(self.terms)
        return "custom:" + ";".join(",".join(map(str, t)) for t in parts)


@lru_cache(maxsize=64)
def preset_terms(name: str, d: int) -> frozenset:
    units = {tuple(1 if i == k else 0 for i in range(d)) for k in range(d)}
    zero = tuple([0] * d)
    hypercube = set(itertools.product((0, 1), repeat=d))
    table = {
        "sigma-:box": units,
        "sigma+:box": units | {zero},
        "sigma-:boxtimes": hypercube - {zero},
        "sigma+:boxtimes": hypercube,
    }
    if name not in table:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return frozenset(table[name])


def parse_shape(text: str) -> GridShape:
    """Shape grammar: '5x5', '3x4x5'."""
    if not re.fullmatch(r"\d+(x\d+)*", text):
        raise ValueError(f"bad shape {text!r}; expected e.g. '3x4x5'")
    return GridShape(tuple(int(p) for p in text.split("x")))


def parse_game(text: str, shape: GridShape) -> GameSpec:
    """Game grammar: a preset name, or 'custom:<tuple>;<tuple>;...'."""
    if text in PRESET_NAMES:
        return GameSpec.preset(text, shape)
    if text.startswith("custom:"):
        body = text[len("custom:"):]
        if not body:
            raise ValueError("custom game needs at least one exponent tuple")
        terms = []
        for part in body.split(";"):
            try:
                t = tuple(int(p) for p in part.split(","))
            except ValueError:
                raise ValueError(f"bad exponent tuple {part!r} in {text!r}") from None
            terms.append(t)
        return GameSpec(shape, frozenset(terms))
    raise ValueError(f"bad game {text!r}; expected a preset or 'custom:...'")


@lru_cache(maxsize=512)
def adjacency_matrix(g: GameSpec) -> BitMatrix:
    """Sum over terms of Kronecker products of path-matrix powers
    J_n^e = (X^e mod Q_n)(J_n), one Kronecker product of per-axis sums
    when the terms are a product E_1 x ... x E_d
    (:func:`.chase.kron_factors`); ValueError above 32,768 cells
    (:data:`gf2.DENSE_MAX_BYTES`).

    The matrix holds the game's dims and terms in ``_game`` and builds
    its rows and words from them on each read, keeping neither, so the
    count bound holds: a cached matrix gains only its kernel.  An
    elimination may chase it or solve it axis by axis (:mod:`.chase`),
    and its mat-vec and diagonal are read from the game, so a board
    that is not eliminated whole never builds its rows."""
    total = g.shape.total
    gf2._check_dense(total, total)
    return BitMatrix._of_game(g.shape.dims, tuple(sorted(g.terms)))


def is_sigma_plus(g: GameSpec) -> bool:
    """Whether every push toggles its own cell (all-ones diagonal)."""
    return adjacency_matrix(g).diagonal() == BitVector.ones(g.shape.total)


def quotient_shape(shape: GridShape) -> QuotientShape:
    return QuotientShape.chebyshev(shape.dims)


def u_element(g: GameSpec) -> TensorElement:
    """The algebra element whose multiplication operator is the game:
    the sum of the monomials x^e over the terms, read from the game's
    one description (:func:`.chase.kron_factors`) as the XOR, over its
    products, of the Kronecker product of their per-axis factors, each
    reduced mod its modulus as the game matrix reduces it, so a huge e
    costs only its bit length."""
    qs = quotient_shape(g.shape)
    coeffs = 0
    for factors in chase.kron_factors(g.shape.dims, tuple(sorted(g.terms))):
        coeffs ^= gf2._kron_vec(list(zip(g.shape.dims, factors)))
    return TensorElement(qs, BitVector.from_int(qs.total, coeffs))
