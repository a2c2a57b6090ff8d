"""Answer checks that do not use the code under test.

Push effects are recomputed from the neighbourhood definition of each
preset with zero-filled numpy shifts, never from ``adjacency_matrix``
or ``gf2``.  A witness x must satisfy M x = t; a certificate k must
satisfy M k = 0 and k . t = 1.  Each check returns an error string, or
None when the answer is right.
"""
from __future__ import annotations

import itertools

import numpy as np


def neighbour_offsets(preset: str, d: int) -> list:
    """Offsets of the cells a push toggles, the pushed cell included for
    sigma+.  box: edge-sharing cells; boxtimes: every cell at Chebyshev
    distance one."""
    sign, _, hood = preset.partition(":")
    zero = (0,) * d
    if hood == "box":
        offsets = [tuple(s if i == k else 0 for i in range(d))
                   for k in range(d) for s in (-1, 1)]
    elif hood == "boxtimes":
        offsets = [o for o in itertools.product((-1, 0, 1), repeat=d) if o != zero]
    else:
        raise ValueError(f"unknown neighbourhood in {preset!r}")
    if sign == "sigma+":
        offsets.append(zero)
    elif sign != "sigma-":
        raise ValueError(f"unknown sign in {preset!r}")
    return offsets


def _shift(x: np.ndarray, offset: tuple) -> np.ndarray:
    """out[..., i + offset] = x[..., i] over the trailing len(offset)
    axes, zero where i + offset leaves the grid."""
    out = np.zeros_like(x)
    shape = x.shape[x.ndim - len(offset):]
    dst = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(offset, shape))
    src = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(offset, shape))
    out[(Ellipsis,) + dst] = x[(Ellipsis,) + src]
    return out


def push_effect(x: np.ndarray, preset: str, d: int = 0) -> np.ndarray:
    """The configuration that pushing the cells set in x produces.  With
    d > 0 only the last d axes are grid axes, and the leading ones index
    independent push sets."""
    out = np.zeros_like(x)
    for offset in neighbour_offsets(preset, d or x.ndim):
        out ^= _shift(x, offset)
    return out


def central_cells(dims: tuple) -> np.ndarray:
    """Indicator of the middle cell (odd axis) or two middle cells (even
    axis) on every axis."""
    out = np.ones((), dtype=np.uint8)
    for n in dims:
        axis = np.zeros(n, dtype=np.uint8)
        axis[(n - 1) // 2] = 1
        axis[n // 2] = 1
        out = np.multiply.outer(out, axis)
    return out


def parse_grid(lines: list, dims: tuple) -> np.ndarray:
    """A grid printed as whitespace-separated 0/1 entries in flat order."""
    tokens = " ".join(lines).split()
    total = int(np.prod(dims))
    if len(tokens) != total or any(t not in ("0", "1") for t in tokens):
        raise ValueError(f"printed grid does not hold {total} 0/1 entries")
    return np.array(tokens, dtype=np.uint8).reshape(dims)


def check_witness(x: np.ndarray, target: np.ndarray, preset: str):
    if not np.array_equal(push_effect(x, preset), target):
        return "witness does not reach the target"
    return None


def check_certificate(k: np.ndarray, target: np.ndarray, preset: str):
    if push_effect(k, preset).any():
        return "certificate is not in the kernel"
    if not int(np.count_nonzero(k & target)) & 1:
        return "certificate is orthogonal to the target"
    return None


def check_solve_output(rc: int, out: str, dims: tuple, preset: str,
                       target: np.ndarray):
    """Check `sigma-forge solve` output; returns (decision, error)."""
    lines = out.splitlines()
    try:
        if rc == 0:
            return True, check_witness(parse_grid(lines, dims), target, preset)
        if rc == 1 and lines[:1] == ["UNACHIEVABLE"] and lines[1].startswith("certificate"):
            return False, check_certificate(parse_grid(lines[2:], dims), target, preset)
    except ValueError as exc:
        return None, str(exc)
    return None, f"unexpected solve output (exit {rc})"


def is_symmetric(w: np.ndarray) -> bool:
    return all(np.array_equal(w, np.flip(w, axis)) for axis in range(w.ndim))


def check_symmetric_output(rc: int, out: str, dims: tuple, preset: str):
    """Check `sigma-forge check-symmetric` output; returns (decision, error)."""
    lines = out.splitlines()
    if rc == 0 and lines[:1] and lines[0].startswith("ACHIEVABLE"):
        return True, None
    if rc != 1 or lines[:2] != ["UNACHIEVABLE", "failing symmetric configuration:"]:
        return None, f"unexpected check-symmetric output (exit {rc})"
    cut = next((i for i, s in enumerate(lines) if s.startswith("certificate")), None)
    if cut is None:
        return None, "check-symmetric printed no certificate"
    try:
        w = parse_grid(lines[2:cut], dims)
        k = parse_grid(lines[cut + 1:], dims)
    except ValueError as exc:
        return None, str(exc)
    if not w.any() or not is_symmetric(w):
        return False, "failing configuration is not a nonzero symmetric one"
    return False, check_certificate(k, w, preset)


def gf2_rank(rows: list) -> int:
    """Rank over GF(2) of rows given as Python ints (xor basis)."""
    basis: dict = {}
    for v in rows:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def bits_to_int(bits: np.ndarray) -> int:
    flat = np.ascontiguousarray(bits.ravel(), dtype=np.uint8)
    return int.from_bytes(np.packbits(flat, bitorder="little").tobytes(), "little")
