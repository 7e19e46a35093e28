"""Discrete periodic fields on the 1- and 2-torus and their weighted norms.

All conventions live here:

* A field is its coefficient array: dim is the number of axes and N the
  length of each, so an array of shape (N,) or (N, N), N a power of two >= 2,
  is the only size a field carries.
* Frequencies are integer vectors with every component in [-N/2, N/2 - 1]
  (FFT index order; the Nyquist line is stored once, at -N/2, and is its own
  conjugate, so hermitian fields carry real values there and at k = 0).
* A real field has exactly conjugate-symmetric coefficients.  Each constructor
  of one projects with ``hermitian_part`` once; ``SpectralField.hermitian`` is
  derived from the coefficients, never stored or re-checked.
* Analysis transform: ``coeffs = fftn(samples) / N_total``, so the constant
  field 1 has the single coefficient 1 at k = 0 and Parseval reads
  ``sum |coeffs|^2 = (1/N_total) sum |samples|^2`` (unit constant).
* ``chi(k) = sqrt(1 + |k|^2) >= 1`` is the weight argument at frequency k.
* Weighted norm: ``halpha_norm(w, alpha)^2 = sum_k alpha(chi(k))^2 |w_k|^2``
  (counting measure over frequencies); with ``alpha = Power(r)`` this is the
  Sobolev norm of order r.
* Dyadic blocks: ``Q_0 = {|k| <= 1}``, ``Q_j = {2^(j-1) < |k| <= 2^j}``
  (strict lower, inclusive upper); the dyadic-sup norm of order s is
  ``sup_j 4^(s j) sum_{Q_j} |w_k|^2``, square-rooted.
* Lattice tables are built once per process and shared read-only: the
  ``DyadicBlocks`` of each (dim, N), the weight grid alpha(chi)^2 of each
  (alpha, dim, N) that ``halpha_norm`` reads, and the chi^-1.5 factor of each
  (dim, N) that ``random_field`` applies.  The last lives in a two-entry LRU
  memo, enough for a draw at one N.  The others live in sixteen-entry ones:
  a regularity task takes the norm of each seed at every N of its sweep, and
  the interpolation check reads every case's alpha and interpolation tree on
  each field it draws, so a smaller memo would evict each table before its
  next use.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .weights import ConstraintError, Power, PowerCompose, Product, WeightExpr, _show, embed_nikolskii


N_MAX = 2**26  # a 25-row stack of complex (N, N) grids, 2**60.6 bytes, stays below numpy's 2**63


def _check_size(n: int):
    if n < 2 or (n & (n - 1)) != 0:
        raise ConstraintError(f"N must be a power of two >= 2, got {n}")
    if n > N_MAX:
        raise ConstraintError(f"N = 2**{int(n).bit_length() - 1} exceeds N_MAX = 2**26")


def _check_grid(shape) -> None:
    """Refuses every array shape but (N,) and (N, N) with N a power of two >= 2."""
    if len(shape) not in (1, 2) or len(set(shape)) != 1:
        raise ConstraintError(f"a field grid must have shape (N,) or (N, N), got {shape}")
    _check_size(shape[0])


def _ascending(n_list) -> list:
    """``n_list`` as ints; refused unless strictly ascending, as sweeps read its ends as min/max N,
    and unless every N is a grid size, so that a bad last N fails before the first is computed."""
    n_list = [int(n) for n in n_list]
    for n in n_list:
        _check_size(n)
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ConstraintError("n_list must be strictly ascending")
    return n_list


def freq_1d(n: int) -> np.ndarray:
    """Integer frequencies in FFT order: 0..N/2-1, -N/2..-1."""
    return np.concatenate([np.arange(0, n // 2), np.arange(-n // 2, 0)])


def ksq_grid(dim: int, n: int) -> np.ndarray:
    """|k|^2 as int64, shaped like the coefficient array."""
    k = freq_1d(n).astype(np.int64)
    if dim == 1:
        return k * k
    if dim == 2:
        kx, ky = np.meshgrid(k, k, indexing="ij")
        return kx * kx + ky * ky
    raise ConstraintError("dim must be 1 or 2")


def chi_grid(dim: int, n: int) -> np.ndarray:
    return np.sqrt(1.0 + ksq_grid(dim, n))


def _partner(coeffs: np.ndarray, dim: int | None = None, out=None) -> np.ndarray:
    """The coefficient at -k for every k of the last ``dim`` axes (all of them by default) of
    an (..., N) or (..., N, N) array, in its layout; written to ``out``, else to a new array.
    Index 0 of an axis is its own partner, and index i > 0 pairs with N - i."""
    p = np.empty_like(coeffs) if out is None else out
    if (dim or coeffs.ndim) == 1:
        p[..., 0] = coeffs[..., 0]
        p[..., 1:] = coeffs[..., :0:-1]
    else:
        p[..., 0, 0] = coeffs[..., 0, 0]
        p[..., 0, 1:] = coeffs[..., 0, :0:-1]
        p[..., 1:, 0] = coeffs[..., :0:-1, 0]
        p[..., 1:, 1:] = coeffs[..., :0:-1, :0:-1]
    return p


def hermitian_part(coeffs: np.ndarray, dim: int | None = None, out=None) -> np.ndarray:
    """Project (N,) or (N, N) coefficients onto exactly conjugate-symmetric ones; with ``dim``,
    each (N,) or (N, N) field of a stack shaped (..., N) or (..., N, N).  The result goes to
    ``out`` (an array other than ``coeffs``) if given, else to a new array."""
    p = _partner(coeffs, dim, out)
    np.conj(p, out=p)
    p += coeffs
    p *= 0.5
    return p


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Finite complex Fourier coefficients of a periodic field; immutable carrier.
    ``dim`` and ``n`` are read off the array's shape, and ``hermitian`` is derived
    from the coefficients; none of them is stored."""

    coeffs: np.ndarray

    def __post_init__(self):
        _check_grid(self.coeffs.shape)
        if self.coeffs.dtype != np.complex128:
            raise ConstraintError("coeffs must be complex128")
        if not np.isfinite(self.coeffs).all():
            raise ConstraintError("coeffs must be finite (no NaN or inf)")
        self.coeffs.setflags(write=False)

    dim = property(lambda self: self.coeffs.ndim)
    n = property(lambda self: self.coeffs.shape[0])

    @functools.cached_property
    def hermitian(self) -> bool:
        """True when the coefficients are exactly conjugate-symmetric (a real field)."""
        return bool(np.array_equal(self.coeffs, np.conj(_partner(self.coeffs))))

    def to_samples(self) -> np.ndarray:
        """Grid samples; real array when the field is hermitian."""
        vals = np.fft.ifftn(self.coeffs) * self.coeffs.size
        return vals.real if self.hermitian else vals


def field_from_samples(samples) -> SpectralField:
    """Analysis transform of grid samples; real input yields an exactly
    hermitian field (the symmetrization only removes FFT rounding dust)."""
    arr = np.asarray(samples)
    _check_grid(arr.shape)  # before the FFT, which fails on 0-d or empty input unnamed
    coeffs = np.fft.fftn(arr) / arr.size
    if not np.iscomplexobj(arr):
        coeffs = hermitian_part(coeffs)
    return SpectralField(coeffs)


def field_from_modes(dim: int, n: int, modes: dict) -> SpectralField:
    """Field with exactly the given {frequency: coefficient} entries, zeros elsewhere.

    A frequency is a tuple of ``dim`` integers; in 1-d a bare integer also
    serves.  Nothing is projected: a real field names both k and -k, with
    conjugate coefficients (``{5: 1.0, -5: 1.0}``).
    """
    _check_size(n)
    coeffs = np.zeros((n,) * dim, dtype=np.complex128)
    for k, val in modes.items():
        idx = tuple(np.atleast_1d(k))
        if len(idx) != dim or any(int(c) != c for c in idx):
            raise ConstraintError(f"mode frequency {k!r} must be {dim} integer(s) for a {dim}-d field")
        if any(not -n // 2 <= c < n // 2 for c in idx):
            raise ConstraintError(f"mode frequency {k!r} lies outside the band [{-n // 2}, {n // 2 - 1}]")
        coeffs[tuple(int(c) % n for c in idx)] = val
    return SpectralField(coeffs)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=2)
def _chi_decay(dim: int, n: int) -> np.ndarray:
    return _read_only(chi_grid(dim, n) ** (-1.5))


_sampler = threading.local()  # per thread: the generator of ``_stream``, the arrays of ``_buffer``


def _stream(seed) -> np.random.Generator:
    """The Philox stream keyed by ``seed``, the one source of every seeded draw.

    It re-keys the calling thread's one generator rather than building one (``Philox(key=...)``
    also draws OS entropy for a seed sequence it then discards): counter, buffer and
    the cached 32-bit half are reset, so the bits are those of a fresh
    ``Generator(Philox(key=seed))``.  The returned generator is the thread's, so a caller
    must finish its draws before the thread's next ``_stream`` call.
    """
    key = int(seed)
    if not 0 <= key < 2**128:
        raise ConstraintError(f"seed {key} lies outside [0, 2**128)")
    gen = getattr(_sampler, "generator", None)
    if gen is None:  # built on first use, so no import loads numpy.random
        gen = _sampler.generator = np.random.Generator(np.random.Philox(key=0))
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": [key & (2**64 - 1), key >> 64]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return gen


def _buffer(name: str, shape, dtype) -> np.ndarray:
    """A ``shape`` view of the calling thread's reused ``name`` buffer, which grows to the largest
    size asked for and never shrinks, so a draw neither allocates it nor faults its pages in
    again.  The thread's next call for ``name`` overwrites it, so no result may alias it."""
    size = math.prod(shape)
    buffers = vars(_sampler).setdefault("buffers", {})
    buf = buffers.get(name)
    if buf is None or buf.size < size:
        buf = buffers[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def random_field(dim: int, n: int, seed: int) -> SpectralField:
    """Seeded real random field with |coeffs| ~ chi^-1.5; exactly hermitian."""
    rng = _stream(seed)
    shape = (n,) * dim
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SpectralField(hermitian_part(z * _chi_decay(dim, n)))


# ---------------------------------------------------------------------------
# dyadic blocks
# ---------------------------------------------------------------------------


class DyadicBlocks:
    """Partition of the frequency lattice into dyadic annuli.

    Block 0 holds |k| <= 1; block j holds 2^(j-1) < |k| <= 2^j.  Together the
    blocks cover every stored frequency exactly once.  Its arrays are read-only;
    the norms share one instance per (dim, n) through ``_dyadic_blocks``.
    """

    def __init__(self, dim: int, n: int):
        _check_size(n)
        ksq = ksq_grid(dim, n)
        jmap = np.zeros(ksq.shape, dtype=np.int64)
        big = ksq > 1
        # smallest j with |k|^2 <= 4^j; exact at powers of two
        jmap[big] = np.ceil(np.log2(ksq[big].astype(float)) / 2.0).astype(np.int64)
        self.jmap = _read_only(jmap)
        self.counts = _read_only(np.bincount(jmap.ravel()))
        self.n_blocks = len(self.counts)

    def energies(self, field: SpectralField) -> np.ndarray:
        w2 = np.abs(field.coeffs.ravel()) ** 2
        return np.bincount(self.jmap.ravel(), weights=w2, minlength=self.n_blocks)


@functools.lru_cache(maxsize=16)
def _dyadic_blocks(dim: int, n: int) -> DyadicBlocks:
    return DyadicBlocks(dim, n)


def _refuse_overflow(s: float, dim: int, n: int, signs=(1,)) -> None:
    """Refuses an s for which a dyadic scale 4^(sign s j), sign in ``signs``, overflows a double
    at the top block j of (dim, N), where it is largest, naming that block."""
    j = _dyadic_blocks(dim, n).n_blocks - 1
    with np.errstate(over="ignore"):
        finite = np.isfinite(4.0 ** (np.multiply(signs, s) * j)).all()
    if not finite:  # only the sign of s can overflow
        raise ConstraintError(f"s = {s} is too {'large' if s > 0 else 'small'}: "
                              f"4^({'' if s > 0 else '-'}s j) overflows a double at the top "
                              f"dyadic block j = {j} of N = {n}")


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def _refuse_weight(alpha: WeightExpr, name: str, values: np.ndarray, n: int) -> None:
    """Refuses ``values`` of the weight quantity ``name`` unless all are finite, naming alpha
    (its JSON cut to 100 characters, so the message stays one short line)."""
    if not np.isfinite(values).all():
        raise ConstraintError(f"weight {_show(alpha, 100)}: {name} overflows a double "
                              f"on the lattice of N = {n}")


def _lattice_powers(alpha: WeightExpr, logchi: np.ndarray, powers, n: int) -> list:
    """alpha(chi)^p = exp(p log alpha(chi)) for each p of ``powers``, from the log chi of a lattice
    of N = ``n``; the first power is refused by name when a value is not a finite double, and the
    others read inf or NaN there, with no warning, as does a log-value past the double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        log_a = alpha.log_value(logchi)
        vals = [np.exp(p * log_a) for p in powers]
    _refuse_weight(alpha, f"alpha(chi)^{powers[0]:g}", vals[0], n)
    return vals


@functools.lru_cache(maxsize=16)
def _weight_grid(alpha: WeightExpr, dim: int, n: int) -> np.ndarray:
    """alpha(chi)^2 on the (dim, n) lattice."""
    logchi = 0.5 * np.log1p(ksq_grid(dim, n).astype(float))
    return _read_only(_lattice_powers(alpha, logchi, (2.0,), n)[0])


def halpha_norm(field: SpectralField, alpha: WeightExpr) -> float:
    """Weighted spectral norm (sum_k alpha(chi)^2 |w_k|^2)^(1/2).

    The weight is a cache key: alpha(chi)^2 is memoized per (alpha, dim, n), so
    alpha must be hashable, and trees that compare equal (the node dataclasses
    compare by value, ``Power(1) == Power(1.0)``) share one grid.
    """
    a2 = _weight_grid(alpha, field.dim, field.n)
    with np.errstate(over="ignore", invalid="ignore"):  # past the double range: inf or NaN
        return float(np.sqrt(np.sum(a2 * np.abs(field.coeffs) ** 2)))


def nikolskii_norm(field: SpectralField, s: float) -> float:
    """Dyadic-sup norm of order s: sqrt(sup_j 4^(s j) * block energy j)."""
    blocks = _dyadic_blocks(field.dim, field.n)
    e = blocks.energies(field)
    j = np.arange(blocks.n_blocks, dtype=float)
    return float(np.sqrt(np.max(4.0 ** (s * j) * e)))


def extremal_nikolskii_field(n: int, s: float, dim: int = 1) -> SpectralField:
    """Block-flat field with unit dyadic-sup norm: |w_k| = 2^(-s j) / sqrt(#Q_j).

    Phases are +1, so the field is real-symmetric and exactly hermitian, and
    every block contributes energy 4^(-s j).
    """
    if n < 4:
        raise ConstraintError("N >= 4 required")
    blocks = _dyadic_blocks(dim, n)
    j = blocks.jmap.astype(float)
    mags = 2.0 ** (-s * j) / np.sqrt(blocks.counts[blocks.jmap])
    return SpectralField(mags.astype(np.complex128))


@functools.lru_cache(maxsize=16)
def _interp_weight(psi: WeightExpr, r0: float, r1: float) -> WeightExpr:
    return Product(Power(r0), PowerCompose(psi, r1 - r0))


def interp_norm(field: SpectralField, r0: float, r1: float, psi: WeightExpr) -> float:
    """Interpolation-space norm on the diagonal spectral model.

    The generating operator of the Sobolev pair (r0, r1) acts as
    multiplication by chi^(r1-r0), so the norm is
    (sum chi^(2 r0) psi(chi^(r1-r0))^2 |w_k|^2)^(1/2).  With
    psi = interp_param(alpha, r0, r1) this equals halpha_norm(field, alpha).
    The weight t^r0 psi(t^(r1-r0)), built once per (psi, r0, r1), feeds ``halpha_norm``.
    """
    if not r0 < r1:
        raise ConstraintError("requires r0 < r1")
    return halpha_norm(field, _interp_weight(psi, r0, r1))


# ---------------------------------------------------------------------------
# embedding-ratio sweep
# ---------------------------------------------------------------------------


def embedding_ratio_sweep(alpha: WeightExpr, s: float, n_list, dim: int = 1, slack: float = 0.1):
    """Extremal-field norm ratios R(N) = ||v_N||_alpha / ||v_N||_(s,sup).

    In the convergent regime R(N)^2 stays below the truncated embedding
    constant (within the block-edge slack); in the divergent regime R(N)
    increases strictly with N.  An s for which 4^(s j), or the extremal field's block energy
    4^(-s j), overflows a double at the top block of the largest N is refused first, and then
    an alpha whose grid at that N, which holds every smaller N's lattice, overflows.
    Returns (rows, verdicts, embedding): one row per N, a dict with the keys ``n``, ``ratio``,
    ``constant_bound`` (None without a constant) and ``verdict``; the record
    {"embedding": its verdict, "pass": ...}, passing when every row reads "bounded" if the
    embedding converges, else "increasing"; and the ``embed_nikolskii`` result.
    """
    n_list = _ascending(n_list)
    _refuse_overflow(s, dim, n_list[-1], signs=(1, -1))
    _weight_grid(alpha, dim, n_list[-1])
    emb = embed_nikolskii(alpha, s)
    bound = None if emb.constant is None else float(np.sqrt(emb.constant * (1.0 + slack)))
    rows = []
    prev = -np.inf
    for n in n_list:
        v = extremal_nikolskii_field(n, s, dim)
        ratio = halpha_norm(v, alpha) / nikolskii_norm(v, s)
        if emb.converges:
            verdict = "bounded" if bound is not None and ratio <= bound else "exceeds"
        else:
            verdict = "increasing" if ratio > prev else "not-increasing"
        rows.append({"n": n, "ratio": float(ratio), "constant_bound": bound, "verdict": verdict})
        prev = ratio
    expected = "bounded" if emb.converges else "increasing"
    verdicts = {"embedding": emb.verdict, "pass": all(row["verdict"] == expected for row in rows)}
    return rows, verdicts, emb
