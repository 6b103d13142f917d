"""Qubit Hamiltonian of the lattice Schwinger model and its exact dynamics.

The gauge field is eliminated through Gauss's law, leaving N spin sites with
nearest-neighbor hopping, a staggered mass term, and all-to-all ZZ
interactions from the electric energy.  The Hamiltonian is grouped into six
coefficient classes (XX, YY, single-Z mass, the two staggered cumulative-Z
ladders, and the squared cumulative-Z term) plus a scalar shift; that
grouping is what the block-encoding assembles term by term.

The hopping XX + YY conserves the number of ones and every other term is
diagonal, so the Neel vacuum never leaves the half-filled sector of
C(N, N/2) basis states.  The observables work there alone: one cached real
eigendecomposition of that block gives the evolved vacuum exp(-iHt)|vac>,
from which both the vacuum persistence amplitude G(t) = <vac|exp(-iHt)|vac>
and the particle production density are read, up to N = SECTOR_LIMIT.
Every matrix of H, the full 2^N one of ``to_dense`` (up to DENSE_LIMIT) and
the sector block, comes from one builder, and both refuse terms that do not
conserve the charge: an XX string without a YY twin on the same two sites
with the same coefficient, or a string off the diagonal.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

DENSE_LIMIT = 12
SECTOR_LIMIT = 14


class OutOfRangeError(ValueError):
    """An input outside its rule's domain: a usage error, not a fault."""


def ordered_sum(values) -> float:
    """Left-to-right float total from 0.0, the same on every Python: from
    CPython 3.12 on, the builtin ``sum`` compensates float rounding."""
    return reduce(operator.add, values, 0.0)


def _check_limit(n: int, limit: int, kind: str) -> None:
    if n > limit:
        raise OutOfRangeError(f"{n} sites exceeds {kind} limit {limit}")


@dataclass(frozen=True)
class ModelParams:
    """Lattice parameters. Derived couplings: w = 1/(2a), J = g^2 a / 2."""
    n_sites: int
    spacing: float
    mass: float
    coupling: float
    theta: float

    def __post_init__(self):
        if self.n_sites < 2 or self.n_sites % 2 != 0:
            raise OutOfRangeError("n_sites must be an even integer >= 2")
        if not self.spacing > 0:
            raise OutOfRangeError("lattice spacing must be positive")
        if self.mass < 0:
            raise OutOfRangeError("mass must be nonnegative")

    @property
    def w(self) -> float:
        return 1.0 / (2.0 * self.spacing)

    @property
    def j(self) -> float:
        return self.coupling ** 2 * self.spacing / 2.0

    @property
    def th(self) -> float:  # the background field in units of 2 pi
        return self.theta / (2 * math.pi)

    def rung(self, outer: int) -> float:  # ladder coefficient over J
        return 0.5 + self.th if outer % 2 else self.th


#: Benchmark parameter point used for all headline estimates.
BENCHMARK = dict(spacing=0.2, mass=0.1, coupling=1.0, theta=math.pi)


def benchmark_params(n_sites: int) -> ModelParams:
    return ModelParams(n_sites=n_sites, **BENCHMARK)


@dataclass(frozen=True)
class PauliString:
    coefficient: float
    letters: str  # one of I,X,Y,Z per site

    def __post_init__(self):
        if not math.isfinite(self.coefficient):
            raise ValueError("coefficient must be finite")
        if set(self.letters) - set("IXYZ"):
            raise ValueError(f"bad Pauli letters {self.letters!r}")


@dataclass(frozen=True)
class HamiltonianTerms:
    """Six term groups plus the scalar shift.

    The sum of the six groups is the modified Hamiltonian the encoding
    targets; adding ``constant_shift`` times identity recovers the full
    Hamiltonian exactly.
    """
    n_sites: int
    xx: tuple[PauliString, ...]
    yy: tuple[PauliString, ...]
    z: tuple[PauliString, ...]
    z_even: tuple[PauliString, ...]
    z_odd: tuple[PauliString, ...]
    z_squared: tuple[PauliString, ...]
    constant_shift: float

    @property
    def diagonal(self) -> tuple[PauliString, ...]:
        """Every group but the hopping: the Z strings."""
        return self.z + self.z_even + self.z_odd + self.z_squared


@dataclass(frozen=True)
class NormalizationConstants:
    alpha_s: float  # the left-to-right sum of the weights
    weights: dict[str, float]  # the six branches' LCU weights, P1 loads them
    alpha_s1: float  # sum of even l in 1..N-1
    alpha_s2: float  # sum of odd l in 1..N-1
    alpha_s3: float  # sum of l^2 in 1..N-1


@dataclass(frozen=True)
class DenseOperator:
    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        d = 1 << self.n_qubits
        if self.matrix.shape != (d, d):
            raise ValueError("matrix dimension does not match qubit count")


def _string(n: int, sites_letters: dict[int, str]) -> str:
    return "".join(sites_letters.get(i, "I") for i in range(n))


def build_hamiltonian(params: ModelParams) -> HamiltonianTerms:
    """Six term groups plus the scalar dropped when forming the modified
    Hamiltonian that the block-encoding targets."""
    n = params.n_sites
    w, j, m = params.w, params.j, params.mass

    xx = tuple(PauliString(w / 2, _string(n, {i: "X", i + 1: "X"}))
               for i in range(n - 1))
    yy = tuple(PauliString(w / 2, _string(n, {i: "Y", i + 1: "Y"}))
               for i in range(n - 1))
    z = tuple(PauliString(m / 2 * (-1) ** i, _string(n, {i: "Z"}))
              for i in range(n))

    z_even, z_odd, z_squared = [], [], []
    shift = 0.0
    if j != 0:
        shift = (j / 8 * normalization(params).alpha_s3
                 + j * ordered_sum(params.rung(k) ** 2 for k in range(1, n)))
        for outer in range(1, n):
            coeff = j * params.rung(outer)
            group = z_even if outer % 2 == 0 else z_odd
            if coeff != 0:
                for i in range(outer):
                    group.append(PauliString(coeff, _string(n, {i: "Z"})))
            # the encoded squared term is the Chebyshev-shifted square
            # (j/8) outer^2 (2 M^2 - I) with M = (1/outer) sum_{i<outer} Z_i,
            # i.e. (j/4)(sum Z_i)^2 - (j/8) outer^2; expanding the square
            # leaves identity weight (j/4) outer - (j/8) outer^2 plus pairs
            ident = j / 4 * outer - j / 8 * outer ** 2
            if ident != 0:
                z_squared.append(PauliString(ident, _string(n, {})))
            for i in range(outer):
                for k in range(i + 1, outer):
                    z_squared.append(
                        PauliString(j / 2, _string(n, {i: "Z", k: "Z"})))

    return HamiltonianTerms(
        n_sites=n, xx=xx, yy=yy, z=z,
        z_even=tuple(z_even), z_odd=tuple(z_odd),
        z_squared=tuple(z_squared), constant_shift=shift)


def sum_of_squares(n: int) -> int:
    """1^2 + 2^2 + ... + (n-1)^2."""
    return (n - 1) * n * (2 * n - 1) // 6


def normalization(params: ModelParams) -> NormalizationConstants:
    n = params.n_sites  # even, so 2, 4 .. N-2 and 1, 3 .. N-1
    m = (n - 2) // 2
    s1 = float(m * (m + 1))
    s2 = float((n // 2) ** 2)
    s3 = float(sum_of_squares(n))
    j, th = params.j, params.th
    wts = {"xx": params.w * (n - 1) / 2, "yy": params.w * (n - 1) / 2,
           "z": params.mass * n / 2, "zeven": j * th * s1,
           # not j rung(1): that rounds apart for ~29% of (J, theta)
           "zodd": (j * th + j / 2) * s2, "zsq": j / 8 * s3}
    return NormalizationConstants(ordered_sum(wts.values()), wts, s1, s2, s3)


def to_dense(terms: HamiltonianTerms,
             include_shift: bool = False) -> DenseOperator:
    """The full 2^N matrix: the Z strings' sum (plus the shift, if asked)
    on the diagonal, the hopping off it."""
    n = terms.n_sites
    _check_limit(n, DENSE_LIMIT, "dense")
    return DenseOperator(n, _hamiltonian(terms, np.arange(1 << n), z_signs(n),
                                         include_shift, complex))


def exact_evolution(params: ModelParams, t: float) -> DenseOperator:
    """The full unitary exp(-i H t), exact up to roundoff: a reference for
    tests, from its own uncached full-space eigendecomposition."""
    _check_limit(params.n_sites, DENSE_LIMIT, "dense")
    if t == 0:
        return DenseOperator(params.n_sites,
                             np.eye(1 << params.n_sites, dtype=complex))
    h = to_dense(build_hamiltonian(params), include_shift=True).matrix
    vals, vecs = np.linalg.eigh(h)
    u = (vecs * np.exp(-1j * vals * t)) @ vecs.conj().T
    return DenseOperator(params.n_sites, u)


def vacuum_index(n_sites: int) -> int:
    """Basis index of the Neel state |1010...> (site 0 occupied)."""
    out = 0
    for site in range(0, n_sites, 2):
        out |= 1 << (n_sites - 1 - site)
    return out


def z_signs(n_sites: int) -> np.ndarray:
    """(N, 2^N) table of Z eigenvalues: row i is +1 where site i reads 0."""
    shifts = np.arange(n_sites - 1, -1, -1)[:, None]
    return 1.0 - 2 * ((np.arange(1 << n_sites) >> shifts) & 1)


def z_diagonal(strings, zs: np.ndarray) -> np.ndarray:
    """Diagonal of a sum of I/Z strings on the basis states whose Z signs
    are the columns of ``zs``, added string by string in the order given.
    Each term is +-coefficient exactly, so a sum over ``terms.diagonal`` is
    the one ``to_dense`` puts on its diagonal, bit for bit.  Raises
    ``ValueError`` on a string with an X or Y, which has no diagonal."""
    out = np.zeros(zs.shape[1])
    term = np.empty_like(out)
    for ps in strings:
        term.fill(ps.coefficient)
        for site, letter in enumerate(ps.letters):
            if letter == "Z":
                term *= zs[site]
            elif letter != "I":
                raise ValueError(f"{ps.letters} is not an I/Z string")
        out += term
    return out


def _check_charge(terms: HamiltonianTerms) -> None:
    """Raise unless the terms conserve the number of ones: every XX string
    has a YY partner on the same two sites with the same coefficient, and
    every other string is diagonal."""
    xx = sorted((ps.letters.replace("X", "Y"), ps.coefficient)
                for ps in terms.xx)
    yy = sorted((ps.letters, ps.coefficient) for ps in terms.yy)
    if (xx != yy or any(s.replace("I", "") != "YY" for s, _ in yy)
            or any(set(ps.letters) - set("IZ") for ps in terms.diagonal)):
        raise ValueError("the terms do not conserve the charge: the hopping "
                         "is not XX + YY on site pairs, or a term is not "
                         "diagonal")


@lru_cache(maxsize=1)
def _sector_basis(n_sites: int):
    """The half-filled sector: its sorted basis indices (N/2 of the N bits
    set), the vacuum's position among them and their Z signs.  Read-only,
    as every caller shares them."""
    z = z_signs(n_sites)
    basis = np.flatnonzero(z.sum(axis=0) == 0)
    zs = z[:, basis]
    basis.flags.writeable = zs.flags.writeable = False
    return basis, int(np.searchsorted(basis, vacuum_index(n_sites))), zs


def _hamiltonian(terms: HamiltonianTerms, basis: np.ndarray, zs: np.ndarray,
                 include_shift: bool, dtype) -> np.ndarray:
    """H on a sorted basis that the hopping maps to itself, with Z signs
    ``zs``.  On charge-conserving terms, XX and YY on sites (i, k) each add
    their coefficient where the two sites read 01 or 10."""
    _check_charge(terms)
    n = terms.n_sites
    h = np.zeros((basis.size, basis.size), dtype=dtype)
    diag = z_diagonal(terms.diagonal, zs)
    np.fill_diagonal(h, diag + terms.constant_shift if include_shift
                     else diag)
    for ps in terms.xx + terms.yy:
        i, k = (s for s, c in enumerate(ps.letters) if c != "I")
        rows = np.flatnonzero(zs[i] != zs[k])
        flip = (1 << (n - 1 - i)) | (1 << (n - 1 - k))
        h[rows, np.searchsorted(basis, basis[rows] ^ flip)] += ps.coefficient
    return h


def sector_hamiltonian(terms: HamiltonianTerms) -> tuple[np.ndarray,
                                                         np.ndarray]:
    """The half-filled block of H (shift included): its sorted basis indices,
    those with N/2 of the N bits set, and the real symmetric matrix on them."""
    n = terms.n_sites
    _check_limit(n, SECTOR_LIMIT, "sector")  # before any 2^N allocation
    basis, _, zs = _sector_basis(n)
    return basis, _hamiltonian(terms, basis, zs, True, float)


@lru_cache(maxsize=1)  # an entry pins C(N, N/2)^2 floats, 94 MB at N=14
def _sector_eig(params: ModelParams):
    """The sector block's real eigenpairs."""
    return np.linalg.eigh(sector_hamiltonian(build_hamiltonian(params))[1])


def _evolved_vacuum(params: ModelParams, t: float):
    """exp(-i H t)|vac> on the sector basis, with the vacuum's position and
    the Z signs there; exactly |vac> at t = 0, with no eigendecomposition.
    The eigenvectors are real, so the evolution is two real mat-vecs."""
    # refuse before building the terms
    _check_limit(params.n_sites, SECTOR_LIMIT, "sector")
    basis, vac, zs = _sector_basis(params.n_sites)
    if t == 0:
        return np.eye(1, basis.size, vac, dtype=complex)[0], vac, zs
    vals, vecs = _sector_eig(params)
    c = np.exp(-1j * vals * t) * vecs[vac]
    return vecs @ c.real + 1j * (vecs @ c.imag), vac, zs


def vacuum_observables(params: ModelParams, t: float) -> tuple[complex,
                                                                float]:
    """G(t) = <vac|exp(-iHt)|vac> and the pair-production density nu(t)
    relative to the Neel vacuum, both read from one evolved vacuum; nu comes
    from its Z expectations."""
    n = params.n_sites
    psi, vac, zs = _evolved_vacuum(params, t)
    zexp = np.sum(np.abs(psi) ** 2 * zs, axis=1).tolist()
    nu = ordered_sum((-1) ** s * zexp[s] + 1 for s in range(n)) / (2 * n)
    return complex(psi[vac]), nu


def vacuum_persistence(params: ModelParams, t: float) -> complex:
    psi, vac, _ = _evolved_vacuum(params, t)
    return complex(psi[vac])


def particle_density(params: ModelParams, t: float) -> float:
    return vacuum_observables(params, t)[1]
