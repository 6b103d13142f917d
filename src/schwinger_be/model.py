"""Qubit Hamiltonian of the lattice Schwinger model and its exact dynamics.

The gauge field is eliminated through Gauss's law, leaving N spin sites with
nearest-neighbor hopping, a staggered mass term, and all-to-all ZZ
interactions from the electric energy.  The Hamiltonian is grouped into six
coefficient classes (XX, YY, single-Z mass, the two staggered cumulative-Z
ladders, and the squared cumulative-Z term) plus a scalar shift; that
grouping is what the block-encoding assembles term by term.

Everything here is dense and exact: one eigendecomposition gives the evolved
vacuum exp(-iHt)|vac>, from which both the vacuum persistence amplitude
G(t) = <vac|exp(-iHt)|vac> and the particle production density are read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DENSE_LIMIT = 12


class OutOfRangeError(ValueError):
    """An input outside its rule's domain: a usage error, not a fault."""


def _check_dense(n: int) -> None:
    if n > DENSE_LIMIT:
        raise OutOfRangeError(f"{n} sites exceeds dense limit {DENSE_LIMIT}")


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
    def all_strings(self) -> tuple[PauliString, ...]:
        return self.xx + self.yy + self.z + self.z_even + self.z_odd + self.z_squared


@dataclass(frozen=True)
class NormalizationConstants:
    alpha_s: float
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
    th = params.theta / (2 * math.pi)

    xx = tuple(PauliString(w / 2, _string(n, {i: "X", i + 1: "X"}))
               for i in range(n - 1))
    yy = tuple(PauliString(w / 2, _string(n, {i: "Y", i + 1: "Y"}))
               for i in range(n - 1))
    z = tuple(PauliString(m / 2 * (-1) ** i, _string(n, {i: "Z"}))
              for i in range(n))

    z_even = []
    z_odd = []
    if j != 0:
        for outer in range(1, n):
            coeff = j * th if outer % 2 == 0 else j * (0.5 + th)
            group = z_even if outer % 2 == 0 else z_odd
            if coeff != 0:
                for i in range(outer):
                    group.append(PauliString(coeff, _string(n, {i: "Z"})))

    z_squared = []
    if j != 0:
        for outer in range(1, n):
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

    shift = 0.0
    if j != 0:
        shift += j / 8 * sum(l * l for l in range(1, n))
        shift += j * sum(
            (0.5 * (1 + (-1) ** (outer - 1)) / 2 + th) ** 2
            for outer in range(1, n))

    return HamiltonianTerms(
        n_sites=n, xx=xx, yy=yy, z=z,
        z_even=tuple(z_even), z_odd=tuple(z_odd),
        z_squared=tuple(z_squared), constant_shift=shift)


def normalization(params: ModelParams) -> NormalizationConstants:
    n = params.n_sites
    s1 = float(sum(l for l in range(1, n) if l % 2 == 0))
    s2 = float(sum(l for l in range(1, n) if l % 2 == 1))
    s3 = float(sum(l * l for l in range(1, n)))
    th = params.theta / (2 * math.pi)
    alpha = (params.w * (n - 1) + params.mass / 2 * n
             + params.j * th * s1 + (params.j * th + params.j / 2) * s2
             + params.j / 8 * s3)
    return NormalizationConstants(alpha_s=alpha, alpha_s1=s1,
                                  alpha_s2=s2, alpha_s3=s3)


def _add_string(h: np.ndarray, n: int, ps: PauliString) -> None:
    dim = 1 << n
    idx = np.arange(dim)
    img = idx.copy()
    phase = np.ones(dim, dtype=complex)
    for site, letter in enumerate(ps.letters):
        if letter == "I":
            continue
        bitpos = 1 << (n - 1 - site)
        bit = (idx & bitpos) != 0
        if letter == "X":
            img ^= bitpos
        elif letter == "Y":
            img ^= bitpos
            phase = phase * np.where(bit, -1j, 1j)
        else:  # Z
            phase = phase * np.where(bit, -1.0, 1.0)
    h[img, idx] += ps.coefficient * phase


def to_dense(terms: HamiltonianTerms,
             include_shift: bool = False) -> DenseOperator:
    n = terms.n_sites
    _check_dense(n)
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for ps in terms.all_strings:
        _add_string(h, n, ps)
    if include_shift:
        h += terms.constant_shift * np.eye(1 << n)
    return DenseOperator(n, h)


@lru_cache(maxsize=1)  # an entry pins 2^N x 2^N vectors, 256 MiB at N=12
def _eig(params: ModelParams):
    h = to_dense(build_hamiltonian(params), include_shift=True).matrix
    vals, vecs = np.linalg.eigh(h)
    return vals, vecs


def exact_evolution(params: ModelParams, t: float) -> DenseOperator:
    """The full unitary exp(-i H t), exact up to roundoff: a reference for
    tests, as the observables below evolve the vacuum alone."""
    _check_dense(params.n_sites)
    if t == 0:
        return DenseOperator(params.n_sites,
                             np.eye(1 << params.n_sites, dtype=complex))
    vals, vecs = _eig(params)
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


def _evolved_vacuum(params: ModelParams, t: float) -> np.ndarray:
    """exp(-i H t)|vac> from the cached eigenpairs; exactly |vac> at t = 0."""
    n = params.n_sites
    _check_dense(n)  # refuse before any 2^N allocation
    v = vacuum_index(n)
    if t == 0:
        return np.eye(1, 1 << n, v, dtype=complex)[0]
    vals, vecs = _eig(params)
    return vecs @ (np.exp(-1j * vals * t) * vecs[v].conj())


def vacuum_persistence(params: ModelParams, t: float) -> complex:
    return complex(_evolved_vacuum(params, t)[vacuum_index(params.n_sites)])


def particle_density(params: ModelParams, t: float) -> float:
    """Pair-production density nu(t) relative to the Neel vacuum, from the
    Z expectations of the evolved vacuum."""
    n = params.n_sites
    probs = np.abs(_evolved_vacuum(params, t)) ** 2
    zexp = np.sum(probs * z_signs(n), axis=1)
    return float(sum((-1) ** s * zexp[s] + 1 for s in range(n))) / (2 * n)
