"""Closed-form T-count and qubit-count formulas, and end-to-end estimates.

The formula layer mirrors the construction layer one-to-one: every
subroutine builder has a cost function here, and the full block-encoding,
time-evolution, and vacuum-persistence estimates compose them exactly the
way the circuits compose.  Logs appear ceiled, matching the per-rotation
cost that :func:`schwinger_be.circuit.count_resources` charges.

All T counts are reals (the rotation-synthesis constant C is irrational);
``ResourceReport.t_count`` holds the ceiled integer and ``t_real`` the raw
value.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .circuit import C_ROT, ResourceReport
from .model import (ModelParams, OutOfRangeError, benchmark_params,
                    normalization)

DEFAULT_T_RATE = 1e6  # T gates per second for runtime conversion


@dataclass(frozen=True)
class FactorTwoDecomposition:
    """M = 2**z * r with r odd."""
    input: int
    z: int
    r: int


def factor_two(m: int) -> FactorTwoDecomposition:
    if m < 1:
        raise ValueError("factor_two requires a positive integer")
    z, r = 0, m
    while r % 2 == 0:
        r //= 2
        z += 1
    return FactorTwoDecomposition(m, z, r)


def clog2(x) -> int:
    """Ceiling log2 for integers or reals (exact for powers of two)."""
    if isinstance(x, int):
        return (x - 1).bit_length()
    return math.ceil(math.log2(x))


def rotation_cost(eps: float) -> float:
    return 4 * clog2(1 / eps) + C_ROT


def reflection_cost(s: int) -> float:
    """4s - 8, kept unclamped: that is how the aggregate formulas use it."""
    return 4 * s - 8


# -- subroutine closed forms (match the builders gate for gate) --------------


def uni_cost(m: int, eps: float, controlled: bool = False) -> float:
    ft = factor_two(m)
    l = clog2(ft.r)
    t = 8 * clog2(2 / eps) + 12 * l + 2 * C_ROT - 4
    if controlled:
        t += 4 * ft.z + 4 * l + 12
    return t


def ineq_cost(s: int) -> float:
    return 4 * s


def sub_cost(s: int) -> float:
    return 4 * s - 4


def cswap_cost(s: int, controlled: bool = False) -> float:
    return 7 * s + (4 if controlled else 0)


def una_cost(s: int) -> float:
    return 4 * s - 4


def ps1_cost(n: int, eps: float, controlled: bool = False) -> float:
    np_ = -(-n // 2)
    bp = clog2(np_)
    if not controlled:
        return (uni_cost(np_, eps / 2, False)
                + uni_cost(np_ - 1, eps / 2, False)
                + sub_cost(bp) + ineq_cost(bp + 1) + cswap_cost(bp) + 4)
    return (uni_cost(np_, eps / 2, True)
            + uni_cost(np_ - 1, eps / 2, True)
            + 2 * sub_cost(bp) + ineq_cost(bp + 1) + cswap_cost(bp, True))


def ps2_cost(n: int, eps: float, controlled: bool = False) -> float:
    npp = n // 2
    bpp = clog2(npp)
    if not controlled:
        return (2 * uni_cost(npp, eps / 2, False)
                + sub_cost(bpp) + ineq_cost(bpp + 1) + cswap_cost(bpp) + 4)
    return (2 * uni_cost(npp, eps / 2, True)
            + 2 * sub_cost(bpp) + ineq_cost(bpp + 1) + cswap_cost(bpp, True))


def ps3_prime_cost(n: int, eps: float, controlled: bool = False) -> float:
    b = clog2(n)
    if not controlled:
        return 3 * uni_cost(n, eps / 3, False) + ineq_cost(b) + 4
    # controlled variant: one UNI and the flag Toffoli become controlled;
    # the aggregate chain prices the controlled Toffoli at its plain cost
    # because its own controls are zeroed whenever the outer control is off.
    return (uni_cost(n, eps / 3, True)
            + 2 * uni_cost(n, eps / 3, False) + ineq_cost(b) + 4)


def ps3_cost(n: int, eps: float, controlled: bool = False) -> float:
    b = clog2(n)
    if not controlled:
        return (3 * ps3_prime_cost(n, 6 * eps / 20, False)
                + 2 * rotation_cost(eps / 20)
                + reflection_cost(2 * b + 3) + 2 * reflection_cost(b + 3))
    return (ps3_prime_cost(n, 6 * eps / 20, True)
            + 2 * ps3_prime_cost(n, 6 * eps / 20, False)
            + 2 * rotation_cost(eps / 20)
            + reflection_cost(2 * b + 4) + 2 * reflection_cost(b + 4))


def p1_cost(n: int, eps: float) -> float:
    return (ps1_cost(n, 4 * eps / 39, True)
            + ps2_cost(n, 4 * eps / 39, True)
            + ps3_cost(n, 20 * eps / 39, True)
            + uni_cost(n - 1, 2 * eps / 39, True)
            + uni_cost(n, 2 * eps / 39, True)
            + 7 * rotation_cost(eps / 39) + 44)


def p1_ancillas(n: int) -> tuple[int, int]:
    """(reusable, unreusable) ancilla counts of the coefficient preparation."""
    np_, npp = -(-n // 2), n // 2
    lp = clog2(factor_two(np_).r)
    kp = clog2(factor_two(np_ - 1).r)
    lpp = clog2(factor_two(npp).r)
    b = clog2(n)
    reusable = max(2 * lp + 2 * kp + 1, 4 * lpp + 1, 2 * b) + 2
    unreusable = max(2 * clog2(np_) + clog2(np_ - 1), 3 * clog2(npp)) + 4
    return reusable, unreusable


def amplification_rounds(delta: float) -> int:
    """Smallest odd d >= sqrt(2) ln(2/sqrt(delta))."""
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0,1)")
    d = math.ceil(math.sqrt(2) * math.log(2 / math.sqrt(delta)))
    return d + 1 if d % 2 == 0 else max(d, 1)


def p2_cost(n: int, eps: float, delta: float,
            controlled: bool = False) -> float:
    b = clog2(n)
    d = amplification_rounds(delta)
    if controlled:
        it = (d - 1) / 2 * (4 * rotation_cost(eps / (2 * d))
                            + ineq_cost(b) + 8 * b + reflection_cost(b + 1))
        base = (2 * rotation_cost(eps / (2 * d)) + 2 * ineq_cost(b)
                + 8 * b + sub_cost(b) + una_cost(b) + 4)
    else:
        it = (d - 1) / 2 * (2 * rotation_cost(eps / d)
                            + ineq_cost(b) + 8 * b + reflection_cost(b + 1))
        base = (rotation_cost(eps / d) + 2 * ineq_cost(b)
                + 4 * b + sub_cost(b) + una_cost(b))
    return it + base


def p2_ancillas(n: int) -> int:
    return 6 * clog2(n)


SELECT_COSTS = {("xx", 3): lambda n: 4 * n,
                ("yy", 3): lambda n: 4 * n,
                ("z", 2): lambda n: 4 * n,
                ("z2", 3): lambda n: 4 * n + 4,
                ("z2", 4): lambda n: 4 * n + 8}


def select_cost(kind: str, n: int, controls: int) -> float:
    try:
        return SELECT_COSTS[(kind, controls)](n)
    except KeyError:
        raise ValueError(f"unsupported SELECT variant ({kind}, {controls} controls)")


# -- block-encoding / evolution / end-to-end ----------------------------------


def _check_system(n: int) -> None:
    if n < 8 or n % 2 != 0:
        raise OutOfRangeError("block encoding requires even N >= 8")


def block_encoding_ancillas(n: int) -> int:
    np_, npp = -(-n // 2), n // 2
    return (6 * clog2(n)
            + max(2 * clog2(np_) + clog2(np_ - 1), 3 * clog2(npp)) + 6)


def _priceable(eps: float, alpha: float) -> bool:
    """Whether the closed forms price block error eps: e1 = eps/(14 alpha_S),
    P2's amplification residual, lies in (0, 1), and e1/(2d), the encoding's
    smallest rotation error, is a normal float, so clog2(1/error) is finite."""
    e1 = eps / (14 * alpha)
    tiny = e1 / (2 * amplification_rounds(e1)) if 0 < e1 < 1 else 0.0
    return tiny >= sys.float_info.min


def block_encoding_cost(params: ModelParams, eps: float) -> ResourceReport:
    """Full block-encoding cost: four controlled prefix preparations, two
    coefficient preparations, five controlled SELECTs, one reflection."""
    n = params.n_sites
    _check_system(n)
    alpha = normalization(params).alpha_s
    if not _priceable(eps, alpha):
        raise OutOfRangeError(f"eps = {eps:.6g} is outside (0, 14 alpha_S = "
                              f"{14 * alpha:.6g}) or too small to price")
    b = clog2(n)
    e1 = eps / (14 * alpha)
    t = (4 * p2_cost(n, e1, e1, True)
         + 2 * p1_cost(n, e1)
         + select_cost("xx", n, 3) + select_cost("yy", n, 3)
         + select_cost("z", n, 2) + select_cost("z2", n, 3)
         + select_cost("z2", n, 4)
         + reflection_cost(b + 3))
    anc = block_encoding_ancillas(n)
    _, p1_junk = p1_ancillas(n)
    return ResourceReport(
        t_count=math.ceil(t), t_real=t,
        ancilla_reusable=anc - (p1_junk + 2),
        ancilla_unreusable=p1_junk + 2,
        total_qubits=n + 2 * b + 3 + anc)


def evolution_rounds(alpha: float, t: float, eps: float) -> int:
    """Smallest even r >= 2*alpha*|t| + 3 ln(9/eps)."""
    r = math.ceil(2 * alpha * abs(t) + 3 * math.log(9 / eps))
    return r + 1 if r % 2 == 1 else r


def evolution_cost(params: ModelParams, t: float,
                   eps: float) -> ResourceReport:
    """T cost of a unit-normalized block-encoding of exp(-iHt)."""
    n = params.n_sites
    _check_system(n)
    if not 0 < eps < 1:
        raise OutOfRangeError("eps must be in (0,1)")
    b = clog2(n)
    anc = block_encoding_ancillas(n)
    if t == 0:
        return ResourceReport(0, 0.0, 0, 0, n + 2 * b + 5)
    alpha = normalization(params).alpha_s
    be_eps = eps / (3 * abs(t))  # out of range for too long or short a t
    if not _priceable(be_eps, alpha):
        raise OutOfRangeError(f"t = {t:.6g} is out of the closed forms' range")
    r = evolution_rounds(alpha, t, eps)
    chs = block_encoding_cost(params, be_eps).t_real
    lg = clog2(18 * (2 * r + 1) / eps)
    t_total = (r * (3 * chs + 48 * lg + 24 * b + 12 * C_ROT + 24)
               + 3 * chs + 24 * lg + 40 * b + 6 * C_ROT + 120)
    if not math.isfinite(t_total):
        raise OutOfRangeError(f"t = {t:.6g} is out of the closed forms' range")
    _, p1_junk = p1_ancillas(n)
    return ResourceReport(
        t_count=math.ceil(t_total), t_real=t_total,
        ancilla_reusable=anc - (p1_junk + 2),
        ancilla_unreusable=p1_junk + 2,
        total_qubits=n + 2 * b + 5 + anc)


#: Empirical average reflection-query total of the adaptive amplitude
#: estimation at (eps, delta) = (0.005, 0.05); each query to the state
#: reflection costs two time evolutions.
AE_TOTAL_QUERIES = 2000
VPA_EVOLUTION_EPS = 0.005


def vpa_ancillas(n: int) -> int:
    b = clog2(n)
    return max(n + 2 * b + 3, block_encoding_ancillas(n))


def vpa_cost(params: ModelParams, t: float) -> ResourceReport:
    """End-to-end T count for estimating |G(t)| to 0.01 with confidence 0.95.

    2000 reflection queries on average; a state reflection costs two
    evolution calls plus one (N+2b+5)-qubit reflection, a projector
    reflection costs one such reflection.
    """
    n = params.n_sites
    b = clog2(n)
    ct = evolution_cost(params, t, VPA_EVOLUTION_EPS).t_real
    t_total = AE_TOTAL_QUERIES * (ct + 4 * n + 8 * b + 12)
    if not math.isfinite(t_total):
        raise OutOfRangeError(f"t = {t:.6g} is out of the closed forms' range")
    anc = vpa_ancillas(n)
    return ResourceReport(
        t_count=math.ceil(t_total), t_real=t_total,
        ancilla_reusable=anc, ancilla_unreusable=0,
        total_qubits=n + 2 * b + 5 + anc)


def logical_qubits(n: int) -> int:
    """Logical-qubit count of the end-to-end run: system plus encoding
    ancillas plus the amplitude-estimation working ancillas."""
    b = clog2(n)
    return n + 2 * b + 5 + vpa_ancillas(n)


@dataclass(frozen=True)
class EstimateRow:
    n_sites: int
    wt: float
    epsilon: float
    t_count: float
    runtime_days: float
    ancilla: int
    logical_qubits: int


TABLE3_N = (16, 32, 64, 128, 256)
TABLE3_WT = (1.0, 10.0, 100.0)


def table3(n_values=TABLE3_N, wt_values=TABLE3_WT,
           rate: float = DEFAULT_T_RATE) -> list[EstimateRow]:
    """End-to-end estimates over the benchmark grid (eps = 0.01 total)."""
    if not (n_values and wt_values) or not 0 < rate < math.inf:
        raise OutOfRangeError("empty grid, or a rate not finite and positive")
    rows = []
    for n in n_values:
        params = benchmark_params(n)
        for wt in wt_values:
            t = wt / params.w
            rep = vpa_cost(params, t)
            rows.append(EstimateRow(
                n_sites=n, wt=wt, epsilon=0.01,
                t_count=rep.t_real,
                runtime_days=rep.t_real / rate / 86400.0,
                ancilla=vpa_ancillas(n),
                logical_qubits=logical_qubits(n)))
    return rows


@dataclass(frozen=True)
class PhysicalEstimate:
    p_phys: float
    code_distance: int
    logical_qubits: int
    physical_qubits: int


def physical_qubits(t_count: float, n_logical: int,
                    p_phys: float) -> PhysicalEstimate:
    """Surface-code footprint: smallest odd distance d with
    0.1 (100 p)^((d+1)/2) < 1/M, M = 100 T, then 4 * N_tot * 2 d^2."""
    if not 0 < p_phys < 0.01:
        raise OutOfRangeError("p_phys must be in (0, 0.01): the logical "
                              "error rate no longer falls with distance")
    m_gates = 100.0 * t_count
    if not math.isfinite(m_gates):  # 1/M = 0: no distance would do
        raise OutOfRangeError(f"T count {t_count:.6g} is too large to price")
    d = 1
    while 0.1 * (100 * p_phys) ** ((d + 1) / 2) >= 1.0 / m_gates:
        d += 2
        if d > 10_000:
            raise RuntimeError("code distance search did not converge")
    return PhysicalEstimate(
        p_phys=p_phys, code_distance=d, logical_qubits=n_logical,
        physical_qubits=4 * n_logical * 2 * d * d)
