"""Block-encoding circuits and fault-tolerant resource estimates for the
lattice Schwinger model."""

from .model import (ModelParams, PauliString, HamiltonianTerms,
                    NormalizationConstants, DenseOperator, benchmark_params,
                    build_hamiltonian, normalization, to_dense,
                    exact_evolution, vacuum_persistence, particle_density)
from .circuit import (Gate, Circuit, ResourceReport, count_resources, dumps,
                      loads)
from .simulate import (simulate_statevector, block_amplitudes,
                       check_basis_permutation, project_success,
                       register_weights)
from .subroutines import (uni, arithmetic, p_s1, p_s2, p_s3, p1, p2, select,
                          fixed_point_phases, branch_weights)
from .blockenc import assemble, semantic_block, verify
from .estimator import (FactorTwoDecomposition, factor_two, EstimateRow,
                        PhysicalEstimate, block_encoding_cost,
                        evolution_cost, vpa_cost, table3, physical_qubits)
from .ae import (AERunStats, hoeffding_queries, chebae_query_formula,
                 simulate_adaptive_ae, end_to_end_vpa)

__version__ = "0.1.0"
