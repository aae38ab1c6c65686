"""Minimum-cost propositional abduction with implicit hitting sets."""

from .baseline import BaselineVariant, solve_abhs
from .brute import CheckOutcome, bf_check_explanation, bf_eval_2qbf, bf_solve
from .formula import (Cnf, Explanation, FormatError, Pap, TautologyError,
                      parse_apf, parse_wcnf, write_apf, write_wcnf)
from .generators import RandomGenParams, gen_family1, gen_family2, gen_random
from .hyper import HyperOptions, SolveStats, solve_hyper
from .maxsat import MaxSatResult, solve_wcnf
from .qbf import (QbfFormula, emit_decision_qbf, emit_explanation_qbf,
                  emit_qmaxsat_qbf, encode_pb, write_qcir, write_qdimacs)
from .sat import SatResult, Solver

__version__ = "0.1.0"

__all__ = [
    "BaselineVariant", "CheckOutcome", "Cnf", "Explanation", "FormatError",
    "HyperOptions", "MaxSatResult", "Pap", "QbfFormula",
    "RandomGenParams", "SatResult", "SolveStats", "Solver", "TautologyError",
    "bf_check_explanation", "bf_eval_2qbf", "bf_solve", "emit_decision_qbf",
    "emit_explanation_qbf", "emit_qmaxsat_qbf", "encode_pb", "gen_family1",
    "gen_family2", "gen_random", "parse_apf", "parse_wcnf", "solve_abhs",
    "solve_hyper", "solve_wcnf", "write_apf", "write_qcir", "write_qdimacs",
    "write_wcnf",
]
