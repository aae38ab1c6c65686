"""Minimum-cost propositional abduction with implicit hitting sets."""

import importlib

from .formula import (Cnf, Explanation, FormatError, Pap, TautologyError,
                      parse_apf, write_apf)
from .hyper import HyperOptions, SolveStats, solve_hyper
from .sat import SatResult, Solver

__version__ = "0.1.0"

# Importing the package loads only what a solve runs.  These names load
# their submodule on first access (PEP 562); a submodule maps to itself.
_LAZY = {name: module for module, names in (
    ("baseline", ("BaselineVariant", "solve_abhs")),
    ("brute", ("CheckOutcome", "bf_check_explanation", "bf_solve")),
    ("generators", ("RandomGenParams", "gen_family1", "gen_family2",
                    "gen_random")),
    ("maxsat", ("solve_wcnf",)),
    ("qbf", ("QbfFormula", "emit_decision_qbf", "emit_explanation_qbf",
             "emit_qmaxsat_qbf", "encode_pb", "write_qcir", "write_qdimacs")),
) for name in names + (module,)}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    module = importlib.import_module("." + _LAZY[name], __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value
    return value


__all__ = [
    "BaselineVariant", "CheckOutcome", "Cnf", "Explanation", "FormatError",
    "HyperOptions", "Pap", "QbfFormula",
    "RandomGenParams", "SatResult", "SolveStats", "Solver", "TautologyError",
    "bf_check_explanation", "bf_solve", "emit_decision_qbf",
    "emit_explanation_qbf", "emit_qmaxsat_qbf", "encode_pb", "gen_family1",
    "gen_family2", "gen_random", "parse_apf", "solve_abhs", "solve_hyper",
    "solve_wcnf", "write_apf", "write_qcir", "write_qdimacs",
]
