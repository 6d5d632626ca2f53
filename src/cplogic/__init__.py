"""Causal probabilistic laws with negation in the head.

Parse theories of probabilistic causal laws, build their probability-tree
execution models with exact rational arithmetic, query the induced
distributions, apply and internalize interventions, and compile negative
head literals away.  `cplogic.oracle` sweeps every firing order, so that
order invariance is checked rather than assumed.
"""

from .engine import (Distribution, ExecNode, ExecState, SoundnessError, UMode,
                     applicable, apply_disjunct, build_execution_model,
                     compute_U, distribution, query)
from .ground import (GroundTheory, StratificationReport, check_theory, ground,
                     stratification_report)
from .oracle import BudgetExceededError, OrderSweepReport, sweep_orders
from .syntax import (Atom, CPLaw, EffectLiteral, Formula, HeadDisjunct,
                     ParseError, Theory, TheoryError, Var, parse_formula,
                     parse_literal, parse_theory, print_theory)
from .threeval import ThreeValuedInterp, holds, kleene_eval
from .transform import (SharedHeadError, TransformError, intervene,
                        internalize, tau_not)

__version__ = "0.1.0"

__all__ = [
    "Atom", "BudgetExceededError", "CPLaw", "Distribution", "EffectLiteral",
    "ExecNode", "ExecState", "Formula", "GroundTheory", "HeadDisjunct",
    "OrderSweepReport", "ParseError", "SharedHeadError",
    "SoundnessError", "StratificationReport", "Theory", "TheoryError",
    "ThreeValuedInterp", "TransformError", "UMode", "Var",
    "applicable", "apply_disjunct", "build_execution_model",
    "check_theory", "compute_U", "distribution", "ground", "holds",
    "intervene", "internalize", "kleene_eval", "parse_formula", "parse_literal",
    "parse_theory", "print_theory", "query", "stratification_report",
    "sweep_orders", "tau_not",
]
