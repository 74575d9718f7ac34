"""Finite Kripke models for intuitionistic, dual, and bi-intuitionistic
modal logics: evaluation, bisimulations, distinguishing formulas, and
desk-scale Hennessy-Milner checks."""

from .bisim import (BisimViolation, ConditionSet, RefinementTrace, Removal,
                    bisimilarity_partition, conditions_for,
                    directed_conversion, greatest_bisimulation,
                    is_bisimulation)
from .distinguish import (HMReport, Witness, bounded_equivalence_oracle,
                          hennessy_milner_check, synthesize, verify_witnesses)
from .errors import (FlavorError, FragmentError, InternalCheckError,
                     ModelFormatError, ParseError, PreconditionError,
                     ToolError)
from .formula import (And, Atom, Bot, Box, Ck, Dia, Formula, Fragment, Imp,
                      Or, Sub, TBox, TDia, Top, atoms_of, connective_count,
                      fragment_of, nesting_depth, parse, to_string, translate)
from .genframe import (SetAlgebra, close_algebra, descriptive_box_check,
                       is_general_model)
from .model import (EK, FS, GPT, H, STANDARD, TENSE, Model, Partition,
                    ValidationReport, Violation, build_example, dualize,
                    enrich_valuation, load_model, model_from_dict,
                    model_to_dict, model_to_json, quotient, strictify,
                    validate)
from .relations import transitive_closure
from .semantics import (back_box_relation, back_dia_relation, box_relation,
                        ck_relation, dia_relation, left_converse,
                        semantic_operator, truth_set)

__version__ = "0.1.0"
