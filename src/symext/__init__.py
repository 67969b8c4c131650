"""Desk-scale engine for symmetric extensions of finite forcing posets."""

from .core import (Compat, Condition, GenericFilter, Instance, Poset,
                   compatible, generic_filters, iter_conditions)
from .errors import (EngineError, FiberExhausted, InvalidInstance,
                     MismatchedInstance, ParseError, StageViolation)
from .forcing import (And, Eq, Mem, Not, act_formula, forces, forcing_vectors,
                      formula_names, parse_formula, symmetry_lemma_check)
from .instances import (build_instance, build_staged_instance, canonical_family,
                        chain_family, downset_embedding, in_stage,
                        least_value_name, name_stage, random_poset, row_name)
from .kernels import (KernelReport, MinOntoReport, min_onto_check, swap_kernel,
                      swap_step, wisc_kernel)
from .names import (HF, EMPTY_HF, EMPTY_NAME, Name, check_name, hf, interpret,
                    make_name, name_cells, ordinal, pair_name, set_name)
from .symmetry import (AssembleReport, ConjugationReport, FiberPermutation,
                       act_condition, act_name, act_support, assemble_sequence,
                       check_support, conjugate, conjugation_check,
                       fix_generators, generator_closure,
                       in_fix, infer_min_support, is_hs, is_symmetric_under)

from types import ModuleType as _Module

# the public functions and classes; the submodules imported above are
# not part of the API
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _Module)]
