"""Exact computation of the Erdos-Burgess constant and related structure
invariants for finite direct products of cyclic semigroups.

The public names are re-exported lazily (PEP 562): a submodule is imported
the first time one of its names is read, so a process imports only the
layers it uses.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "config": ("Budget",),
    "errors": ("BudgetExceeded", "PreconditionError", "SeqFileError", "SpecError"),
    "semigroup": ("CyclicSpec", "GroupSpec", "ProductSpec", "add", "canonical_index",
                  "element_count", "format_spec", "group_of", "idempotent", "parse_spec"),
    "sequences": ("GroupSeq", "Seq", "idempotent_witness", "is_idempotent_sum",
                  "is_idempotent_sum_free", "is_minimal_idempotent_sum",
                  "is_minimal_zero_sum", "is_zero_sum_free", "psi", "read_seq_file",
                  "sigma"),
    "constants": ("ConstResult", "davenport", "eb_bounds", "eb_bruteforce", "eb_exact",
                  "erdos_burgess", "explore_conjecture", "invariant_factors",
                  "reduce_spec"),
    "structure": ("IntSeq", "StructClass", "behaving_bound_classify",
                  "classify_free_sequence", "has_structure", "is_behaving", "l_const",
                  "lhat", "savchev_chen", "structure_gap_report", "subset_sums"),
}
# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "Budget",
    "BudgetExceeded",
    "ConstResult",
    "CyclicSpec",
    "GroupSeq",
    "GroupSpec",
    "IntSeq",
    "PreconditionError",
    "ProductSpec",
    "Seq",
    "SeqFileError",
    "SpecError",
    "StructClass",
    "add",
    "behaving_bound_classify",
    "canonical_index",
    "classify_free_sequence",
    "davenport",
    "eb_bounds",
    "eb_bruteforce",
    "eb_exact",
    "element_count",
    "erdos_burgess",
    "explore_conjecture",
    "format_spec",
    "group_of",
    "has_structure",
    "idempotent",
    "idempotent_witness",
    "invariant_factors",
    "is_behaving",
    "is_idempotent_sum",
    "is_idempotent_sum_free",
    "is_minimal_idempotent_sum",
    "is_minimal_zero_sum",
    "is_zero_sum_free",
    "l_const",
    "lhat",
    "parse_spec",
    "psi",
    "read_seq_file",
    "reduce_spec",
    "savchev_chen",
    "sigma",
    "structure_gap_report",
    "subset_sums",
]
