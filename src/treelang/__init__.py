"""Many-sorted recognizable tree languages.

Free term algebras over many-sorted signatures, finite algebras with
syntactic-congruence machinery, and the full kit of recognizability-preserving
language operators (Boolean combinations, substitution, iteration, quotients,
inverse translations, tree-homomorphism images, derivor-derived images), each
backed by a brute-force semantic oracle for testing.

Importing the package executes none of its submodules.  Each one is entered
in ``sys.modules`` as a lazy module that runs on its first attribute access,
and each public name below is read from its home module on first use, so a
command pays only for the modules it touches.
"""

import importlib.util
import sys

# each submodule and the public names it defines.  ``cli`` is left out: it is
# run as ``python -m treelang.cli``, which warns when the module is already in
# ``sys.modules`` before it runs
_EXPORTS = {
    "core": (
        "Context", "Node", "Operation", "ParseError", "Signature", "SortedVars",
        "SortError", "Term", "ValidationError", "Var", "apply_context",
        "compose_contexts", "context", "count_occurrences", "enumerate_all_terms",
        "enumerate_terms", "hole_context", "node", "parse_context", "parse_term",
        "print_context", "print_term", "signature", "sorted_vars",
        "substitute_occurrences", "subterms_of", "typecheck", "variables_of",
    ),
    "algebra": (
        "FiniteAlgebra", "evaluate", "finite_algebra", "generated_subalgebra",
        "product_algebra", "quotient_algebra", "subset_algebra", "translation_table",
    ),
    "congruence": (
        "SortedPartition", "cogenerated_congruence", "is_congruence",
        "meet_partitions", "partition", "saturate", "syntactic_congruence",
    ),
    "recognizer": (
        "Recognizer", "accepts", "combine", "determinize", "empty_recognizer",
        "equivalent", "inverse_translation", "is_empty", "minimize", "recognize_basic",
        "recognize_finite", "recognize_singleton", "recognizer", "restrict_to_sort",
        "universal_recognizer",
    ),
    "closure": (
        "NTA", "iterate_language", "quotient_language", "quotient_seed_values",
        "substitute_language",
    ),
    "treehom": (
        "Hyperderivor", "apply_treehom", "derived_algebra", "direct_image",
        "hom_to_hyperderivor", "hyperderivor", "inverse_image",
    ),
    "derivor": (
        "Derivor", "HallTerm", "apply_derivor_term", "compose_derivors",
        "derived_algebra_derivor", "derivor", "derivor_to_hyperderivor", "hall_term",
        "identity_derivor", "projection", "xi_substitute",
    ),
    "oracle": (),
    "formats": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy(name: str):
    """Enter submodule ``name`` in ``sys.modules`` without executing it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


# ``derivor`` and ``recognizer`` name public functions, which shadow their
# home modules here; those two modules are reached through ``sys.modules``
for _name in _EXPORTS:
    _module = _lazy(_name)
    if _name not in _HOME:
        globals()[_name] = _module
del _name, _module

__all__ = sorted(_HOME.keys() | _EXPORTS.keys())


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(sys.modules[f"{__name__}.{home}"], name)
    return value


def __dir__():
    return sorted(globals().keys() | __all__)
