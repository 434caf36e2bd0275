"""treesep: tree automata, tree-walking automata, and CNF grammars, with an
exactly verified pipeline from tree-walking separators of obfuscated
grammars back to regular word separators."""

from types import ModuleType as _Module

from .bottomup import Dbta, Nta, parse_dbta, parse_nta
from .errors import (
    AlphabetError,
    ArityError,
    FormatError,
    ParseError,
    ResourceError,
    RotationSearchExhausted,
    TransitionError,
    TreesepError,
)
from .grammar import CnfGrammar, derivations, parse_grammar
from .obfuscation import kop_dbta, kop_member, kop_nta, obf_alphabet
from .rotation import (
    ExtractReport,
    RotationWitness,
    comb_dfa,
    extract_separator,
    find_rotation_term,
    is_associative,
)
from .trees import (
    PORT,
    RankedAlphabet,
    Tree,
    comb,
    compose,
    enumerate_terms,
    format_tree,
    leaf_word,
    parse_tree,
)
from .walking import (
    ACCEPT,
    ESCAPE,
    LOOP,
    REJECT,
    Dtwa,
    RunOutcome,
    dfs_from_dfa,
    minimal_dbta,
    parse_dtwa,
    to_dbta,
)
from .words import Dfa, SeparatorReport, cfg_dfa_intersection_empty, parse_dfa, verify_separator

__all__ = [name for name in dir() if not name.startswith("_") and not isinstance(globals()[name], _Module)]
