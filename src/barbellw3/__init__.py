"""Exact free-group word arithmetic and the barbell W3 certificate machinery."""

from .words import (
    Alphabet,
    BASE,
    QUAD,
    Word,
    WordError,
    WordSyntaxError,
    bounded_words,
    concat_words,
    identity,
    invert,
    parse_word,
    project,
    rename,
    word_sort_key,
)
from .ring import (
    Functional,
    RingElement,
    matrix_rank_exact,
    rank,
)
from .patterns import Pattern, PatternError, PatternFactor, eval_pattern, parse_pattern
from .barbell import (
    BarbellError,
    Disk,
    SelfCheckError,
    SpanRecord,
    count_admissible,
    enumerate_admissible,
    hexagon,
    is_admissible,
    monomials_m,
    psi,
    span_generator_records,
    t_poly,
    w3_target,
)
from .solver import (
    CaseAnalysisError,
    HexagonCase,
    Solution,
    SolveError,
    TableError,
    TableRow,
    compare_with_reference,
    hexagon_case_analysis,
    regenerate_table,
    solve,
    table_patterns,
)
from .verify import (
    Check,
    CheckFailure,
    Report,
    verify_all,
    verify_hexagon_vanishing,
    verify_main_theorem,
    verify_psi_targets,
    verify_span_vanishing,
)

__version__ = "0.1.0"
