"""Book-scale character coreference toolkit.

Builds, scores and analyses character coreference annotations over full
books: cluster algebra (cut/restrict/union over token windows), the staged
annotation pipeline with pluggable neural components, MUC/B3/CEAF-phi4
scoring with three evaluation settings, corpus statistics, and an
incremental-memory cache simulator.
"""

from .errors import (
    BookcorefError,
    CacheError,
    CompositionError,
    ConfigError,
    ContractError,
    GeneratorError,
    ParseError,
    PlanningError,
    SchemaError,
    SpanRangeError,
    StageError,
    TransportError,
)
from .formats import CorpusFile, DocumentRecord, read_conll, read_jsonl, write_conll, write_jsonl
from .harness import EvalRun, Setting, evaluate
from .memsim import Policy, SimReport, simulate
from .metrics import (
    PRF,
    CorpusStats,
    ScoreReport,
    b_cubed,
    ceaf_phi4,
    chain_distance,
    conll,
    corpus_stats,
    linking_prf,
    muc,
)
from .model import ClusterSet, Document, Mention, ValidationReport, cut, restrict, union, validate
from .pipeline import (
    Expander,
    Judge,
    Linker,
    PipelineConfig,
    PipelineTrace,
    build_prompt,
    expand_pass,
    initialize,
    pattern_match,
    refine,
    run,
)
from .windowing import GroupedWindowPlan, WindowPlan, plan_groups, plan_windows, split_corpus

__version__ = "0.1.0"

__all__ = [
    "BookcorefError",
    "CacheError",
    "ClusterSet",
    "CompositionError",
    "ConfigError",
    "ContractError",
    "CorpusFile",
    "CorpusStats",
    "Document",
    "DocumentRecord",
    "EvalRun",
    "Expander",
    "GeneratorError",
    "GroupedWindowPlan",
    "Judge",
    "Linker",
    "Mention",
    "PRF",
    "ParseError",
    "PipelineConfig",
    "PipelineTrace",
    "PlanningError",
    "Policy",
    "SchemaError",
    "ScoreReport",
    "Setting",
    "SimReport",
    "SpanRangeError",
    "StageError",
    "TransportError",
    "ValidationReport",
    "WindowPlan",
    "b_cubed",
    "build_prompt",
    "ceaf_phi4",
    "chain_distance",
    "conll",
    "corpus_stats",
    "cut",
    "evaluate",
    "expand_pass",
    "initialize",
    "linking_prf",
    "muc",
    "pattern_match",
    "plan_groups",
    "plan_windows",
    "read_conll",
    "read_jsonl",
    "refine",
    "restrict",
    "run",
    "simulate",
    "split_corpus",
    "union",
    "validate",
    "write_conll",
    "write_jsonl",
]
