"""The project model the rules are "aware" of.

Everything repo-specific lives here, in data:

- **Paper constants** — the guarded threshold family is read from the
  tree being linted: :func:`load_paper_constants` parses
  ``core/config.py`` (AST only, never imported) and maps each
  ``DefenseConfig`` numeric default to the concept tokens a re-hardcoded
  literal would sit next to (``Dt`` ↔ "distance", ``Mt`` ↔ "magnetic",
  ``βt`` ↔ "rate", …).  Physical constants with a canonical home in
  :mod:`repro.constants` (the 16 kHz audio rate, the pilot band edge)
  are appended the same way.
- **Layering DAG** — the architecture rank of every top-level package.
  A module may import (at module level) only packages of strictly lower
  rank or its own package; lazy imports (function-level or under
  ``TYPE_CHECKING``) are exempt because they cannot create import-time
  back-edges — this is exactly how ``obs`` reaches ``core``.
- **Guarded modules** — where the ``# guarded-by: <lock>`` annotation
  convention is enforced.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

#: Concept tokens per DefenseConfig field: a guarded literal is only an
#: error when it appears next to a name carrying one of its tokens, so a
#: coincidental 0.06 (a shimmer amount, a device spec) stays legal.
CONFIG_FIELD_TOKENS: Mapping[str, Tuple[str, ...]] = {
    "distance_threshold_m": ("distance", "dt"),
    "magnetic_threshold_ut": ("magnetic", "anomaly", "mt"),
    "rate_threshold_ut_s": ("rate", "beta"),
    "asv_threshold": ("asv", "llr"),
    "soundfield_threshold": ("soundfield",),
    "distance_margin": ("margin",),
    "magliveness_corr_threshold": ("magliveness", "corr"),
    "magliveness_min_fluctuation_ut": ("magliveness", "fluctuation"),
}

#: Same shape for module-level constants in ``repro/constants.py``.
PHYSICAL_CONSTANT_TOKENS: Mapping[str, Tuple[str, ...]] = {
    "DEFAULT_SAMPLE_RATE_HZ": ("sample_rate", "sample", "sr", "rate_hz", "target_rate"),
    "PILOT_BAND_MIN_HZ": ("pilot",),
}

#: Architecture rank of each top-level package under ``repro``; a
#: module-level import must point strictly downward.  ``obs`` sits below
#: ``core`` (core components carry tracers), so its own uses of core and
#: server types must stay lazy.  ``analysis`` sits at the bottom so that
#: DSP kernels and the pipeline can call the runtime sanitizers.
PACKAGE_RANKS: Mapping[str, int] = {
    "errors": 0,
    "constants": 0,
    "ckernel": 0,
    "analysis": 1,
    "physics": 1,
    "ml": 1,
    "dsp": 2,
    "voice": 3,
    "sensors": 3,
    "devices": 4,
    "world": 5,
    "asv": 6,
    "attacks": 6,
    "obs": 6,
    "core": 7,
    "server": 8,
    "experiments": 9,
}

#: Modules where every ``# guarded-by:`` annotated attribute must be
#: accessed under its declared lock (relative to the lint root).
GUARDED_MODULES: Tuple[str, ...] = (
    "server/gateway.py",
    "server/blas.py",
    "server/scheduler.py",
    "server/metrics.py",
    "obs/trace.py",
    "obs/drift.py",
    "core/pipeline.py",
)

#: Packages whose kernels must floor or ``np.errstate``-guard their logs
#: and divides (the numeric-discipline rule's scope).
NUMERIC_KERNEL_PACKAGES: FrozenSet[str] = frozenset({"core", "physics"})

#: Modules whose code runs inside forked shard processes.  Import-time
#: state they create — locks, RNGs, caches — is instantiated in the
#: *parent* and captured pre-fork into every child: a lock can be copied
#: mid-acquisition, an RNG stream duplicates across shards, and a cache
#: silently diverges per process.  The ``fork-safety`` rule bans such
#: state at module (and class-body) level in these files; mutable state
#: belongs in ``__init__``-built objects constructed after the fork.
FORK_SAFE_MODULES: Tuple[str, ...] = (
    "server/shard.py",
    "server/router.py",
)

#: Files allowed to carry the paper constants literally: the config
#: module that *defines* them and the constants module physical values
#: live in.
CONSTANT_HOME_FILES: Tuple[str, ...] = ("core/config.py", "constants.py")


# ----------------------------------------------------------------------
# determinism taint catalog (the taint-flow rule)
# ----------------------------------------------------------------------
#: Decision-path *sinks*: the functions that construct or score a
#: verification verdict.  A nondeterminism source whose value reaches
#: any of these (directly or through the call graph) breaks the
#: bitwise-equivalence invariant the serving tiers are gated on.
TAINT_SINKS: Mapping[str, Tuple[str, ...]] = {
    "core/pipeline.py": (
        "execute",
        "DefenseSystem.verify",
        "DefenseSystem.verify_cascade",
        "DefenseSystem.run_component",
    ),
    "core/cascade.py": ("pass_boundary", "CascadePlan.confident_reject"),
    "asv/scoring.py": (
        "llr_score",
        "llr_score_batch",
        "llr_score_multi",
        "zt_normalize",
    ),
    "server/backend.py": ("VerificationServer.handle",),
    "server/gateway.py": ("Gateway._process", "ShardedGateway._fail_closed"),
    "server/shard.py": ("ShardWorker.process",),
}

#: Wall-clock / ambient-state reads (resolved external dotted names).
#: Any of these produces a value that differs run to run by definition.
WALLCLOCK_CALLS: FrozenSet[str] = frozenset({
    "time.time", "time.monotonic", "time.perf_counter",
    "time.time_ns", "time.monotonic_ns", "time.perf_counter_ns",
    "os.getenv", "os.environ.get",
    "uuid.uuid1", "uuid.uuid4",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})

#: Unseeded RNG constructors (the global-rng rule already bans the
#: module-level numpy/random APIs; the taint engine additionally tracks
#: an unseeded Generator's values into the sinks).
RNG_CALLS: FrozenSet[str] = frozenset({
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
})

#: dtype names whose cast *narrows* float precision — the cast itself is
#: deterministic, but a narrowing on the decision path means the
#: reference (float64) pipeline and the serving lane quantize at
#: different points, which is exactly how bitwise divergence starts.
NARROWING_DTYPES: FrozenSet[str] = frozenset({"float32", "float16", "half"})

#: Call names that *absorb* telemetry values: a wall-clock read flowing
#: into one of these is latency accounting, not decision arithmetic.
TELEMETRY_CALL_NAMES: FrozenSet[str] = frozenset({
    "observe", "increment", "record", "emit", "annotate",
    "add_event", "set_gauge", "push_event", "record_event",
})

#: Modules whose whole job is telemetry: values passing through them
#: never feed a verdict, so their functions absorb taint entirely (and
#: generate none — a tracer *must* read the clock).
TELEMETRY_MODULE_PACKAGES: FrozenSet[str] = frozenset({"obs"})
TELEMETRY_MODULES: Tuple[str, ...] = (
    "server/metrics.py",
    "server/client.py",
)

#: Variable / parameter / keyword names that mark a value as telemetry:
#: assigning a clock read to ``t0`` or passing it as ``duration_s=`` is
#: the sanctioned latency-measurement idiom, not a decision input.
_TELEMETRY_NAME_RE = re.compile(
    r"(?:^t\d*$|^ts$|^now$|^t_|^at$"
    r"|latenc|duration|elapsed|deadline|timeout|uptime|wall"
    r"|timing|timestamp|started_at|submitted_at|created_at|age_s"
    r"|^rtt|waited|request_id|trace|span|exemplar)",
    re.IGNORECASE,
)

#: Order-fixing barriers: reducing through these makes the result
#: independent of the producing iteration order.
ORDER_BARRIER_CALLS: FrozenSet[str] = frozenset({"sorted", "fsum"})


def is_telemetry_name(name: str) -> bool:
    """Whether an identifier marks its value as telemetry-only."""
    return bool(_TELEMETRY_NAME_RE.search(name))


def is_telemetry_module(relpath: str) -> bool:
    rel = relpath.replace("\\", "/")
    return rel in TELEMETRY_MODULES or package_of(rel) in TELEMETRY_MODULE_PACKAGES


@dataclass(frozen=True)
class PaperConstant:
    """One guarded numeric value and the names that betray its meaning."""

    name: str
    value: float
    tokens: Tuple[str, ...]


def _numeric_default(node: ast.expr) -> Optional[float]:
    """The float value of a numeric literal default, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        if isinstance(node.value, bool):
            return None
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _numeric_default(node.operand)
        return None if inner is None else -inner
    return None


#: Fallback table used when the linted tree has no parseable
#: ``core/config.py`` (e.g. rule unit tests on fixture snippets).  Keep
#: in sync with :class:`repro.core.config.DefenseConfig`; the test suite
#: asserts the two agree.
FALLBACK_CONSTANTS: Tuple[PaperConstant, ...] = (
    PaperConstant("distance_threshold_m", 0.06, CONFIG_FIELD_TOKENS["distance_threshold_m"]),
    PaperConstant("magnetic_threshold_ut", 6.0, CONFIG_FIELD_TOKENS["magnetic_threshold_ut"]),
    PaperConstant("rate_threshold_ut_s", 60.0, CONFIG_FIELD_TOKENS["rate_threshold_ut_s"]),
    PaperConstant("asv_threshold", 0.5, CONFIG_FIELD_TOKENS["asv_threshold"]),
    PaperConstant("soundfield_threshold", -1.5, CONFIG_FIELD_TOKENS["soundfield_threshold"]),
    PaperConstant("distance_margin", 1.4, CONFIG_FIELD_TOKENS["distance_margin"]),
    PaperConstant("magliveness_corr_threshold", 0.35, CONFIG_FIELD_TOKENS["magliveness_corr_threshold"]),
    PaperConstant("magliveness_min_fluctuation_ut", 0.02, CONFIG_FIELD_TOKENS["magliveness_min_fluctuation_ut"]),
    PaperConstant("DEFAULT_SAMPLE_RATE_HZ", 16000.0, PHYSICAL_CONSTANT_TOKENS["DEFAULT_SAMPLE_RATE_HZ"]),
    PaperConstant("PILOT_BAND_MIN_HZ", 16000.0, PHYSICAL_CONSTANT_TOKENS["PILOT_BAND_MIN_HZ"]),
)


def _constants_from_config(path: Path) -> List[PaperConstant]:
    """DefenseConfig numeric defaults, by AST (the tree is never run)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out: List[PaperConstant] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and node.name == "DefenseConfig"):
            continue
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign) and stmt.value is not None):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            name = stmt.target.id
            tokens = CONFIG_FIELD_TOKENS.get(name)
            if tokens is None:
                continue
            value = _numeric_default(stmt.value)
            if value is not None:
                out.append(PaperConstant(name, value, tokens))
    return out


def _constants_from_constants_module(path: Path) -> List[PaperConstant]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out: List[PaperConstant] = []
    for stmt in tree.body:
        target: Optional[str] = None
        value_node: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            if isinstance(stmt.targets[0], ast.Name):
                target = stmt.targets[0].id
                value_node = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            if isinstance(stmt.target, ast.Name):
                target = stmt.target.id
                value_node = stmt.value
        if target is None or value_node is None:
            continue
        tokens = PHYSICAL_CONSTANT_TOKENS.get(target)
        if tokens is None:
            continue
        value = _numeric_default(value_node)
        if value is not None:
            out.append(PaperConstant(target, value, tokens))
    return out


def load_paper_constants(root: Path) -> Tuple[PaperConstant, ...]:
    """The guarded-constant table for the tree rooted at ``root``.

    ``root`` is the lint root (typically ``src/repro``); when the tree
    carries no config module, the fallback table applies so fixture
    snippets still exercise the rule.
    """
    out: List[PaperConstant] = []
    config = root / "core" / "config.py"
    if config.is_file():
        out.extend(_constants_from_config(config))
    constants = root / "constants.py"
    if constants.is_file():
        out.extend(_constants_from_constants_module(constants))
    if not out:
        return FALLBACK_CONSTANTS
    # Physical constants may predate their canonical home; make sure the
    # sample-rate family is always guarded.
    have = {c.name for c in out}
    out.extend(c for c in FALLBACK_CONSTANTS if c.name not in have)
    return tuple(out)


def package_of(relpath: str) -> str:
    """Top-level package of a path relative to the lint root."""
    parts = relpath.replace("\\", "/").split("/")
    name = parts[0]
    if name.endswith(".py"):
        name = name[: -len(".py")]
    return name


def rank_of(package: str) -> Optional[int]:
    return PACKAGE_RANKS.get(package)


def is_constant_home(relpath: str) -> bool:
    return relpath.replace("\\", "/") in CONSTANT_HOME_FILES


def is_guarded_module(relpath: str) -> bool:
    return relpath.replace("\\", "/") in GUARDED_MODULES


def is_fork_safe_module(relpath: str) -> bool:
    return relpath.replace("\\", "/") in FORK_SAFE_MODULES


def in_numeric_kernel_scope(relpath: str) -> bool:
    return package_of(relpath) in NUMERIC_KERNEL_PACKAGES
