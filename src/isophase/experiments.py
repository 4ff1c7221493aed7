"""Seeded Monte Carlo sweeps over (n, m) cells for both matching problems.

Both events are monotone in m: a prefix of an embedded pattern embeds, and
a common induced subgraph on m vertices contains one on m - 1.  So one draw
per (n, trial) serves every m cell of that n.  Trial t's seeds fold
(master_seed, n, t, stream) through splitmix64.  Embedding draws one pattern
on n's largest m, whose prefix on 0..m-1 is cell m's G(m, p) pattern, and one
host; the common problem draws both graphs on n vertices.  The cells are
searched in ascending m, each search with its own node budget, until one is
not FOUND: a refutation settles every larger cell as a failure without a
search, and a budget stop leaves that cell and every larger one unknown.

A row's `mean_nodes` is the mean over trials of the nodes of that cell's own
searches, a settled cell adding 0, so node totals add across rows; its
`wall_ms` is the time of those searches, and the row of n's smallest m also
carries the time spent sampling.  Budget-exceeded trials are tallied as
unknowns and excluded from the success estimate; a sweep where any cell has
more than 5% unknowns is flagged invalid, because the transition statements
concern true existence rather than solver give-ups.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

from .errors import InvalidInputError, ParameterError
from .graphs import EdgeLaw, batch_lanes, induced_prefix, sample_gnp_many
# The sweep draws through sample_gnp_many; sample_gnp stays bound here because
# tools that trace the sweep patch its sampler under this name.
from .graphs import sample_gnp  # noqa: F401
from .isosearch import BUDGET_EXCEEDED, DEFAULT_BUDGET, FOUND, common_exists, embed_exists
from .rng import fold_seed
from .thresholds import derive_params, embed_center, m_star

PROBLEM_EMBED = "embed"
PROBLEM_COMMON = "common"
SIZE_FIELDS = ("n_values", "m_values", "m_offsets")  # JSON lists of integers

MAX_UNKNOWN_SHARE = 0.05
WILSON_Z = 1.96  # 95% interval


def _is_int(value) -> bool:
    # bool is an int subclass, but true/false in a config is a typo, not a count
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    n_values: tuple[int, ...]
    p: float = 0.5
    q: float = 0.5
    trials: int = 200
    master_seed: int = 0
    node_budget: int = DEFAULT_BUDGET
    m_values: Optional[tuple[int, ...]] = None
    m_offsets: Optional[tuple[int, ...]] = None
    csv_path: Optional[str] = None
    jsonl_path: Optional[str] = None

    def __post_init__(self):
        if self.problem not in (PROBLEM_EMBED, PROBLEM_COMMON):
            raise InvalidInputError(f"unknown problem {self.problem!r}")
        for name in ("trials", "master_seed", "node_budget"):
            value = getattr(self, name)
            if not _is_int(value):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        for name in SIZE_FIELDS:
            values = getattr(self, name)
            if values is not None and not all(map(_is_int, values)):
                raise InvalidInputError(f"{name} entries must be integers, got {values!r}")
        for name in ("p", "q"):
            value = getattr(self, name)
            if not (_is_int(value) or isinstance(value, float)):
                raise InvalidInputError(f"{name} must be a number, got {value!r}")
        for name in ("csv_path", "jsonl_path"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise InvalidInputError(f"{name} must be a path string, got {value!r}")
        if self.trials < 1:
            raise InvalidInputError("need at least one trial per cell")
        if not (0.0 < self.p < 1.0) or not (0.0 < self.q < 1.0):
            raise InvalidInputError("p and q must lie strictly in (0, 1)")
        if not self.n_values:
            raise InvalidInputError("n_values must be nonempty")
        if (self.m_values is None) == (self.m_offsets is None):
            raise InvalidInputError("give exactly one of m_values / m_offsets")
        if self.node_budget < 1:
            raise InvalidInputError("node_budget must be >= 1")
        if self.m_offsets is not None and min(self.n_values) < 1:
            raise InvalidInputError(f"m_offsets need n >= 1, got n={min(self.n_values)}")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except ValueError as exc:  # malformed JSON, or an integer too long to parse
            raise InvalidInputError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise InvalidInputError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        for key in SIZE_FIELDS:
            if key in raw:
                if not isinstance(raw[key], list):
                    raise InvalidInputError(f"{key} must be a JSON list, got {raw[key]!r}")
                raw[key] = tuple(raw[key])
        # a missing problem or n_values reaches __post_init__, which names it
        return cls(**{"problem": None, "n_values": (), **raw})

    @property
    def q_overridden(self) -> bool:
        """An embed sweep with q != 1/2, outside the sharp-transition hypothesis."""
        return self.problem == PROBLEM_EMBED and self.q != 0.5

    def resolve_m_values(self, n: int) -> list[int]:
        """Explicit sizes, or offsets applied to the theoretical center."""
        if self.m_values is not None:
            sizes = list(self.m_values)
        else:
            if self.problem == PROBLEM_EMBED:
                center = round(embed_center(n))
            else:
                root, _, _ = m_star(n, derive_params(self.p, self.q))
                center = round(root)
            sizes = [center + off for off in self.m_offsets]
        sizes = [m for m in sizes if 0 <= m <= n]
        if not sizes:
            raise InvalidInputError(f"no feasible m values for n={n}")
        return sorted(set(sizes))


@dataclass(frozen=True)
class CellResult:
    problem: str
    n: int
    m: int
    p: float
    q: float
    trials: int
    successes: int
    unknowns: int
    p_hat: float
    ci_low: float
    ci_high: float
    mean_nodes: float
    wall_ms: int
    master_seed: int

    @property
    def failures(self) -> int:
        return self.trials - self.successes - self.unknowns

    def as_dict(self) -> dict:
        return asdict(self)


CSV_COLUMNS = ",".join(f.name for f in fields(CellResult))


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[CellResult, ...]
    empirical_thresholds: dict[int, Optional[float]]
    invalid: bool
    config: ExperimentConfig


def estimate_probability(successes: int, trials: int) -> tuple[float, float, float]:
    """Wilson 95% interval: (p_hat, ci_low, ci_high)."""
    if not 0 <= successes <= trials:
        raise ParameterError("need 0 <= successes <= trials")
    if trials == 0:
        return float("nan"), 0.0, 1.0
    z = WILSON_Z
    phat = successes / trials
    denom = trials + z * z
    center = (successes + z * z / 2.0) / denom
    half = z * math.sqrt(successes * (trials - successes) / trials + z * z / 4.0) / denom
    return phat, max(0.0, center - half), min(1.0, center + half)


def locate_empirical_threshold(rows: Sequence[CellResult]) -> Optional[float]:
    """m of the first downward 1/2-crossing of p_hat, linearly interpolated.

    Rows must be sorted by m (one n).  Returns None when the estimated curve
    never crosses 1/2 downward.
    """
    for a, b in zip(rows, rows[1:]):
        pa, pb = a.p_hat, b.p_hat
        if math.isnan(pa) or math.isnan(pb):
            continue
        if pa >= 0.5 > pb:
            return a.m + (pa - 0.5) * (b.m - a.m) / (pa - pb)
    return None


def _run_n(config: ExperimentConfig, n: int) -> list[CellResult]:
    """Every m cell of n from one draw per trial, scanned in ascending m."""
    sizes = config.resolve_m_values(n)
    embed = config.problem == PROBLEM_EMBED
    successes = [0] * len(sizes)
    unknowns = [0] * len(sizes)
    nodes = [0] * len(sizes)
    seconds = [0.0] * len(sizes)
    step = batch_lanes(n)  # the trials whose graphs one sampler pass draws
    for first in range(0, config.trials, step):
        batch = range(first, min(first + step, config.trials))
        start = time.perf_counter()
        xs = sample_gnp_many([EdgeLaw(sizes[-1] if embed else n, config.p,
                                      fold_seed(config.master_seed, n, t, 0)) for t in batch])
        ys = sample_gnp_many([EdgeLaw(n, config.q, fold_seed(config.master_seed, n, t, 1))
                              for t in batch])
        seconds[0] += time.perf_counter() - start
        for x, y in zip(xs, ys):
            for i, m in enumerate(sizes):
                start = time.perf_counter()
                if embed:
                    outcome = embed_exists(induced_prefix(x, m), y, config.node_budget)
                else:
                    outcome = common_exists(x, y, m, config.node_budget)
                seconds[i] += time.perf_counter() - start
                nodes[i] += outcome.nodes
                if outcome.status == FOUND:
                    successes[i] += 1
                    continue
                if outcome.status == BUDGET_EXCEEDED:
                    for j in range(i, len(sizes)):
                        unknowns[j] += 1
                break
    rows = []
    for i, m in enumerate(sizes):
        p_hat, ci_low, ci_high = estimate_probability(successes[i], config.trials - unknowns[i])
        rows.append(CellResult(
            config.problem, n, m, config.p, config.q, config.trials,
            successes[i], unknowns[i], p_hat, ci_low, ci_high,
            nodes[i] / config.trials, int(round(seconds[i] * 1000.0)), config.master_seed,
        ))
    return rows


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Run every (n, m) cell; rows come sorted by n, then m."""
    rows = [row for n in config.n_values for row in _run_n(config, n)]
    rows.sort(key=lambda row: (row.n, row.m))
    thresholds = {}
    for n in config.n_values:
        per_n = [row for row in rows if row.n == n]
        thresholds[n] = locate_empirical_threshold(per_n)
    invalid = any(row.unknowns > MAX_UNKNOWN_SHARE * row.trials for row in rows)
    return SweepResult(tuple(rows), thresholds, invalid, config)


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def export(result: SweepResult, fmt: str, path: str) -> None:
    """Write rows as CSV (fixed column order) or JSONL (one object per line)."""
    if fmt == "csv":
        lines = [CSV_COLUMNS]
        lines.extend(",".join(map(_csv_cell, row.as_dict().values())) for row in result.rows)
        payload = "\n".join(lines) + "\n"
    elif fmt == "jsonl":
        payload = "".join(json.dumps(row.as_dict()) + "\n" for row in result.rows)
    else:
        raise InvalidInputError(f"unknown export format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
