"""Binary group functions over samples.

Groups drive the group-conditional calibrators: each column of a
GroupSet is one binary membership indicator, and columns from different
builders may overlap.  Anything fitted (length cutpoints, complexity
terciles, the language list) is fitted on one dataset and can then be
applied to another, so thresholds never leak out of the training split.
"""

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError, DegenerateGroupError, RecordError, schema_fields

__all__ = [
    "GroupSet",
    "GroupingConfig",
    "GroupingModel",
    "build_language_groups",
    "build_length_groups",
    "build_complexity_groups",
    "assemble",
    "nearest_rank_quantile",
    "branch_count",
]

ALL_GROUP = "ALL"
UNKNOWN_LENGTH_GROUP = "len_unknown"

# Language-generic branching tokens counted by the complexity heuristic.
_BRANCH_WORDS = ("if", "for", "while", "case", "catch")
_BRANCH_SYMBOLS = ("&&", "||", "?")
_BRANCH_WORD_RE = re.compile(r"\b(?:" + "|".join(_BRANCH_WORDS) + r")\b")


@dataclass
class GroupSet:
    """Named binary membership columns over a fixed sample ordering."""

    names: list[str]
    membership: np.ndarray

    def __post_init__(self) -> None:
        self.membership = np.asarray(self.membership, dtype=np.int8)
        if self.membership.ndim != 2:
            raise DataError("membership must be a 2-d array")
        if self.membership.shape[1] != len(self.names):
            raise DataError(
                f"{len(self.names)} names but {self.membership.shape[1]} membership columns"
            )
        if len(set(self.names)) != len(self.names):
            raise DataError("group names must be unique")
        vals = np.unique(self.membership)
        if vals.size and not np.all(np.isin(vals, (0, 1))):
            raise DataError("membership entries must be 0 or 1")

    @property
    def n_samples(self) -> int:
        return self.membership.shape[0]

    @property
    def masses(self) -> np.ndarray:
        """Fraction of samples in each group."""
        if self.membership.shape[0] == 0:
            return np.zeros(len(self.names))
        return self.membership.mean(axis=0)

    @property
    def degenerate(self) -> list[str]:
        """Names of groups with zero mass."""
        masses = self.masses
        return [name for name, m in zip(self.names, masses) if m == 0.0]

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.names.index(name)
        except ValueError:
            raise DataError(f"no group named {name!r}") from None
        return self.membership[:, j]


@dataclass(frozen=True)
class GroupingConfig:
    """Which group families to build and where their cutpoints sit."""

    use_language: bool = True
    length_metrics: tuple[str, ...] = ("chars", "loc")
    length_quantiles: tuple[float, ...] = (0.5,)
    complexity_source: str = "none"
    complexity_quantiles: tuple[float, ...] = (1 / 3, 2 / 3)
    always_on: bool = True

    def __post_init__(self) -> None:
        for metric in self.length_metrics:
            if metric not in ("chars", "loc"):
                raise DataError(f"unknown length metric {metric!r}")
        if self.complexity_source not in ("none", "difficulty_label", "branch_heuristic"):
            raise DataError(f"unknown complexity source {self.complexity_source!r}")
        for q in self.length_quantiles + self.complexity_quantiles:
            if not 0.0 < q < 1.0:
                raise DataError(f"quantile {q} outside (0, 1)")


def nearest_rank_quantile(values, q: float) -> float:
    """Nearest-rank quantile: the value at 1-based rank ``ceil(q * n)``."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise DataError("cannot take a quantile of no values")
    rank = int(np.ceil(q * v.size))
    rank = min(max(rank, 1), v.size)
    return float(v[rank - 1])


def branch_count(code_text: str) -> int:
    """Count of branching constructs in a code snippet."""
    count = len(_BRANCH_WORD_RE.findall(code_text))
    for sym in _BRANCH_SYMBOLS:
        count += code_text.count(sym)
    return count


def _band_names(prefix: str, n_bands: int) -> list[str]:
    if n_bands == 2:
        return [f"{prefix}_low", f"{prefix}_high"]
    if n_bands == 3:
        return [f"{prefix}_low", f"{prefix}_mid", f"{prefix}_high"]
    return [f"{prefix}_b{i}" for i in range(n_bands)]


def _band_membership(values: np.ndarray, cutpoints: list[float]) -> np.ndarray:
    """Band index per value; values at or above a cutpoint go to the upper band."""
    bands = np.zeros(values.shape, dtype=int)
    for cut in cutpoints:
        bands += (values >= cut).astype(int)
    return bands


def _one_hot(indices: np.ndarray, n_cols: int) -> np.ndarray:
    out = np.zeros((indices.size, n_cols), dtype=np.int8)
    out[np.arange(indices.size), indices] = 1
    return out


def build_language_groups(dataset: Dataset, languages: list[str] | None = None) -> GroupSet:
    """One group per language; defaults to the sorted distinct languages seen.

    With an explicit ``languages`` list, samples in other languages get
    all-zero rows, so a language fitted elsewhere never silently absorbs
    strangers.
    """
    if languages is None:
        languages = sorted({s.language for s in dataset})
    index = {lang: j for j, lang in enumerate(languages)}
    membership = np.zeros((len(dataset), len(languages)), dtype=np.int8)
    for i, sample in enumerate(dataset):
        j = index.get(sample.language)
        if j is not None:
            membership[i, j] = 1
    return GroupSet(list(languages), membership)


def _length_values(dataset: Dataset, metric: str) -> tuple[np.ndarray, np.ndarray]:
    """(values, known_mask); samples without code_text get value 0 and mask 0."""
    values = np.zeros(len(dataset))
    known = np.zeros(len(dataset), dtype=bool)
    for i, sample in enumerate(dataset):
        if sample.code_text is None:
            continue
        known[i] = True
        if metric == "chars":
            values[i] = len(sample.code_text)
        else:
            values[i] = len(sample.code_text.splitlines())
    return values, known


def build_length_groups(
    dataset: Dataset, cfg: GroupingConfig, fit_on: Dataset | None = None
) -> GroupSet:
    """Length bands per configured metric, cut at fit_on quantiles.

    Cutpoints come from ``fit_on`` (default: ``dataset`` itself) so the
    same thresholds can be reused across splits.  Samples lacking
    code_text fall into a shared ``len_unknown`` group.
    """
    model = GroupingModel.fit(
        fit_on if fit_on is not None else dataset,
        GroupingConfig(
            use_language=False,
            length_metrics=cfg.length_metrics,
            length_quantiles=cfg.length_quantiles,
            complexity_source="none",
            always_on=False,
        ),
    )
    return model.apply(dataset)


def build_complexity_groups(
    dataset: Dataset, cfg: GroupingConfig, fit_on: Dataset | None = None
) -> GroupSet:
    """Complexity groups from difficulty labels or the branch heuristic."""
    if cfg.complexity_source == "none":
        raise DataError("complexity_source is 'none', nothing to build")
    model = GroupingModel.fit(
        fit_on if fit_on is not None else dataset,
        GroupingConfig(
            use_language=False,
            length_metrics=(),
            complexity_source=cfg.complexity_source,
            complexity_quantiles=cfg.complexity_quantiles,
            always_on=False,
        ),
    )
    return model.apply(dataset)


def assemble(parts: list[GroupSet], always_on: bool = True) -> GroupSet:
    """Concatenate group sets column-wise, optionally prepending an ALL group."""
    if not parts:
        raise DataError("no group sets to assemble")
    n = parts[0].n_samples
    for part in parts[1:]:
        if part.n_samples != n:
            raise DataError(
                f"group sets cover different sample counts: {n} vs {part.n_samples}"
            )
    names: list[str] = []
    columns: list[np.ndarray] = []
    if always_on:
        names.append(ALL_GROUP)
        columns.append(np.ones((n, 1), dtype=np.int8))
    for part in parts:
        names.extend(part.names)
        columns.append(part.membership)
    return GroupSet(names, np.hstack(columns) if columns else np.zeros((n, 0), dtype=np.int8))


@dataclass
class GroupingModel:
    """A fitted grouping: everything needed to group new samples.

    Serializes to JSON (names and cutpoints only; membership is always
    recomputed) so a grouping fitted on train can be applied elsewhere.
    """

    config: GroupingConfig
    languages: list[str] = field(default_factory=list)
    length_cutpoints: dict[str, list[float]] = field(default_factory=dict)
    difficulty_labels: list[str] = field(default_factory=list)
    complexity_cutpoints: list[float] = field(default_factory=list)

    @classmethod
    def fit(cls, fit_on: Dataset, config: GroupingConfig) -> "GroupingModel":
        model = cls(config=config)
        if config.use_language:
            model.languages = sorted({s.language for s in fit_on})
        for metric in config.length_metrics:
            values, known = _length_values(fit_on, metric)
            if not known.any():
                raise DataError(
                    f"no sample in the fitting data has code_text, cannot cut {metric!r}"
                )
            model.length_cutpoints[metric] = [
                nearest_rank_quantile(values[known], q) for q in config.length_quantiles
            ]
        if config.complexity_source == "difficulty_label":
            labels = set()
            for sample in fit_on:
                if sample.difficulty is None:
                    raise RecordError(
                        "difficulty label required for complexity groups",
                        sample_id=sample.sample_id,
                    )
                labels.add(sample.difficulty)
            model.difficulty_labels = sorted(labels)
        elif config.complexity_source == "branch_heuristic":
            counts = []
            for sample in fit_on:
                if sample.code_text is None:
                    raise RecordError(
                        "code_text required for the branch heuristic",
                        sample_id=sample.sample_id,
                    )
                counts.append(branch_count(sample.code_text))
            model.complexity_cutpoints = [
                nearest_rank_quantile(counts, q) for q in config.complexity_quantiles
            ]
        return model

    def apply(self, dataset: Dataset) -> GroupSet:
        parts: list[GroupSet] = []
        if self.config.use_language:
            parts.append(build_language_groups(dataset, languages=self.languages))
        for metric in self.config.length_metrics:
            cuts = self.length_cutpoints[metric]
            prefix = "len" if metric == "chars" else "loc"
            values, known = _length_values(dataset, metric)
            bands = _band_membership(values, cuts)
            cols = _one_hot(bands, len(cuts) + 1)
            cols[~known, :] = 0
            parts.append(GroupSet(_band_names(prefix, len(cuts) + 1), cols))
        if self.config.length_metrics:
            # Single shared home for samples without code_text, kept even
            # when empty so the group list is identical across splits.
            _, known = _length_values(dataset, "chars")
            unknown = (~known).astype(np.int8)[:, None]
            parts.append(GroupSet([UNKNOWN_LENGTH_GROUP], unknown))
        if self.config.complexity_source == "difficulty_label":
            index = {label: j for j, label in enumerate(self.difficulty_labels)}
            membership = np.zeros((len(dataset), len(self.difficulty_labels)), dtype=np.int8)
            for i, sample in enumerate(dataset):
                if sample.difficulty is None:
                    raise RecordError(
                        "difficulty label required for complexity groups",
                        sample_id=sample.sample_id,
                    )
                j = index.get(sample.difficulty)
                if j is not None:
                    membership[i, j] = 1
            parts.append(
                GroupSet([f"cx_{label}" for label in self.difficulty_labels], membership)
            )
        elif self.config.complexity_source == "branch_heuristic":
            counts = np.zeros(len(dataset))
            for i, sample in enumerate(dataset):
                if sample.code_text is None:
                    raise RecordError(
                        "code_text required for the branch heuristic",
                        sample_id=sample.sample_id,
                    )
                counts[i] = branch_count(sample.code_text)
            bands = _band_membership(counts, self.complexity_cutpoints)
            names = _band_names("cx", len(self.complexity_cutpoints) + 1)
            parts.append(GroupSet(names, _one_hot(bands, len(names))))
        if not parts:
            return GroupSet(
                [ALL_GROUP] if self.config.always_on else [],
                np.ones((len(dataset), 1), dtype=np.int8)
                if self.config.always_on
                else np.zeros((len(dataset), 0), dtype=np.int8),
            )
        return assemble(parts, always_on=self.config.always_on)

    def to_json(self) -> str:
        payload = {
            "schema_version": 1,
            "config": {
                "use_language": self.config.use_language,
                "length_metrics": list(self.config.length_metrics),
                "length_quantiles": list(self.config.length_quantiles),
                "complexity_source": self.config.complexity_source,
                "complexity_quantiles": list(self.config.complexity_quantiles),
                "always_on": self.config.always_on,
            },
            "languages": self.languages,
            "length_cutpoints": self.length_cutpoints,
            "difficulty_labels": self.difficulty_labels,
            "complexity_cutpoints": self.complexity_cutpoints,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GroupingModel":
        with schema_fields("grouping"):
            payload = json.loads(text)
            if payload.get("schema_version") != 1:
                raise DataError(f"unsupported grouping schema version {payload.get('schema_version')!r}")
            cfg = payload["config"]
            return cls(
                config=GroupingConfig(
                    use_language=cfg["use_language"],
                    length_metrics=tuple(cfg["length_metrics"]),
                    length_quantiles=tuple(cfg["length_quantiles"]),
                    complexity_source=cfg["complexity_source"],
                    complexity_quantiles=tuple(cfg["complexity_quantiles"]),
                    always_on=cfg["always_on"],
                ),
                languages=list(payload["languages"]),
                length_cutpoints={k: list(v) for k, v in payload["length_cutpoints"].items()},
                difficulty_labels=list(payload["difficulty_labels"]),
                complexity_cutpoints=list(payload["complexity_cutpoints"]),
            )
