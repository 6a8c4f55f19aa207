"""Binary group functions over samples.

Groups drive the group-conditional calibrators: each column of a
GroupSet is one binary membership indicator, and columns of different
families may overlap.  :class:`GroupingModel` builds them all.  Anything
fitted (length cutpoints, complexity terciles, the language list) is
fitted on one dataset and can then be applied to another, so
thresholds never leak out of the training split.

This module owns the membership contract.  :func:`check_membership`
accepts a 2-d array only when every entry is 0 or 1 before any cast, so
0.5, 257 and NaN are refused rather than truncated; :class:`GroupSet`
and the calibrators' ``apply`` both call it.  :meth:`GroupSet.select`
is the one way to pick columns by name: it returns them C-contiguous,
in the order asked for.

Grouping reads three per-sample fields and a few numbers measured on
each sample's code text (:data:`TEXT_FEATURES`, defined in the
numpy-free :mod:`codecal.features`), held column-wise in a
:class:`GroupColumns` table without the texts themselves.  Functions
that group samples take such a table; :meth:`GroupColumns.from_samples`
builds one from any samples, and :func:`~codecal.scoring.load_scored`
reads one from a column file: a temporary one for a split without a matching file.
"""

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import DataError, RecordError, exact_keys, finite_numbers, schema_fields, strings
from .features import TEXT_FEATURES, branch_count, text_features

__all__ = [
    "GroupColumns",
    "GroupSet",
    "GroupingConfig",
    "GroupingModel",
    "check_membership",
    "nearest_rank_quantile",
    "branch_count",
    "TEXT_FEATURES",
    "text_features",
]

ALL_GROUP = "ALL"
UNKNOWN_LENGTH_GROUP = "len_unknown"


def check_membership(membership, n_groups: int, n_samples: int | None = None) -> np.ndarray:
    """``membership`` as an array, checked to be (n_samples, n_groups) and all 0/1.

    Values are compared before any cast, so a caller casting the result
    to int8 or bool cannot turn 0.5, 257 or NaN into a membership.
    ``n_samples=None`` accepts any row count.
    """
    g = np.asarray(membership)
    wrong_rows = n_samples is not None and g.shape[:1] != (n_samples,)
    if g.ndim != 2 or g.shape[1] != n_groups or wrong_rows:
        rows = "n" if n_samples is None else n_samples
        raise DataError(f"membership must have shape ({rows}, {n_groups}), got {g.shape}")
    if not np.all((g == 0) | (g == 1)):
        raise DataError("membership entries must be 0 or 1")
    return g


@dataclass
class GroupSet:
    """Named binary membership columns over a fixed sample ordering."""

    names: list[str]
    membership: np.ndarray

    def __post_init__(self) -> None:
        membership = check_membership(self.membership, len(self.names))
        self.membership = membership.astype(np.int8, copy=False)
        if len(set(self.names)) != len(self.names):
            raise DataError("group names must be unique")

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

    def select(self, names: list[str]) -> np.ndarray:
        """C-contiguous int8 columns matching ``names``, in that order.

        C order is part of the contract: BLAS rounding follows memory
        layout, so every fitted float depends on it.  ``take`` keeps C
        order where a fancy index ``[:, cols]`` would return F order.
        """
        index = {name: j for j, name in enumerate(self.names)}
        for name in names:
            if name not in index:
                raise DataError(f"no group named {name!r}")
        return self.membership.take([index[name] for name in names], axis=1)


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
        for flag in ("use_language", "always_on"):
            if type(getattr(self, flag)) is not bool:
                raise DataError(f"{flag} must be a boolean, got {getattr(self, flag)!r}")
        for i, metric in enumerate(self.length_metrics):
            if metric not in ("chars", "loc"):
                raise DataError(f"unknown length metric {metric!r}")
            if metric in self.length_metrics[:i]:
                raise DataError(f"duplicate length metric {metric!r}")
        if self.complexity_source not in ("none", "difficulty_label", "branch_heuristic"):
            raise DataError(f"unknown complexity source {self.complexity_source!r}")
        for q in self.length_quantiles + self.complexity_quantiles:
            if not 0.0 < q < 1.0:
                raise DataError(f"quantile {q} outside (0, 1)")

    @property
    def text_features(self) -> tuple[str, ...]:
        """Names of the :data:`TEXT_FEATURES` that grouping with this config reads."""
        branches = ("branches",) if self.complexity_source == "branch_heuristic" else ()
        return tuple(self.length_metrics) + branches


def nearest_rank_quantile(values, q: float) -> float:
    """Nearest-rank quantile: the value at 1-based rank ``ceil(q * n)``."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise DataError("cannot take a quantile of no values")
    rank = int(np.ceil(q * v.size))
    rank = min(max(rank, 1), v.size)
    return float(v[rank - 1])


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
    """int8 rows with a 1 at each index; a negative index gives an all-zero row."""
    out = np.zeros((indices.size, n_cols), dtype=np.int8)
    rows = np.flatnonzero(indices >= 0)
    out[rows, indices[rows]] = 1
    return out


class GroupColumns:
    """The per-sample values grouping reads, one entry per sample in each.

    ``sample_ids``, ``languages`` and ``difficulties`` are lists;
    ``difficulties`` holds None where a sample has no difficulty label.
    ``known`` is a bool array, True where the sample has code_text.
    ``features`` maps the name of each :data:`TEXT_FEATURES` entry held
    to a float array of its value per sample, 0 where code_text is
    missing.  The code texts themselves are not kept, so the table's
    size does not grow with code length.
    """

    def __init__(
        self,
        sample_ids: list[str],
        languages: list[str],
        difficulties: list[str | None],
        known,
        features: dict,
    ) -> None:
        n = len(sample_ids)
        columns = [languages, difficulties, known, *features.values()]
        if any(len(column) != n for column in columns):
            raise DataError("group columns must hold one entry per sample")
        self.sample_ids = sample_ids
        self.languages = languages
        self.difficulties = difficulties
        self.known = np.array(known, dtype=bool)
        self.features = {name: np.array(v, dtype=float) for name, v in features.items()}
        self._codes: dict = {}

    @classmethod
    def from_samples(cls, samples) -> "GroupColumns":
        """Columns of any iterable of Samples, with every text feature."""
        samples = list(samples)
        measures = tuple(TEXT_FEATURES.values())
        rows = [text_features(s.code_text, measures) for s in samples]
        table = np.array(rows, dtype=float).reshape(len(rows), 1 + len(measures))
        return cls(
            [s.sample_id for s in samples],
            [s.language for s in samples],
            [s.difficulty for s in samples],
            table[:, 0],
            dict(zip(TEXT_FEATURES, table[:, 1:].T)),
        )

    def __len__(self) -> int:
        return len(self.sample_ids)

    def require(self, name: str, message: str) -> None:
        """Raise RecordError naming the first sample lacking field ``name``.

        ``name`` is ``"difficulties"`` (a difficulty label) or ``"known"``
        (a code_text).
        """
        if name == "known":
            first = int(np.argmin(self.known)) if not self.known.all() else None
        else:
            first = self.difficulties.index(None) if None in self.difficulties else None
        if first is not None:
            raise RecordError(message, sample_id=self.sample_ids[first])

    def codes(self, name: str) -> tuple[list, np.ndarray]:
        """(distinct values in first-seen order, per-sample index into them) of a field."""
        if name not in self._codes:
            index: dict = {}
            codes = [index.setdefault(v, len(index)) for v in getattr(self, name)]
            self._codes[name] = list(index), np.array(codes, dtype=np.intp)
        return self._codes[name]

    def feature(self, name: str) -> np.ndarray:
        """The per-sample values of text feature ``name``."""
        if name not in self.features:
            raise DataError(f"group columns hold no {name!r} text feature")
        return self.features[name]

    def branch_counts(self) -> np.ndarray:
        """:func:`branch_count` of each code_text; every sample must have one."""
        self.require("known", "code_text required for the branch heuristic")
        return self.feature("branches")


def _label_membership(columns: GroupColumns, name: str, labels: list) -> np.ndarray:
    """One column per label; a sample whose field value is not a label gets a zero row."""
    vocab, codes = columns.codes(name)
    position = {label: j for j, label in enumerate(labels)}
    lookup = np.array([position.get(v, -1) for v in vocab], dtype=np.intp)
    return _one_hot(lookup[codes], len(labels))


def _cutpoints(values, what: str, count: int) -> list:
    """``values``, checked to be a list of ``count`` finite numbers."""
    if len(finite_numbers(values, what)) != count:
        raise DataError(f"{what} must number {count}, got {len(values)}")
    return values


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
    def fit(cls, columns: GroupColumns, config: GroupingConfig) -> "GroupingModel":
        """Fit on the samples of ``columns``."""
        model = cls(config=config)
        if config.use_language:
            model.languages = sorted(columns.codes("languages")[0])
        for metric in config.length_metrics:
            known = columns.known
            if not known.any():
                raise DataError(
                    f"no sample in the fitting data has code_text, cannot cut {metric!r}"
                )
            values = columns.feature(metric)[known]
            model.length_cutpoints[metric] = [
                nearest_rank_quantile(values, q) for q in config.length_quantiles
            ]
        if config.complexity_source == "difficulty_label":
            columns.require("difficulties", "difficulty label required for complexity groups")
            model.difficulty_labels = sorted(columns.codes("difficulties")[0])
        elif config.complexity_source == "branch_heuristic":
            counts = columns.branch_counts()
            model.complexity_cutpoints = [
                nearest_rank_quantile(counts, q) for q in config.complexity_quantiles
            ]
        return model

    def apply(self, columns: GroupColumns) -> GroupSet:
        """Group the samples of ``columns``, led by the ALL group when ``always_on``."""
        names: list[str] = [ALL_GROUP] if self.config.always_on else []
        blocks = [np.ones((len(columns), len(names)), dtype=np.int8)]
        if self.config.use_language:
            names.extend(self.languages)
            blocks.append(_label_membership(columns, "languages", self.languages))
        for metric in self.config.length_metrics:
            cuts = self.length_cutpoints[metric]
            prefix = "len" if metric == "chars" else "loc"
            bands = np.where(columns.known, _band_membership(columns.feature(metric), cuts), -1)
            names.extend(_band_names(prefix, len(cuts) + 1))
            blocks.append(_one_hot(bands, len(cuts) + 1))
        if self.config.length_metrics:
            # Single shared home for samples without code_text, kept even
            # when empty so the group list is identical across splits.
            names.append(UNKNOWN_LENGTH_GROUP)
            blocks.append((~columns.known).astype(np.int8)[:, None])
        if self.config.complexity_source == "difficulty_label":
            columns.require("difficulties", "difficulty label required for complexity groups")
            names.extend(f"cx_{label}" for label in self.difficulty_labels)
            blocks.append(_label_membership(columns, "difficulties", self.difficulty_labels))
        elif self.config.complexity_source == "branch_heuristic":
            bands = _band_membership(columns.branch_counts(), self.complexity_cutpoints)
            names.extend(_band_names("cx", len(self.complexity_cutpoints) + 1))
            blocks.append(_one_hot(bands, len(self.complexity_cutpoints) + 1))
        return GroupSet(names, np.hstack(blocks))

    def to_json(self) -> str:
        return json.dumps({"schema_version": 1, **asdict(self)}, sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "GroupingModel":
        with schema_fields("grouping"):
            # Exactly the keys to_json writes, at the top level and in the config.
            keys = ["schema_version", *(f.name for f in fields(cls))]
            payload = exact_keys(json.loads(text), keys, what="grouping")
            if payload["schema_version"] != 1:
                raise DataError(f"unsupported grouping schema version {payload['schema_version']!r}")
            keys = [f.name for f in fields(GroupingConfig)]
            cfg = exact_keys(payload["config"], keys, what="grouping config")
            # JSON holds the config's tuples as lists.
            cfg = {k: tuple(v) if isinstance(v, list) else v for k, v in cfg.items()}
            config = GroupingConfig(**cfg)
            # fit writes one cutpoint per quantile for exactly the configured
            # length metrics, and leaves the families it does not build empty.
            cuts = exact_keys(
                payload["length_cutpoints"], config.length_metrics, what="grouping length cutpoints"
            )
            n_cuts = len(config.length_quantiles)
            branches = config.complexity_source == "branch_heuristic"
            model = cls(
                config=config,
                languages=strings(payload["languages"], "grouping languages"),
                length_cutpoints={
                    k: _cutpoints(v, f"grouping length {k!r} cutpoints", n_cuts)
                    for k, v in cuts.items()
                },
                difficulty_labels=strings(payload["difficulty_labels"], "grouping difficulty labels"),
                complexity_cutpoints=_cutpoints(
                    payload["complexity_cutpoints"],
                    "grouping complexity cutpoints",
                    len(config.complexity_quantiles) if branches else 0,
                ),
            )
            if model.languages and not config.use_language:
                raise DataError("grouping languages must be empty when use_language is false")
            if model.difficulty_labels and config.complexity_source != "difficulty_label":
                raise DataError(
                    "grouping difficulty labels must be empty unless complexity_source"
                    " is difficulty_label"
                )
            # fit writes each list sorted and distinct, so the groups come in its order.
            lists = {"languages": model.languages, "difficulty labels": model.difficulty_labels}
            for what, labels in lists.items():
                if labels != sorted(set(labels)):
                    raise DataError(f"grouping {what} must be sorted and distinct")
            return model
