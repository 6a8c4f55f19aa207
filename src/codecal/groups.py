"""Groups of samples.

Groups drive the group-conditional calibrators.  A group is a set of
samples, and groups of different families may overlap.
:class:`GroupingModel` builds them all.  Anything fitted (length
cutpoints, complexity terciles, the language list) is fitted on one
dataset and can then be applied to another, so thresholds never leak
out of the training split.

This module owns the membership layout.  A :class:`GroupSet` holds
each group's member rows, ascending, group after group, and no dense
matrix: ``GroupingModel.apply`` builds them from each family's
per-sample codes.  A dense 0/1 matrix enters only through
:meth:`GroupSet.from_membership`, whose :func:`check_membership`
accepts it only when every entry is 0 or 1 before any cast, so 0.5, 257
and NaN are refused rather than truncated.  :meth:`GroupSet.select`
picks groups by name, in the order asked for, and
:meth:`GroupSet.matrix` gives the dense matrix back, C-contiguous.

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


def check_membership(membership, n_groups: int) -> np.ndarray:
    """``membership`` as an array, checked to be (n, n_groups) and all 0/1.

    Values are compared before any cast, so 0.5, 257 or NaN never
    become a membership.
    """
    g = np.asarray(membership)
    if g.ndim != 2 or g.shape[1] != n_groups:
        raise DataError(f"membership must have shape (n, {n_groups}), got {g.shape}")
    if not np.all((g == 0) | (g == 1)):
        raise DataError("membership entries must be 0 or 1")
    return g


def _offsets(counts) -> np.ndarray:
    """Where each group's members start, then where the last one's end."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.intp)))


def _stable_order(values: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of integers in [-bound, bound): a radix sort where they fit 16 bits."""
    return np.argsort(values.astype(np.min_scalar_type(-bound)), kind="stable")


@dataclass
class GroupSet:
    """Named groups over ``n_samples`` samples, each held as its member rows.

    Group ``j``, named ``names[j]``, has the members
    ``rows[starts[j]:starts[j + 1]]``, ascending, so ``rows`` (int32)
    lists every membership group after group.
    """

    names: list[str]
    n_samples: int
    rows: np.ndarray
    starts: np.ndarray
    # by_row sorts the positions in ``rows`` by row; row r's are by_row[at[r]:at[r + 1]].
    _by_row: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise DataError("group names must be unique")
        rows, starts, k = np.asarray(self.rows), np.asarray(self.starts), len(self.names)
        if rows.ndim != 1 or rows.dtype.kind not in "iu" or starts.dtype.kind not in "iu":
            raise DataError("group rows and starts must be 1-d integer arrays")
        if starts.shape != (k + 1,) or (starts[0], starts[-1]) != (0, rows.size):
            raise DataError(f"group starts must run from 0 to {rows.size} over {k} groups")
        if np.any(np.diff(starts) < 0):
            raise DataError("group starts must not decrease")
        if rows.size and not 0 <= rows.min() <= rows.max() < self.n_samples:
            raise DataError(f"group rows must lie in [0, {self.n_samples})")
        # Rows may fall back only where a group starts.
        rises = np.diff(rows) > 0
        rises[starts[(0 < starts) & (starts < rows.size)] - 1] = True
        if not rises.all():
            raise DataError("group rows must ascend within each group")
        self.rows = rows.astype(np.int32, copy=False)
        self.starts = starts.astype(np.intp, copy=False)

    @classmethod
    def from_membership(cls, names, membership) -> "GroupSet":
        """The groups of a dense ``(n, k)`` 0/1 matrix, column ``j`` named ``names[j]``.

        :func:`check_membership` refuses any entry but 0 and 1.
        """
        g = check_membership(membership, len(names))
        group, rows = np.nonzero(g.T)
        return cls(list(names), len(g), rows, _offsets(np.bincount(group, minlength=len(names))))

    @classmethod
    def from_codes(cls, n_samples: int, families) -> "GroupSet":
        """Groups from per-sample codes, one family of groups after another.

        Each family is ``(names, codes)``: sample ``i`` is in the group
        ``names[codes[i]]``, or in none of the family's where that is -1.
        """
        names, rows, counts = [], [np.zeros(0, dtype=np.int32)], [np.zeros(0, dtype=np.intp)]
        for family, codes in families:
            names += family
            # A stable sort keeps each group's rows ascending; the -1s lead.
            order = _stable_order(codes, len(family))
            counts.append(np.bincount(codes[codes >= 0], minlength=len(family)))
            rows.append(order[order.size - counts[-1].sum() :].astype(np.int32))
        return cls(names, n_samples, np.concatenate(rows), _offsets(np.concatenate(counts)))

    @property
    def counts(self) -> np.ndarray:
        """Members in each group."""
        return np.diff(self.starts)

    @property
    def masses(self) -> np.ndarray:
        """Fraction of samples in each group."""
        return self.counts / max(self.n_samples, 1)

    @property
    def degenerate(self) -> list[str]:
        """Names of groups with zero mass."""
        return [name for name, count in zip(self.names, self.counts) if count == 0]

    def members(self, j: int) -> np.ndarray:
        """Rows of group ``j``, ascending."""
        return self.rows[self.starts[j] : self.starts[j + 1]]

    def pairs(self, among=None) -> tuple[np.ndarray, np.ndarray]:
        """``(group, row)`` of each membership, in the order of ``rows``.

        With ``among``, an array of distinct rows, only those rows' memberships.
        """
        if among is None:
            return np.repeat(np.arange(len(self.names)), self.counts), self.rows
        if self._by_row is None:
            at = _offsets(np.bincount(self.rows, minlength=self.n_samples))
            self._by_row = _stable_order(self.rows, self.n_samples), at
        by_row, at = self._by_row
        lo, sizes = at[among], at[among + 1] - at[among]
        # Entries lo .. lo + size - 1 of by_row for each row, then back in order.
        gather = np.arange(sizes.sum()) + np.repeat(lo - np.cumsum(sizes) + sizes, sizes)
        positions = np.sort(by_row[gather])
        return np.searchsorted(self.starts, positions, side="right") - 1, self.rows[positions]

    def select(self, names: list[str]) -> "GroupSet":
        """The groups named ``names``, in that order."""
        index = {name: j for j, name in enumerate(self.names)}
        for name in names:
            if name not in index:
                raise DataError(f"no group named {name!r}")
        picked = [index[name] for name in names]
        rows = np.concatenate([self.rows[:0], *map(self.members, picked)])
        return GroupSet(list(names), self.n_samples, rows, _offsets(self.counts[picked]))

    def matrix(self) -> np.ndarray:
        """The dense 0/1 matrix of these groups, one column per name in order.

        It is C-contiguous int8, and that is part of the contract: BLAS
        rounding follows memory layout, so every float fitted from it does.
        """
        out = np.zeros((self.n_samples, len(self.names)), dtype=np.int8)
        group, rows = self.pairs()
        out[rows, group] = 1
        return out


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


def _band_family(prefix: str, values: np.ndarray, cuts: list) -> tuple[list[str], np.ndarray]:
    """The names of the bands ``cuts`` makes, and each value's band: the cuts it is at or above."""
    n_bands = len(cuts) + 1
    bands = {2: ["low", "high"], 3: ["low", "mid", "high"]}.get(n_bands)
    names = [f"{prefix}_{band}" for band in bands or (f"b{i}" for i in range(n_bands))]
    return names, (values[:, None] >= np.array(cuts, dtype=float)).sum(axis=1)


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


def _label_family(columns: GroupColumns, name: str, labels: list, prefix: str = "") -> tuple:
    """One group per label, named with ``prefix``, holding the samples whose field is that label."""
    vocab, codes = columns.codes(name)
    position = {label: j for j, label in enumerate(labels)}
    lookup = np.array([position.get(v, -1) for v in vocab], dtype=np.intp)
    return [prefix + label for label in labels], lookup[codes]


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
        n, config = len(columns), self.config
        families = [([ALL_GROUP], np.zeros(n, dtype=np.intp))] if config.always_on else []
        if config.use_language:
            families.append(_label_family(columns, "languages", self.languages))
        for metric in config.length_metrics:
            prefix, cuts = "len" if metric == "chars" else "loc", self.length_cutpoints[metric]
            names, bands = _band_family(prefix, columns.feature(metric), cuts)
            families.append((names, np.where(columns.known, bands, -1)))
        if config.length_metrics:
            # Single shared home for samples without code_text, kept even
            # when empty so the group list is identical across splits.
            families.append(([UNKNOWN_LENGTH_GROUP], np.where(columns.known, -1, 0)))
        if config.complexity_source == "difficulty_label":
            columns.require("difficulties", "difficulty label required for complexity groups")
            families.append(_label_family(columns, "difficulties", self.difficulty_labels, "cx_"))
        elif config.complexity_source == "branch_heuristic":
            families.append(_band_family("cx", columns.branch_counts(), self.complexity_cutpoints))
        return GroupSet.from_codes(n, families)

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
