import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from codecal.data import Sample
from codecal.errors import DataError, RecordError
from codecal.groups import (
    ALL_GROUP,
    TEXT_FEATURES,
    UNKNOWN_LENGTH_GROUP,
    GroupColumns,
    GroupingConfig,
    GroupingModel,
    GroupSet,
    branch_count,
    nearest_rank_quantile,
)

from malformed import edited, json_paths, json_prefixes, json_values
from oracles import brute_nearest_rank_quantile


def make_sample(i, language="python", code_text=None, difficulty=None):
    return Sample(
        problem_id=f"p{i}",
        sample_id=f"s{i}",
        language=language,
        token_logprobs=[-0.1],
        label=i % 2,
        code_text=code_text,
        difficulty=difficulty,
    )


class TestGroupSet:
    def test_masses(self):
        gs = GroupSet.from_membership(["a", "b"], np.array([[1, 0], [1, 0], [0, 0]]))
        np.testing.assert_allclose(gs.masses, [2 / 3, 0.0])
        assert gs.degenerate == ["b"]

    def test_rejects_non_binary(self):
        with pytest.raises(DataError):
            GroupSet.from_membership(["a"], np.array([[2], [0]]))

    @pytest.mark.parametrize("value", [0.5, 257, float("nan")])
    def test_refuses_values_a_cast_would_hide(self, value):
        # int8 would turn these into 0, 1 and 0; they are checked before any cast.
        with pytest.raises(DataError, match="membership entries must be 0 or 1"):
            GroupSet.from_membership(["a"], np.array([[value]]))

    @pytest.mark.parametrize("dtype", [bool, int, float])
    def test_accepts_binary_of_any_dtype(self, dtype):
        gs = GroupSet.from_membership(["a", "b"], np.array([[1, 0], [0, 1]], dtype=dtype))
        assert gs.matrix().dtype == np.int8
        np.testing.assert_array_equal(gs.matrix(), [[1, 0], [0, 1]])

    def test_rejects_wrong_column_count(self):
        with pytest.raises(DataError, match=r"membership must have shape \(n, 2\), got \(2, 1\)"):
            GroupSet.from_membership(["a", "b"], np.ones((2, 1)))

    def test_select_is_c_contiguous_in_requested_order(self):
        membership = np.asfortranarray(np.array([[1, 0, 1], [0, 1, 1]]))
        gs = GroupSet.from_membership(["a", "b", "c"], membership)
        picked = gs.select(["c", "a"]).matrix()
        assert picked.flags.c_contiguous and picked.dtype == np.int8
        np.testing.assert_array_equal(picked, [[1, 1], [1, 0]])
        assert gs.select([]).matrix().shape == (2, 0)
        with pytest.raises(DataError, match="no group named 'z'"):
            gs.select(["a", "z"])

    def test_rejects_duplicate_names(self):
        with pytest.raises(DataError):
            GroupSet.from_membership(["a", "a"], np.zeros((2, 2)))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_dense_round_trip(self, data):
        """Member lists give back the dense matrix, its masses and its empty groups bit for bit."""
        n, k = data.draw(st.integers(0, 12)), data.draw(st.integers(0, 6))
        dense = data.draw(arrays(np.int8, (n, k), elements=st.integers(0, 1)))
        dtype = data.draw(st.sampled_from([bool, np.int8, np.int64, float]))
        names = [f"g{j}" for j in range(k)]
        gs = GroupSet.from_membership(names, dense.astype(dtype))
        cols = data.draw(st.permutations(range(k)))[: data.draw(st.integers(0, k))]
        picked = gs.select([names[j] for j in cols]).matrix()
        assert picked.flags.c_contiguous and picked.dtype == np.int8
        assert picked.tobytes() == dense.take(cols, axis=1).tobytes()
        assert picked.shape == (n, len(cols))
        masses = np.zeros(k) if n == 0 else dense.mean(axis=0)
        assert gs.masses.tobytes() == masses.tobytes()
        assert gs.degenerate == [name for name, mass in zip(names, masses) if mass == 0.0]
        assert gs.rows.dtype == np.int32
        for j in range(k):
            assert gs.members(j).tolist() == np.flatnonzero(dense[:, j]).tolist()

    @pytest.mark.parametrize(
        "rows, starts, message",
        [
            ([0, 3], [0, 1, 2], r"rows must lie in \[0, 3\)"),
            ([-1], [0, 1, 1], r"rows must lie in \[0, 3\)"),
            ([1, 0], [0, 2, 2], "rows must ascend within each group"),
            ([1, 1], [0, 2, 2], "rows must ascend within each group"),
            ([0, 1], [0, 1, 1], "starts must run from 0 to 2 over 2 groups"),
            ([0, 1], [0, 2, 1, 2], "starts must not decrease"),
            ([0.0], [0, 1, 1], "must be 1-d integer arrays"),
        ],
    )
    def test_rejects_malformed_member_lists(self, rows, starts, message):
        names = [f"g{j}" for j in range(len(starts) - 1)]
        with pytest.raises(DataError, match=message):
            GroupSet(names, 3, np.array(rows), np.array(starts))

    def test_groups_may_overlap_in_any_order(self):
        gs = GroupSet(["a", "b"], 3, np.array([2, 0, 1, 2]), np.array([0, 1, 4]))
        assert gs.matrix().tolist() == [[0, 1], [0, 1], [1, 1]]

    def test_column_lookup(self):
        gs = GroupSet.from_membership(["a", "b"], np.array([[1, 0], [0, 1]]))
        np.testing.assert_array_equal(gs.select(["b"]).matrix()[:, 0], [0, 1])
        with pytest.raises(DataError):
            gs.select(["missing"])


class TestNearestRankQuantile:
    def test_median_of_four(self):
        assert nearest_rank_quantile([10, 20, 30, 40], 0.5) == 20

    def test_matches_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            values = rng.integers(0, 50, size=int(rng.integers(1, 30))).tolist()
            q = float(rng.uniform(0.05, 0.95))
            assert nearest_rank_quantile(values, q) == brute_nearest_rank_quantile(values, q)


# One family at a time: no ALL column, and no language groups but in LANGUAGE_ONLY.
LANGUAGE_ONLY = GroupingConfig(length_metrics=(), always_on=False)
LENGTH_ONLY = GroupingConfig(use_language=False, length_metrics=("chars",), always_on=False)
COMPLEXITY_ONLY = GroupingConfig(use_language=False, length_metrics=(), always_on=False)


class TestLengthGroups:
    def fit_ds(self, lengths):
        return GroupColumns.from_samples(
            [make_sample(i, code_text="x" * int(n)) for i, n in enumerate(lengths)]
        )

    def test_at_or_above_goes_high(self):
        fit_on = self.fit_ds([10, 20, 30, 40])
        target = GroupColumns.from_samples([make_sample(99, code_text="y" * 25)])
        cfg = LENGTH_ONLY
        gs = GroupingModel.fit(fit_on, cfg).apply(target)
        assert gs.names == ["len_low", "len_high", "len_unknown"]
        np.testing.assert_array_equal(gs.matrix(), [[0, 1, 0]])

    def test_loc_cut(self):
        fit_on = GroupColumns.from_samples(
            [make_sample(i, code_text="\n".join(["line"] * n)) for i, n in enumerate([1, 2, 3, 100])]
        )
        target = GroupColumns.from_samples([make_sample(99, code_text="a\nb\nc")])
        cfg = replace(LENGTH_ONLY, length_metrics=("loc",))
        gs = GroupingModel.fit(fit_on, cfg).apply(target)
        assert gs.names == ["loc_low", "loc_high", "len_unknown"]
        np.testing.assert_array_equal(gs.matrix(), [[0, 1, 0]])

    def test_all_equal_lengths_degenerate_low(self):
        fit_on = self.fit_ds([7, 7, 7, 7])
        cfg = LENGTH_ONLY
        gs = GroupingModel.fit(fit_on, cfg).apply(fit_on)
        assert gs.select(["len_high"]).matrix()[:, 0].sum() == 4
        assert "len_low" in gs.degenerate

    def test_unknown_code_text(self):
        fit_on = self.fit_ds([5, 10])
        target = GroupColumns.from_samples([make_sample(99)])
        cfg = LENGTH_ONLY
        gs = GroupingModel.fit(fit_on, cfg).apply(target)
        np.testing.assert_array_equal(gs.select(["len_unknown"]).matrix()[:, 0], [1])
        assert gs.select(["len_low", "len_high"]).matrix().tolist() == [[0, 0]]

    def test_cutpoints_come_from_fit_on_only(self):
        fit_on = self.fit_ds([10, 20, 30, 40])
        cfg = GroupingConfig(use_language=False, length_metrics=("chars",))
        model = GroupingModel.fit(fit_on, cfg)
        other = self.fit_ds([1000, 2000])
        model2 = GroupingModel.fit(fit_on, cfg)
        assert model.length_cutpoints == model2.length_cutpoints
        gs = model.apply(other)
        np.testing.assert_array_equal(gs.select(["len_high"]).matrix()[:, 0], [1, 1])


class TestBranchCount:
    def test_plain_return(self):
        assert branch_count("return 1") == 0

    def test_counts_keywords(self):
        code = "if a:\n    pass\nif b:\n    pass\nfor i in r:\n    pass\n"
        assert branch_count(code) == 3

    def test_word_boundaries(self):
        assert branch_count("califormat = 1") == 0
        assert branch_count("x = a && b || c ? d : e") == 3

    @settings(max_examples=500, deadline=None)
    @given(
        text=st.lists(
            st.sampled_from(
                # Keywords, parts of them, and what can stand next to one: ASCII and
                # Unicode letters and digits, "_", combining marks, spaces and operators.
                ["if", "for", "while", "case", "catch", "i", "f", "c", "a", "tch", "_", "x",
                 "é", "ß", "9", "٣", "\u0301", "\u0308", " ", "\n", "&", "|", "?", "(", "."]
            ),
            max_size=12,
        ).map("".join)
    )
    def test_counts_what_the_word_boundary_pattern_counts(self, text):
        """The pattern without a leading \\b counts exactly the words \\b...\\b counts."""
        words = len(re.findall(r"\b(?:if|for|while|case|catch)\b", text))
        symbols = sum(text.count(sym) for sym in ("&&", "||", "?"))
        assert branch_count(text) == words + symbols


class TestComplexityGroups:
    def test_terciles_from_fit_on(self):
        fit_on = GroupColumns.from_samples(
            [
                make_sample(i, code_text=code)
                for i, code in enumerate(
                    [
                        "return 1",
                        "if a: pass",
                        "if a:\n if b:\n  for c in d: pass",
                        "if a && b || c:\n for x in y:\n  while z: pass",
                        "if a:\n" * 9,
                    ]
                )
            ]
        )
        assert fit_on.feature("branches").tolist() == [0, 1, 3, 5, 9]
        target = GroupColumns.from_samples(
            [make_sample(99, code_text="if a:\n if b:\n  for c in d: pass")]
        )
        cfg = replace(COMPLEXITY_ONLY, complexity_source="branch_heuristic")
        gs = GroupingModel.fit(fit_on, cfg).apply(target)
        assert gs.names == ["cx_low", "cx_mid", "cx_high"]
        np.testing.assert_array_equal(gs.matrix(), [[0, 1, 0]])

    def test_difficulty_labels(self):
        ds = GroupColumns.from_samples(
            [make_sample(i, difficulty=d) for i, d in enumerate(["easy", "hard", "easy"])]
        )
        cfg = replace(COMPLEXITY_ONLY, complexity_source="difficulty_label")
        gs = GroupingModel.fit(ds, cfg).apply(ds)
        assert gs.names == ["cx_easy", "cx_hard"]
        np.testing.assert_array_equal(gs.select(["cx_easy"]).matrix()[:, 0], [1, 0, 1])

    def test_missing_difficulty_errors(self):
        ds = GroupColumns.from_samples([make_sample(0)])
        cfg = replace(COMPLEXITY_ONLY, complexity_source="difficulty_label")
        with pytest.raises(RecordError, match="s0"):
            GroupingModel.fit(ds, cfg)

    def test_missing_code_text_errors(self):
        ds = GroupColumns.from_samples([make_sample(0)])
        cfg = replace(COMPLEXITY_ONLY, complexity_source="branch_heuristic")
        with pytest.raises(RecordError, match="s0"):
            GroupingModel.fit(ds, cfg)


class TestLanguageGroups:
    def test_partition(self):
        ds = GroupColumns.from_samples(
            [make_sample(i, language=l) for i, l in enumerate("abacbc")]
        )
        gs = GroupingModel.fit(ds, LANGUAGE_ONLY).apply(ds)
        assert gs.names == ["a", "b", "c"]
        np.testing.assert_array_equal(gs.matrix().sum(axis=1), np.ones(6))

    def test_unseen_language_gets_zero_row(self):
        ds = GroupColumns.from_samples([make_sample(0, language="lua")])
        gs = GroupingModel(LANGUAGE_ONLY, languages=["python", "rust"]).apply(ds)
        np.testing.assert_array_equal(gs.matrix(), [[0, 0]])


class TestAssemble:
    """``apply`` puts the ALL group first when ``always_on``, and only then."""

    def test_always_on_column(self):
        ds = GroupColumns.from_samples([make_sample(0, language="g1"), make_sample(1, "g2")])
        gs = GroupingModel.fit(ds, replace(LANGUAGE_ONLY, always_on=True)).apply(ds)
        assert gs.names == ["ALL", "g1", "g2"]
        np.testing.assert_array_equal(gs.matrix(), [[1, 1, 0], [1, 0, 1]])

    def test_no_all_column(self):
        ds = GroupColumns.from_samples([make_sample(0, language="g1"), make_sample(1, "g1")])
        gs = GroupingModel.fit(ds, LANGUAGE_ONLY).apply(ds)
        assert gs.names == ["g1"]
        np.testing.assert_array_equal(gs.matrix(), [[1], [1]])


class TestGroupingModel:
    def make_ds(self):
        return GroupColumns.from_samples(
            [
                make_sample(0, language="python", code_text="if a: pass", difficulty="easy"),
                make_sample(1, language="rust", code_text="return 1;", difficulty="hard"),
                make_sample(2, language="python", code_text="for i in r:\n if x: pass", difficulty="easy"),
                make_sample(3, language="rust", code_text="while t { }", difficulty="hard"),
            ]
        )

    def test_json_round_trip(self):
        ds = self.make_ds()
        cfg = GroupingConfig(complexity_source="difficulty_label")
        model = GroupingModel.fit(ds, cfg)
        restored = GroupingModel.from_json(model.to_json())
        assert restored.to_json() == model.to_json()
        a = model.apply(ds)
        b = restored.apply(ds)
        assert a.names == b.names
        np.testing.assert_array_equal(a.matrix(), b.matrix())

    def test_missing_config_is_data_error(self):
        model = GroupingModel.fit(self.make_ds(), GroupingConfig())
        payload = json.loads(model.to_json())
        del payload["config"]
        with pytest.raises(DataError, match="missing field 'config'"):
            GroupingModel.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "where, key, message",
        [
            (None, "schema_version", "grouping is missing field 'schema_version'"),
            (None, "languages", "grouping is missing field 'languages'"),
            ("config", "always_on", "grouping config is missing field 'always_on'"),
            ("config", "complexity_quantiles", "grouping config is missing field 'complexity_quantiles'"),
            ("length_cutpoints", "loc", "grouping length cutpoints is missing field 'loc'"),
        ],
    )
    def test_missing_key_is_data_error(self, where, key, message):
        payload = json.loads(GroupingModel.fit(self.make_ds(), GroupingConfig()).to_json())
        del (payload if where is None else payload[where])[key]
        with pytest.raises(DataError, match=re.escape(message)):
            GroupingModel.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "where, key, value, message",
        [
            (None, "bogus", 1, "grouping has unknown field 'bogus'"),
            ("config", "bogus", 1, "grouping config has unknown field 'bogus'"),
            ("length_cutpoints", "bogus", [1.0], "grouping length cutpoints has unknown field 'bogus'"),
            # fit writes cutpoints only for the configured length metrics.
            ("config", "length_metrics", ["chars"], "grouping length cutpoints has unknown field 'loc'"),
        ],
        ids=[
            "None-grouping has unknown field 'bogus'",
            "config-grouping config has unknown field 'bogus'",
            "length_cutpoints-bogus",
            "config-length_metrics-chars",
        ],
    )
    def test_unknown_key_is_data_error(self, where, key, value, message):
        """A key the grouping would not write back is refused, so a loaded grouping replays exactly."""
        payload = json.loads(GroupingModel.fit(self.make_ds(), GroupingConfig()).to_json())
        (payload if where is None else payload[where])[key] = value
        with pytest.raises(DataError, match=re.escape(message)):
            GroupingModel.from_json(json.dumps(payload))

    @pytest.mark.parametrize(
        "source, where, key, value, message",
        [
            (
                "none",
                "length_cutpoints",
                "chars",
                [],
                "grouping length 'chars' cutpoints must number 1, got 0",
            ),
            (
                "difficulty_label",
                None,
                "complexity_cutpoints",
                [3.0, 1.0, 4.0, 2.0],
                "grouping complexity cutpoints must number 0, got 4",
            ),
            ("none", "config", "use_language", False, "grouping languages must be empty"),
            ("none", None, "difficulty_labels", ["easy"], "grouping difficulty labels must be empty"),
            ("none", "config", "length_metrics", ["chars", "chars"], "duplicate length metric 'chars'"),
            ("none", None, "languages", ["rust", "python"],
             "grouping languages must be sorted and distinct"),
            ("none", None, "languages", ["python", "python", "rust"],
             "grouping languages must be sorted and distinct"),
            ("difficulty_label", None, "difficulty_labels", ["hard", "easy"],
             "grouping difficulty labels must be sorted and distinct"),
            ("difficulty_label", None, "difficulty_labels", ["easy", "easy", "hard"],
             "grouping difficulty labels must be sorted and distinct"),
        ],
        ids=[
            "no-chars-cutpoints",
            "cutpoints-beside-labels",
            "languages-off",
            "labels-off",
            "metric-twice",
            "languages-reversed",
            "language-twice",
            "labels-reversed",
            "label-twice",
        ],
    )
    def test_layout_fit_never_writes_is_data_error(self, source, where, key, value, message):
        """Values fit would not write are refused, so no loaded grouping builds other groups."""
        cfg = GroupingConfig(complexity_source=source)
        payload = json.loads(GroupingModel.fit(self.make_ds(), cfg).to_json())
        (payload if where is None else payload[where])[key] = value
        with pytest.raises(DataError, match=re.escape(message)):
            GroupingModel.from_json(json.dumps(payload))

    def test_missing_length_cutpoints_rejected_on_load(self):
        model = GroupingModel.fit(self.make_ds(), GroupingConfig())
        payload = json.loads(model.to_json())
        del payload["length_cutpoints"]["chars"]
        with pytest.raises(DataError, match="grouping length cutpoints is missing field 'chars'"):
            GroupingModel.from_json(json.dumps(payload))

    @pytest.mark.parametrize("field", ["length_cutpoints", "complexity_cutpoints"])
    def test_non_numeric_cutpoint_rejected_on_load(self, field):
        cfg = GroupingConfig(complexity_source="branch_heuristic")
        payload = json.loads(GroupingModel.fit(self.make_ds(), cfg).to_json())
        if field == "length_cutpoints":
            payload[field]["loc"] = ["2"]
        else:
            payload[field][0] = "1"
        with pytest.raises(DataError, match="cutpoints must be a list of finite numbers"):
            GroupingModel.from_json(json.dumps(payload))

    @pytest.mark.parametrize("flag, value", [("use_language", "no"), ("always_on", "false")])
    def test_non_boolean_flag_rejected_on_load(self, flag, value):
        payload = json.loads(GroupingModel.fit(self.make_ds(), GroupingConfig()).to_json())
        payload["config"][flag] = value
        with pytest.raises(DataError, match=f"{flag} must be a boolean, got {value!r}"):
            GroupingModel.from_json(json.dumps(payload))

    def test_apply_allocates_less_than_a_dense_matrix(self):
        n = 20_000
        rng = np.random.default_rng(0)
        languages = [f"lang{i:03d}" for i in rng.integers(0, 400, n)]
        features = {"chars": rng.integers(1, 500, n).astype(float)}
        features["loc"] = features["chars"] // 20
        ids = [f"s{i}" for i in range(n)]
        columns = GroupColumns(ids, languages, [None] * n, [True] * n, features)
        model = GroupingModel.fit(columns, GroupingConfig())
        tracemalloc.start()
        try:
            gs = model.apply(columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(gs.names) == 406
        assert peak < n * len(gs.names)

    def test_same_group_list_across_datasets(self):
        ds = self.make_ds()
        model = GroupingModel.fit(ds, GroupingConfig(complexity_source="difficulty_label"))
        other = GroupColumns.from_samples([make_sample(9, language="lua", difficulty="easy")])
        assert model.apply(other).names == model.apply(ds).names


# Per-sample reference for GroupingModel.fit/apply: one Python walk over
# the samples per feature, as grouping worked before it read columns.


def reference_length_values(samples, metric):
    values = np.zeros(len(samples))
    known = np.zeros(len(samples), dtype=bool)
    for i, sample in enumerate(samples):
        if sample.code_text is None:
            continue
        known[i] = True
        if metric == "chars":
            values[i] = len(sample.code_text)
        else:
            values[i] = len(sample.code_text.splitlines())
    return values, known


def reference_band_columns(values, cutpoints):
    bands = np.zeros(values.shape, dtype=int)
    for cut in cutpoints:
        bands += (values >= cut).astype(int)
    cols = np.zeros((values.size, len(cutpoints) + 1), dtype=np.int8)
    cols[np.arange(values.size), bands] = 1
    return cols


def _reference_band_names(n_bands):
    if n_bands == 2:
        return ["low", "high"]
    if n_bands == 3:
        return ["low", "mid", "high"]
    return [f"b{i}" for i in range(n_bands)]


def reference_fit(samples, config):
    model = GroupingModel(config=config)
    if config.use_language:
        model.languages = sorted({s.language for s in samples})
    for metric in config.length_metrics:
        values, known = reference_length_values(samples, metric)
        if not known.any():
            raise DataError(f"no sample in the fitting data has code_text, cannot cut {metric!r}")
        model.length_cutpoints[metric] = [
            nearest_rank_quantile(values[known], q) for q in config.length_quantiles
        ]
    if config.complexity_source == "difficulty_label":
        labels = set()
        for sample in samples:
            if sample.difficulty is None:
                raise RecordError(
                    "difficulty label required for complexity groups", sample_id=sample.sample_id
                )
            labels.add(sample.difficulty)
        model.difficulty_labels = sorted(labels)
    elif config.complexity_source == "branch_heuristic":
        counts = []
        for sample in samples:
            if sample.code_text is None:
                raise RecordError(
                    "code_text required for the branch heuristic", sample_id=sample.sample_id
                )
            counts.append(branch_count(sample.code_text))
        model.complexity_cutpoints = [
            nearest_rank_quantile(counts, q) for q in config.complexity_quantiles
        ]
    return model


def reference_apply(model, samples):
    n = len(samples)
    names, parts = [], []
    if model.config.always_on:
        names.append(ALL_GROUP)
        parts.append(np.ones((n, 1), dtype=np.int8))
    if model.config.use_language:
        cols = np.zeros((n, len(model.languages)), dtype=np.int8)
        index = {lang: j for j, lang in enumerate(model.languages)}
        for i, sample in enumerate(samples):
            if sample.language in index:
                cols[i, index[sample.language]] = 1
        names += model.languages
        parts.append(cols)
    for metric in model.config.length_metrics:
        cuts = model.length_cutpoints[metric]
        values, known = reference_length_values(samples, metric)
        cols = reference_band_columns(values, cuts)
        cols[~known, :] = 0
        prefix = "len" if metric == "chars" else "loc"
        names += [f"{prefix}_{band}" for band in _reference_band_names(len(cuts) + 1)]
        parts.append(cols)
    if model.config.length_metrics:
        _, known = reference_length_values(samples, "chars")
        names.append(UNKNOWN_LENGTH_GROUP)
        parts.append((~known).astype(np.int8)[:, None])
    if model.config.complexity_source == "difficulty_label":
        cols = np.zeros((n, len(model.difficulty_labels)), dtype=np.int8)
        index = {label: j for j, label in enumerate(model.difficulty_labels)}
        for i, sample in enumerate(samples):
            if sample.difficulty is None:
                raise RecordError(
                    "difficulty label required for complexity groups", sample_id=sample.sample_id
                )
            if sample.difficulty in index:
                cols[i, index[sample.difficulty]] = 1
        names += [f"cx_{label}" for label in model.difficulty_labels]
        parts.append(cols)
    elif model.config.complexity_source == "branch_heuristic":
        counts = np.zeros(n)
        for i, sample in enumerate(samples):
            if sample.code_text is None:
                raise RecordError(
                    "code_text required for the branch heuristic", sample_id=sample.sample_id
                )
            counts[i] = branch_count(sample.code_text)
        cuts = model.complexity_cutpoints
        names += [f"cx_{band}" for band in _reference_band_names(len(cuts) + 1)]
        parts.append(reference_band_columns(counts, cuts))
    return names, np.hstack(parts) if parts else np.zeros((n, 0), dtype=np.int8)


def _outcome(fn, *args):
    """Result of ``fn``, or the type and message of the DataError it raised."""
    try:
        return fn(*args)
    except DataError as exc:
        return type(exc), str(exc)


_CODE = st.one_of(
    st.none(),
    st.just(""),
    st.text(alphabet="if or x&|?\n\r\x0b\u2028", max_size=30),
)
_RECORD = st.tuples(
    st.sampled_from(["python", "rust", "go", "lua", "cobol"]),
    st.one_of(st.none(), st.sampled_from(["easy", "mid", "hard"])),
    _CODE,
)
_CONFIG = st.builds(
    GroupingConfig,
    use_language=st.booleans(),
    length_metrics=st.sampled_from([(), ("chars",), ("loc",), ("chars", "loc"), ("loc", "chars")]),
    length_quantiles=st.sampled_from([(0.5,), (0.25, 0.75), (0.2, 0.5, 0.9)]),
    complexity_source=st.sampled_from(["none", "difficulty_label", "branch_heuristic"]),
    complexity_quantiles=st.sampled_from([(1 / 3, 2 / 3), (0.5,)]),
    always_on=st.booleans(),
)


def _samples(records, prefix):
    return [
        Sample(
            problem_id="p",
            sample_id=f"{prefix}{i}",
            language=language,
            token_logprobs=[-0.1],
            label=0,
            difficulty=difficulty,
            code_text=code_text,
        )
        for i, (language, difficulty, code_text) in enumerate(records)
    ]


class TestColumnGroupingMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(
        config=_CONFIG,
        fit_records=st.lists(_RECORD.filter(lambda r: r[0] != "cobol"), max_size=12),
        target_records=st.lists(_RECORD, max_size=12),
    )
    def test_fit_and_apply(self, config, fit_records, target_records):
        fit_samples, targets = _samples(fit_records, "f"), _samples(target_records, "t")
        fit_columns = GroupColumns.from_samples(fit_samples)
        got = _outcome(GroupingModel.fit, fit_columns, config)
        want = _outcome(reference_fit, fit_samples, config)
        if isinstance(want, tuple):
            assert got == want
            return
        assert got.to_json() == want.to_json()
        for samples, columns in (
            (fit_samples, fit_columns),
            (targets, GroupColumns.from_samples(targets)),
        ):
            applied = _outcome(got.apply, columns)
            expected = _outcome(reference_apply, want, samples)
            if isinstance(expected, tuple) and isinstance(expected[0], type):
                assert applied == expected
                continue
            names, membership = expected
            assert applied.names == names
            assert np.array_equal(applied.matrix(), membership)
            assert applied.matrix().dtype == np.int8


class TestGroupColumns:
    def test_features_computed_once(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return branch_count(text)

        monkeypatch.setitem(TEXT_FEATURES, "branches", counting)
        columns = GroupColumns.from_samples(
            [make_sample(i, code_text="if a:\n  b", difficulty="easy") for i in range(4)]
        )
        cfg = GroupingConfig(complexity_source="branch_heuristic")
        model = GroupingModel.fit(columns, cfg)
        model.apply(columns)
        model.apply(columns)
        assert len(calls) == 4
        assert columns.feature("chars") is columns.feature("chars")

    def test_columns_must_have_equal_lengths(self):
        with pytest.raises(DataError, match="one entry per sample"):
            GroupColumns(["a", "b"], ["python"], [None, None], [False, False], {})
        with pytest.raises(DataError, match="one entry per sample"):
            GroupColumns(["a", "b"], ["py", "py"], [None, None], [False, False], {"loc": [0]})

    def test_text_features_of_samples(self):
        texts = [None, "", "if a:\n  b && c\n", "x\r\ny"]
        samples = [make_sample(i, code_text=text) for i, text in enumerate(texts)]
        columns = GroupColumns.from_samples(samples)
        assert columns.known.tolist() == [False, True, True, True]
        assert columns.feature("chars").tolist() == [0, 0, 15, 4]
        assert columns.feature("loc").tolist() == [0, 0, 2, 2]
        assert columns.feature("branches").tolist() == [0, 0, 2, 0]
        assert not hasattr(columns, "code_texts")

    def test_missing_feature_is_a_data_error(self):
        columns = GroupColumns(["a"], ["py"], [None], [True], {"chars": [3]})
        with pytest.raises(DataError, match="no 'loc' text feature"):
            GroupingModel.fit(columns, GroupingConfig(length_metrics=("loc",)))

    def test_config_names_the_features_it_reads(self):
        assert GroupingConfig().text_features == ("chars", "loc")
        cfg = GroupingConfig(length_metrics=("loc",), complexity_source="branch_heuristic")
        assert cfg.text_features == ("loc", "branches")
        cfg = GroupingConfig(length_metrics=(), complexity_source="difficulty_label")
        assert cfg.text_features == ()


def _grouping_payloads():
    ds = TestGroupingModel().make_ds()
    return [
        json.loads(GroupingModel.fit(ds, GroupingConfig(complexity_source=source)).to_json())
        for source in ("difficulty_label", "branch_heuristic")
    ]


@st.composite
def _malformed_grouping(draw):
    """JSON text of a fitted grouping with its text cut, or one value dropped or replaced."""
    payload = draw(st.sampled_from(_grouping_payloads()))
    kind = draw(st.sampled_from(["prefix", "drop", "replace"]))
    if kind == "prefix":
        return draw(json_prefixes(payload))
    path = draw(st.sampled_from(list(json_paths(payload))))
    if kind == "drop":
        return edited(payload, path, drop=True)
    return edited(payload, path, draw(json_values))


class TestMalformedGroupingProperty:
    @settings(max_examples=200, deadline=None)
    @given(text=_malformed_grouping())
    def test_only_data_errors(self, text):
        """A grouping either fails to load with DataError or applies cleanly (or with DataError)."""
        model = _outcome(GroupingModel.from_json, text)
        if isinstance(model, GroupingModel):
            applied = _outcome(model.apply, TestGroupingModel().make_ds())
            assert isinstance(applied, (GroupSet, tuple))
