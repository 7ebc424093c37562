from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irisfuse.config import ConfigError, RunConfig, load_config, parse_config
from irisfuse.fusion import FusionPolicy
from irisfuse.gasel import GaConfig
from irisfuse.pipeline import PipelineConfig


class TestParsing:
    def test_defaults_from_empty_text(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_round_trip(self):
        cfg = RunConfig(
            grad_threshold=16.0,
            wavelet_scales=(1, 2, 4),
            fusion_rule="weighted",
            fusion_weights=(0.5, 0.25, 0.25),
            fusion_threshold=0.6,
            rng_seed=99,
        )
        assert parse_config(cfg.to_text()) == cfg

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nrng_seed = 7  # trailing\n")
        assert cfg.rng_seed == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("pupil_radius = 12\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("rng_seed = 1\nrng_seed = 2\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("just words\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("max_shift = eight\n")

    def test_module_preconditions_enforced(self):
        with pytest.raises(ConfigError):
            parse_config("pupil_r_max = 80\n")  # overlaps the iris radius range
        with pytest.raises(ConfigError):
            parse_config("ga_population = 1\n")
        with pytest.raises(ConfigError):
            parse_config("fusion_threshold = 1.5\n")

    @pytest.mark.parametrize("text", [
        "wavelet_scales = \n",
        "wavelet_scales = 2,,4\n",
        "wavelet_scales = two\n",
        "fusion_rule = weighted\nfusion_weights = \n",
        "fusion_rule = weighted\nfusion_weights = 0.5,half,0.5\n",
    ])
    def test_empty_or_non_numeric_lists_rejected(self, text):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(text)

    @pytest.mark.parametrize("text", [
        "grad_threshold = nan\n",
        "grad_threshold = inf\n",
        "grad_threshold = -inf\n",
        "rng_seed = -1\n",
        "wavelet_scales = 3\n",
        "wavelet_scales = 2,16\n",
        "fusion_rule = weighted\nfusion_weights = nan,0.5,0.5\n",
    ])
    def test_values_that_fail_at_run_time_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_weighted_rule_needs_weights(self):
        with pytest.raises(ConfigError):
            parse_config("fusion_rule = weighted\n")
        cfg = parse_config("fusion_rule = weighted\nfusion_weights = 0.2,0.3,0.5\n")
        assert cfg.fusion_policy().weights == (0.2, 0.3, 0.5)

    def test_boolean_parsing(self):
        assert parse_config("detect_eyelids = false\n").detect_eyelids is False
        assert parse_config("detect_eyelids = yes\n").detect_eyelids is True
        with pytest.raises(ConfigError):
            parse_config("detect_eyelids = maybe\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rng_seed = 5\nmax_shift = 4\n")
        cfg = load_config(path)
        assert cfg.rng_seed == 5
        assert cfg.max_shift == 4


class TestDerivedConfigs:
    def test_pipeline_reflects_values(self):
        cfg = parse_config("grad_threshold = 18\npolar_guard_rows = 6\n")
        pipe = cfg.pipeline()
        assert pipe.segmentation.grad_threshold == 18.0
        assert pipe.polar_guard_rows == 6

    def test_ga_reflects_values(self):
        cfg = parse_config("ga_w4 = 0.2\nga_nflip = 3\nrng_seed = 11\n")
        ga = cfg.ga()
        assert ga.weights[3] == 0.2
        assert ga.n_flip == 3
        assert ga.rng_seed == 11

    def test_defaults_are_the_module_defaults(self):
        cfg = RunConfig()
        assert cfg.pipeline() == PipelineConfig()
        assert cfg.fusion_policy() == FusionPolicy()
        # the stall criterion is the one default RunConfig sets for itself
        assert cfg.ga() == GaConfig(stall_generations=30)


_KEYS = [f.name for f in fields(RunConfig)]
_VALUES = st.one_of(
    st.sampled_from(["", "0", "-1", "1", "2,4", "1,2,4,8", "0.2,0.3,0.5", ",", "2,,4", "nan",
                     "inf", "-inf", "1e400", "true", "maybe", "weighted", "min", "9" * 5000]),
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.lists(st.floats(-2, 2), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.text(max_size=12),
)
_LINES = st.one_of(
    st.tuples(st.sampled_from(_KEYS), _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=20),
)


class TestParseConfigBoundary:
    @settings(max_examples=400, derandomize=True, deadline=None, database=None)
    @given(st.lists(_LINES, max_size=6))
    def test_only_config_errors_escape(self, lines):
        try:
            cfg = parse_config("\n".join(lines))
        except ConfigError:
            return
        assert isinstance(cfg, RunConfig)
