"""Line-oriented run configuration: `key = value`, `#` comments.

Every value is validated by constructing the owning module's config object,
so a config file cannot express settings the pipeline would reject at run
time.  Unknown keys are errors, not warnings: a typo must not silently fall
back to a default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .fusion import FUSION_RULES, FusionPolicy
from .gasel import GaConfig
from .pipeline import PipelineConfig
from .segmentation import SegmentationConfig


class ConfigError(ValueError):
    """Raised for unparsable text, unknown keys, or out-of-contract values."""


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of a run, each defaulting to its owning module config's default."""

    pupil_r_min: int = SegmentationConfig.pupil_r_min
    pupil_r_max: int = SegmentationConfig.pupil_r_max
    iris_r_min: int = SegmentationConfig.iris_r_min
    iris_r_max: int = SegmentationConfig.iris_r_max
    grad_threshold: float = SegmentationConfig.grad_threshold
    specular_threshold: int = SegmentationConfig.specular_threshold
    detect_eyelids: bool = SegmentationConfig.detect_eyelids
    wavelet_scales: tuple[int, ...] = PipelineConfig.scales
    max_shift: int = PipelineConfig.max_shift
    polar_guard_rows: int = PipelineConfig.polar_guard_rows
    ga_population: int = GaConfig.population_size
    ga_w1: float = GaConfig.weights[0]
    ga_w2: float = GaConfig.weights[1]
    ga_w3: float = GaConfig.weights[2]
    ga_w4: float = GaConfig.weights[3]
    ga_pn: float = GaConfig.p_n
    ga_nflip: int = GaConfig.n_flip
    ga_max_generations: int = GaConfig.max_generations
    ga_fitness_goal: float = GaConfig.fitness_goal
    ga_stall_generations: int = 30  # the one own default: GaConfig's 0 disables the stall rule
    ga_max_evaluations: int = GaConfig.max_evaluations
    ga_top_k: int = 40
    fusion_rule: str = FusionPolicy.rule
    fusion_weights: tuple[float, float, float] | None = FusionPolicy.weights
    fusion_threshold: float = FusionPolicy.threshold
    rng_seed: int = 0

    def __post_init__(self):
        # constructing the module configs enforces their preconditions
        self.pipeline()
        self.ga()
        self.fusion_policy()
        if self.ga_top_k < 1:
            raise ConfigError("ga_top_k must be >= 1")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")

    def pipeline(self) -> PipelineConfig:
        try:
            seg = SegmentationConfig(
                pupil_r_min=self.pupil_r_min,
                pupil_r_max=self.pupil_r_max,
                iris_r_min=self.iris_r_min,
                iris_r_max=self.iris_r_max,
                grad_threshold=self.grad_threshold,
                specular_threshold=self.specular_threshold,
                detect_eyelids=self.detect_eyelids,
            )
            return PipelineConfig(
                segmentation=seg,
                scales=self.wavelet_scales,
                max_shift=self.max_shift,
                polar_guard_rows=self.polar_guard_rows,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def ga(self) -> GaConfig:
        try:
            return GaConfig(
                population_size=self.ga_population,
                weights=(self.ga_w1, self.ga_w2, self.ga_w3, self.ga_w4),
                p_n=self.ga_pn,
                n_flip=self.ga_nflip,
                max_generations=self.ga_max_generations,
                fitness_goal=self.ga_fitness_goal,
                stall_generations=self.ga_stall_generations,
                max_evaluations=self.ga_max_evaluations,
                rng_seed=self.rng_seed,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def fusion_policy(self) -> FusionPolicy:
        try:
            return FusionPolicy(
                rule=self.fusion_rule,
                weights=self.fusion_weights,
                threshold=self.fusion_threshold,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def to_text(self) -> str:
        """Canonical `key = value` form; parsing it reproduces this config."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"


_FIELDS = {f.name: f for f in fields(RunConfig)}

_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_value(key: str, raw: str):
    if key == "detect_eyelids":
        norm = raw.strip().lower()
        if norm not in _BOOL_VALUES:
            raise ConfigError(f"{key} expects a boolean, got {raw!r}")
        return _BOOL_VALUES[norm]
    if key == "fusion_rule":
        if raw not in FUSION_RULES:
            raise ConfigError(f"fusion_rule must be one of {FUSION_RULES}, got {raw!r}")
        return raw
    target = _FIELDS[key].type
    try:
        if key == "wavelet_scales":
            return tuple(int(v) for v in raw.split(","))
        if key == "fusion_weights":
            return tuple(float(v) for v in raw.split(","))
        if target.startswith("int"):
            return int(raw)
        if target.startswith("float"):
            return float(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {key} value {raw!r}") from None
    raise ConfigError(f"no parser for key {key!r}")


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    try:
        return RunConfig(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
