"""Run configuration documents: schema, validation, presets, and overrides.

A run configuration is a single JSON document with four sections (scenario,
correlation, fit, output). Every physical value carries its unit in the key
name. Unknown keys are rejected. Presets are version-controlled documents
shipped with the package, so reproducing a canned experiment is one command.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from importlib import resources

from .photonsim import DetectorSpec, ScenarioConfig
from .quantities import Medium, SourceSpec

PRESET_FILES = {
    "short-range": "short_range.json",
    "long-range-1km": "long_range_1km.json",
    "long-range-2km": "long_range_2km.json",
    "ideal-thermal": "ideal_thermal.json",
}


class ConfigError(ValueError):
    """Malformed run configuration document."""


def _nano(value) -> float:
    return float(value) * 1e-9


def _pico(value) -> float:
    return float(value) * 1e-12


def _as_is(value):
    return value


def _integer(value) -> int:
    """``int(value)``, refusing booleans and numbers with a fractional part."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("must be an integer")
    return int(value)


def _window(value) -> tuple[int, int]:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ValueError("must be [min, max]")
    return _integer(value[0]), _integer(value[1])


# Document key -> (constructor keyword, conversion from the document's unit).
# Keys a document omits are not passed, so the dataclass defaults apply.
_SOURCE_FIELDS = {
    "wavelength_nm": ("wavelength_m", _nano),
    "source_rate_hz": ("photon_rate_hz", float),
    "coherence_time_ns": ("coherence_time_s", _nano),
    "linewidth_hz": ("linewidth_hz", float),
}
_SCENARIO_FIELDS = {
    "distance_m": ("distance_m", float),
    "refractive_index": ("medium", lambda value: Medium(float(value))),
    "split_probe": ("split_probe", float),
    "split_ref": ("split_ref", float),
    "probe_round_trip_transmission": ("probe_round_trip_transmission", float),
    "ambient_rate_probe_hz": ("ambient_rate_probe_hz", float),
    "ambient_rate_ref_hz": ("ambient_rate_ref_hz", float),
    "duration_s": ("duration_s", float),
    "seed": ("seed", _integer),
    "intensity_cap": ("intensity_cap", float),
}
_DETECTOR_FIELDS = {
    "efficiency": ("efficiency", float),
    "jitter_fwhm_ps": ("jitter_fwhm_s", _pico),
    "dead_time_ps": ("dead_time_s", _pico),
    "dark_rate_hz": ("dark_rate_hz", float),
}
_CORRELATION_FIELDS = {
    "bin_width_ps": ("bin_width_ps", _integer),
    "window_ps": ("window_ps", _window),
}
_FIT_FIELDS = {
    "max_iterations": ("max_iterations", _integer),
    "rel_tol": ("rel_tol", float),
}
_OUTPUT_FIELDS = {
    "tags_path": ("tags_path", _as_is),
    "truth_path": ("truth_path", _as_is),
    "resolution_ps": ("resolution_ps", _integer),
}

_SCENARIO_KEYS = set(_SOURCE_FIELDS) | set(_SCENARIO_FIELDS) | {"detectors"}
_DETECTOR_KEYS = set(_DETECTOR_FIELDS)
_SECTION_KEYS = {
    "scenario": _SCENARIO_KEYS,
    "correlation": set(_CORRELATION_FIELDS),
    "fit": set(_FIT_FIELDS),
    "output": set(_OUTPUT_FIELDS),
}


@dataclass(frozen=True)
class CorrelationSettings:
    bin_width_ps: int
    window_ps: tuple[int, int]


@dataclass(frozen=True)
class OutputSettings:
    tags_path: str | None = None
    truth_path: str | None = None
    resolution_ps: int = 1


def _check_keys(section: str, mapping: dict, allowed: set) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown {section} keys: {sorted(unknown)}")


def _keywords(mapping: dict, fields: dict) -> dict:
    """Constructor keywords for the keys of ``mapping`` that ``fields`` names."""
    keywords = {}
    for key, (name, convert) in fields.items():
        if key in mapping:
            try:
                keywords[name] = convert(mapping[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value {mapping[key]!r} for {key!r}: {exc}") from None
    return keywords


def validate_document(doc: dict) -> None:
    """Reject unknown sections/keys without building any objects."""
    if not isinstance(doc, dict):
        raise ConfigError("run configuration must be a JSON object")
    _check_keys("top-level", doc, set(_SECTION_KEYS))
    for section, keys in _SECTION_KEYS.items():
        if section in doc:
            if not isinstance(doc[section], dict):
                raise ConfigError(f"section {section!r} must be an object")
            _check_keys(section, doc[section], keys)
    detectors = doc.get("scenario", {}).get("detectors", [])
    if not isinstance(detectors, list):
        raise ConfigError(f"scenario key 'detectors' must be a list, got {detectors!r}")
    for i, det in enumerate(detectors):
        if not isinstance(det, dict):
            raise ConfigError(f"detector {i} must be an object")
        _check_keys(f"detectors[{i}]", det, _DETECTOR_KEYS)


def scenario_from_document(doc: dict) -> ScenarioConfig:
    sc = doc.get("scenario")
    if not sc:
        raise ConfigError("configuration has no scenario section")
    for key in ("wavelength_nm", "source_rate_hz", "duration_s", "seed"):
        if key not in sc:
            raise ConfigError(f"scenario is missing required key {key!r}")
    if "coherence_time_ns" not in sc and "linewidth_hz" not in sc:
        raise ConfigError("scenario needs coherence_time_ns or linewidth_hz")
    kwargs = _keywords(sc, _SCENARIO_FIELDS)
    if "detectors" in sc:
        detectors = sc["detectors"]
        if len(detectors) != 2:
            raise ConfigError(f"scenario needs exactly 2 detectors, got {len(detectors)}")
        kwargs["detector_ref"], kwargs["detector_probe"] = (
            DetectorSpec(**_keywords(det, _DETECTOR_FIELDS)) for det in detectors
        )
    return ScenarioConfig(source=SourceSpec(**_keywords(sc, _SOURCE_FIELDS)), **kwargs)


def correlation_from_document(doc: dict) -> CorrelationSettings:
    co = doc.get("correlation")
    if not co:
        raise ConfigError("configuration has no correlation section")
    for key in ("bin_width_ps", "window_ps"):
        if key not in co:
            raise ConfigError(f"correlation is missing required key {key!r}")
    return CorrelationSettings(**_keywords(co, _CORRELATION_FIELDS))


def fit_from_document(doc: dict) -> dict:
    """Keyword arguments for ``estimator.fit_g2`` from the fit section.

    Omitted keys are left out, so ``fit_g2``'s own defaults apply.
    """
    return _keywords(doc.get("fit", {}), _FIT_FIELDS)


def output_from_document(doc: dict) -> OutputSettings:
    return OutputSettings(**_keywords(doc.get("output", {}), _OUTPUT_FIELDS))


def load_preset(name: str) -> dict:
    """Load a packaged preset document by name."""
    if name not in PRESET_FILES:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESET_FILES)}")
    path = resources.files("bunchlidar").joinpath("presets_data", PRESET_FILES[name])
    doc = json.loads(path.read_text())
    validate_document(doc)
    return doc


def load_config_file(path) -> dict:
    with open(path, "r") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    validate_document(doc)
    return doc


def merge_documents(base: dict, override: dict) -> dict:
    """Deep merge: override wins; nested objects merge key-wise, lists replace."""
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = merge_documents(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def apply_dotted_override(doc: dict, assignment: str) -> None:
    """Apply one ``section.key[.index...]=value`` override in place.

    Values parse as JSON, falling back to a bare string; list elements are
    addressed by integer path segments (e.g. scenario.detectors.0.efficiency).
    """
    if "=" not in assignment:
        raise ConfigError(f"override {assignment!r} is not of the form path=value")
    path, _, raw = assignment.partition("=")
    keys = path.strip().split(".")
    if not all(keys):
        raise ConfigError(f"override path {path!r} has empty segments")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = doc
    for i, key in enumerate(keys[:-1]):
        if isinstance(node, list):
            node = node[_list_index(node, key, path)]
        elif isinstance(node, dict):
            node = node.setdefault(key, {})
        else:
            raise ConfigError(f"cannot descend into {'.'.join(keys[: i + 1])!r}")
        if not isinstance(node, (dict, list)):
            raise ConfigError(f"cannot descend into {'.'.join(keys[: i + 1])!r}")
    leaf = keys[-1]
    if isinstance(node, list):
        node[_list_index(node, leaf, path)] = value
    else:
        node[leaf] = value


def _list_index(node: list, key: str, path: str) -> int:
    try:
        index = int(key)
    except ValueError:
        raise ConfigError(f"{path!r}: list index {key!r} is not an integer") from None
    if not 0 <= index < len(node):
        raise ConfigError(f"{path!r}: index {index} out of range for list of {len(node)}")
    return index
