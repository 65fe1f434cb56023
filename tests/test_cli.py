import copy
import dataclasses
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bunchlidar
from bunchlidar import cli, correlator, estimator, presets, quantities, tagio
from bunchlidar.photonsim import DetectorSpec, ScenarioConfig

MINI_CONFIG = {
    "scenario": {
        "wavelength_nm": 518.0,
        "coherence_time_ns": 23.2,
        "source_rate_hz": 2.4e6,
        "distance_m": 0.5,
        "refractive_index": 1.0,
        "split_probe": 0.5,
        "split_ref": 0.5,
        "duration_s": 0.05,
        "seed": 9,
        "detectors": [
            {"efficiency": 1.0, "jitter_fwhm_ps": 0.0, "dead_time_ps": 0.0, "dark_rate_hz": 0.0},
            {"efficiency": 1.0, "jitter_fwhm_ps": 0.0, "dead_time_ps": 0.0, "dark_rate_hz": 0.0},
        ],
    },
    "correlation": {"bin_width_ps": 1000, "window_ps": [-100_000, 100_000]},
    "output": {"resolution_ps": 1},
}


@pytest.fixture
def mini_config(tmp_path):
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(MINI_CONFIG))
    return str(path)


@pytest.fixture
def histogram_csv(tmp_path, mini_config, capsys):
    tags, csv = tmp_path / "t.bin", tmp_path / "h.csv"
    assert cli.main(["simulate", "--config", mini_config, "--out", str(tags)]) == 0
    # +-300 ns leaves bins beyond 5 tau_c of the peak for the SNR measurement
    assert cli.main(["correlate", "--in", str(tags), "--bin-width-ps", "4000",
                     "--window-ps=-300000:300000", "--out", str(csv)]) == 0
    capsys.readouterr()
    return str(csv)


class TestConfigHandling:
    def test_all_presets_parse(self):
        for name in presets.PRESET_FILES:
            doc = presets.load_preset(name)
            presets.scenario_from_document(doc)
            presets.correlation_from_document(doc)
            presets.fit_from_document(doc)
            presets.output_from_document(doc)

    def test_unknown_preset(self):
        with pytest.raises(presets.ConfigError):
            presets.load_preset("no-such-preset")

    def test_unknown_keys_rejected(self):
        with pytest.raises(presets.ConfigError):
            presets.validate_document({"scenario": {"lazer_power": 9000}})
        with pytest.raises(presets.ConfigError):
            presets.validate_document({"simulation": {}})
        with pytest.raises(presets.ConfigError):
            presets.validate_document({"scenario": {"detectors": [{"qe": 0.5}, {}]}})

    @pytest.mark.parametrize("section, key", [
        ("detectors", "saturation_rate_hz"),
        ("output", "histogram_path"),
        ("output", "fit_path"),
        ("output", "tags_path"),
        ("output", "truth_path"),
        ("scenario", "field_step_ps"),
        ("correlation", "chunk_ticks"),
        ("scenario", "intensity_cap"),
        ("scenario", "linewidth_hz"),
    ])
    def test_removed_keys_rejected(self, section, key):
        doc = presets.load_preset("short-range")
        if section == "detectors":
            doc["scenario"]["detectors"][0][key] = 1.0e7
        else:
            doc[section][key] = None
        with pytest.raises(presets.ConfigError, match=key):
            presets.validate_document(doc)

    @pytest.mark.parametrize("key, value", [
        ("bin_width_ps", [1]), ("window_ps", 10), ("window_ps", ["a", 1]),
    ])
    def test_bad_correlation_value_names_key(self, key, value):
        doc = presets.load_preset("short-range")
        doc["correlation"][key] = value
        with pytest.raises(presets.ConfigError, match=key):
            presets.correlation_from_document(doc)

    @pytest.mark.parametrize("section, key, value", [
        ("scenario", "seed", 1.5), ("scenario", "seed", True),
        ("correlation", "bin_width_ps", 1000.7), ("correlation", "bin_width_ps", True),
        ("correlation", "window_ps", [-100.5, 100]), ("correlation", "window_ps", [False, 100]),
        ("fit", "max_iterations", 20.5), ("fit", "max_iterations", True),
        ("output", "resolution_ps", True), ("output", "resolution_ps", 2.5),
    ])
    def test_bad_integer_value_names_key(self, section, key, value):
        doc = presets.load_preset("short-range")
        doc.setdefault(section, {})[key] = value
        build = {"scenario": presets.scenario_from_document,
                 "correlation": presets.correlation_from_document,
                 "fit": presets.fit_from_document,
                 "output": presets.output_from_document}[section]
        with pytest.raises(presets.ConfigError, match=key):
            build(doc)

    def test_integral_float_is_an_integer(self):
        doc = {"correlation": {"bin_width_ps": 40.0, "window_ps": [-80.0, 80]}}
        assert presets.correlation_from_document(doc) == presets.CorrelationSettings(40, (-80, 80))

    def test_omitted_keys_take_dataclass_defaults(self):
        required = {"wavelength_nm": 518.0, "coherence_time_ns": 23.2,
                    "source_rate_hz": 1e6, "duration_s": 0.1, "seed": 3}
        config = presets.scenario_from_document({"scenario": required})
        passed = {"source", "duration_s", "seed"}
        for field in dataclasses.fields(ScenarioConfig):
            if field.name not in passed:
                assert getattr(config, field.name) == field.default, field.name
        assert config.split_probe == 0.92 and config.split_ref == 0.04
        assert presets.fit_from_document({}) == {}
        assert presets.output_from_document({}) == 1

    def test_empty_detector_entry_is_default_spec(self):
        doc = {"scenario": {"wavelength_nm": 518.0, "coherence_time_ns": 1.0,
                            "source_rate_hz": 1e6, "duration_s": 0.1, "seed": 3,
                            "detectors": [{}, {"efficiency": 0.25}]}}
        config = presets.scenario_from_document(doc)
        assert config.detector_ref == DetectorSpec()
        assert config.detector_probe == DetectorSpec(efficiency=0.25)

    def test_dotted_override(self):
        doc = {"scenario": {"detectors": [{"efficiency": 0.5}, {"efficiency": 0.5}]}}
        presets.apply_dotted_override(doc, "scenario.detectors.1.efficiency=0.25")
        assert doc["scenario"]["detectors"][1]["efficiency"] == 0.25
        presets.apply_dotted_override(doc, "scenario.seed=42")
        assert doc["scenario"]["seed"] == 42

    def test_bad_override_path(self):
        with pytest.raises(presets.ConfigError):
            presets.apply_dotted_override({}, "justakey")
        with pytest.raises(presets.ConfigError):
            presets.apply_dotted_override({"scenario": {"detectors": []}},
                                          "scenario.detectors.3.efficiency=1")

    def test_wavelength_is_optional(self):
        doc = copy.deepcopy(MINI_CONFIG)
        del doc["scenario"]["wavelength_nm"]
        assert presets.scenario_from_document(doc).source.wavelength_m is None

    @pytest.mark.parametrize("key", ["source_rate_hz", "coherence_time_ns", "duration_s", "seed"])
    def test_required_scenario_key(self, key):
        doc = copy.deepcopy(MINI_CONFIG)
        del doc["scenario"][key]
        with pytest.raises(presets.ConfigError, match=f"missing required key '{key}'"):
            presets.scenario_from_document(doc)

    def test_merge_deep(self):
        base = presets.load_preset("short-range")
        merged = presets.merge_documents(base, {"scenario": {"seed": 1}})
        assert merged["scenario"]["seed"] == 1
        assert merged["scenario"]["wavelength_nm"] == base["scenario"]["wavelength_nm"]


# flag, document key, command, and the values given by --config, --set and the flag
ALIAS_CASES = [
    ("--seed", "scenario.seed", "simulate", (11, 12, 13)),
    ("--duration-s", "scenario.duration_s", "simulate", (0.5, 0.25, 0.125)),
    ("--distance-m", "scenario.distance_m", "simulate", (1.5, 2.5, 3.5)),
    ("--resolution-ps", "output.resolution_ps", "simulate", (2, 10, 25)),
    ("--bin-width-ps", "correlation.bin_width_ps", "correlate", (10, 20, 50)),
    ("--window-ps", "correlation.window_ps", "correlate", ([-100, 100], [-200, 200], [-300, 300])),
    ("--refractive-index", "scenario.refractive_index", "range", (1.25, 1.5, 2.0)),
]
REQUIRED_PATHS = {
    "simulate": ["--out", "t.bin"],
    "correlate": ["--in", "t.bin", "--out", "h.csv"],
    "range": ["--in", "h.csv"],
}


def _resolve(argv):
    return cli._resolve_document(cli.build_parser().parse_args(argv))


class TestPrecedence:
    @pytest.mark.parametrize("flag, key, command, values", ALIAS_CASES,
                             ids=[case[0] for case in ALIAS_CASES])
    def test_preset_then_config_then_set_then_flag(self, tmp_path, flag, key, command, values):
        section, name = key.split(".")
        config_value, set_value, flag_value = values
        config = tmp_path / "c.json"
        config.write_text(json.dumps({section: {name: config_value}}))
        flag_text = ":".join(map(str, flag_value)) if isinstance(flag_value, list) else str(flag_value)
        layers = [
            ["--preset", "short-range"],
            ["--config", str(config)],
            ["--set", f"{key}={json.dumps(set_value)}"],
            [f"{flag}={flag_text}"],
        ]
        preset_value = presets.load_preset("short-range")[section][name]
        for n, expected in enumerate([preset_value, config_value, set_value, flag_value], start=1):
            argv = [command, *REQUIRED_PATHS[command], *sum(layers[:n], [])]
            assert _resolve(argv)[section][name] == expected, argv

    def test_help_names_each_key(self):
        parser = cli.build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, cli.argparse._SubParsersAction)
        )
        for flag, key, command, _ in ALIAS_CASES:
            action = next(a for a in subparsers.choices[command]._actions if flag in a.option_strings)
            assert key in action.help, flag


class TestHelp:
    def test_every_flag_documented(self):
        parser = cli.build_parser()
        subparsers = next(
            a for a in parser._actions if isinstance(a, cli.argparse._SubParsersAction)
        )
        for name, sub in subparsers.choices.items():
            help_text = sub.format_help()
            for action in sub._actions:
                assert action.help, f"{name}: {action.option_strings} lacks help"
                for flag in action.option_strings:
                    assert flag in help_text

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert cli.main(["simulate", "--help"]) == 0
        capsys.readouterr()


class TestSimulate:
    def test_deterministic_bytes(self, tmp_path, mini_config, capsys):
        out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
        assert cli.main(["simulate", "--config", mini_config, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", mini_config, "--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        truth1 = json.loads((tmp_path / "a.bin.truth.json").read_text())
        truth2 = json.loads((tmp_path / "b.bin.truth.json").read_text())
        assert truth1 == truth2

    def test_zero_duration_valid_file(self, tmp_path, mini_config, capsys):
        out = tmp_path / "empty.bin"
        code = cli.main(["simulate", "--config", mini_config, "--duration-s", "0", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        streams, header = tagio.read_tags(out)
        assert header["channel_count"] == 2
        assert all(len(s) == 0 for s in streams)

    def test_seed_flag_changes_output(self, tmp_path, mini_config, capsys):
        out1, out2 = tmp_path / "a.bin", tmp_path / "b.bin"
        cli.main(["simulate", "--config", mini_config, "--out", str(out1)])
        cli.main(["simulate", "--config", mini_config, "--seed", "10", "--out", str(out2)])
        capsys.readouterr()
        assert out1.read_bytes() != out2.read_bytes()

    def test_missing_out_is_user_error(self, mini_config, capsys):
        assert cli.main(["simulate", "--config", mini_config]) == 1
        assert "--out" in capsys.readouterr().err

    def test_short_range_preset_writes_two_channel_file(self, tmp_path, capsys):
        out = tmp_path / "fig4.bin"
        code = cli.main(["simulate", "--preset", "short-range",
                         "--set", "scenario.duration_s=0.002", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        streams, header = tagio.read_tags(out)
        assert header == {"resolution_ps": 1, "channel_count": 2}
        assert all(len(s) > 0 for s in streams)

    def test_resolution_flag_recorded_in_sidecar(self, tmp_path, mini_config, capsys):
        out = tmp_path / "t.bin"
        assert cli.main(["simulate", "--config", mini_config, "--resolution-ps", "25",
                         "--out", str(out)]) == 0
        capsys.readouterr()
        sidecar = json.loads((tmp_path / "t.bin.truth.json").read_text())
        assert sidecar["configuration"]["output"]["resolution_ps"] == 25
        assert tagio.read_tags(out)[1]["resolution_ps"] == 25

    @pytest.mark.parametrize("flags, message", [
        *[pytest.param([f"--resolution-ps={value}"], f"unsupported resolution {value} ps", id=value)
          for value in ("3", "0", "-25")],
        pytest.param(["--out", "{tmp}/no/t.bin"], "parent directory does not exist",
                     id="out-parent-missing"),
        pytest.param(["--out", "{tmp}"], "is a directory", id="out-is-directory"),
        pytest.param(["--out", "{tmp}/new/"], "is a directory", id="out-names-directory"),
        pytest.param(["--truth-out", "{tmp}/no/s.json"], "parent directory does not exist",
                     id="truth-parent-missing"),
        pytest.param(["--truth-out", "{tmp}"], "is a directory", id="truth-is-directory"),
        pytest.param(["--truth-out", "{tmp}/t.bin"], "name the same file", id="truth-is-out"),
    ])
    def test_bad_resolution_refused_before_simulating(self, tmp_path, mini_config, monkeypatch,
                                                      flags, message, capsys):
        # every output is checked too, so no file is opened and no simulation is wasted
        def simulate(scenario):
            raise AssertionError("simulated before the outputs were checked")

        monkeypatch.setattr(cli, "simulate_ranging_scenario", simulate)
        argv = ["simulate", "--config", mini_config, "--out", str(tmp_path / "t.bin"), *flags]
        code = cli.main([arg.format(tmp=tmp_path) for arg in argv])
        assert code == 1
        assert message in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == [Path(mini_config)]  # no tag file either

    def test_wavelength_does_not_change_tags(self, tmp_path, capsys):
        outs = []
        for name in ("with", "without"):
            doc = copy.deepcopy(MINI_CONFIG)
            if name == "without":
                del doc["scenario"]["wavelength_nm"]
            config, out = tmp_path / f"{name}.json", tmp_path / f"{name}.bin"
            config.write_text(json.dumps(doc))
            assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_jitter_past_tick_range_drops_events(self, tmp_path, capsys):
        # the FWHM fits 64-bit ticks but many draws do not: every jittered
        # reference event lands outside the 1 ms acquisition and is dropped
        tags = tmp_path / "t.bin"
        assert cli.main(["simulate", "--preset", "short-range", "--duration-s", "0.001",
                         "--set", "scenario.detectors.0.jitter_fwhm_ps=9e18",
                         "--out", str(tags)]) == 0
        (reference, probe), _ = tagio.read_tags(tags)
        assert len(reference) == 0 and len(probe) > 0

    def test_truth_out_moves_the_sidecar(self, tmp_path, mini_config, capsys):
        default, moved, sidecar = tmp_path / "a.bin", tmp_path / "b.bin", tmp_path / "s.json"
        assert cli.main(["simulate", "--config", mini_config, "--out", str(default)]) == 0
        assert cli.main(["simulate", "--config", mini_config, "--out", str(moved),
                         "--truth-out", str(sidecar)]) == 0
        capsys.readouterr()
        assert not (tmp_path / "b.bin.truth.json").exists()
        assert sidecar.read_bytes() == (tmp_path / "a.bin.truth.json").read_bytes()

    def test_truth_sidecar_contents(self, tmp_path, mini_config, capsys):
        out = tmp_path / "t.bin"
        cli.main(["simulate", "--config", mini_config, "--out", str(out)])
        capsys.readouterr()
        truth = json.loads((tmp_path / "t.bin.truth.json").read_text())["truth"]
        assert truth["seed"] == 9
        assert truth["distance_m"] == 0.5
        assert truth["delay_ticks"] == round(2 * 0.5 / 299792458.0 * 1e12)


class TestCorrelateFitRange:
    @pytest.fixture
    def tag_file(self, tmp_path, mini_config, capsys):
        out = tmp_path / "t.bin"
        assert cli.main(["simulate", "--config", mini_config, "--out", str(out)]) == 0
        capsys.readouterr()
        return str(out)

    def test_correlate_flags_without_config(self, tmp_path, tag_file, capsys):
        csv = tmp_path / "h.csv"
        code = cli.main(["correlate", "--in", tag_file, "--bin-width-ps", "1000",
                         "--window-ps=-100000:100000", "--out", str(csv)])
        assert code == 0
        assert "pairs" in capsys.readouterr().out

    def test_correlate_needs_two_channels(self, tmp_path, capsys):
        single = tmp_path / "single.bin"
        from tests.test_tagio import make_streams
        tagio.write_tags(make_streams([[100, 200]]), 1, single)
        code = cli.main(["correlate", "--in", str(single), "--bin-width-ps", "10",
                         "--window-ps=0:100", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "2-channel" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, refused", [
        ([], True),  # the preset's 40 ps bins on a 25 ps grid
        (["--bin-width-ps", "50"], False),
        (["--bin-width-ps", "50", "--window-ps=-10010:9990"], True),
    ], ids=["bin-width-off-grid", "on-grid", "window-start-off-grid"])
    def test_correlate_bins_on_the_tick_grid(self, tmp_path, flags, refused, capsys):
        tags, csv = tmp_path / "t.bin", tmp_path / "h.csv"
        assert cli.main(["simulate", "--preset", "short-range", "--duration-s", "0.002",
                         "--resolution-ps", "25", "--out", str(tags)]) == 0
        capsys.readouterr()
        code = cli.main(["correlate", "--preset", "short-range", "--in", str(tags), *flags,
                         "--out", str(csv)])
        err = capsys.readouterr().err
        if refused:
            assert code == 1 and not csv.exists()
            bin_width, window_start = (50, -10010) if flags else (40, -10000)
            assert (f"bin width {bin_width} ps and window start {window_start} ps "
                    "must be multiples of the file's resolution, 25 ps") in err
        else:
            assert code == 0 and csv.exists()

    def test_bad_window_refused_before_the_input_is_opened(self, tmp_path, capsys):
        # 10,015 ps is no whole number of 40 ps bins; the input does not exist
        code = cli.main(["correlate", "--preset", "short-range", "--window-ps=-10000:10015",
                         "--in", str(tmp_path / "missing.bin"), "--out", str(tmp_path / "h.csv")])
        err = capsys.readouterr().err
        assert code == 1
        assert "window [-10000, 10015) must be a positive exact multiple" in err
        assert "missing.bin" not in err

    def test_correlate_empty_file_errors(self, tmp_path, mini_config, capsys):
        empty = tmp_path / "empty.bin"
        cli.main(["simulate", "--config", mini_config, "--duration-s", "0", "--out", str(empty)])
        code = cli.main(["correlate", "--config", mini_config, "--in", str(empty),
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "no events" in capsys.readouterr().err

    def test_fit_and_range_pipeline(self, tmp_path, tag_file, mini_config, capsys):
        csv = tmp_path / "h.csv"
        cli.main(["correlate", "--config", mini_config, "--in", tag_file, "--out", str(csv)])
        range_json = tmp_path / "range.json"
        assert cli.main(["range", "--in", str(csv), "--out", str(range_json)]) == 0
        record = json.loads(range_json.read_text())
        assert record["converged"] is True
        assert list(record) == sorted(record)
        # every fit field, the peak-bin g2 and the three range keys
        fit_keys = {field.name for field in dataclasses.fields(estimator.FitResult)}
        assert set(record) == fit_keys | {"binned_peak_g2", "distance_m", "distance_err_m",
                                          "refractive_index"}
        out = capsys.readouterr().out
        assert "amplitude" in out
        assert "d = " in out and "+/-" in out
        # recovered distance within a broad statistical band of the 0.5 m truth
        # (sigma_d ~ 8 cm at these mini-scenario statistics)
        distance = float(out.split("d = ")[1].split(" ")[0])
        assert abs(distance - 0.5) < 0.25

    def test_range_reads_refractive_index_from_document(self, tmp_path, histogram_csv, capsys):
        config = tmp_path / "medium.json"
        config.write_text(json.dumps({"scenario": {"refractive_index": 1.5}}))
        records = {}
        for name, flags in [("vacuum", []), ("config", ["--config", str(config)]),
                            ("flag", ["--refractive-index", "1.5"])]:
            out = tmp_path / f"{name}.json"
            assert cli.main(["range", "--in", histogram_csv, *flags, "--out", str(out)]) == 0
            records[name] = json.loads(out.read_text())
        capsys.readouterr()
        assert records["config"] == records["flag"]
        assert records["config"]["refractive_index"] == 1.5
        assert records["vacuum"]["refractive_index"] == 1.0
        assert records["config"]["distance_m"] == pytest.approx(
            records["vacuum"]["distance_m"] / 1.5, rel=1e-12)

    def test_degenerate_fit_is_user_error(self, tmp_path, capsys):
        path = tmp_path / "spike.csv"
        with open(path, "w", newline="\n") as f:
            f.write("tau_ps,counts,g2,sigma\n")
            for i in range(64):
                g2 = 6.0 if i == 32 else 1.0
                f.write(f"{(i + 0.5) * 1000:.1f},{100},{g2!r},{0.01!r}\n")
        assert cli.main(["range", "--in", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unconverged_fit_writes_nothing(self, tmp_path, histogram_csv, capsys):
        out = tmp_path / "range.json"
        code = cli.main(["range", "--in", histogram_csv, "--set", "fit.max_iterations=1",
                         "--out", str(out)])
        assert code == 1
        assert "did not converge after 1 iterations" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_g2_is_fit_error(self, tmp_path, capfd):
        path = tmp_path / "nan.csv"
        with open(path, "w", newline="\n") as f:
            f.write("tau_ps,counts,g2,sigma\n")
            for i in range(64):
                g2 = "nan" if i == 40 else repr(1.0 + 0.5 * math.exp(-abs(i - 32) / 4))
                f.write(f"{(i + 0.5) * 1000:.1f},100,{g2},{0.01!r}\n")
        assert cli.main(["range", "--in", str(path)]) == 1
        out, err = capfd.readouterr()
        assert "tau, g2 and sigma must all be finite" in err
        assert "DLASCL" not in out + err

    @pytest.mark.parametrize("g2_scale, sigma", [(1e300, 1e-300), (1.0, 1e-320)],
                             ids=["huge-g2", "subnormal-sigma"])
    def test_overflowing_fit_is_user_error(self, tmp_path, capfd, g2_scale, sigma):
        # finite inputs whose weighted residuals overflow: typed, no LAPACK message
        path = tmp_path / "extreme.csv"
        with open(path, "w", newline="\n") as f:
            f.write("tau_ps,counts,g2,sigma\n")
            for i in range(64):
                g2 = g2_scale * (1.0 + 0.5 * math.exp(-abs(i - 32) / 4))
                f.write(f"{(i + 0.5) * 1000:.1f},100,{g2!r},{sigma!r}\n")
        assert cli.main(["range", "--in", str(path)]) == 1
        out, err = capfd.readouterr()
        assert "overflow" in err and "Traceback" not in err
        assert "DLASCL" not in out + err

    @pytest.mark.parametrize("bad_row, expected", [
        ("2500.0,100,1.0", "line 4: expected 4 fields, got 3"),
        ("2500.0,100,1.0,0.01,7", "line 4: expected 4 fields, got 5"),
        ("2500.0,many,1.0,0.01", "line 4"),
        ("2500.0,100,1.0,tiny", "line 4"),
    ])
    def test_malformed_csv_row_names_line(self, tmp_path, capsys, bad_row, expected):
        path = tmp_path / "bad.csv"
        rows = ["tau_ps,counts,g2,sigma", "500.0,100,1.0,0.01", "1500.0,100,1.0,0.01",
                bad_row, "3500.0,100,1.0,0.01"]
        path.write_text("\n".join(rows) + "\n")
        assert cli.main(["range", "--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert expected in err and "Traceback" not in err


class TestSnrCommand:
    def test_predict_mode(self, capsys):
        assert cli.main(["snr", "--rate-hz", "1e7", "--v2", "0.6",
                         "--tauc-ns", "23", "--dt-ms", "1"]) == 0
        out = capsys.readouterr().out
        assert "28.77" in out

    @pytest.mark.parametrize("flag, value, name", [
        ("--rate-hz", "nan", "rate_hz"), ("--rate-hz", "inf", "rate_hz"),
        ("--v2", "nan", "v_squared"), ("--v2", "-inf", "v_squared"),
        ("--tauc-ns", "inf", "coherence_time_s"), ("--dt-ms", "nan", "integration_time_s"),
    ])
    def test_predict_rejects_non_finite_input(self, tmp_path, flag, value, name, capsys):
        values = {"--rate-hz": "1e7", "--v2": "0.6", "--tauc-ns": "23", "--dt-ms": "1", flag: value}
        out = tmp_path / "snr.json"
        argv = ["snr", *[f"{key}={value}" for key, value in values.items()], "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
        assert not out.exists()

    def test_predict_needs_inputs(self, capsys):
        assert cli.main(["snr", "--rate-hz", "1e7", "--dt-ms", "1"]) == 1
        capsys.readouterr()

    def test_measure_mode(self, tmp_path, histogram_csv, capsys):
        out = tmp_path / "snr.json"
        assert cli.main(["snr", "--in", histogram_csv, "--rate-hz", "1.2e6",
                         "--dt-ms", "50", "--out", str(out)]) == 0
        capsys.readouterr()
        record = json.loads(out.read_text())
        assert record["measured_snr"] > 0

    def test_measure_mode_rejects_nonuniform_bins(self, tmp_path, capsys):
        path = tmp_path / "uneven.csv"
        with open(path, "w", newline="\n") as f:
            f.write("tau_ps,counts,g2,sigma\n")
            for i, tau in enumerate((500.0, 1500.0, 3500.0, 4500.0, 5500.0)):
                f.write(f"{tau!r},100,{1.0 + 0.1 * i!r},{0.01!r}\n")
        assert cli.main(["snr", "--in", str(path), "--rate-hz", "1e6", "--dt-ms", "1"]) == 1
        assert "not uniformly spaced" in capsys.readouterr().err


class TestOutputChecks:
    @pytest.mark.parametrize("command", [
        pytest.param(["correlate", "--bin-width-ps", "10", "--window-ps=0:100"], id="correlate"),
        pytest.param(["range"], id="range"),
        pytest.param(["snr", "--rate-hz", "1e6", "--dt-ms", "50"], id="snr"),
        pytest.param(["convert", "--to", "text"], id="convert"),
    ])
    @pytest.mark.parametrize("out, message", [
        pytest.param("{input}", "--out is the input file {input}", id="same-path"),
        pytest.param("{tmp}/symlink", "--out is the input file {input}", id="symlink"),
        pytest.param("{tmp}/hardlink", "--out is the input file {input}", id="hard-link"),
        pytest.param("{tmp}", "is a directory", id="directory"),
        pytest.param("{tmp}/no/out", "parent directory does not exist", id="parent-missing"),
    ])
    def test_bad_out_refused_before_the_input_is_read(self, tmp_path, monkeypatch, command,
                                                      out, message, capsys):
        # the check needs only the paths, so the input is never read and keeps its bytes
        source = tmp_path / "input"
        source.write_bytes(b"recorded data\n")
        (tmp_path / "symlink").symlink_to(source)
        os.link(source, tmp_path / "hardlink")

        def read(*args, **kwargs):
            raise AssertionError("input read before --out was checked")

        monkeypatch.setattr(tagio, "read_tags", read)
        monkeypatch.setattr(correlator, "read_histogram_csv", read)
        out, message = (text.format(tmp=tmp_path, input=source) for text in (out, message))
        code = cli.main([*command, "--in", str(source), "--out", out])
        err = capsys.readouterr().err
        assert code == 1
        assert f"{out}: {message}" in err
        assert source.read_bytes() == b"recorded data\n"


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
class TestPipedInput:
    def test_piped_tags_match_the_path(self, tmp_path, mini_config, capsys):
        # a binary and a text tag file piped to a child's /dev/stdin give
        # correlate and convert the bytes their file path gives
        binary, text = tmp_path / "t.bin", tmp_path / "t.txt"
        assert cli.main(["simulate", "--config", mini_config, "--out", str(binary)]) == 0
        assert cli.main(["convert", "--in", str(binary), "--out", str(text), "--to", "text"]) == 0
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        for tags, other in ((binary, "text"), (text, "binary")):
            for command in (["correlate", "--config", mini_config], ["convert", "--to", other]):
                by_path, by_pipe = tmp_path / "by_path", tmp_path / "by_pipe"
                assert cli.main([*command, "--in", str(tags), "--out", str(by_path)]) == 0
                subprocess.run([sys.executable, "-m", "bunchlidar.cli", *command,
                                "--in", "/dev/stdin", "--out", str(by_pipe)],
                               input=tags.read_bytes(), env=env, check=True, capture_output=True)
                assert by_pipe.read_bytes() == by_path.read_bytes(), (tags.name, command[0])
        capsys.readouterr()


class TestConvert:
    @pytest.mark.parametrize("last", [2**53 + 1, 2**62 + 1, 2**63 - 2])
    def test_full_tick_range_round_trip_and_correlate(self, tmp_path, last, capsys):
        text, binary = tmp_path / "t.txt", tmp_path / "t.bin"
        text_back, binary_back = tmp_path / "back.txt", tmp_path / "back.bin"
        text.write_text(f"# resolution_ps=1\n# channels=2\n0,0\n1,1\n{last - 3},0\n"
                        f"{last - 1},1\n{last},0\n")
        assert cli.main(["convert", "--in", str(text), "--out", str(binary), "--to", "binary"]) == 0
        assert cli.main(["convert", "--in", str(binary), "--out", str(text_back), "--to", "text"]) == 0
        assert text_back.read_text() == text.read_text()
        assert cli.main(["convert", "--in", str(text_back), "--out", str(binary_back),
                         "--to", "binary"]) == 0
        assert binary_back.read_bytes() == binary.read_bytes()
        csv = tmp_path / "h.csv"
        assert cli.main(["correlate", "--in", str(binary), "--bin-width-ps", "1",
                         "--window-ps=-4:4", "--out", str(csv)]) == 0
        capsys.readouterr()
        _, counts, _, _ = correlator.read_histogram_csv(csv)
        assert counts.tolist() == [0, 0, 0, 1, 0, 1, 1, 0]

    def test_simulated_text_off_grid_correlates_like_binary(self, tmp_path, mini_config, capsys):
        # at 25 ps the simulated times are off the grid; simulate rounds them
        # and convert keeps the rounded times, so correlate reads both alike
        binary, text = tmp_path / "t.bin", tmp_path / "t.txt"
        assert cli.main(["simulate", "--config", mini_config, "--resolution-ps", "25",
                         "--out", str(binary)]) == 0
        assert cli.main(["convert", "--in", str(binary), "--out", str(text), "--to", "text"]) == 0
        csvs = []
        for tags in (binary, text):
            csv = tmp_path / f"{tags.suffix[1:]}.csv"
            assert cli.main(["correlate", "--config", mini_config, "--in", str(tags),
                             "--out", str(csv)]) == 0
            csvs.append(csv.read_bytes())
        capsys.readouterr()
        assert csvs[0] == csvs[1]

    def test_damaged_magic_is_a_binary_fault(self, tmp_path, capsys):
        from tests.test_tagio import make_streams
        good = tmp_path / "good.bin"
        tagio.write_tags(make_streams([[100, 200], [150]]), 1, good)
        data = bytearray(good.read_bytes())
        bad = tmp_path / "bad.bin"
        for bit in range(8 * len(tagio.MAGIC)):
            data[bit // 8] ^= 1 << bit % 8
            bad.write_bytes(data)
            data[bit // 8] ^= 1 << bit % 8
            for argv in (["correlate", "--in", str(bad), "--bin-width-ps", "10",
                          "--window-ps=-100:100", "--out", str(tmp_path / "h.csv")],
                         ["convert", "--in", str(bad), "--out", str(tmp_path / "t.txt"),
                          "--to", "text"]):
                assert cli.main(argv) == 1, (bit, argv[0])
                assert "bad magic at offset 0" in capsys.readouterr().err, (bit, argv[0])

    def test_empty_file_is_a_truncated_header(self, tmp_path, capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        assert cli.main(["convert", "--in", str(empty), "--out", str(tmp_path / "t.txt"),
                         "--to", "text"]) == 1
        assert "header needs 32 bytes, file has 0 at offset 0" in capsys.readouterr().err

    def test_round_trip_via_text(self, tmp_path, mini_config, capsys):
        binary = tmp_path / "t.bin"
        cli.main(["simulate", "--config", mini_config, "--out", str(binary)])
        text = tmp_path / "t.txt"
        back = tmp_path / "back.bin"
        assert cli.main(["convert", "--in", str(binary), "--out", str(text), "--to", "text"]) == 0
        assert cli.main(["convert", "--in", str(text), "--out", str(back), "--to", "binary"]) == 0
        capsys.readouterr()
        assert binary.read_bytes() == back.read_bytes()


class TestExitCodes:
    def test_unknown_flag_is_user_error(self, capsys):
        assert cli.main(["simulate", "--frobnicate"]) == 1
        capsys.readouterr()

    def test_fit_command_is_gone(self, capsys):
        # range fits and writes every key fit wrote
        assert cli.main(["fit", "--in", "h.csv"]) == 1
        assert "invalid choice: 'fit'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["range", "--in", "/nonexistent/h.csv"],
        ["range", "--in", "{dir}"],
        ["correlate", "--in", "{dir}", "--bin-width-ps", "10", "--window-ps=-10:10", "--out", "x"],
        ["simulate", "--preset", "short-range", "--duration-s", "1e-6", "--out", "{dir}"],
        ["correlate", "--in", "{dir}/latin1.txt", "--bin-width-ps", "10", "--window-ps=-10:10",
         "--out", "{dir}/h.csv"],
        ["convert", "--in", "{dir}/latin1.txt", "--out", "{dir}/t.bin", "--to", "binary"],
        ["range", "--in", "{dir}/latin1.txt"],
        ["snr", "--in", "{dir}/latin1.txt", "--rate-hz", "1e6", "--dt-ms", "1"],
        ["simulate", "--config", "{dir}/latin1.txt", "--out", "{dir}/t.bin"],
    ], ids=["missing", "directory-range", "directory-correlate", "directory-simulate",
            "non-utf8-correlate", "non-utf8-convert", "non-utf8-range",
            "non-utf8-snr", "non-utf8-config"])
    def test_missing_file_is_user_error(self, tmp_path, argv, capsys):
        # a text tag file, histogram CSV or config whose bytes are not UTF-8
        (tmp_path / "latin1.txt").write_bytes(b"# resolution_ps=1\n0,0\n\xff,1\n")
        argv = [arg.format(dir=tmp_path) for arg in argv]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert next(arg for arg in argv if arg.startswith("/")) in err

    @pytest.mark.parametrize("assignment, key", [
        ("scenario.detectors=5", "detectors"),
        ("scenario.source_rate_hz=[1]", "source_rate_hz"),
        ("scenario.field_step_ps=null", "field_step_ps"),
        ("scenario.intensity_cap=12", "unknown scenario keys: ['intensity_cap']"),
        ("scenario.linewidth_hz=43e6", "unknown scenario keys: ['linewidth_hz']"),
        # finite values past the 64-bit tick range
        ("scenario.distance_m=2e15", "distance_m"),
        ("scenario.detectors.1.dead_time_ps=1e30", "dead_time_s"),
        ("scenario.detectors.0.jitter_fwhm_ps=1e30", "jitter_fwhm_s"),
        # rates the sampler cannot draw
        ("scenario.ambient_rate_probe_hz=1e30", "ambient_rate_probe_hz"),
        ("scenario.detectors.0.dark_rate_hz=1e30", "dark_rate_hz"),
        ("scenario.source_rate_hz=1e30", "photon_rate_hz"),
        pytest.param(f"scenario.seed={'1' * 5000}", "'seed'", id="seed-5000-digits"),
        pytest.param(f"scenario.distance_m={'x' * 5000}", "'distance_m'", id="long-string"),
        pytest.param(f"scenario.distance_m={'1' * 400}", "'distance_m'", id="float-overflow"),
        # a removed path key set from the command line
        pytest.param("output.tags_path=[1]", "unknown output keys: ['tags_path']",
                     id="output.tags_path=[1]-tags_path"),
    ])
    def test_bad_config_value_is_user_error(self, tmp_path, assignment, key, capsys):
        code = cli.main(["simulate", "--preset", "short-range", "--set", assignment,
                         "--out", str(tmp_path / "x.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert key in err
        assert len(err) < 200  # a long value is cut, not echoed whole
        assert "Traceback" not in err
        assert not (tmp_path / "x.bin").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--set", "scenario.seed=1.5"], "seed"),
        (["--set", "scenario.seed=true"], "seed"),
        (["--set", "output.resolution_ps=true"], "resolution_ps"),
        (["--seed", "-1"], "seed must be non-negative"),
    ])
    def test_bad_integer_is_user_error(self, tmp_path, mini_config, argv, message, capsys):
        code = cli.main(["simulate", "--config", mini_config, *argv,
                         "--out", str(tmp_path / "x.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.bin").exists()

    @pytest.mark.parametrize("flags, message", [
        ([], "no correlation section"),
        (["--bin-width-ps", "10"], "missing required key 'window_ps'"),
        (["--window-ps=-10:10"], "missing required key 'bin_width_ps'"),
    ])
    def test_correlate_missing_setting_names_key(self, tmp_path, flags, message, capsys):
        code = cli.main(["correlate", "--in", str(tmp_path / "t.bin"), *flags,
                         "--out", str(tmp_path / "h.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("value", ["0.5", "nan"])
    def test_refractive_index_below_one_is_user_error(self, tmp_path, value, capsys):
        code = cli.main(["range", "--in", str(tmp_path / "h.csv"), "--refractive-index", value])
        assert code == 1
        err = capsys.readouterr().err
        assert f"refractive index must be >= 1, got {value}" in err and "Traceback" not in err

    def test_window_beyond_tick_range_is_user_error(self, tmp_path, capsys):
        tags = tmp_path / "t.txt"
        tags.write_text("# resolution_ps=1\n# channels=2\n0,0\n1,1\n")
        code = cli.main(["correlate", "--in", str(tags), "--bin-width-ps", "10000000000000",
                         "--window-ps=-100000000000000000000:0", "--out", str(tmp_path / "h.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "64-bit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--distance-m", "2e15"), ("--duration-s", "1e8"), ("--duration-s", "inf"),
        ("--duration-s", "1e300"), ("--distance-m", "inf"), ("--duration-s", "nan"),
    ])
    def test_tick_overflow_is_user_error(self, tmp_path, mini_config, flag, value, capsys):
        code = cli.main(["simulate", "--config", mini_config, flag, value,
                         "--out", str(tmp_path / "x.bin")])
        assert code == 1
        err = capsys.readouterr().err
        assert "64-bit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize("key, field", [
        ("scenario.coherence_time_ns", "coherence_time_s"),
        ("scenario.source_rate_hz", "photon_rate_hz"),
        ("scenario.distance_m", "distance_m"),
        ("scenario.ambient_rate_probe_hz", "ambient_rate_probe_hz"),
        ("scenario.detectors.1.jitter_fwhm_ps", "jitter_fwhm_s"),
        ("scenario.detectors.1.dead_time_ps", "dead_time_s"),
        ("scenario.detectors.1.dark_rate_hz", "dark_rate_hz"),
    ])
    def test_non_finite_scenario_value_is_user_error(self, tmp_path, key, field, value, capsys):
        tags = tmp_path / "x.bin"
        code = cli.main(["simulate", "--preset", "short-range", "--duration-s", "0.001",
                         "--set", f"{key}={value}", "--out", str(tags)])
        assert code == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not tags.exists()

    def test_text_tick_overflow_is_user_error(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_text("# resolution_ps=1\n0,0\n9223372036854775808,0\n")
        assert cli.main(["convert", "--in", str(text), "--out", str(tmp_path / "t.bin"),
                         "--to", "binary"]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err
        assert "Traceback" not in err

    def test_bad_window_format(self, tmp_path, mini_config, capsys):
        assert cli.main(["correlate", "--in", "x", "--bin-width-ps", "10",
                         "--window-ps", "10", "--out", "y"]) == 1
        capsys.readouterr()

    def test_internal_value_error_exits_two(self, monkeypatch, capsys):
        def broken(record):
            raise ValueError("an internal fault")

        monkeypatch.setattr(estimator, "format_record", broken)
        code = cli.main(["snr", "--rate-hz", "1e6", "--v2", "0.5", "--tauc-ns", "1",
                         "--dt-ms", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" in err and "an internal fault" in err

    def test_cli_user_error_is_the_root(self):
        assert cli.UserError is quantities.UserError


def _exception_classes():
    """Every exception class defined in a bunchlidar module."""
    modules = [importlib.import_module(f"bunchlidar.{info.name}")
               for info in pkgutil.iter_modules(bunchlidar.__path__)]
    return sorted(
        {obj for module in modules for obj in vars(module).values()
         if isinstance(obj, type) and issubclass(obj, Exception)
         and obj.__module__ == module.__name__},
        key=lambda cls: cls.__qualname__,
    )


@pytest.mark.parametrize("cls", _exception_classes(), ids=lambda cls: cls.__qualname__)
def test_every_exception_derives_from_user_error(cls):
    assert issubclass(cls, quantities.UserError)
    # and keeps its builtin base, so callers that catch that still do
    assert cls is quantities.UserError or issubclass(cls, (ValueError, OverflowError, RuntimeError))


class TestDependencies:
    @staticmethod
    def _run(code):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_cli_import_pulls_in_no_scipy(self):
        self._run("import bunchlidar.cli, sys; assert not any("
                  "m == 'scipy' or m.startswith('scipy.') for m in sys.modules)")

    def test_package_root_is_one_path_per_name(self):
        # each public name is imported from its module; the root re-exports nothing
        self._run("import bunchlidar, sys\n"
                  "loaded = [m for m in sys.modules if m.startswith('bunchlidar.')]\n"
                  "assert not loaded, loaded\n"
                  "public = [n for n in vars(bunchlidar) if not n.startswith('_')]\n"
                  "assert not public, public\n"
                  "assert bunchlidar.__version__")
