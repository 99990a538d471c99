import json
from pathlib import Path

import pytest

from vsensor import cli
from vsensor.cli import main
from vsensor.datasheet import canonical_json, datasheet_for_device
from vsensor.scenario import ScenarioError, run_scenario
from vsensor.sensors import text_reader, voice_sensor_pin

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(*argv):
    return main([str(a) for a in argv])


class TestSimulate:
    def test_writes_three_csv_files(self, tmp_path, capsys):
        code = run("simulate", FIXTURES / "person_scenario.json", "--out", tmp_path)
        assert code == 0
        for name in ("trace.csv", "i2c.csv", "exposure.csv"):
            assert (tmp_path / name).exists()

    def test_golden_determinism(self, tmp_path):
        run("simulate", FIXTURES / "person_scenario.json",
            "--out", tmp_path / "a", "--quiet")
        run("simulate", FIXTURES / "person_scenario.json",
            "--out", tmp_path / "b", "--quiet")
        for name in ("trace.csv", "i2c.csv", "exposure.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_json_format(self, tmp_path):
        code = run("simulate", FIXTURES / "person_scenario.json",
                   "--out", tmp_path, "--format", "json", "--quiet")
        assert code == 0
        doc = json.loads((tmp_path / "run.json").read_text())
        assert "traces" in doc and "p1.DETECT" in doc["traces"]

    def test_unknown_device_kind_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(canonical_json({
            "duration_ms": 100,
            "devices": [{"id": "x", "kind": "THERMOMETER"}],
        }))
        assert run("simulate", bad) == 2
        assert "unknown device kind" in capsys.readouterr().err

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        code = run("simulate", FIXTURES / "person_scenario.json",
                   "--out", tmp_path / "file" / "run", "--quiet")
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write ")

    def test_missing_file_exit_2(self):
        assert run("simulate", "/nonexistent/scenario.json") == 2

    def test_seed_override_changes_output(self, tmp_path):
        run("simulate", FIXTURES / "person_scenario.json",
            "--out", tmp_path / "a", "--seed", "1", "--quiet")
        run("simulate", FIXTURES / "person_scenario.json",
            "--out", tmp_path / "b", "--seed", "2", "--quiet")
        # same structure; stimulus noise differs, files need not be equal
        assert (tmp_path / "a" / "trace.csv").exists()
        assert (tmp_path / "b" / "trace.csv").exists()

    def test_serial_reads_in_i2c_log(self, tmp_path):
        code = run("simulate", FIXTURES / "text_reader_scenario.json",
                   "--out", tmp_path, "--quiet")
        assert code == 0
        assert "0001234c50000000" in (tmp_path / "i2c.csv").read_text()


def _one_device(kind, config=None, stimuli=(), **doc):
    device = {"id": "d", "kind": kind, "stimuli": list(stimuli)}
    if config is not None:
        device["config"] = config
    return {"duration_ms": 200, "devices": [device], **doc}


def _grid(**extra):
    return {"sensor_kind": "PERSON", "distance_levels_m": [1.0], "lux_levels": [800],
            "trials_per_cell": 10, **extra}


def _unread(kind, **stimulus):
    """One device fed ``stimulus`` after its 200 ms run ends, so that no step
    reads it: a fault in it is found only if it is checked when fed."""
    return _one_device(kind, stimuli=[{**stimulus, "at": 1000}])


SCENE = {"modality": "scene", "params": {"person_present": True, "distance_m": 50}}
GATED = {"combinator": "gated_event", "line_id": "g", "event": "d.TAP", "gate": "d.TAP"}

MALFORMED = [
    ("scene_distance", "simulate", _one_device("PERSON", stimuli=[SCENE]),
     "devices[0].stimuli[0]: ValueError: distance_m"),
    ("display_no_reading", "simulate",
     _one_device("TEXT_READER", stimuli=[{"modality": "display"}]), "'reading'"),
    ("gaze_voice_unknown_device", "simulate",
     _one_device("GAZE", composites=[{"combinator": "gaze_voice", "line_id": "L",
                                      "gaze": "d", "voice": "nope"}]),
     "composites[0]: KeyError: 'nope'"),
    ("read_no_address", "simulate", _one_device("TAP", serial_reads=[{"at": 50}]),
     "serial_reads[0]: needs integers at"),
    ("read_at_bool", "simulate",
     _one_device("TEXT_READER", serial_reads=[{"at": True, "address": 0x29}]),
     "serial_reads[0]: at must be an integer, not True"),
    ("read_negative_n", "simulate",
     _one_device("TEXT_READER", serial_reads=[{"at": 50, "address": 0x29, "n": -1}]),
     "serial_reads[0]: needs integers at"),
    ("read_address_out_of_range", "simulate",
     _one_device("TEXT_READER", serial_reads=[{"at": 50, "address": 5}]),
     "serial_reads[0]: address 0x05 outside [0x08, 0x77]"),
    ("stimulus_integers_bool", "simulate",
     _one_device("PERSON", stimuli=[{"modality": "scene", "at": True, "count": True,
                                     "every_ms": True}]),
     "devices[0].stimuli[0]: at must be an integer, not True"),
    ("stimulus_duration_bool", "simulate",
     _one_device("TAP", stimuli=[{"modality": "imu", "duration_ms": False}]),
     "devices[0].stimuli[0]: duration_ms must be an integer, not False"),
    ("stimulus_count_negative", "simulate",
     _one_device("PERSON", stimuli=[{"modality": "scene", "count": -3}]),
     "devices[0].stimuli[0]: scene: needs integers count >= 1"),
    ("stimulus_at_negative", "simulate",
     _one_device("PERSON", stimuli=[{"modality": "scene", "at": -50}]),
     "devices[0].stimuli[0]: scene: needs integers at >= 0"),
    ("stimulus_every_ms_negative", "simulate",
     _one_device("PERSON", stimuli=[{"modality": "scene", "count": 2, "every_ms": -100}]),
     "devices[0].stimuli[0]: scene: needs integers every_ms >= 1"),
    ("stimulus_at_fractional", "simulate",
     _one_device("TAP", stimuli=[{"modality": "imu", "at": 2.5}]),
     "devices[0].stimuli[0]: at must be an integer, not 2.5"),
    ("stimulus_seed_bool", "simulate",
     _one_device("PERSON", stimuli=[{"modality": "scene", "seed": True}]),
     "devices[0].stimuli[0]: seed must be an integer, not True"),
    ("stimulus_seed_string", "simulate",
     _one_device("PERSON", stimuli=[{"modality": "scene", "seed": "7"}]),
     "devices[0].stimuli[0]: seed must be an integer, not '7'"),
    ("stimulus_unknown_modality", "simulate",
     _one_device("TAP", stimuli=[{"modality": "smell"}]),
     "devices[0].stimuli[0]: unknown stimulus modality 'smell'"),
    ("config_not_object", "simulate", _one_device("TAP", 5),
     "devices[0]: config must be an object"),
    ("device_id_duplicate", "simulate",
     {"duration_ms": 200, "devices": [{"id": "d", "kind": "TAP"}, {"id": "d", "kind": "TAP"}]},
     "devices[1]: missing or duplicate device id 'd'"),
    ("composite_unknown_combinator", "simulate",
     _one_device("TAP", composites=[{"combinator": "xor", "line_id": "L"}]),
     "composites[0]: unknown combinator 'xor'"),
    ("scenario_seed_string", "simulate", {"duration_ms": 200, "seed": "abc", "devices": []},
     "error: seed must be an integer, not 'abc'"),
    ("duration_bool", "simulate", {"duration_ms": True, "devices": []},
     "error: duration_ms must be an integer, not True"),
    ("duration_zero", "simulate", {"duration_ms": 0, "devices": []},
     "error: duration_ms must be an integer >= 1"),
    ("composite_hold_bool", "simulate",
     _one_device("TAP", composites=[{"combinator": "debounce", "line_id": "L",
                                     "line": "d.TAP", "hold_ms": True}]),
     "composites[0]: hold_ms must be an integer, not True"),
    ("devices_not_a_list", "simulate", {"duration_ms": 200, "devices": 5}, "devices"),
    ("device_not_an_object", "simulate", {"duration_ms": 200, "devices": [5]},
     "devices[0]: device must be an object, not 5"),
    ("stimuli_not_objects", "simulate", _one_device("TAP", stimuli=[5]),
     "devices[0]: stimuli must be a list of objects"),
    ("threshold_string", "simulate", _one_device("PERSON", {"threshold": "high"}),
     "devices[0]: config.threshold must be a number, not 'high'"),
    ("threshold_overflow", "simulate", _one_device("PERSON", {"threshold": 1e40}),
     "devices[0]: bad value: float too large"),
    ("figure_unknown", "simulate", _one_device("PERSON", {"figure": "cat"}), "'cat'"),
    ("empty_vocabulary", "simulate", _one_device("VOICE_SERIAL", {"vocabulary": []}),
     "vocabulary"),
    ("rise_frames_zero", "simulate", _one_device("GAZE", {"policy": {"rise_frames": 0}}),
     "policy values must be >= 1"),
    ("pulse_ms_zero", "simulate", _one_device("TAP", {"pulse_ms": 0}), "pulse_ms"),
    ("empty_params_file", "simulate",
     {"duration_ms": 200, "devices": [{"id": "d", "kind": "TAP", "params": "empty.mlsp"}]},
     "BAD_CRC"),
    ("config_key_typo", "simulate", _one_device("TAP", {"evry_ms": 100}), "'evry_ms'"),
    ("scenario_key_typo", "simulate",
     _one_device("TAP", composite=[{**GATED}]), "error: unknown scenario key(s) ['composite']"),
    ("device_key_typo", "simulate",
     {"duration_ms": 200, "devices": [{"id": "d", "kind": "TAP", "confg": {}}]},
     "devices[0]: unknown device key(s) ['confg']"),
    ("params_not_a_path", "simulate",
     {"duration_ms": 200, "devices": [{"id": "d", "kind": "TAP", "params": 5}]},
     "devices[0]: params must be a string, not 5"),
    ("params_builtin_is_a_path", "simulate",
     {"duration_ms": 200, "devices": [{"id": "d", "kind": "TAP", "params": "builtin"}]},
     "No such file or directory: 'builtin'"),
    ("read_key_typo", "simulate",
     _one_device("TEXT_READER", serial_reads=[{"at": 50, "address": 0x29, "N": 4}]),
     "serial_reads[0]: unknown key(s) ['N']"),
    ("policy_key_typo", "simulate", _one_device("PERSON", {"policy": {"rise": 3}}),
     "unknown config.policy key(s) ['rise']"),
    ("composite_key_typo", "simulate",
     _one_device("TAP", composites=[{**GATED, "windw_ms": 5}]), "'windw_ms'"),
    ("composite_missing_event", "simulate",
     _one_device("TAP", composites=[{k: v for k, v in GATED.items() if k != "event"}]),
     "composites[0]: gated_event: missing key(s) ['event']"),
    ("composite_event_null", "simulate",
     _one_device("TAP", composites=[{**GATED, "event": None}]),
     "composites[0]: event must be a string, not None"),
    ("composite_negative_window", "simulate",
     _one_device("TAP", composites=[{**GATED, "window_ms": -1}]), "window_ms"),
    # each composite is checked as it registers, not when the run is written
    ("composite_line_id_not_a_string", "simulate",
     _one_device("TAP", composites=[GATED, {**GATED, "line_id": 5}]),
     "composites[1]: line_id must be a string, not 5"),
    ("composite_cycle", "simulate",
     _one_device("TAP", composites=[{"combinator": "invert", "line_id": "a", "line": "b"},
                                    {"combinator": "invert", "line_id": "b", "line": "a"}]),
     "composites[0]: invert: ['b'] is no device line or earlier composite"),
    ("composite_input_unknown", "simulate",
     _one_device("TAP", composites=[{**GATED, "gate": "nope"}]),
     "composites[0]: gated_event: ['nope'] is no device line or earlier composite"),
    # each value must have its default's JSON type
    ("pulse_ms_fractional", "simulate", _one_device("TAP", {"pulse_ms": 150.5}),
     "devices[0]: config.pulse_ms must be an integer, not 150.5"),
    ("frame_period_fractional", "simulate",
     _one_device("PERSON", {"policy": {"frame_period_ms": 100.5}}),
     "devices[0]: config.policy.frame_period_ms must be an integer, not 100.5"),
    ("rise_frames_bool", "simulate", _one_device("GAZE", {"policy": {"rise_frames": True}}),
     "devices[0]: config.policy.rise_frames must be an integer, not True"),
    ("person_present_integer", "simulate",
     _one_device("PERSON", stimuli=[{"modality": "scene", "params": {"person_present": 1}}]),
     "devices[0].stimuli[0]: params.person_present must be a boolean, not 1"),
    ("text_reader_address_float", "simulate", _one_device("TEXT_READER", {"address": 41.0}),
     "devices[0]: config.address must be an integer, not 41.0"),
    ("imu_tap_bool", "simulate", _unread("TAP", modality="imu", taps=[True]),
     "devices[0].stimuli[0]: ValueError: tap_times must be integers, not [True]"),
    ("audio_duration_bool", "simulate", _unread("VOICE_PIN", modality="audio", duration_ms=True),
     "devices[0].stimuli[0]: ValueError: duration_ms must be an integer >= 0, not True"),
    # an integer id 5 and a string id "5" would both drive the line 5.TAP
    ("device_id_not_a_string", "simulate",
     {"duration_ms": 200, "devices": [{"id": 5, "kind": "TAP"}, {"id": "5", "kind": "TAP"}]},
     "devices[0]: id must be a string, not 5"),
    ("wiring_line_not_a_string", "simulate",
     {"duration_ms": 200, "devices": [
         {"id": "a", "kind": "TAP", "wiring": {"VDD": "vdd", "GND": "gnd", "TAP": 5}},
         {"id": "b", "kind": "TAP"}]},
     "devices[0]: wiring.TAP must be a string, not 5"),
    ("wiring_pin_left_out", "simulate",
     {"duration_ms": 200, "devices": [{"id": "a", "kind": "TAP", "wiring": {"TAP": "t"}}]},
     "devices[0]: MISSING_PIN: wiring missing pins ['VDD', 'GND']"),
    # no document may repeat a key, as a datasheet may not
    ("simulate_duplicate_key", "simulate", b'{"seed": 1, "seed": 2, "duration_ms": 200}',
     "error: doc.json: duplicate key 'seed'"),
    ("conformance_duplicate_key", "conformance",
     b'{"sensor_kind": "PERSON", "seed": 1, "seed": 2}', "error: doc.json: duplicate key 'seed'"),
    ("audit_duplicate_key", "audit exposure.csv",
     b'{"comm_spec_pinout": {"pins": [], "pins": []}}', "error: doc.json: duplicate key 'pins'"),
    ("protocol_distance", "conformance", _grid(distance_levels_m=[1.0, 20.0]),
     "distance_m must be in [0.25, 10]"),
    ("protocol_extra_key", "conformance", _grid(extra=1), "'extra'"),
    ("protocol_budget_string", "conformance", _grid(latency_budget_ms="1000"),
     "latency_budget_ms must be an integer, not '1000'"),
    ("protocol_trials_fractional", "conformance", _grid(trials_per_cell=10.5),
     "trials_per_cell must be an integer, not 10.5"),
    ("protocol_seed_string", "conformance", _grid(seed="abc"),
     "seed must be an integer, not 'abc'"),
    ("protocol_seed_bool", "conformance", _grid(seed=True),
     "seed must be an integer, not True"),
    ("protocol_no_positive_trials", "conformance", _grid(positive_fraction=0.01),
     "leaves no positive or no negative trials"),
    ("protocol_no_negative_trials", "conformance", _grid(positive_fraction=0.99),
     "leaves no positive or no negative trials"),
    ("protocol_negative_window_zero", "conformance", _grid(negative_window_ms=0),
     "negative_window_ms must be > 0"),
    ("protocol_budget_negative", "conformance", _grid(latency_budget_ms=-5),
     "latency_budget_ms must be > 0"),
    ("gaze_voice_over_tap", "simulate",
     {"duration_ms": 200,
      "devices": [{"id": "t", "kind": "TAP"}, {"id": "v", "kind": "VOICE_PIN"}],
      "composites": [{"combinator": "gaze_voice", "line_id": "L", "gaze": "t", "voice": "v"}]},
     "composites[0]: gaze_voice: gaze must be PERSON/GAZE, voice VOICE_PIN"),
    ("gaze_voice_serial_voice", "simulate",
     {"duration_ms": 200,
      "devices": [{"id": "g", "kind": "GAZE"}, {"id": "v", "kind": "VOICE_SERIAL"}],
      "composites": [{"combinator": "gaze_voice", "line_id": "L", "gaze": "g", "voice": "v"}]},
     "composites[0]: gaze_voice: gaze must be PERSON/GAZE, voice VOICE_PIN"),
    ("simulate_invalid_json", "simulate", b'{"duration_ms": 200,',
     "doc.json: invalid JSON at line 1"),
    ("crosscheck_unknown_device",
     "datasheet crosscheck person.mlsd.json --device nope --device-from",
     _one_device("PERSON"), "no device 'nope' in scenario"),
    ("crosscheck_no_devices", "datasheet crosscheck person.mlsd.json --device-from",
     {"seed": 1, "duration_ms": 100}, "scenario has no devices"),
    ("audit_no_pinout", "audit exposure.csv", {"identity": {}},
     "datasheet has no comm_spec_pinout section"),
    ("audit_malformed_pinout", "audit exposure.csv",
     {"comm_spec_pinout": {"pins": [{"name": "VDD", "role": "antenna"}]}},
     "malformed comm_spec_pinout: 'antenna' is not a valid PinRole"),
    # exposure.csv holds a PIN and a SERIAL record, so each field below is read
    ("audit_serial_address_string", "audit exposure.csv",
     {"comm_spec_pinout": {"pins": [], "serial": {
         "address": "0x29", "register_map_len": 8, "packet_spec_id": "bcd-reading-v1"}}},
     "malformed comm_spec_pinout: serial address and register_map_len must be integers"),
    ("audit_register_map_len_string", "audit exposure.csv",
     {"comm_spec_pinout": {"pins": [], "serial": {
         "address": 41, "register_map_len": "8", "packet_spec_id": "bcd-reading-v1"}}},
     "malformed comm_spec_pinout: serial address and register_map_len must be integers"),
    ("audit_pin_name_not_a_string", "audit exposure.csv",
     {"comm_spec_pinout": {"pins": [{"name": 5, "role": "signal_out"}], "serial": None}},
     "malformed comm_spec_pinout: malformed pin entry {'name': 5, 'role': 'signal_out'}"),
    ("simulate_seed_on_list", "simulate --seed 3", [1], "top level must be a JSON object"),
    ("conformance_seed_on_list", "conformance --seed 3", [1],
     "top level must be a JSON object"),
    ("stimulus_key_typo", "simulate",
     _one_device("PERSON", stimuli=[{"modality": "scene", "evry_ms": 50}]),
     "devices[0].stimuli[0]: unknown scene key(s) ['evry_ms']"),
    ("stimulus_params_key_typo", "simulate",
     _one_device("PERSON", stimuli=[{"modality": "scene", "params": {"distnce_m": 2.0}}]),
     "devices[0].stimuli[0]: unknown params key(s) ['distnce_m']"),
    ("stimulus_layout_key_typo", "simulate",
     _one_device("TEXT_READER", stimuli=[{"modality": "display", "reading": "1.5",
                                          "layout": {"rotaton": 90}}]),
     "devices[0].stimuli[0]: unknown layout key(s) ['rotaton']"),
    ("stimulus_layout_digit_limit", "simulate",
     _one_device("TEXT_READER", stimuli=[{"modality": "display", "reading": "1.5",
                                          "layout": {"max_whole_digits": 0}}]),
     "devices[0].stimuli[0]: unknown layout key(s) ['max_whole_digits']"),
    ("display_too_many_digits", "simulate",
     _one_device("TEXT_READER", stimuli=[{"modality": "display", "reading": "12345678"}]),
     "devices[0].stimuli[0]: LayoutOverflow: 8 whole digits > 7"),
    ("display_off_frame", "simulate",
     _one_device("TEXT_READER", stimuli=[{"modality": "display", "reading": "1.5",
                                          "layout": {"frame_width": 10}}]),
     "devices[0].stimuli[0]: LayoutOverflow: rendered display exceeds frame bounds"),
    # every stimulus is synthesized only when read, so each synthesis error is
    # found by the check its deferred stimulus runs when fed
    ("audio_duration_negative", "simulate",
     _unread("VOICE_PIN", modality="audio", duration_ms=-100),
     "devices[0].stimuli[0]: ValueError: duration_ms must be an integer >= 0, not -100"),
    ("audio_duration_fractional", "simulate",
     _unread("VOICE_PIN", modality="audio", duration_ms=500.5),
     "devices[0].stimuli[0]: ValueError: duration_ms must be an integer >= 0, not 500.5"),
    ("audio_word_unknown", "simulate", _unread("VOICE_PIN", modality="audio", script=[["xyz", 0]]),
     "devices[0].stimuli[0]: ValueError: script word 'xyz' not in vocabulary or distractors"),
    ("audio_script_time_string", "simulate",
     _unread("VOICE_PIN", modality="audio", script=[["on", "100"]]),
     "devices[0].stimuli[0]: ValueError: script time '100' must be an integer >= 0"),
    ("audio_script_time_fractional", "simulate",
     _unread("VOICE_PIN", modality="audio", script=[["on", 100.5]], duration_ms=1000),
     "devices[0].stimuli[0]: ValueError: script time 100.5 must be an integer >= 0"),
    ("audio_script_time_negative", "simulate",
     _unread("VOICE_PIN", modality="audio", script=[["on", -100]], duration_ms=1000),
     "devices[0].stimuli[0]: ValueError: script time -100 must be an integer >= 0"),
    ("audio_noise_negative", "simulate", _unread("VOICE_PIN", modality="audio", noise_sigma=-1),
     "devices[0].stimuli[0]: ValueError: noise_sigma must be >= 0"),
    ("audio_seed_negative", "simulate", _unread("VOICE_PIN", modality="audio", seed=-1),
     "devices[0].stimuli[0]: ValueError: seed must be an integer >= 0, not -1"),
    ("imu_tap_outside_window", "simulate", _unread("TAP", modality="imu", taps=[1000]),
     "devices[0].stimuli[0]: ValueError: tap_times must lie within the window"),
    ("imu_tap_fractional", "simulate", _unread("TAP", modality="imu", taps=[100.5]),
     "devices[0].stimuli[0]: ValueError: tap_times must be integers, not [100.5]"),
    ("imu_duration_zero", "simulate", _unread("TAP", modality="imu", duration_ms=0),
     "devices[0].stimuli[0]: ValueError: duration_ms must be an integer >= 10, not 0"),
    ("imu_noise_negative", "simulate", _unread("TAP", modality="imu", noise_sigma=-1),
     "devices[0].stimuli[0]: ValueError: noise_sigma must be >= 0"),
    ("imu_seed_negative", "simulate", _unread("TAP", modality="imu", seed=-1),
     "devices[0].stimuli[0]: ValueError: seed must be an integer >= 0, not -1"),
    ("scene_noise_negative", "simulate",
     _unread("PERSON", modality="scene", params={"noise_sigma": -1}),
     "devices[0].stimuli[0]: ValueError: noise_sigma must be >= 0"),
    ("display_frame_15px", "simulate",
     _unread("TEXT_READER", modality="display", reading="1",
             layout={"x": 0, "y": 0, "frame_width": 15, "frame_height": 15}),
     "devices[0].stimuli[0]: ValueError: frame dimensions must be >= 16"),
    ("display_x_negative", "simulate",
     _unread("TEXT_READER", modality="display", reading="1.5", layout={"x": -50}),
     "devices[0].stimuli[0]: ValueError: x and y must be >= 0"),
    ("display_y_negative", "simulate",
     _unread("TEXT_READER", modality="display", reading="1.5", layout={"y": -5}),
     "devices[0].stimuli[0]: ValueError: x and y must be >= 0"),
    ("display_x_fractional", "simulate",
     _unread("TEXT_READER", modality="display", reading="1.5", layout={"x": 8.5}),
     "devices[0].stimuli[0]: layout.x must be an integer, not 8.5"),
    ("display_lux_string", "simulate",
     _unread("TEXT_READER", modality="display", reading="1.5",
             params={"illuminance_lux": "bright"}),
     "devices[0].stimuli[0]: params.illuminance_lux must be a number, not 'bright'"),
    ("display_noise_negative", "simulate",
     _unread("TEXT_READER", modality="display", reading="1.5", params={"noise_sigma": -1}),
     "devices[0].stimuli[0]: ValueError: noise_sigma must be >= 0"),
    ("display_digit_without_segments", "simulate",
     _unread("TEXT_READER", modality="display", reading="\u00b2.5"),
     "devices[0].stimuli[0]: ValueError: whole_digits must be a non-empty decimal string"),
    # bytes are written as they are; every other doc as canonical JSON
    ("simulate_not_utf8", "simulate", b"\xff\xfe{\x00}\x00", "cannot read doc.json: 'utf-8'"),
    ("conformance_not_utf8", "conformance", b"\xff\xfe{\x00}\x00",
     "cannot read doc.json: 'utf-8'"),
    ("datasheet_binary", "datasheet validate", b"\x89PNG\r\n\x1a\n\x00\x00\xff",
     "cannot read doc.json: 'utf-8'"),
    ("audit_datasheet_not_utf8", "audit exposure.csv", b"{\"a\": \"\xe9\"}",
     "cannot read doc.json: 'utf-8'"),
    ("crosscheck_device_from_not_utf8", "datasheet crosscheck person.mlsd.json --device-from",
     b"\xff\xfe{\x00}\x00", "cannot read doc.json: 'utf-8'"),
]


@pytest.mark.parametrize("command,doc,expected", [m[1:] for m in MALFORMED],
                         ids=[m[0] for m in MALFORMED])
def test_malformed_input_exit_2(command, doc, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty.mlsp").write_bytes(b"")
    (tmp_path / "exposure.csv").write_text(
        "time_ms,channel,detail,bits\n5,PIN,p1.DETECT,1\n9,SERIAL,0x29,64\n")
    (tmp_path / "person.mlsd.json").write_bytes((FIXTURES / "person.mlsd.json").read_bytes())
    (tmp_path / "doc.json").write_bytes(
        doc if isinstance(doc, bytes) else canonical_json(doc).encode())
    assert run(*command.split(), "doc.json", "--quiet") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert expected in err


def test_run_scenario_rejects_a_non_object():
    # the CLI rejects a non-object document before run_scenario sees it
    with pytest.raises(ScenarioError, match="a scenario must be an object"):
        run_scenario([1])


class TestDatasheetCommands:
    def test_validate_good_fixture(self, capsys):
        assert run("datasheet", "validate", FIXTURES / "person.mlsd.json") == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_missing_nutrition(self, capsys):
        code = run("datasheet", "validate", FIXTURES / "missing_nutrition.mlsd.json")
        assert code == 1
        out = capsys.readouterr().out
        assert out.count("MISSING_SECTION") == 1 and "dataset_nutrition" in out

    def test_validate_wifi(self, capsys):
        assert run("datasheet", "validate", FIXTURES / "network_wifi.mlsd.json") == 1
        assert "FORBIDDEN_VALUE" in capsys.readouterr().out

    def test_render_human(self, capsys):
        assert run("datasheet", "render", FIXTURES / "person.mlsd.json") == 0
        out = capsys.readouterr().out
        assert out.count("\n## ") == 10

    def test_render_machine_to_file(self, tmp_path):
        out = tmp_path / "ds.json"
        code = run("datasheet", "render", FIXTURES / "person.mlsd.json",
                   "--mode", "machine", "--out", out, "--quiet")
        assert code == 0
        assert out.read_text() == (FIXTURES / "person.mlsd.json").read_text()

    def test_crosscheck_clean(self, capsys):
        code = run("datasheet", "crosscheck", FIXTURES / "person.mlsd.json",
                   "--device-from", FIXTURES / "person_scenario.json")
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_crosscheck_pinout_mismatch(self, capsys):
        code = run("datasheet", "crosscheck", FIXTURES / "pinout_mismatch.mlsd.json",
                   "--device-from", FIXTURES / "person_scenario.json")
        assert code == 1
        assert "PINOUT_MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize("text,expected", [
        ('{\n  "a": 1,\n}\n', "(line 3, col 1)"),
        ('{"a": 1, "a": 2}', "parse error: duplicate key 'a'\n"),
    ], ids=["json_syntax", "duplicate_key"])
    def test_parse_error_exit_1(self, text, expected, tmp_path, capsys):
        bad = tmp_path / "bad.mlsd.json"
        bad.write_text(text)
        assert run("datasheet", "validate", bad) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and expected in err

    @pytest.mark.parametrize("device", ["gaze", "voice"])
    def test_crosscheck_each_device_of_a_scenario(self, device, tmp_path, capsys):
        # each device is checked on its own records only: the other
        # device's line is no finding of its sheet
        sheet = FIXTURES / "gaze.mlsd.json"
        if device == "voice":
            sheet = tmp_path / "voice.mlsd.json"
            sheet.write_text(canonical_json(datasheet_for_device(voice_sensor_pin())))
        code = run("datasheet", "crosscheck", sheet, "--device", device,
                   "--device-from", FIXTURES / "gaze_voice_scenario.json")
        assert (code, capsys.readouterr().out) == (0, "clean\n")

    def test_crosscheck_invalid_datasheet_exit_1(self, capsys):
        code = run("datasheet", "crosscheck", FIXTURES / "missing_nutrition.mlsd.json",
                   "--device-from", FIXTURES / "person_scenario.json")
        assert code == 1
        assert "INVALID_DATASHEET" in capsys.readouterr().err

    def test_crosscheck_requires_scenario(self, capsys):
        code = run("datasheet", "crosscheck", FIXTURES / "person.mlsd.json")
        assert code == 2


class TestAudit:
    def test_clean_log_passes(self, tmp_path, capsys):
        run("simulate", FIXTURES / "person_scenario.json", "--out", tmp_path, "--quiet")
        code = run("audit", tmp_path / "exposure.csv", FIXTURES / "person.mlsd.json")
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_tampered_log_fails(self, tmp_path, capsys):
        run("simulate", FIXTURES / "person_scenario.json", "--out", tmp_path, "--quiet")
        log = tmp_path / "exposure.csv"
        log.write_text(log.read_text() + "2500,SERIAL,0x55,96\n")
        code = run("audit", log, FIXTURES / "person.mlsd.json")
        assert code == 1
        assert "UNDECLARED_CHANNEL" in capsys.readouterr().out

    def test_serial_device_datasheet(self, tmp_path, capsys):
        run("simulate", FIXTURES / "text_reader_scenario.json", "--out", tmp_path, "--quiet")
        log = tmp_path / "exposure.csv"
        assert "SERIAL,0x29,64" in log.read_text()
        sheet = tmp_path / "text_reader.mlsd.json"
        sheet.write_text(canonical_json(datasheet_for_device(text_reader())))
        assert run("audit", log, sheet) == 0
        assert capsys.readouterr().out == "pass\n"
        log.write_text(log.read_text() + "700,SERIAL,0x29,72\n")
        assert run("audit", log, sheet) == 1
        assert "OVERSIZED_PAYLOAD: 9-byte payload" in capsys.readouterr().out

    @pytest.mark.parametrize("device,sheet", [("gaze", "gaze.mlsd.json"),
                                              ("voice", "voice_pin.mlsd.json")])
    def test_each_device_of_a_multi_device_log(self, device, sheet, tmp_path, capsys):
        scenario = FIXTURES / "gaze_voice_scenario.json"
        run("simulate", scenario, "--out", tmp_path, "--quiet")
        log = tmp_path / "exposure.csv"
        # the whole log holds the other device's records too
        assert run("audit", log, FIXTURES / sheet) == 1
        assert capsys.readouterr().out.endswith("fail\n")
        assert run("audit", log, FIXTURES / sheet, "--device-from", scenario,
                   "--device", device) == 0
        assert capsys.readouterr().out == "pass\n"

    def test_device_records_against_another_sheet_fail(self, tmp_path, capsys):
        scenario = FIXTURES / "gaze_voice_scenario.json"
        run("simulate", scenario, "--out", tmp_path, "--quiet")
        code = run("audit", tmp_path / "exposure.csv", FIXTURES / "gaze.mlsd.json",
                   "--device-from", scenario, "--device", "voice")
        out = capsys.readouterr().out
        assert code == 1
        assert out.startswith("UNDECLARED_CHANNEL: pin emission on undeclared line 'voice.STATE'")
        assert "gaze.DETECT" not in out

    @pytest.mark.parametrize("options,expected", [
        (["--device", "gaze"], "--device requires --device-from <scenario>"),
        (["--device-from", FIXTURES / "gaze_voice_scenario.json", "--device", "nope"],
         "no device 'nope' in scenario"),
    ], ids=["device_without_scenario", "unknown_device"])
    def test_device_options_usage_exit_2(self, options, expected, tmp_path, capsys):
        run("simulate", FIXTURES / "gaze_voice_scenario.json", "--out", tmp_path, "--quiet")
        assert run("audit", tmp_path / "exposure.csv", FIXTURES / "gaze.mlsd.json", *options) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"

    def test_bad_header_exit_2(self, tmp_path, capsys):
        log = tmp_path / "exposure.csv"
        log.write_text("t,channel,detail,bits\n5,PIN,p1.DETECT,1\n")
        assert run("audit", log, FIXTURES / "person.mlsd.json") == 2
        assert "cannot read exposure log: bad exposure log header" in capsys.readouterr().err

    @pytest.mark.parametrize("log_row,datasheet,expected", [
        ("5,SERIAL,zz,8", "person.mlsd.json", "SERIAL detail 'zz' is not a hex address"),
        ("5,RADIO,0x29,8", "person.mlsd.json", "unknown channel 'RADIO'"),
        ("5,PIN,p1.DETECT,1", "list.json", "list.json: top level must be a JSON object"),
    ], ids=["serial_not_hex", "unknown_channel", "datasheet_is_list"])
    def test_malformed_input_exit_2(self, log_row, datasheet, expected, tmp_path, capsys):
        (tmp_path / "list.json").write_text("[]")
        log = tmp_path / "exposure.csv"
        log.write_text(f"time_ms,channel,detail,bits\n{log_row}\n")
        path = tmp_path / datasheet if datasheet == "list.json" else FIXTURES / datasheet
        assert run("audit", log, path) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert expected in err


class TestComposeDemo:
    def test_demo_asserts_light(self, tmp_path, capsys):
        code = run("compose-demo", "--out", tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "LIGHT_ON high [" in out
        assert "LIGHT_ON" in (tmp_path / "trace.csv").read_text()

    def test_seed(self, tmp_path, capsys):
        assert run("compose-demo", "--seed", 7, "--out", tmp_path, "--quiet") == 0
        assert capsys.readouterr().out == ""
        assert run("compose-demo", "--seed", 7, "--out", tmp_path / "again") == 0
        out = capsys.readouterr().out
        assert out.endswith("LIGHT_ON high [994, 2199)\n")
        again = (tmp_path / "again" / "trace.csv").read_bytes()
        assert (tmp_path / "trace.csv").read_bytes() == again

    def test_never_asserted(self, tmp_path, capsys, monkeypatch):
        # a voice that hears no command leaves the gated light off
        voice = cli._DEMO_SCENARIO["devices"][1]["stimuli"][0]
        monkeypatch.setitem(voice, "script", [])
        assert run("compose-demo", "--out", tmp_path) == 0
        assert capsys.readouterr().out.endswith("LIGHT_ON never asserted\n")


class TestConformanceCommand:
    def test_tiny_protocol_run(self, tmp_path):
        protocol = tmp_path / "proto.json"
        protocol.write_text(canonical_json({
            "sensor_kind": "PERSON",
            "distance_levels_m": [1.0],
            "lux_levels": [800],
            "trials_per_cell": 10,
            "negative_window_ms": 1000,
            "seed": 3,
        }))
        out = tmp_path / "report.cfr.json"
        assert run("conformance", protocol, "--out", out, "--quiet") == 0
        doc = json.loads(out.read_text())
        assert doc["cells"][0]["tpr"] == 1.0 and doc["cells"][0]["fpr"] == 0.0

    def test_bad_protocol_exit_2(self, tmp_path):
        protocol = tmp_path / "proto.json"
        protocol.write_text(canonical_json({"sensor_kind": "PERSON"}))
        assert run("conformance", protocol) == 2


class TestUsage:
    def test_no_args_exit_2(self, capsys):
        assert run() == 2
        capsys.readouterr()

    def test_unknown_subcommand_exit_2(self, capsys):
        assert run("frobnicate") == 2
        capsys.readouterr()
