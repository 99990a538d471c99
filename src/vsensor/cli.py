"""Command-line surface: simulate, conformance, datasheet, audit,
compose-demo.

Exit codes: 0 success, 1 violations/findings/failed checks, 2 usage or
I/O errors.  All outputs are deterministic functions of their inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import conformance as conf_mod
from . import datasheet as ds_mod
from .devkit import DeviceError, audit, exposure_channels, parse_exposure_csv
from .scenario import ScenarioError, run_scenario
from .vbus import BusError, ExposureRecord, high_intervals

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class _CliError(Exception):
    """Usage or I/O failure; maps to exit code 2."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise _CliError(f"cannot read {path}: {e}") from e


def _load_json(path: str, seed: int | None = None) -> dict:
    """The JSON object in ``path``, which may repeat no key, its ``seed``
    replaced when one is given."""
    try:
        doc = json.loads(_read_text(path), object_pairs_hook=ds_mod._reject_duplicates)
    except json.JSONDecodeError as e:
        raise _CliError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}") from e
    except ValueError as e:  # a duplicate key
        raise _CliError(f"{path}: {e}") from e
    if not isinstance(doc, dict):
        raise _CliError(f"{path}: top level must be a JSON object")
    if seed is not None:
        doc["seed"] = seed
    return doc


def _write(path: Path, text: str, quiet: bool) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="")
    except OSError as e:
        raise _CliError(f"cannot write {path}: {e}") from e
    if not quiet:
        print(f"wrote {path}")


def _cmd_simulate(args) -> int:
    doc = _load_json(args.scenario, args.seed)
    bus = run_scenario(doc).bus
    out = Path(args.out)
    if args.format == "json":
        _write(out / "run.json", ds_mod.canonical_json(bus.run_doc()), args.quiet)
    else:
        _write(out / "trace.csv", bus.trace_csv(), args.quiet)
        _write(out / "i2c.csv", bus.i2c_csv(), args.quiet)
        _write(out / "exposure.csv", bus.exposure_csv(), args.quiet)
    return EXIT_OK


def _cmd_conformance(args) -> int:
    doc = _load_json(args.protocol, args.seed)
    try:
        protocol = conf_mod.TestProtocol.from_doc(doc)
    except (KeyError, TypeError, ValueError) as e:
        print(f"error: bad protocol: {e}", file=sys.stderr)
        return EXIT_USAGE
    report = conf_mod.run(conf_mod.GRID_FACTORIES[protocol.sensor_kind], protocol)
    _write(Path(args.out), report.to_json(), args.quiet)
    return EXIT_OK


def _scenario_device(args, log: list[ExposureRecord] | None = None):
    """The ``--device`` of the ``--device-from`` scenario (its first device
    if none is named), its wiring, and its own records of ``log`` (of the
    scenario's run if None).

    A device drives only its wired lines and answers only at its address,
    so the other devices' records are the ones outside its channels.
    """
    result = run_scenario(_load_json(args.device_from))
    device_id = args.device or next(iter(result.devices), None)
    if device_id not in result.devices:
        raise _CliError(f"no device {device_id!r} in scenario" if device_id
                        else "scenario has no devices")
    device, wiring = result.devices[device_id], result.wiring[device_id]
    log = result.bus.exposure_log if log is None else log
    own = [r for r, c in zip(log, exposure_channels(log, device.interface, wiring)) if c]
    return device, wiring, own


def _cmd_datasheet(args) -> int:
    parsed = ds_mod.parse(_read_text(args.file))
    if isinstance(parsed, list):
        for err in parsed:
            where = f" (line {err.line}, col {err.column})" if err.line else ""
            print(f"parse error: {err.message}{where}", file=sys.stderr)
        return EXIT_FINDINGS
    if args.action == "validate":
        violations = ds_mod.validate(parsed)
        for v in violations:
            print(f"{v.section}: {v.code}: {v.message}")
        if not args.quiet and not violations:
            print("valid")
        return EXIT_FINDINGS if violations else EXIT_OK
    if args.action == "render":
        text = ds_mod.render(parsed, args.mode)
        if args.out:
            _write(Path(args.out), text, args.quiet)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    # crosscheck
    if not args.device_from:
        raise _CliError("crosscheck requires --device-from <scenario>")
    device, wiring, own = _scenario_device(args)
    findings = ds_mod.cross_check(parsed, device, own, wiring)
    for f in findings:
        print(f"{f.code}: {f.message}")
    if not args.quiet and not findings:
        print("clean")
    return EXIT_FINDINGS if findings else EXIT_OK


def _cmd_audit(args) -> int:
    try:
        records = parse_exposure_csv(_read_text(args.log))
    except ValueError as e:
        raise _CliError(f"cannot read exposure log: {e}") from e
    pinout = _load_json(args.datasheet).get("comm_spec_pinout")
    try:
        interface = ds_mod.interface_from_pinout(pinout)
    except ValueError as e:
        raise _CliError(str(e)) from e
    wiring = None
    if args.device_from:
        _, wiring, records = _scenario_device(args, records)
    elif args.device:
        raise _CliError("--device requires --device-from <scenario>")
    verdict = audit(records, interface, wiring)
    for f in verdict.findings:
        print(f"{f.code}: {f.message}")
    if not args.quiet:
        print("pass" if verdict.passed else "fail")
    return EXIT_OK if verdict.passed else EXIT_FINDINGS


_DEMO_SCENARIO = {
    "seed": 2024,
    "duration_ms": 3000,
    "devices": [
        {
            "id": "gaze",
            "kind": "GAZE",
            "stimuli": [
                {
                    "modality": "scene",
                    "count": 30,
                    "params": {
                        "person_present": True,
                        "facing_camera": True,
                        "illuminance_lux": 800,
                    },
                }
            ],
        },
        {
            "id": "voice",
            "kind": "VOICE_PIN",
            "stimuli": [
                {
                    "modality": "audio",
                    "script": [["on", 1000], ["off", 2200]],
                }
            ],
        },
    ],
    "composites": [
        {
            "combinator": "gaze_voice",
            "line_id": "LIGHT_ON",
            "gaze": "gaze",
            "voice": "voice",
            "window_ms": 500,
        }
    ],
}


def _cmd_compose_demo(args) -> int:
    doc = json.loads(json.dumps(_DEMO_SCENARIO))
    if args.seed is not None:
        doc["seed"] = args.seed
    result = run_scenario(doc)
    out = Path(args.out)
    _write(out / "trace.csv", result.bus.trace_csv(), args.quiet)
    trace = result.bus.virtual_trace("LIGHT_ON")
    intervals = high_intervals(trace, doc["duration_ms"])
    if not args.quiet:
        for iv in intervals:
            end = "run end" if iv.open_ended else str(iv.end)
            print(f"LIGHT_ON high [{iv.start}, {end})")
        if not intervals:
            print("LIGHT_ON never asserted")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vsensor", description="Virtual ML-sensor emulation toolkit"
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="suppress chatter")
    # the device of a scenario run whose own records a command checks
    device = argparse.ArgumentParser(add_help=False)
    device.add_argument("--device-from", dest="device_from", default=None, metavar="SCENARIO")
    device.add_argument("--device", default=None, metavar="ID")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file", parents=[common])
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("conformance", parents=[common], help="run a conformance protocol")
    p.add_argument("protocol")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="report.cfr.json")
    p.set_defaults(fn=_cmd_conformance)

    p = sub.add_parser("datasheet", parents=[common, device], help="datasheet toolchain")
    p.add_argument("action", choices=("validate", "render", "crosscheck"))
    p.add_argument("file")
    p.add_argument("--mode", choices=("machine", "human"), default="human")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_datasheet)

    p = sub.add_parser("audit", parents=[common, device],
                       help="audit an exposure log against a datasheet")
    p.add_argument("log")
    p.add_argument("datasheet")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("compose-demo", parents=[common], help="run the gaze-gated voice demo")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=_cmd_compose_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ds_mod.DatasheetError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FINDINGS
    except (DeviceError, BusError, ScenarioError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
