"""vsensor benchmark: three workloads driven through the program's public
entry points, each checked against independent oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
traced run reports the per-layer ones and writes its spans to
``bench/_out/``.  See bench/README.md.
"""

from __future__ import annotations

import os

# one process, one numpy thread: load never exceeds the process itself
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
PROBE_MARK = "SETUP_DONE"


def _import_program() -> None:
    """Put the checkout's src/ first on the path; exit 2 when it is absent."""
    if not (SRC / "vsensor" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a vsensor checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import vsensor

    if Path(vsensor.__file__).resolve().parent != (SRC / "vsensor").resolve():
        print(f"error: imported vsensor from {vsensor.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Workload:
    """One workload: seeded inputs, a round of operations, oracle checks."""

    name = ""
    units_are_trials = False  # work units are conformance trials

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.outputs: dict = {}
        self.problems: list[str] = []

    def keep(self, key, value) -> None:
        """Store a round's output; a repeated input must give the same output."""
        if key not in self.outputs:
            self.outputs[key] = value
        elif self.outputs[key] != value:
            self.problems.append(f"{self.name}: output for input {key} changed on repeat")

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, index: int) -> tuple[int, int, int]:
        """(work units, operations attempted, operations failed)."""
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


class ConformanceGrid(Workload):
    """PERSON and GAZE grids through ``vsensor conformance``; work unit: a trial."""

    name = "conformance_grid"
    units_are_trials = True

    def setup(self) -> None:
        from vsensor import cli, conformance, datasheet, sensors

        import workloads as W

        self.cli, self.conformance, self.ds, self.sensors, self.W = (
            cli, conformance, datasheet, sensors, W)
        self.factories = {"PERSON": sensors.person_detector, "GAZE": sensors.gaze_detector}
        self.sets = [W.conformance_inputs(self.seed, i) for i in range(W.INPUT_SETS)]
        self.paths = []
        for i, docs in enumerate(self.sets):
            self.paths.append([])
            for k, doc in enumerate(docs):
                path = self.workdir / f"protocol-{i}-{k}.json"
                W.write_json(path, doc)
                self.paths[-1].append(path)
        warm = [W.protocol_doc(kind, {"distance_levels_m": [1.0], "lux_levels": [800]},
                               W.derive(self.seed, "warm", kind), negative_window_ms=1000)
                for kind in ("PERSON", "GAZE")]
        for k, doc in enumerate(warm):
            path = self.workdir / f"warm-{k}.json"
            W.write_json(path, doc)
            self._conformance(doc, path, self.workdir / f"warm-report-{k}.json")

    def _conformance(self, doc: dict, path: Path, out: Path):
        """CLI conformance, then attach, validate and render its datasheet."""
        if self.cli.main(["conformance", str(path), "--out", str(out), "--quiet"]) != 0:
            return None
        text = out.read_text(encoding="utf-8")
        device = self.factories[doc["sensor_kind"]]()
        sheet = self.ds.Datasheet(self.ds.datasheet_for_device(device))
        try:
            attached = self.ds.attach_performance(sheet, json.loads(text))
            violations = self.ds.validate(attached)
            rendered = (self.ds.render(attached, "machine"), self.ds.render(attached, "human"))
        except self.ds.DatasheetError:
            return text, None
        return text, ([f"{v.code}: {v.message}" for v in violations],) + rendered

    def run_round(self, index: int) -> tuple[int, int, int]:
        i = index % len(self.sets)
        units = attempted = failed = 0
        for k, (doc, path) in enumerate(zip(self.sets[i], self.paths[i])):
            result = self._conformance(doc, path, self.workdir / f"report-{i}-{k}.json")
            attempted += 2
            if result is None:
                failed += 2
                continue
            if result[1] is None:
                failed += 1
            units += self.W.trials_in(doc)
            self.keep((i, k), result)
        return units, attempted, failed

    def check(self) -> list[str]:
        import oracles
        from vsensor.stimuli.scene import (GazeParams, PersonParams, SceneParams, detect_gaze,
                                           detect_person, render_scene)

        W = self.W
        policy = self.sensors.PersonPinPolicy()
        problems = list(self.problems)
        for (i, k), (text, sheet) in sorted(self.outputs.items()):
            problems += oracles.check_report(text, self.sets[i][k], policy.frame_period_ms,
                                             policy.rise_frames)
            if sheet is not None:
                problems += oracles.check_datasheet(text, *sheet)

        rng = random.Random(W.derive(self.seed, "ncc"))
        person_h, gaze_h = PersonParams().scale_heights, GazeParams().scale_heights
        samples = []
        for j, (present, facing) in enumerate([(True, False), (False, False), (True, True),
                                               (True, False), (True, True)]):
            p = SceneParams(present, facing, rng.choice(W.PERSON_GRID["distance_levels_m"]),
                            rng.choice(W.PERSON_GRID["lux_levels"]), 4.0,
                            W.derive(self.seed, "ncc", j))
            frame = render_scene(p)
            label = f"frame {j} ({p.distance_m} m, {p.illuminance_lux} lux)"
            samples.append((f"detect_person {label}",
                            detect_person(frame).score,
                            oracles.brute_score(frame.pixels, person_h, False, False)))
            if present:
                samples.append((f"detect_gaze {label}", detect_gaze(frame).score,
                                oracles.brute_score(frame.pixels, gaze_h, True, True)))
        problems += oracles.check_scores(samples)

        doc = W.protocol_doc("PERSON", {"distance_levels_m": [1.0], "lux_levels": [200, 800]},
                             W.derive(self.seed, "permute"), negative_window_ms=1000)
        path, out = self.workdir / "permute.json", self.workdir / "permute-report.json"
        W.write_json(path, doc)
        if self.cli.main(["conformance", str(path), "--out", str(out), "--quiet"]) != 0:
            return problems + ["small permutation protocol failed to run"]
        text = out.read_text(encoding="utf-8")
        order = [(c, t) for c in range(2) for t in range(doc["trials_per_cell"])]
        rng.shuffle(order)
        permuted = self.conformance.run(
            self.sensors.person_detector, self.conformance.TestProtocol.from_doc(doc), order)
        if permuted.to_json() != text:
            problems.append("report changed under a permuted execution_order")
        problems += oracles.check_report(text, doc, policy.frame_period_ms, policy.rise_frames)
        return problems


class ScenarioLongrun(Workload):
    """``vsensor simulate`` on a long scenario; work unit: a simulated second."""

    name = "scenario_longrun"

    def setup(self) -> None:
        from vsensor import cli, datasheet, devkit, sensors

        import workloads as W

        self.cli, self.ds, self.devkit, self.sensors, self.W = cli, datasheet, devkit, sensors, W
        self.plans = [W.scenario_plan(self.seed, i) for i in range(W.INPUT_SETS)]
        for i, plan in enumerate(self.plans):
            W.write_json(self.workdir / f"scenario-{i}.json", plan.doc)
        warm = W.scenario_plan(self.seed, "warm", 20_000)
        W.write_json(self.workdir / "scenario-warm.json", warm.doc)
        self._simulate(warm.doc, self.workdir / "scenario-warm.json", self.workdir / "warm")

    def _device(self, spec: dict):
        s, cfg = self.sensors, spec.get("config", {})
        return {
            "TAP": lambda: s.tap_sensor(cfg["pulse_ms"]),
            "VOICE_PIN": s.voice_sensor_pin,
            "VOICE_SERIAL": lambda: s.voice_sensor_serial(cfg["vocabulary"], cfg["address"]),
            "TEXT_READER": lambda: s.text_reader(cfg["address"]),
            "PERSON": s.person_detector,
            "GAZE": s.gaze_detector,
        }[spec["kind"]]()

    def _simulate(self, doc: dict, path: Path, out: Path):
        """CLI simulate, then audit and cross-check every device on its own records."""
        if self.cli.main(["simulate", str(path), "--out", str(out), "--quiet"]) != 0:
            return None
        texts = tuple((out / f).read_text(encoding="utf-8")
                      for f in ("trace.csv", "i2c.csv", "exposure.csv"))
        records = self.devkit.parse_exposure_csv(texts[2])
        verdicts = {}
        for spec in doc["devices"]:
            device, wiring = self._device(spec), spec["wiring"]
            lines = {wiring[p] for p in device.interface.signal_pins()}
            address = device.interface.serial.address if device.interface.serial else None
            own = [r for r in records
                   if (r.channel == "PIN" and r.detail in lines)
                   or (r.channel == "SERIAL" and int(r.detail, 16) == address)]
            verdict = self.devkit.audit(own, device.interface, wiring)
            sheet = self.ds.Datasheet(self.ds.datasheet_for_device(device))
            findings = self.ds.cross_check(sheet, device, own, wiring)
            verdicts[spec["id"]] = ([f"audit {f.code}: {f.message}" for f in verdict.findings]
                                    + [f"cross-check {f.code}: {f.message}" for f in findings])
        return texts, verdicts

    def run_round(self, index: int) -> tuple[int, int, int]:
        i = index % len(self.plans)
        doc = self.plans[i].doc
        result = self._simulate(doc, self.workdir / f"scenario-{i}.json", self.workdir / f"run-{i}")
        attempted = 1 + 2 * len(doc["devices"])
        if result is None:
            return 0, attempted, attempted
        self.keep(i, result)
        return doc["duration_ms"] // 1000, attempted, 0

    def check(self) -> list[str]:
        import oracles
        from vsensor.stimuli.audio import HOP_MS

        W = self.W
        constants = {
            "pulse_ms": W.TAP_PULSE_MS,
            "frame_period_ms": self.sensors.PersonPinPolicy().frame_period_ms,
            "refresh_ms": self.sensors.text_reader().timing()["refresh_period_ms"],
            "audio_hop_ms": HOP_MS,
            "command_words": W.COMMAND_WORDS,
            "voice_address": W.VOICE_SERIAL_ADDRESS,
            "reader_address": W.TEXT_READER_ADDRESS,
        }
        problems = list(self.problems)
        for i, (texts, verdicts) in sorted(self.outputs.items()):
            problems += [f"scenario {i}: {p}" for p in
                         oracles.check_scenario(self.plans[i], *texts, verdicts, constants)]
        return problems


class TraceCompose(Workload):
    """Offline combinators on recorded traces; work unit: an input edge consumed."""

    name = "trace_compose"

    def setup(self) -> None:
        from vsensor import compose, vbus

        import workloads as W

        self.compose, self.vbus, self.W = compose, vbus, W
        self.inputs = [W.compose_inputs(self.seed, i) for i in range(W.INPUT_SETS)]
        self.traces = [self._traces(inp) for inp in self.inputs]
        warm = W.compose_inputs(self.seed, "warm", 200)
        self._compose(self._traces(warm), warm)

    def _traces(self, inp):
        out = []
        for name in ("event", "gate", "noisy", "reset"):
            trace = self.vbus.PinTrace(name)
            for t, lvl in getattr(inp, name):
                trace.append(t, self.vbus.LogicLevel(lvl))
            out.append(trace)
        return out

    def _compose(self, traces, inp) -> dict:
        c, W = self.compose, self.W
        event, gate, noisy, reset = traces
        return {
            "gated_event": c.gated_event(event, gate, W.GATE_WINDOW_MS),
            "invert": c.invert(noisy),
            "debounce": c.debounce(noisy, W.DEBOUNCE_HOLD_MS),
            "pulse_stretch": c.pulse_stretch(event, W.STRETCH_MS),
            "sr_latch": c.sr_latch(event, reset),
            "high_intervals": self.vbus.high_intervals(gate, inp.run_end),
            "level_at": [noisy.level_at(q) for q in inp.queries],
        }

    def run_round(self, index: int) -> tuple[int, int, int]:
        i = index % len(self.inputs)
        event, gate, noisy, reset = self.traces[i]
        self.keep(i, self._compose(self.traces[i], self.inputs[i]))
        # gated_event(event, gate), invert(noisy), debounce(noisy),
        # pulse_stretch(event), sr_latch(event, reset)
        consumed = (event, gate, noisy, noisy, event, event, reset)
        return sum(len(t.transitions) for t in consumed), 7, 0

    def check(self) -> list[str]:
        import oracles as O

        W = self.W
        problems = list(self.problems)
        for i, out in sorted(self.outputs.items()):
            inp = self.inputs[i]
            outputs = [out[name] for name in ("gated_event", "invert", "debounce",
                                              "pulse_stretch", "sr_latch")]
            horizon = max([inp.run_end] + [t.last_time() for t in outputs]) + 2
            ev, gt, nz, rs = (O.levels(getattr(inp, n), horizon)
                              for n in ("event", "gate", "noisy", "reset"))
            want = {
                "gated_event": O.gated_rule(ev, gt, W.GATE_WINDOW_MS),
                "invert": 1 - nz,
                "debounce": O.debounce_rule(nz, W.DEBOUNCE_HOLD_MS),
                "pulse_stretch": O.stretch_rule(ev, W.STRETCH_MS),
                "sr_latch": O.latch_rule(ev, rs),
            }
            for name, rule in want.items():
                got = O.levels(out[name].transitions, horizon, int(out[name].initial_level))
                problems += [f"compose {i}: {p}" for p in O.compare_line(name, got, rule)]
            intervals = [(iv.start, iv.end, iv.open_ended) for iv in out["high_intervals"]]
            if intervals != O.runs_high(gt, inp.run_end):
                problems.append(f"compose {i}: high_intervals differ from the HIGH runs")
            if [int(x) for x in out["level_at"]] != [int(nz[q]) for q in inp.queries]:
                problems.append(f"compose {i}: level_at answers differ from the trace")
        return problems


WORKLOADS = {w.name: w for w in (ConformanceGrid, ScenarioLongrun, TraceCompose)}


def timed_rounds(workload: Workload, seconds: float) -> dict:
    """Whole rounds until ``seconds`` have passed.  The rate is the median of
    the per-round rates, so a host stall of a few seconds moves it little."""
    rates = []
    attempted = failed = 0
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        u, a, f = workload.run_round(len(rates))
        rates.append(u / (time.perf_counter() - t0))
        attempted, failed = attempted + a, failed + f
    return {"rate": statistics.median(rates), "attempted": attempted, "failed": failed}


def probe_setup(workload: str, seed: int) -> float:
    """Wall time from starting a fresh process to its setup being done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT)
    marks = [ln for ln in proc.stdout.splitlines() if ln.startswith(PROBE_MARK)]
    if proc.returncode != 0 or not marks:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(marks[-1].split()[1]) - start


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()

    setup_times = []
    if not args.setup_probe and not args.trace:
        setup_times = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        if args.setup_probe:
            print(f"{PROBE_MARK} {time.time():.6f}", flush=True)
            return 0
        if args.trace:
            result = traced_run(workload, args)
        else:
            run = timed_rounds(workload, args.seconds)
            metrics = {
                "work_per_s": {"value": run["rate"], "unit": "1/s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
            }
            result = {"attempted": run["attempted"], "failed": run["failed"], "metrics": metrics}
        problems = workload.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


def traced_run(workload: Workload, args) -> dict:
    """Each input set runs once plain and once traced, in alternating order;
    per-layer metrics come from the traced rounds, the overhead from the
    median ratio of traced to plain time over these pairs."""
    import tracing

    tracer = tracing.Tracer()
    ratios = []
    attempted = failed = 0
    per_round: dict[int, int] = {}
    index = 0
    start = time.perf_counter()
    while index == 0 or time.perf_counter() - start < args.seconds:
        seconds = [0.0, 0.0]
        for traced in ((0, 1) if index % 2 == 0 else (1, 0)):
            if traced:
                tracer.install()
                span = tracer.begin_round(index)
            t0 = time.perf_counter()
            try:
                u, a, f = workload.run_round(index)
            finally:
                seconds[traced] = time.perf_counter() - t0
                if traced:
                    tracer.end_round(span)
                    tracer.uninstall()
            attempted, failed = attempted + a, failed + f
            if traced:
                per_round[index] = u
        ratios.append(seconds[1] / seconds[0])
        index += 1
    layer = tracing.layer_metrics(tracer, per_round[0] if workload.units_are_trials else 0)
    layer.update(tracing.sweeps(args.seed))
    layer["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())},
    }


if __name__ == "__main__":
    sys.exit(main())
