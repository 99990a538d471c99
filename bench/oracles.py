"""Independent checks of the program's outputs.

Nothing here calls the code it checks.  Template geometry, normalized
cross-correlation, combinator rules, BCD packing and the operating
envelope are restated from their specifications and evaluated the slow,
obvious way: every translation, every millisecond, every nibble by hand.
Each ``check_*`` returns a list of problem strings; empty means correct.
"""

from __future__ import annotations

import json

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# -- templates and brute-force NCC ---------------------------------------------


def figure_template(h: int, facing: bool, head_only: bool) -> np.ndarray:
    """Person silhouette of height h on a zero canvas, cropped with a 1 px margin.

    Geometry as the scene model states it: head disc of radius 0.14 h,
    torso of width 0.36 h tapering by a quarter to the hips, level 200;
    a facing head carries dark eyes and mouth at a quarter of the level,
    the back of a head is uniformly 0.35 of it.
    """
    pad = 4
    size = h + 2 * pad
    img = np.zeros((size, size))
    cx, top = size // 2, pad
    r = max(1, round(h * 0.14))
    head_cy, torso_top = top + r, top + 2 * r
    torso_w = max(2, round(h * 0.36))
    for y in range(torso_top, min(top + h, size)):
        frac = (y - torso_top) / max(1, top + h - torso_top)
        half = max(1, round(torso_w * (1.0 - 0.25 * frac) / 2))
        img[y, max(0, cx - half) : min(size, cx + half + 1)] = 200.0
    yy, xx = np.mgrid[:size, :size]
    head = (yy - head_cy) ** 2 + (xx - cx) ** 2 <= r * r
    if facing:
        img[head] = 200.0
        er = max(1, r // 4)
        eye_y = head_cy - max(1, round(r * 0.25))
        for dx in (-1, 1):
            ex = cx + dx * max(1, round(r * 0.45))
            img[(yy - eye_y) ** 2 + (xx - ex) ** 2 <= er * er] = 50.0
        my, mh = head_cy + max(1, round(r * 0.4)), max(1, round(r * 0.5))
        img[my : my + er, cx - mh : cx + mh + 1] = 50.0
    else:
        img[head] = 70.0
    if head_only:
        img = img[: pad + 2 * r + 2]
    ys, xs = np.nonzero(img)
    y0, x0 = max(0, ys.min() - 1), max(0, xs.min() - 1)
    y1, x1 = min(img.shape[0], ys.max() + 2), min(img.shape[1], xs.max() + 2)
    return img[y0:y1, x0:x1]


def brute_ncc(pixels: np.ndarray, template: np.ndarray) -> float:
    """Max NCC over every translation, each window summed directly."""
    img = np.asarray(pixels, dtype=np.float64)
    th, tw = template.shape
    if th > img.shape[0] or tw > img.shape[1]:
        return 0.0
    tz = template - template.mean()
    tn = float(np.sqrt((tz * tz).sum()))
    if tn == 0.0:
        return 0.0
    win = sliding_window_view(img, (th, tw))
    num = np.einsum("ijkl,kl->ij", win, tz)
    n = th * tw
    wsum = win.sum(axis=(2, 3))
    var = np.einsum("ijkl,ijkl->ij", win, win) - wsum * wsum / n
    den = np.sqrt(np.maximum(var, 0.0)) * tn
    ncc = np.where(den > 1e-9, num / np.where(den > 1e-9, den, 1.0), 0.0)
    return float(np.clip(ncc.max(), 0.0, 1.0))


def brute_score(pixels: np.ndarray, heights, facing: bool, head_only: bool) -> float:
    return max(brute_ncc(pixels, figure_template(h, facing, head_only)) for h in heights)


def check_scores(samples: list[tuple[str, float, float]], tol: float = 1e-6) -> list[str]:
    """(label, program score, brute-force score) triples must agree."""
    return [
        f"{label}: detector score {got:.9f} != brute-force NCC {want:.9f}"
        for label, got, want in samples
        if abs(got - want) > tol
    ]


# -- conformance report properties ---------------------------------------------------


def envelope(cells: list[dict], tpr_min: float = 0.9, fpr_max: float = 0.05) -> dict | None:
    """Largest (max distance, min lux) box of passing cells: distance first, then lux."""
    best = None
    for max_d in sorted({c["distance_m"] for c in cells}):
        for min_lux in sorted({c["lux"] for c in cells}):
            box = [c for c in cells if c["distance_m"] <= max_d and c["lux"] >= min_lux]
            if all(c["tpr"] >= tpr_min and c["fpr"] <= fpr_max for c in box):
                if best is None or (max_d, -min_lux) > (best[0], -best[1]):
                    best = (max_d, min_lux)
    if best is None:
        return None
    return {"max_distance_m": best[0], "min_lux": best[1], "tpr_min": tpr_min,
            "fpr_max": fpr_max}


def check_report(text: str, protocol: dict, period_ms: int, rise_frames: int) -> list[str]:
    """Properties any correct report of ``protocol`` has, whatever the seed."""
    problems: list[str] = []
    doc = json.loads(text)
    if text != json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n":
        problems.append("report is not in canonical JSON form")
    for key, value in protocol.items():
        if doc["protocol"].get(key) != value:
            problems.append(f"report protocol.{key} = {doc['protocol'].get(key)!r}, "
                            f"expected {value!r}")
    grid = [(d, lux) for d in protocol["distance_levels_m"] for lux in protocol["lux_levels"]]
    cells = doc["cells"]
    if [(c["distance_m"], c["lux"]) for c in cells] != grid:
        return problems + ["report cells do not follow the protocol grid"]
    n = protocol["trials_per_cell"]
    n_pos = round(n * protocol["positive_fraction"])
    n_neg = n - n_pos
    budget = protocol["latency_budget_ms"]
    for c in cells:
        where = f"cell ({c['distance_m']} m, {c['lux']} lux)"
        tp = c["tpr"] * n_pos
        if c["trials"] != n or abs(tp - round(tp)) > 1e-4 or not 0 <= c["tpr"] <= 1:
            problems.append(f"{where}: tpr {c['tpr']} is not a count over {n_pos}")
        fp = c["fpr"] * n_neg
        if abs(fp - round(fp)) > 1e-4 or not 0 <= c["fpr"] <= 1:
            problems.append(f"{where}: fpr {c['fpr']} is not a count over {n_neg}")
        tp = round(tp)
        mean, p95 = c["mean_latency_ms"], c["p95_latency_ms"]
        if tp == 0:
            if mean is not None or p95 is not None:
                problems.append(f"{where}: latency without a true positive")
            continue
        floor = rise_frames * period_ms
        if not (isinstance(p95, int) and p95 % period_ms == 0 and floor <= p95 <= budget):
            problems.append(f"{where}: p95 latency {p95} not a frame multiple in "
                            f"[{floor}, {budget}]")
        total = mean * tp
        if not (floor <= mean <= p95 + 1e-9) or abs(total - period_ms * round(total / period_ms)) > 0.01 * tp:
            problems.append(f"{where}: mean latency {mean} inconsistent with frame "
                            f"multiples and p95 {p95}")
        if (c["distance_m"], c["lux"]) == (1.0, 800) and (c["tpr"] != 1.0 or c["fpr"] != 0.0):
            problems.append(f"{where}: expected tpr 1.0 and fpr 0.0, got {c['tpr']}, {c['fpr']}")
    if doc.get("envelope") != envelope(cells):
        problems.append(f"envelope {doc.get('envelope')} != recomputed {envelope(cells)}")
    return problems


def check_datasheet(report_text: str, violations: list, machine: str, human: str) -> list[str]:
    problems = [f"attached datasheet invalid: {v}" for v in violations]
    doc = json.loads(machine)
    if machine != json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n":
        problems.append("machine rendering is not canonical JSON")
    report = json.loads(report_text)
    perf = doc.get("end_to_end_performance", {})
    if perf.get("report", {}).get("cells") != report["cells"] or perf.get("envelope") != report["envelope"]:
        problems.append("datasheet end_to_end_performance differs from the report")
    if "## End-to-End Performance" not in human or not human.startswith("# ML Sensor Datasheet"):
        problems.append("human rendering lacks its title or performance section")
    return problems


# -- per-millisecond signal model ------------------------------------------------


def levels(transitions, horizon: int, initial: int = 0) -> np.ndarray:
    """Level in force at every integer millisecond in [0, horizon)."""
    times = np.array([t for t, _ in transitions], dtype=np.int64)
    after = np.array([initial] + [int(lvl) for _, lvl in transitions], dtype=np.int8)
    idx = np.searchsorted(times, np.arange(horizon), side="right")
    return after[idx]


def rising(arr: np.ndarray, initial: int = 0) -> np.ndarray:
    """Millisecond indices at which the level goes LOW -> HIGH."""
    prev = np.concatenate(([initial], arr[:-1]))
    return np.nonzero((arr == 1) & (prev == 0))[0]


def gated_rule(event: np.ndarray, gate: np.ndarray, window_ms: int,
               event_initial: int = 0) -> np.ndarray:
    """HIGH for the one ms of each event rise that saw the gate HIGH within window_ms."""
    seen = np.concatenate(([0], np.cumsum(gate, dtype=np.int64)))
    out = np.zeros_like(event)
    for t in rising(event, event_initial):
        if seen[t + 1] - seen[max(0, t - window_ms)] > 0:
            out[t] = 1
    return out


def debounce_rule(line: np.ndarray, hold_ms: int, initial: int = 0) -> np.ndarray:
    """Output takes a level once the input has held it for hold_ms."""
    vals = line.tolist()
    out = []
    level = initial
    for k in range(len(vals)):
        j = k - hold_ms
        # a change at j is adopted at k when no other change falls in (j, k)
        if j >= 0 and vals[j] != (vals[j - 1] if j > 0 else initial):
            if all(v == vals[j] for v in vals[j:k]):
                level = vals[j]
        out.append(level)
    return np.array(out, dtype=line.dtype)


def stretch_rule(line: np.ndarray, ms: int, initial: int = 0) -> np.ndarray:
    cover = np.zeros(len(line) + ms + 1, dtype=np.int64)
    for r in rising(line, initial):
        cover[r] += 1
        cover[r + ms] -= 1
    return ((line == 1) | (np.cumsum(cover)[: len(line)] > 0)).astype(np.int8)


def latch_rule(set_arr: np.ndarray, reset_arr: np.ndarray) -> np.ndarray:
    """HIGH from a set rise until a reset rise; a reset at the same ms wins."""
    sets, resets = set(rising(set_arr).tolist()), set(rising(reset_arr).tolist())
    out = []
    level = 0
    for k in range(len(set_arr)):
        if k in resets:
            level = 0
        elif k in sets:
            level = 1
        out.append(level)
    return np.array(out, dtype=set_arr.dtype)


def runs_high(arr: np.ndarray, run_end: int) -> list[tuple[int, int, bool]]:
    """HIGH runs within [0, run_end); a run still HIGH at run_end is open-ended."""
    a = arr[:run_end]
    edges = np.diff(np.concatenate(([0], a, [0])))
    starts, ends = np.nonzero(edges == 1)[0], np.nonzero(edges == -1)[0]
    return [(int(s), int(e), bool(e == run_end)) for s, e in zip(starts, ends)]


def compare_line(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    if np.array_equal(got, want):
        return []
    k = int(np.nonzero(got != want)[0][0])
    return [f"{name}: level {int(got[k])} at t={k} ms, rule gives {int(want[k])}"]


# -- scenario expectations ----------------------------------------------------------


def bcd_hex(reading: str) -> str:
    """Register bytes of a displayed reading, packed nibble by nibble."""
    negative = reading.startswith("-")
    whole, _, frac = reading.lstrip("-").partition(".")
    return whole.rjust(7, "0") + ("d" if negative else "c") + frac.ljust(8, "0")


def parse_csv(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"bad CSV header {lines[:1]}")
    return [ln.split(",") for ln in lines[1:]]


def check_scenario(plan, trace_csv: str, i2c_csv: str, exposure_csv: str,
                   device_verdicts: dict[str, list[str]], constants: dict) -> list[str]:
    """Events each scripted stimulus must cause, derived from the script alone."""
    problems: list[str] = []
    doc = plan.doc
    rows = parse_csv(trace_csv, "time_ms,line_id,level")
    lines: dict[str, list[tuple[int, int]]] = {}
    for t, line_id, lvl in rows:
        lines.setdefault(line_id, []).append((int(t), int(lvl)))
    pulse = constants["pulse_ms"]
    want_tap = [x for t in plan.taps for x in ((t, 1), (t + pulse, 0))]
    if lines.get("tap.TAP", []) != want_tap:
        problems.append(f"tap.TAP: {len(lines.get('tap.TAP', []))} transitions, "
                        f"expected a {pulse} ms pulse at each of {len(plan.taps)} taps")
    state = lines.get("voice.STATE", [])
    if len(state) != len(plan.voice_words):
        problems.append(f"voice.STATE: {len(state)} transitions for "
                        f"{len(plan.voice_words)} words")
    hop = constants["audio_hop_ms"]
    for (t, lvl), (word, at) in zip(state, plan.voice_words):
        # the synthesized word starts on the feature hop at or before its
        # scripted time (voice windows start on the hop)
        onset = at - at % hop
        if lvl != (1 if word == "on" else 0) or abs(t - onset) > 40:
            problems.append(f"voice.STATE: {(t, lvl)} for {word!r} said at {at} ms "
                            f"(signal from {onset} ms)")
            break
    period = constants["frame_period_ms"]
    for cam in ("cam", "gz"):
        want = [x for s, n in plan.bursts[cam] for x in ((s + period, 1), (s + (n + 1) * period, 0))]
        got = lines.get(f"{cam}.DETECT", [])
        if got != want:
            problems.append(f"{cam}.DETECT: {got[:4]}... expected {want[:4]}...")

    duration = doc["duration_ms"]
    horizon = max([duration] + [t for tr in lines.values() for t, _ in tr]) + 2
    arr = {lid: levels(lines.get(lid, []), horizon)
           for lid in ("tap.TAP", "cam.DETECT", "voice.STATE", "gz.DETECT")}
    for spec in doc["composites"]:
        lid, kind = spec["line_id"], spec["combinator"]
        if kind == "gated_event":
            want = gated_rule(arr[spec["event"]], arr[spec["gate"]], spec["window_ms"])
        elif kind == "debounce":
            want = debounce_rule(arr[spec["line"]], spec["hold_ms"])
        elif kind == "pulse_stretch":
            want = stretch_rule(arr[spec["line"]], spec["ms"])
        else:  # gaze_voice: latch on gated "on" rises, reset on gated "off" falls
            state_arr, gaze_arr = arr[f"{spec['voice']}.STATE"], arr[f"{spec['gaze']}.DETECT"]
            on = gated_rule(state_arr, gaze_arr, spec["window_ms"])
            off = gated_rule(1 - state_arr, gaze_arr, spec["window_ms"], event_initial=1)
            want = latch_rule(on, off)
        problems += compare_line(lid, levels(lines.get(lid, []), horizon), want)

    i2c = parse_csv(i2c_csv, "time_ms,address,direction,status,payload_hex")
    polls = doc["serial_reads"]
    if len(i2c) != len(polls) or any(r[3] != "ack" or r[2] != "read" for r in i2c):
        problems.append(f"i2c log: {len(i2c)} rows for {len(polls)} polls, all ACKed reads expected")
    vocab = constants["command_words"]
    packets = [r[4] for r in i2c if int(r[1], 16) == constants["voice_address"] and r[4] != "ffff"]
    want_packets = [f"{vocab.index(w):02x}{k % 256:02x}" for k, w in enumerate(plan.commands)]
    if packets != want_packets:
        problems.append(f"serial packets {packets[:4]}... expected {want_packets[:4]}...")
    refresh = constants["refresh_ms"]
    for t, addr, _, _, payload in i2c:
        if int(addr, 16) != constants["reader_address"]:
            continue
        step = int(t) // refresh * refresh
        shown = [text for at, text in plan.displays if at <= step]
        want = bcd_hex(shown[-1]) if shown and step > 0 else "ff" * 8
        if payload != want:
            problems.append(f"text reader at {t} ms read {payload}, expected {want}")
            break

    exposure = parse_csv(exposure_csv, "time_ms,channel,detail,bits")
    pin_lines = {"tap.TAP", "voice.STATE", "cam.DETECT", "gz.DETECT"}
    serial_bits = {f"0x{constants['voice_address']:02x}": 16,
                   f"0x{constants['reader_address']:02x}": 64}
    pins = sum(1 for r in exposure if r[1] == "PIN" and r[2] in pin_lines and r[3] == "1")
    serial = sum(1 for r in exposure if r[1] == "SERIAL" and serial_bits.get(r[2]) == int(r[3]))
    real_transitions = sum(len(lines.get(lid, [])) for lid in pin_lines)
    if pins != real_transitions or serial != len(polls) or len(exposure) != pins + serial:
        problems.append(f"exposure log: {pins} pin and {serial} serial records of "
                        f"{len(exposure)}; expected {real_transitions} and {len(polls)}")
    for device_id, findings in device_verdicts.items():
        problems += [f"device {device_id}: {f}" for f in findings]
    return problems


# -- self-test ------------------------------------------------------------------------


def self_test() -> list[str]:
    """Hand-worked cases for the oracles themselves."""
    problems: list[str] = []

    def expect(name: str, got, want) -> None:
        if got != want:
            problems.append(f"oracle self-test {name}: got {got!r}, want {want!r}")

    expect("bcd 1234.5", bcd_hex("1234.5"), "0001234c50000000")
    expect("bcd -7.25", bcd_hex("-7.25"), "0000007d25000000")
    expect("bcd 0", bcd_hex("0"), "0000000c00000000")
    expect("levels", levels([(3, 1), (5, 0)], 8).tolist(), [0, 0, 0, 1, 1, 0, 0, 0])
    gate = levels([(2, 1), (4, 0)], 12)
    event = levels([(10, 1), (11, 0)], 12)
    expect("gated w=6", rising(gated_rule(event, gate, 6)).tolist(), [])
    expect("gated w=7", rising(gated_rule(event, gate, 7)).tolist(), [10])
    expect("gated at edge", rising(gated_rule(levels([(3, 1)], 6), gate, 0)).tolist(), [3])
    bouncy = levels([(10, 1), (12, 0), (20, 1)], 30)
    expect("debounce", levels([(25, 1)], 30).tolist(), debounce_rule(bouncy, 5).tolist())
    expect("debounce exact hold", debounce_rule(levels([(2, 1), (4, 0)], 8), 2).tolist(),
           [0, 0, 0, 0, 1, 1, 0, 0])
    expect("stretch", stretch_rule(levels([(2, 1), (3, 0)], 8), 4).tolist(),
           [0, 0, 1, 1, 1, 1, 0, 0])
    tie = latch_rule(levels([(5, 1), (6, 0)], 9), levels([(5, 1), (6, 0)], 9))
    expect("latch reset wins", tie.tolist(), [0] * 9)
    expect("latch", latch_rule(levels([(2, 1), (3, 0)], 6), levels([(4, 1)], 6)).tolist(),
           [0, 0, 1, 1, 0, 0])
    expect("runs", runs_high(levels([(1, 1), (3, 0), (5, 1)], 8), 7),
           [(1, 3, False), (5, 7, True)])
    img = np.random.default_rng(0).normal(0, 1, (20, 20))
    tpl = img[4:9, 7:15].copy()
    expect("ncc exact match", round(brute_ncc(img, tpl), 9), 1.0)
    expect("ncc flat image", brute_ncc(np.ones((20, 20)), tpl), 0.0)
    cells = [{"distance_m": d, "lux": lux, "tpr": tpr, "fpr": 0.0}
             for d, lux, tpr in [(1, 50, 1.0), (1, 800, 1.0), (2, 50, 0.5), (2, 800, 1.0)]]
    expect("envelope", envelope(cells),
           {"max_distance_m": 2, "min_lux": 800, "tpr_min": 0.9, "fpr_max": 0.05})
    return problems
