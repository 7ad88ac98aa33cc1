"""``repro doctor``: post-mortem analysis of flight-recorder dumps.

Given one dump or a directory of dumps from a (possibly multi-shard)
run, the doctor reconstructs what each component was doing in its
last seconds, flags suspicious gaps, and — the part a human can't do
by eyeballing JSON — cross-correlates dumps by task id to answer
"the shard died holding these tasks; who finished them, and when?".

All event timestamps inside a dump are monotonic; each dump carries
``wall_minus_mono`` so events from different processes on the same
host can be aligned on the wall clock (see :mod:`repro.obs.flight`).
"""

from __future__ import annotations

from typing import Optional

from repro.obs.flight import (
    FRAME_RX,
    QUEUE_CLAIM,
    QUEUE_ENQUEUE,
    TASK_SETTLE,
    load_flight_dumps,
)

__all__ = ["analyze", "render_report", "doctor_main"]

#: Default timeline window: only events in the last N seconds before
#: each dump are summarized (the ring usually holds much more).
DEFAULT_WINDOW_S = 30.0

#: A component that recorded frames but none in its last
#: ``GAP_QUIET_S`` seconds before dumping gets a silence flag.
GAP_QUIET_S = 5.0


def _wall(dump: dict, t_mono: float) -> float:
    return t_mono + dump.get("wall_minus_mono", 0.0)


def _label(dump: dict) -> str:
    shard = dump.get("shard_id")
    comp = dump.get("component", "?")
    return f"{comp}[{shard}]" if shard else comp


def _task_events(dump: dict) -> dict[str, list[dict]]:
    """Events grouped by task id (queue transitions + settles)."""
    by_task: dict[str, list[dict]] = {}
    for event in dump.get("events", ()):
        if event.get("kind", "").startswith(("queue.", "task.")):
            subject = event.get("subject", "")
            if subject:
                by_task.setdefault(subject, []).append(event)
    return by_task


def _open_tasks(dump: dict) -> dict[str, str]:
    """Tasks this dump saw in flight but never settled.

    Prefers the dumper-supplied ``extra`` inventory (exact at dump
    time) and falls back to replaying the event ring: a task whose
    last transition is enq/claim/requeue with no settle is open.
    """
    extra = dump.get("extra") or {}
    inventory: dict[str, str] = {}
    for task_id in extra.get("inflight", ()):
        inventory[str(task_id)] = "dispatched"
    for task_id in extra.get("queued", ()):
        inventory.setdefault(str(task_id), "queued")
    if inventory:
        return inventory
    for task_id, events in _task_events(dump).items():
        last = events[-1].get("kind", "")
        if last == TASK_SETTLE:
            continue
        inventory[task_id] = "dispatched" if last == QUEUE_CLAIM else "queued"
    return inventory


def _settles(dump: dict) -> dict[str, dict]:
    out: dict[str, dict] = {}
    for event in dump.get("events", ()):
        if event.get("kind") == TASK_SETTLE and event.get("subject"):
            out[event["subject"]] = event
    return out


def analyze(path: str, window_s: float = DEFAULT_WINDOW_S) -> dict:
    """Analyze a dump file or directory; returns a structured report.

    Report keys:

    * ``dumps`` — per-dump summaries (component, shard, reason, event
      counts by kind, timeline window actually covered);
    * ``crashed`` — dumps whose reason marks an abnormal end
      (``crash``/``sigterm``/``oracle``), with their open tasks;
    * ``gaps`` — suspicious silences (no frames near the end of a
      ring that did record frames; tasks stuck without settle);
    * ``resolutions`` — for every task open in a crashed dump, the
      settle observed in some *other* dump, aligned on wall time.
    """
    dumps = load_flight_dumps(path)
    report: dict = {
        "source": path,
        "window_s": window_s,
        "dumps": [],
        "crashed": [],
        "gaps": [],
        "resolutions": [],
    }

    for dump in dumps:
        events = dump.get("events", [])
        t_end = dump.get("t_mono", 0.0)
        t_lo = t_end - window_s
        kinds: dict[str, int] = {}
        first_t = last_t = None
        last_frame_t = None
        for event in events:
            t = event.get("t", 0.0)
            if t < t_lo:
                continue
            kind = event.get("kind", "?")
            kinds[kind] = kinds.get(kind, 0) + 1
            first_t = t if first_t is None else min(first_t, t)
            last_t = t if last_t is None else max(last_t, t)
            if kind.startswith("frame."):
                last_frame_t = t if last_frame_t is None else max(last_frame_t, t)
        summary = {
            "path": dump.get("path"),
            "label": _label(dump),
            "component": dump.get("component"),
            "shard_id": dump.get("shard_id"),
            "reason": dump.get("reason"),
            "t_wall": dump.get("t_wall"),
            "events_in_window": sum(kinds.values()),
            "kinds": kinds,
            "window_covered_s": (last_t - first_t) if first_t is not None else 0.0,
        }
        report["dumps"].append(summary)

        if last_frame_t is not None and (t_end - last_frame_t) > GAP_QUIET_S:
            report["gaps"].append({
                "label": _label(dump),
                "kind": "frame-silence",
                "detail": (f"last frame {t_end - last_frame_t:.1f}s before "
                           f"dump ({dump.get('reason')})"),
            })

        if dump.get("reason") in ("crash", "sigterm", "oracle"):
            open_tasks = _open_tasks(dump)
            report["crashed"].append({
                "label": _label(dump),
                "shard_id": dump.get("shard_id"),
                "reason": dump.get("reason"),
                "t_wall": dump.get("t_wall"),
                "open_tasks": open_tasks,
            })

    # Cross-correlate: settles for crashed shards' open tasks, found
    # in any other dump (typically the restarted shard or a peer).
    settles_by_dump = [(d, _settles(d)) for d in dumps]
    for crashed in report["crashed"]:
        crash_wall = crashed.get("t_wall") or 0.0
        for task_id, state in sorted(crashed["open_tasks"].items()):
            resolution: Optional[dict] = None
            for dump, settles in settles_by_dump:
                if _label(dump) == crashed["label"] and \
                        dump.get("t_wall") == crash_wall:
                    continue
                event = settles.get(task_id)
                if event is None:
                    continue
                settle_wall = _wall(dump, event.get("t", 0.0))
                candidate = {
                    "task_id": task_id,
                    "state_at_death": state,
                    "resolved_by": _label(dump),
                    "outcome": event.get("outcome"),
                    "t_wall": settle_wall,
                    "after_crash_s": settle_wall - crash_wall,
                }
                if resolution is None or settle_wall < resolution["t_wall"]:
                    resolution = candidate
            if resolution is None:
                resolution = {
                    "task_id": task_id,
                    "state_at_death": state,
                    "resolved_by": None,
                    "outcome": "unresolved",
                }
                report["gaps"].append({
                    "label": crashed["label"],
                    "kind": "stuck-task",
                    "detail": (f"task {task_id} was {state} at "
                               f"{crashed['reason']} and never settled "
                               f"in any dump"),
                })
            report["resolutions"].append(resolution)

    # Heartbeat silence: a dispatcher dump with zero HEARTBEAT rx in
    # its window while executors were registered suggests dead links,
    # unless it says no heartbeat was due (older dumps lack the key).
    for dump in dumps:
        if dump.get("component") != "dispatcher":
            continue
        extra = dump.get("extra") or {}
        if "heartbeat_interval" in extra and extra["heartbeat_interval"] is None:
            continue
        t_end = dump.get("t_mono", 0.0)
        saw_hb = any(
            e.get("kind") == FRAME_RX and e.get("subject") == "HEARTBEAT"
            and e.get("t", 0.0) >= t_end - window_s
            for e in dump.get("events", ())
        )
        saw_any_rx = any(
            e.get("kind") == FRAME_RX and e.get("t", 0.0) >= t_end - window_s
            for e in dump.get("events", ())
        )
        if saw_any_rx and not saw_hb and report["dumps"]:
            report["gaps"].append({
                "label": _label(dump),
                "kind": "heartbeat-silence",
                "detail": f"no HEARTBEAT received in last {window_s:.0f}s",
            })
    return report


def render_report(report: dict) -> str:
    lines = [f"repro doctor — {report['source']}"]
    lines.append(f"  dumps: {len(report['dumps'])}  "
                 f"window: last {report['window_s']:.0f}s")
    for d in report["dumps"]:
        lines.append(f"  [{d['label']}] reason={d['reason']} "
                     f"events={d['events_in_window']} "
                     f"span={d['window_covered_s']:.1f}s")
        for kind in sorted(d["kinds"]):
            lines.append(f"      {kind:<16} {d['kinds'][kind]}")
    if report["crashed"]:
        lines.append("crashed components:")
        for c in report["crashed"]:
            lines.append(f"  [{c['label']}] {c['reason']} with "
                         f"{len(c['open_tasks'])} task(s) in flight")
            for task_id, state in sorted(c["open_tasks"].items()):
                lines.append(f"      {task_id} ({state})")
    if report["resolutions"]:
        lines.append("resolutions:")
        for r in report["resolutions"]:
            if r.get("resolved_by"):
                lines.append(
                    f"  {r['task_id']}: {r['state_at_death']} at death -> "
                    f"{r['outcome']} by {r['resolved_by']} "
                    f"+{r['after_crash_s']:.2f}s after crash")
            else:
                lines.append(
                    f"  {r['task_id']}: {r['state_at_death']} at death -> "
                    f"UNRESOLVED")
    if report["gaps"]:
        lines.append("gaps:")
        for g in report["gaps"]:
            lines.append(f"  [{g['label']}] {g['kind']}: {g['detail']}")
    if not report["crashed"] and not report["gaps"]:
        lines.append("no crashes or gaps detected")
    return "\n".join(lines)


def doctor_main(path: str, window_s: float = DEFAULT_WINDOW_S,
                as_json: bool = False) -> str:
    """CLI entry: analyze and format (text or JSON)."""
    report = analyze(path, window_s=window_s)
    if as_json:
        import json

        return json.dumps(report, indent=2, sort_keys=True)
    return render_report(report)
