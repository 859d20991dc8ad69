"""In-memory span tracer for the traced benchmark run.

`install()` wraps iondpt functions at the names their callers look up, so
that every call across a module boundary records a span: name, start, end,
parent span, scan point and pid.  Nothing inside iondpt changes; the
wrappers live here.  Pool workers inherit the wrappers through fork, spill
their spans to one file per pid after each scan point, and `collect()`
merges those files with the parent's spans.  `layer_metrics()` reduces the
merged spans to the per-layer metrics named in BENCHMARK.json.
"""

import functools
import json
import os
import time


class Tracer:
    """Span store of one process tree.  Spans stay in memory; forked
    workers start with an empty store but keep the open-span stack, so
    their spans name the parent's open scan span as their parent."""

    def __init__(self, spill_dir):
        self.spill_dir = spill_dir
        self.root_pid = os.getpid()
        self.pid = self.root_pid
        self.spans = []
        self.stack = []
        self.count = 0
        self.point = None
        self._patched = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self):
        self.pid = os.getpid()
        self.spans = []
        self.count = 0

    def open(self, name):
        self.count += 1
        span = {"id": f"{self.pid}.{self.count}", "name": name,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "point": self.point, "pid": self.pid,
                "start": time.perf_counter(), "end": None}
        self.stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)

    def spill(self):
        """Append this worker's spans to its per-pid file and forget them."""
        path = os.path.join(self.spill_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def wrap(self, owner, attr, name, after=None):
        """Replace owner.attr by a wrapper recording a span `name`.

        after(span, args, kwargs, result) may add fields to the span; an
        exception is recorded in span["error"] and re-raised.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched = []

    def collect(self):
        """Parent's spans plus every worker's spilled spans."""
        spans = list(self.spans)
        for entry in sorted(os.listdir(self.spill_dir)):
            if entry.startswith("spans-") and entry.endswith(".jsonl"):
                with open(os.path.join(self.spill_dir, entry)) as fh:
                    spans.extend(json.loads(line) for line in fh)
        return spans


def install(spill_dir):
    """Wrap the iondpt call boundaries of every layer; returns the Tracer."""
    from iondpt import (analysis, channels, cli, config, fockspace, model,
                        probe, protocol)

    tr = Tracer(spill_dir)

    # cli
    tr.wrap(cli, "main", "cli.main")

    # config: the module's own names (benchmark set-up) and cli's imports
    for fn in ("load_tree", "experiment_from_tree", "scan_spec", "probe_spec"):
        tr.wrap(config, fn, f"config.{fn}")
        tr.wrap(cli, fn, f"config.{fn}")

    # analysis
    def scan_attrs(span, args, kwargs, result):
        span["threads"] = kwargs.get("threads", 1) or 1

    tr.wrap(analysis, "g_scan", "analysis.g_scan", scan_attrs)
    tr.wrap(analysis, "r_scan", "analysis.r_scan", scan_attrs)
    tr.wrap(analysis, "fit_loglog_slope", "analysis.fit_loglog_slope")
    point_fn = analysis._steady_point

    @functools.wraps(point_fn)
    def steady_point(args):
        d = model.derive(args[0].drive)
        tr.point = f"g={d.coupling_g:.6g},R={d.ratio_r:.6g}"
        span = tr.open("analysis.point")
        try:
            return point_fn(args)
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            tr.close(span)
            tr.point = None
            if tr.pid != tr.root_pid:
                tr.spill()

    analysis._steady_point = steady_point
    tr._patched.append((analysis, "_steady_point", point_fn))

    # protocol, looked up by analysis
    def run_attrs(span, args, kwargs, result):
        span["cycles"] = int(result.cycles_run)

    tr.wrap(analysis, "run", "protocol.run", run_attrs)

    # model, where protocol, channels and probe look the builders up
    tr.wrap(protocol, "h_qrm", "model.h_qrm")
    tr.wrap(channels, "h_red_sideband", "model.h_red_sideband")
    tr.wrap(probe, "h_blue_sideband", "model.h_blue_sideband")

    # channels
    def cooling_attrs(span, args, kwargs, result):
        span["dim"] = int(args[1].shape[0])
        span["noisy"] = bool(args[0].noise.any_decoherence)

    tr.wrap(channels.CoolingChannel, "__init__", "channels.CoolingChannel.init")
    tr.wrap(channels.CoolingChannel, "apply", "channels.CoolingChannel.apply",
            cooling_attrs)
    tr.wrap(channels.SplitStepPropagator, "__init__",
            "channels.SplitStepPropagator.init")
    tr.wrap(channels.SplitStepPropagator, "apply",
            "channels.SplitStepPropagator.apply")
    tr.wrap(protocol, "unitary_propagator", "channels.unitary_propagator")
    tr.wrap(channels, "unitary_propagator", "channels.unitary_propagator")
    tr.wrap(protocol, "make_noise_jumps", "channels.make_noise_jumps")
    tr.wrap(channels, "lindblad_step", "channels.lindblad_step")
    tr.wrap(channels, "recoil_kick", "channels.recoil_kick")

    # fockspace: protocol calls through the module, the rest import names
    for fn in ("tail_mass", "expectation", "thermal_state", "trace_out_spin"):
        tr.wrap(fockspace, fn, f"fockspace.{fn}")
    for mod in (channels, analysis):
        tr.wrap(mod, "trace_out_spin", "fockspace.trace_out_spin")

    # probe
    def lsq_attrs(span, args, kwargs, result):
        span["nfev"] = int(result.nfev)

    tr.wrap(analysis, "measure_nbar", "probe.measure_nbar")
    tr.wrap(probe, "simulate_probe", "probe.simulate_probe")
    tr.wrap(probe, "fit_populations", "probe.fit_populations")
    tr.wrap(probe, "least_squares", "probe.least_squares", lsq_attrs)
    return tr


# --- reduction to per-layer metrics -----------------------------------------

SETUP_SPANS = ("channels.CoolingChannel.init",
               "channels.SplitStepPropagator.init",
               "channels.unitary_propagator")
BOOKKEEPING_SPANS = ("fockspace.tail_mass", "fockspace.expectation",
                     "fockspace.thermal_state", "fockspace.trace_out_spin")
CONFIG_SPANS = ("config.load_tree", "config.experiment_from_tree",
                "config.scan_spec", "config.probe_spec")
HAMILTONIAN_SPANS = ("model.h_qrm", "model.h_red_sideband",
                     "model.h_blue_sideband")


def _duration(span):
    return span["end"] - span["start"]


def layer_metrics(spans):
    """Per-layer metrics from merged spans (values only, no units).

    Self time subtracts only children in the same process: the pool
    workers' point spans overlap each other and the parent's wait.
    """
    by_id = {s["id"]: s for s in spans}
    children_s = {}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["pid"] == s["pid"]:
            children_s[parent["id"]] = children_s.get(parent["id"], 0.0) + _duration(s)

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def total(*names):
        return sum((_duration(s) for s in named(*names)), 0.0)

    def self_time(*names):
        return sum((_duration(s) - children_s.get(s["id"], 0.0)
                    for s in named(*names)), 0.0)

    def outermost(names):
        """Summed time of spans in `names` not nested in another of them."""
        out = 0.0
        for s in named(*names):
            parent = by_id.get(s["parent"])
            while parent is not None and parent["name"] not in names:
                parent = by_id.get(parent["parent"])
            if parent is None:
                out += _duration(s)
        return out

    def parent_name(span):
        parent = by_id.get(span["parent"])
        return parent["name"] if parent is not None else None

    runs = named("protocol.run")
    cycles_kept = sum(s.get("cycles", 0) for s in runs)
    cooling = named("channels.CoolingChannel.apply")
    applied = len(cooling)
    run_s = total("protocol.run")
    points = named("analysis.point")
    busy = sum((_duration(s) for s in points), 0.0)
    scans = named("analysis.g_scan", "analysis.r_scan")
    capacity = sum(s.get("threads", 1) * _duration(s) for s in scans)
    splitstep = named("channels.SplitStepPropagator.apply")
    drive_flop = sum(16.0 * s["dim"] ** 3 for s in cooling
                     if s.get("noisy") is False)

    return {
        "cli.self_s": self_time("cli.main"),
        "config_s": outermost(CONFIG_SPANS),
        "analysis.points": len(points),
        "analysis.pool.busy_s": busy,
        "analysis.pool.utilization": busy / capacity if capacity else 0.0,
        "analysis.fit_s": total("analysis.fit_loglog_slope"),
        "protocol.run.count": len(runs),
        "protocol.run_s": run_s,
        "protocol.self_s": self_time("protocol.run"),
        "protocol.cycles_kept": cycles_kept,
        "protocol.cycles_applied": applied,
        "protocol.cycle_yield": cycles_kept / applied if applied else 0.0,
        "protocol.escalations": len(named("model.h_qrm")) - len(runs),
        "protocol.cycles_per_point": applied / len(runs) if runs else 0.0,
        "protocol.ms_per_cycle": 1e3 * run_s / applied if applied else 0.0,
        "channels.cooling.count": applied,
        "channels.cooling_s": total("channels.CoolingChannel.apply"),
        "channels.lindblad_step.count": len(named("channels.lindblad_step")),
        "channels.lindblad_step_s": total("channels.lindblad_step"),
        "channels.splitstep.drive_s": sum(
            (_duration(s) for s in splitstep
             if parent_name(s) == "protocol.run"), 0.0),
        "channels.splitstep.dissipation_s": sum(
            (_duration(s) for s in splitstep
             if parent_name(s) == "channels.CoolingChannel.apply"), 0.0),
        "channels.recoil.count": len(named("channels.recoil_kick")),
        "channels.recoil_s": total("channels.recoil_kick"),
        "channels.setup_s": outermost(SETUP_SPANS),
        "model.hamiltonian.count": len(named(*HAMILTONIAN_SPANS)),
        "model.hamiltonian_s": total(*HAMILTONIAN_SPANS),
        "fockspace.bookkeeping_s": outermost(BOOKKEEPING_SPANS),
        "fockspace.tail_mass.count": len(named("fockspace.tail_mass")),
        "probe.measure.count": len(named("probe.measure_nbar")),
        "probe.measure_s": total("probe.measure_nbar"),
        "probe.simulate_s": total("probe.simulate_probe"),
        "probe.fit_s": total("probe.fit_populations"),
        "probe.fit.nfev": sum(s.get("nfev", 0)
                              for s in named("probe.least_squares")),
        "probe.fit.failed": sum(1 for s in named("probe.fit_populations")
                                if "error" in s),
        "kernel.drive.gflop": drive_flop / 1e9,
    }
