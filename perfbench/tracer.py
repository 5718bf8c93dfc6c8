"""Outside-in tracing of rfhnet's layers.

`Tracer.wrap` replaces a function at the module attribute its callers look
up, e.g. `rfhnet.analytic.rho`, with a wrapper that records one span per
call (name, start, end, parent span) and per-layer counts.  Nothing under
`src/` changes; `uninstall` puts every original function back.

Spans are kept in flat arrays (about 24 bytes each) so that the hot layers,
which see a few hundred thousand calls per workload, fit in memory; they
are written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    counts: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    distinct: Optional[Set] = None


class Tracer:
    def __init__(self):
        self.names = []
        self.stats: Dict[str, LayerStats] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = []      # indices of open spans, innermost last
        self._child = []     # time covered by children of each open span
        self._restore = []

    def wrap(self, owner, attr: str, name: str,
             key: Optional[Callable] = None,
             count: Optional[Callable] = None,
             failure: Optional[type] = None):
        """Trace `owner.attr` under `name`.

        key(*args, **kwargs) gives the tuple added to the `distinct` set;
        count(counts, args, result) adds layer-specific counts after a call
        returns; an exception of type `failure` is counted once, by the
        innermost traced call it passes through.
        """
        fn = getattr(owner, attr)
        stats = self.stats.setdefault(name, LayerStats())
        if key is not None:
            stats.distinct = set()
        name_id = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        opened, child = self._open, self._child
        s_name, s_parent = self.span_name, self.span_parent
        s_start, s_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            if key is not None:
                stats.distinct.add(key(*args, **kwargs))
            index = len(s_start)
            s_name.append(name_id)
            s_parent.append(opened[-1] if opened else -1)
            s_end.append(0.0)
            opened.append(index)
            child.append(0.0)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if (failure is not None and isinstance(exc, failure)
                        and not getattr(exc, "_perfbench_counted", False)):
                    exc._perfbench_counted = True
                    stats.counts["failures"] += 1
                raise
            finally:
                end = clock()
                s_end[index] = end
                opened.pop()
                duration = end - s_start[index]
                stats.calls += 1
                stats.self_s += duration - child.pop()
                if child:
                    child[-1] += duration
            if count is not None:
                count(stats.counts, args, result)
            return result

        functools.update_wrapper(traced, fn)
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def uninstall(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    @property
    def n_spans(self) -> int:
        return len(self.span_start)

    def save(self, path):
        """Write every span as a numpy archive: names, name index, parent
        index (-1 for a root span), start and end in perf_counter seconds."""
        import numpy as np  # here, so that run.py stays standard-library only
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))


def install_layers(tracer: Tracer, rfhnet) -> None:
    """Wrap the public functions of config, cli, analytic, numerics and
    mcsim that the benchmark's workloads reach.  `rfhnet` is the imported
    package, with `rfhnet.cli` imported too."""
    analytic, mcsim = rfhnet.analytic, rfhnet.mcsim

    def evaluations(counts, args, result):
        counts["evaluations"] += result.evaluations

    def field_size(counts, args, result):
        counts["users"] += len(result.user_xy)
        counts["stations"] += len(result.bs_xy)

    def replication_work(counts, args, result):
        field, _, config = args[:3]
        users, stations = len(field.user_xy), len(field.bs_xy)
        counts["user_slots"] += users * config.n_slots
        counts["link_slots"] += users * stations * config.n_slots
        counts["events"] += result.n_events

    def capacity_key(r1, params, policy):
        # the mean link rate depends on distance, station density, path
        # loss, noise, power and tolerance; not on users or energy
        return (r1, params.lambda_b, params.alpha, params.sigma2,
                params.p_s, policy.quad_rel_tol)

    tracer.wrap(rfhnet.config, "load_config", "config.load_config")
    tracer.wrap(rfhnet.cli, "run_sweep", "cli.run_sweep")
    tracer.wrap(analytic, "delivery_prob", "analytic.delivery_prob")
    tracer.wrap(analytic, "delivery_prob_given_n_r1",
                "analytic.delivery_prob_given_n_r1")
    tracer.wrap(analytic, "total_throughput", "analytic.total_throughput")
    tracer.wrap(analytic, "expected_capacity_given_r1",
                "analytic.expected_capacity_given_r1", key=capacity_key)
    tracer.wrap(analytic, "capacity_ccdf", "analytic.capacity_ccdf")
    tracer.wrap(analytic, "rho", "analytic.rho",
                key=lambda x, alpha, policy=None: (x, alpha))
    tracer.wrap(analytic, "integrate_semi_infinite",
                "numerics.integrate_semi_infinite", count=evaluations,
                failure=rfhnet.numerics.QuadratureError)
    tracer.wrap(mcsim, "sample_field", "mcsim.sample_field",
                count=field_size)
    tracer.wrap(mcsim, "run_replication", "mcsim.run_replication",
                count=replication_work)


# traced layers, the stats each reports, and the end-to-end metrics a
# change in the layer should move, in report order
LAYERS = (
    ("analytic.rho", ("calls", "distinct", "self_s"), "wall_s, first_op_s"),
    ("analytic.capacity_ccdf", ("calls", "self_s"), "wall_s, first_op_s"),
    ("analytic.expected_capacity_given_r1", ("calls", "distinct", "self_s"),
     "first_op_s vs op_s_p50"),
    ("numerics.integrate_semi_infinite",
     ("calls", "evaluations", "failures", "self_s"), "wall_s, fail_ratio"),
    ("analytic.delivery_prob_given_n_r1", ("calls", "self_s"),
     "wall_s, op_s_p50"),
    ("analytic.delivery_prob", ("calls", "self_s"), "op_s_p50"),
    ("analytic.total_throughput", ("calls", "self_s"), "wall_s"),
    ("mcsim.sample_field", ("calls", "self_s", "users", "stations"),
     "wall_s, peak_rss_mb"),
    ("mcsim.run_replication",
     ("calls", "self_s", "user_slots", "link_slots", "events"),
     "user_slots_per_s, wall_s, peak_rss_mb"),
    ("config.load_config", ("calls", "self_s"), "setup_s"),
    ("cli.run_sweep", ("calls", "self_s"), "wall_s, op_s_p50"),
)

# per-layer metric name -> unit
LAYER_METRICS = {f"{layer}.{stat}": "s" if stat == "self_s" else "count"
                 for layer, stats, _ in LAYERS for stat in stats}


def layer_values(tracer: Tracer) -> Dict[str, float]:
    """Every metric of LAYER_METRICS; a layer never called reads 0."""
    out = {}
    for metric in LAYER_METRICS:
        layer, stat = metric.rsplit(".", 1)
        stats = tracer.stats.get(layer, LayerStats())
        if stat == "calls":
            out[metric] = stats.calls
        elif stat == "self_s":
            out[metric] = stats.self_s
        elif stat == "distinct":
            out[metric] = len(stats.distinct or ())
        else:
            out[metric] = stats.counts.get(stat, 0)
    return out
