//! Per-layer accounting for the traced run.
//!
//! The benchmark wraps each call it makes into a layer in a span named
//! after that layer's metric (`json.parse`, `trees.parse`, `rt.run`,
//! `core.compose`, …). The library's own spans nest beneath them. A
//! layer's time is its benchmark span's duration minus the part covered
//! by nested solver spans (`smt.*`), which count towards `smt.check_ms`;
//! every other nested span belongs to the layer that was called. The
//! benchmark's root span per operation (`op`) holds only glue.

use fast_json::Json;
use fast_obs::trace::PhaseNode;
use fast_obs::Snapshot;
use std::collections::BTreeMap;

/// Benchmark span names whose time is a per-operation `<name>_ms`
/// metric.
pub const LAYER_SPANS: &[&str] = &[
    "proto.io",
    "json.parse",
    "json.encode",
    "trees.parse",
    "trees.display",
    "rt.run",
    "rt.pipeline_run",
    "core.compose",
    "core.restrict",
    "core.restrict_out",
    "automata.emptiness",
];

/// Adds to `out` the nanoseconds per benchmark span in `tree` (less
/// nested solver time), plus `smt.check` for the solver time itself and
/// `lang.compile` for the set-up compile.
fn add_layer_ns(tree: &[PhaseNode], out: &mut BTreeMap<&'static str, u64>) {
    fn smt_ns(nodes: &[PhaseNode]) -> u64 {
        nodes
            .iter()
            .map(|n| {
                if n.name.starts_with("smt.") {
                    n.total_ns
                } else {
                    smt_ns(&n.children)
                }
            })
            .sum()
    }
    fn walk(nodes: &[PhaseNode], out: &mut BTreeMap<&'static str, u64>) {
        for n in nodes {
            if let Some(&name) = LAYER_SPANS.iter().find(|s| **s == n.name) {
                let solver = smt_ns(&n.children);
                *out.entry(name).or_default() += n.total_ns.saturating_sub(solver);
                *out.entry("smt.check").or_default() += solver;
            } else if n.name == "lang.compile" {
                *out.entry("lang.compile").or_default() += n.total_ns;
            } else {
                walk(&n.children, out);
            }
        }
    }
    walk(tree, out);
}

/// Every per-layer metric of `BENCHMARK.json`, in order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("error_ratio", "ratio"),
    ("client.lag_p90_ms", "ms"),
    ("serve.exec_p50_ms", "ms"),
    ("serve.wait_p50_ms", "ms"),
    ("proto.frame_in_bytes", "bytes"),
    ("proto.frame_out_bytes", "bytes"),
    ("proto.io_ms", "ms"),
    ("json.parse_ms", "ms"),
    ("json.encode_ms", "ms"),
    ("trees.parse_ms", "ms"),
    ("trees.display_ms", "ms"),
    ("trees.intern_miss_ratio", "ratio"),
    ("trees.intern_resident_mb", "MB"),
    ("rt.run_ms", "ms"),
    ("rt.memo_hit_ratio", "ratio"),
    ("rt.memo_entries", "count"),
    ("rt.la_cache_hits", "count"),
    ("rt.pipeline_run_ms", "ms"),
    ("rt.pipeline_segments", "count"),
    ("rt.pool_cpu_util", "ratio"),
    ("rt.pool_steals", "count"),
    ("core.compose_ms", "ms"),
    ("core.restrict_ms", "ms"),
    ("core.restrict_out_ms", "ms"),
    ("core.compose_pair_states", "count"),
    ("automata.emptiness_ms", "ms"),
    ("automata.product_states", "count"),
    ("smt.check_count", "count"),
    ("smt.check_ms", "ms"),
    ("smt.cache_hit_ratio", "ratio"),
    ("smt.unknown_results", "count"),
    ("lang.compile_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.layer_sum_ratio", "ratio"),
];

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The counter-derived per-layer metrics over `delta` (a snapshot delta
/// spanning `ops` operations; `end` is the snapshot at its end, for
/// gauges). Counts are per operation; ratios are over the whole delta.
pub fn counter_metrics(delta: &Snapshot, end: &Snapshot, ops: usize) -> BTreeMap<String, f64> {
    let per_op = |name: &str| delta.get(name) as f64 / ops.max(1) as f64;
    let smt_hits = delta.sum_prefix("smt.cache_hits.");
    let mut m = BTreeMap::new();
    let mut set = |k: &str, v: f64| {
        m.insert(k.to_owned(), v);
    };
    set(
        "trees.intern_miss_ratio",
        ratio(
            delta.get("intern.misses"),
            delta.get("intern.misses") + delta.get("intern.hits"),
        ),
    );
    set(
        "trees.intern_resident_mb",
        end.gauge("intern.resident_bytes") as f64 / (1 << 20) as f64,
    );
    set(
        "rt.memo_hit_ratio",
        ratio(
            delta.get("rt.memo_hits"),
            delta.get("rt.memo_hits") + delta.get("rt.memo_misses"),
        ),
    );
    set("rt.memo_entries", end.gauge("rt.memo.entries") as f64);
    set("rt.la_cache_hits", per_op("rt.la_cache_hits"));
    set("rt.pool_steals", per_op("rt.pool_steals"));
    set("core.compose_pair_states", per_op("compose.pair_states"));
    set("automata.product_states", per_op("automata.product_states"));
    set("smt.check_count", per_op("smt.sat_queries"));
    set(
        "smt.cache_hit_ratio",
        ratio(smt_hits, smt_hits + delta.get("smt.cache_misses")),
    );
    set("smt.unknown_results", per_op("smt.unknown_results"));
    set("trace.dropped", delta.get("obs.trace_dropped") as f64);
    m
}

/// A replay's report: what one replay process measured. Each replay
/// traces every other operation, so that traced and untraced operations
/// share the process, its caches and the machine's speed at the time.
#[derive(Debug, Clone, Default)]
pub struct Replay {
    /// Operations replayed.
    pub ops: usize,
    /// Operations replayed with tracing on.
    pub traced_ops: usize,
    /// Operations whose output failed the reference check.
    pub wrong: usize,
    /// Wall time summed over the traced operations, in ms.
    pub traced_ms: f64,
    /// Wall time summed over the untraced operations, in ms.
    pub untraced_ms: f64,
    /// Layer times summed over the traced operations, in ms, keyed by
    /// metric name (`<span>_ms`); `lang.compile_ms` is the set-up compile.
    pub layer_ms: BTreeMap<String, f64>,
    /// Counter-derived metrics ([`counter_metrics`]) over every
    /// operation, plus any workload-specific extras.
    pub counts: BTreeMap<String, f64>,
}

impl Replay {
    /// Counts one operation that took `wall`.
    pub fn record(&mut self, traced: bool, wall: std::time::Duration) {
        let ms = wall.as_secs_f64() * 1e3;
        self.ops += 1;
        if traced {
            self.traced_ops += 1;
            self.traced_ms += ms;
        } else {
            self.untraced_ms += ms;
        }
    }

    /// Serializes the report as one JSON line.
    pub fn to_json(&self) -> Json {
        let map = |m: &BTreeMap<String, f64>| {
            Json::obj(m.iter().map(|(k, v)| (k.clone(), Json::Float(*v))))
        };
        Json::obj([
            ("ops", Json::Int(self.ops as i64)),
            ("traced_ops", Json::Int(self.traced_ops as i64)),
            ("wrong", Json::Int(self.wrong as i64)),
            ("traced_ms", Json::Float(self.traced_ms)),
            ("untraced_ms", Json::Float(self.untraced_ms)),
            ("layer_ms", map(&self.layer_ms)),
            ("counts", map(&self.counts)),
        ])
    }

    /// Parses a report written by [`Replay::to_json`].
    pub fn from_json(j: &Json) -> Option<Replay> {
        let map = |key: &str| -> Option<BTreeMap<String, f64>> {
            j.get(key)?
                .as_object()?
                .iter()
                .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        };
        let int = |key: &str| usize::try_from(j.get(key)?.as_int()?).ok();
        Some(Replay {
            ops: int("ops")?,
            traced_ops: int("traced_ops")?,
            wrong: int("wrong")?,
            traced_ms: j.get("traced_ms")?.as_f64()?,
            untraced_ms: j.get("untraced_ms")?.as_f64()?,
            layer_ms: map("layer_ms")?,
            counts: map("counts")?,
        })
    }
}

/// Layer times accumulated over a replay. The span buffer holds a
/// bounded number of events per recording thread, so the replay drains
/// it into this accumulator after every operation.
#[derive(Debug, Default)]
pub struct Layers {
    ns: BTreeMap<&'static str, u64>,
}

impl Layers {
    /// Drains the recorded spans and adds their layer times.
    pub fn collect(&mut self) {
        let events = fast_obs::drain_events();
        add_layer_ns(&fast_obs::trace::phase_tree(&events), &mut self.ns);
    }

    /// The accumulated layer times in ms, keyed by metric name
    /// (`<span>_ms`).
    pub fn totals_ms(&self) -> BTreeMap<String, f64> {
        self.ns
            .iter()
            .map(|(name, &ns)| (format!("{name}_ms"), ns as f64 / 1e6))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, total: u64, children: Vec<PhaseNode>) -> PhaseNode {
        let child: u64 = children.iter().map(|c| c.total_ns).sum();
        PhaseNode {
            name: name.to_owned(),
            count: 1,
            total_ns: total,
            self_ns: total - child,
            children,
        }
    }

    #[test]
    fn solver_time_moves_out_of_the_calling_layer() {
        let tree = vec![node(
            "op",
            100,
            vec![
                node(
                    "core.compose",
                    60,
                    vec![node(
                        "compose.total",
                        50,
                        vec![node("smt.solve", 20, vec![])],
                    )],
                ),
                node("automata.emptiness", 30, vec![]),
            ],
        )];
        let mut layers = Layers::default();
        add_layer_ns(&tree, &mut layers.ns);
        add_layer_ns(&tree, &mut layers.ns);
        assert_eq!(layers.ns["core.compose"], 80);
        assert_eq!(layers.ns["smt.check"], 40);
        assert_eq!(layers.ns["automata.emptiness"], 60);
        assert_eq!(layers.totals_ms()["core.compose_ms"], 80.0 / 1e6);
    }
}
