//! The metric names the benchmark reports. `BENCHMARK.json` lists the same
//! names; `perfbench/README.md` says which end-to-end metric and workload
//! each per-layer metric should move.

use std::collections::BTreeMap;

/// Scheduler kinds with their own planner-time and ns/event metrics.
pub const KINDS: [&str; 11] = [
    "rumr",
    "umr",
    "mi1",
    "mi2",
    "mi3",
    "mi4",
    "factoring",
    "het_umr",
    "het_rumr",
    "one_round",
    "gss",
];

/// The metric label of a scheduler kind, or "" for kinds without one.
pub fn kind_label(kind: &rumr::SchedulerKind) -> &'static str {
    use rumr::SchedulerKind as K;
    match kind {
        K::Rumr(_) => "rumr",
        K::Umr => "umr",
        K::Mi { installments: 1 } => "mi1",
        K::Mi { installments: 2 } => "mi2",
        K::Mi { installments: 3 } => "mi3",
        K::Mi { installments: 4 } => "mi4",
        K::Factoring => "factoring",
        K::HetUmr => "het_umr",
        K::HetRumr(_) => "het_rumr",
        K::OneRound => "one_round",
        K::Gss => "gss",
        _ => "",
    }
}

/// Every per-layer metric as `(name, unit)`, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("sched.plan_calls".into(), "count"),
        ("sched.plan_share".into(), "ratio"),
        ("sched.plan_distinct_ratio".into(), "ratio"),
    ];
    out.extend(KINDS.iter().map(|k| (format!("sched.plan_us.{k}"), "us")));
    for (name, unit) in [
        ("core.fastpath.resolve_us", "us"),
        ("core.fastpath.analytic_ratio", "ratio"),
        ("serve.fastpath.audited", "count"),
        ("serve.fastpath.divergences", "count"),
        ("core.runner_setup_us", "us"),
        ("core.robustness_us", "us"),
        ("simcore.runs", "count"),
        ("simcore.events", "count"),
        ("simcore.engine_share", "ratio"),
        ("simcore.engine_ns_per_event", "ns"),
    ] {
        out.push((name.into(), unit));
    }
    out.extend(
        KINDS
            .iter()
            .map(|k| (format!("simcore.engine_ns_per_event.{k}"), "ns")),
    );
    for (name, unit) in [
        ("simcore.audit_overhead_ratio", "ratio"),
        ("serve.api.decode_us", "us"),
        ("serve.api.key_us", "us"),
        ("serve.api.response_bytes.plan", "bytes"),
        ("serve.api.response_bytes.simulate", "bytes"),
        ("serve.http.healthz_rtt_us", "us"),
        ("serve.server.handler_us.plan", "us"),
        ("serve.server.handler_us.simulate", "us"),
        ("serve.wait_us.plan", "us"),
        ("serve.wait_us.simulate", "us"),
        ("serve.shard.max_share", "ratio"),
        ("serve.server.rejected", "count"),
        ("serve.server.accept_errors", "count"),
        ("serve.cache.plan_hit_ratio", "ratio"),
        ("serve.cache.sim_hit_ratio", "ratio"),
        ("serve.cache.evictions", "count"),
        ("load_gen.late_p99_ms", "ms"),
        ("load_gen.late_max_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        out.push((name.into(), unit));
    }
    out
}

/// Per-layer values filled in by a workload. Layers a workload does not
/// exercise (its controls) report 0.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        debug_assert!(
            per_layer().iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// All per-layer metrics in print order.
    pub fn into_metrics(self) -> Vec<(String, f64, &'static str)> {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = self.0.get(&name).copied().unwrap_or(0.0);
                (name, value, unit)
            })
            .collect()
    }
}

/// Set the planner and engine metrics that both the sweep and the serving
/// replays derive from `sched.plan` and `simcore.engine` spans. `work` is
/// the span name that covers one unit of replayed work (a sweep cell or a
/// served request); `runs` counts the simulations the engine spans ran.
pub fn set_plan_and_engine(
    layers: &mut Layers,
    tracer: &crate::trace::Tracer,
    work: &str,
    distinct_plans: usize,
    runs: u64,
) {
    let plan_calls = tracer.named("sched.plan").count();
    let work_ns = tracer.total_ns(work).max(1) as f64;
    layers.set("sched.plan_calls", plan_calls as f64);
    layers.set(
        "sched.plan_share",
        tracer.total_ns("sched.plan") as f64 / work_ns,
    );
    if plan_calls > 0 {
        layers.set(
            "sched.plan_distinct_ratio",
            distinct_plans as f64 / plan_calls as f64,
        );
    }
    for k in KINDS {
        layers.set(
            format!("sched.plan_us.{k}"),
            tracer.mean_us("sched.plan", Some(k)),
        );
        layers.set(
            format!("simcore.engine_ns_per_event.{k}"),
            tracer.ns_per_count("simcore.engine", Some(k)),
        );
    }
    layers.set("simcore.runs", runs as f64);
    layers.set(
        "simcore.events",
        tracer.named("simcore.engine").map(|s| s.count).sum::<u64>() as f64,
    );
    layers.set(
        "simcore.engine_share",
        tracer.total_ns("simcore.engine") as f64 / work_ns,
    );
    layers.set(
        "simcore.engine_ns_per_event",
        tracer.ns_per_count("simcore.engine", None),
    );
    layers.set(
        "core.runner_setup_us",
        tracer.mean_us("core.runner_setup", None),
    );
}
