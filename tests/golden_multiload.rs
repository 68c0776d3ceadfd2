//! Golden multi-load regressions: six pinned concurrent-tenant cases.
//!
//! Each case pins the set makespan bits, the total chunk count, and every
//! job's completion-time bits, so any drift in the arbitration layer, the
//! timer machinery, or the per-job accounting shows up as a bit-level
//! diff. The pins were captured from the engine when the multi-load layer
//! landed.

use rumr::{
    FaultModel, FaultPlan, JobSet, MultiJob, MultiPolicy, MultiRunResult, MultiRunSpec,
    RecoveryConfig, Scenario, SchedulerKind, SimConfig, SpeedModel, TraceMode,
};

fn audited() -> SimConfig {
    SimConfig {
        trace_mode: TraceMode::Full,
        audit: true,
        ..Default::default()
    }
}

/// Assert the full pin set for one case and that both audits came back
/// clean (a golden run with findings is a broken golden run).
fn assert_pins(what: &str, r: &MultiRunResult, makespan: u64, chunks: usize, completions: &[u64]) {
    assert_eq!(r.total_audit_findings(), 0, "{what}: audit findings");
    assert_eq!(
        r.sim.makespan.to_bits(),
        makespan,
        "{what}: makespan {} ({:#x})",
        r.sim.makespan,
        r.sim.makespan.to_bits()
    );
    assert_eq!(r.sim.num_chunks, chunks, "{what}: chunk count");
    assert_eq!(r.jobs.len(), completions.len(), "{what}: job count");
    for (j, &bits) in r.jobs.iter().zip(completions) {
        let c = j.completion.expect("golden jobs complete");
        assert_eq!(
            c.to_bits(),
            bits,
            "{what} job {}: completion {} ({:#x})",
            j.job,
            c,
            c.to_bits()
        );
    }
}

/// Case 1: mixed sizes released simultaneously, FIFO-exclusive factoring
/// on the Table-1 platform.
#[test]
fn fifo_mixed_sizes_simultaneous() {
    let scenario = Scenario::table1(10, 1.5, 0.2, 0.2, 0.3);
    let set = JobSet::simultaneous(&[400.0, 250.0, 150.0, 100.0]).unwrap();
    let spec =
        MultiRunSpec::from_job_set(&set, SchedulerKind::Factoring, MultiPolicy::FifoExclusive)
            .seed(1)
            .config(audited());
    let r = scenario.execute_jobs(&spec).unwrap();
    assert_pins(
        "fifo/simultaneous",
        &r,
        0x4060cdb8ebd93b6c,
        163,
        &[
            0x404bc6f44dd4e4d7,
            0x4056fa6fa4ce3f24,
            0x405ce28858f53a74,
            0x4060cdb8ebd93b6c,
        ],
    );
}

/// Case 2: staggered releases with a different planner per tenant under
/// round-robin arbitration (exercises WaitUntil timers between releases).
#[test]
fn round_robin_staggered_mixed_planners() {
    let scenario = Scenario::table1(10, 1.5, 0.2, 0.2, 0.3);
    let spec = MultiRunSpec::new(MultiPolicy::RoundRobin)
        .job(MultiJob::new(0.0, 400.0, SchedulerKind::Factoring))
        .job(MultiJob::new(40.0, 250.0, SchedulerKind::Umr))
        .job(MultiJob::new(
            90.0,
            150.0,
            SchedulerKind::rumr_known_error(0.3),
        ))
        .seed(42)
        .config(audited());
    let r = scenario.execute_jobs(&spec).unwrap();
    assert_pins(
        "round-robin/staggered",
        &r,
        0x405c878bd5a17cdb,
        141,
        &[0x4053b7f5ec7ef9e1, 0x40541a5a12304fd8, 0x405c878bd5a17cdb],
    );
}

/// Case 3: Poisson arrivals under fair-share on the heterogeneous
/// platform.
#[test]
fn fair_share_poisson_heterogeneous() {
    let scenario = Scenario::heterogeneous_demo(8, 0.2);
    let set = JobSet::poisson(5, 40.0, 200.0, 7);
    let spec = MultiRunSpec::from_job_set(&set, SchedulerKind::Factoring, MultiPolicy::FairShare)
        .seed(7)
        .config(audited());
    let r = scenario.execute_jobs(&spec).unwrap();
    assert_pins(
        "fair-share/poisson",
        &r,
        0x407efe71838ae39e,
        146,
        &[
            0x404c440ba8110e9e,
            0x406068df272bd80b,
            0x40611599a4a3dba5,
            0x40732f686c92c2aa,
            0x407efe71838ae39e,
        ],
    );
}

/// Case 4: a pinned fault plan with per-job recovery — the redispatch
/// path through the arbitration layer is deterministic too.
#[test]
fn faulty_recovering_multiload() {
    let scenario = Scenario::table1(10, 1.5, 0.2, 0.2, 0.2);
    let mut config = audited();
    config.faults = FaultModel::Plan(FaultPlan::new().crash_recover(15.0, 2, 20.0));
    let recovery = RecoveryConfig::default();
    let spec = MultiRunSpec::new(MultiPolicy::FifoExclusive)
        .job(MultiJob::new(0.0, 300.0, SchedulerKind::Factoring).recovering(recovery))
        .job(MultiJob::new(25.0, 200.0, SchedulerKind::Factoring).recovering(recovery))
        .seed(11)
        .config(config);
    let r = scenario.execute_jobs(&spec).unwrap();
    assert!(r.sim.lost_chunks > 0, "the pinned plan must lose work");
    assert_pins(
        "faulty/recovering",
        &r,
        0x40535c125cdf98e0,
        103,
        &[0x4047945ab6ad1ba2, 0x40535c125cdf98e0],
    );
}

/// Case 5: an adversarial speed-revelation profile composed with the
/// multi-load layer.
#[test]
fn speed_revelation_multiload() {
    let scenario = Scenario::table1(8, 1.5, 0.2, 0.2, 0.0);
    let mut config = audited();
    config.speeds = SpeedModel::Adversarial {
        fraction: 0.25,
        slowdown: 2.0,
    };
    let spec = MultiRunSpec::new(MultiPolicy::RoundRobin)
        .job(MultiJob::new(0.0, 300.0, SchedulerKind::Factoring))
        .job(MultiJob::new(25.0, 150.0, SchedulerKind::Factoring))
        .seed(3)
        .config(config);
    let r = scenario.execute_jobs(&spec).unwrap();
    assert_pins(
        "speed-revelation",
        &r,
        0x4055dc99999999a5,
        76,
        &[0x4055dc99999999a5, 0x4055c4333333333e],
    );
}

/// Case 6: bursty arrivals under fair-share. (The name dates from when
/// this case also compared two event-queue implementations.)
#[test]
fn bursty_fair_share_backend_bit_identity() {
    let scenario = Scenario::table1(10, 1.5, 0.2, 0.2, 0.3);
    let set = JobSet::bursty(2, 2, 120.0, 180.0, 5);
    let spec = MultiRunSpec::from_job_set(&set, SchedulerKind::Factoring, MultiPolicy::FairShare)
        .seed(5)
        .config(audited());
    let r = scenario.execute_jobs(&spec).unwrap();
    assert_pins(
        "bursty",
        &r,
        0x4065efa53209d184,
        109,
        &[
            0x403559856c65f409,
            0x4035287dec98a1d2,
            0x4065efa53209d184,
            0x40658deaa6728eb6,
        ],
    );
}
