//! Result line, summary statistics and process resource usage.

use std::collections::BTreeMap;

use dls_experiments::json::json_num;

/// What one benchmark run prints as the last line of its standard output.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Print a readable table on stderr and the JSON result line on stdout.
    pub fn print(&self) {
        eprintln!(
            "correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        let mut json = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            eprintln!("  {name:<40} {value:>16.6} {unit}");
            if i > 0 {
                json.push(',');
            }
            json.push_str(&format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(*value)
            ));
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`); 0 when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the values (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// The `p` percentile over requests that are sent once per pass, from
/// `(request, latency)` samples: each request's latency is its fastest
/// send, or `failed` when any send failed (a sample at or above `failed`).
/// A shared host's interference only ever adds latency, and it catches
/// some sends of a request and not others, so the fastest send keeps it
/// out of the figure; a slower program slows every send.
pub fn replayed_percentile(samples: &[(usize, f64)], failed: f64, p: f64) -> f64 {
    let mut sends: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(request, latency) in samples {
        sends.entry(request).or_default().push(latency);
    }
    let mut per_request: Vec<f64> = sends
        .into_values()
        .map(|v| {
            if v.iter().any(|&x| x >= failed) {
                failed
            } else {
                v.into_iter().fold(f64::INFINITY, f64::min)
            }
        })
        .collect();
    per_request.sort_by(f64::total_cmp);
    percentile(&per_request, p)
}

/// The `p` percentile of each block of `(block, value)` samples, in block
/// order, leaving out blocks holding fewer samples than the fullest one.
pub fn per_block_percentile(samples: &[(u64, f64)], p: f64) -> Vec<f64> {
    let mut blocks: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(block, value) in samples {
        blocks.entry(block).or_default().push(value);
    }
    let fullest = blocks.values().map(Vec::len).max().unwrap_or(0);
    blocks
        .into_values()
        .filter(|w| w.len() == fullest)
        .map(|mut w| {
            w.sort_by(f64::total_cmp);
            percentile(&w, p)
        })
        .collect()
}

/// One-sided 95% Wilson upper bound on a failure rate of `bad` out of `n`.
/// It is never 0 for finite `n`: a clean run of `n` operations reports
/// about `2.7 / n`, the rate it can still not rule out.
pub fn wilson_upper(bad: u64, n: u64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let z = 1.645_f64;
    let n = n as f64;
    let p = bad as f64 / n;
    let z2n = z * z / n;
    let centre = p + z2n / 2.0;
    let margin = z * (p * (1.0 - p) / n + z2n / (4.0 * n)).sqrt();
    ((centre + margin) / (1.0 + z2n)).min(1.0)
}

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads CPU time and peak RSS through Linux getrusage");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// Linux `struct rusage` on 64-bit targets: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

fn usage_of(who: i32) -> Rusage {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `ru` is a live, writable value laid out as the 64-bit Linux
    // `struct rusage`, and `who` is RUSAGE_SELF or RUSAGE_THREAD; getrusage
    // writes only inside that struct.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage of this process or thread cannot fail");
    ru
}

fn cpu_seconds(ru: &Rusage) -> f64 {
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&ru.utime) + secs(&ru.stime)
}

/// This process's `(user + system CPU seconds, peak resident MiB)`.
pub fn rusage() -> (f64, f64) {
    const RUSAGE_SELF: i32 = 0;
    let ru = usage_of(RUSAGE_SELF);
    (cpu_seconds(&ru), ru.maxrss as f64 / 1024.0)
}

/// User + system CPU seconds of the calling thread.
pub fn thread_cpu_seconds() -> f64 {
    const RUSAGE_THREAD: i32 = 1;
    cpu_seconds(&usage_of(RUSAGE_THREAD))
}

/// Move the calling thread to the `SCHED_IDLE` class, where it runs only
/// when nothing else on its CPU can. Returns false if the kernel refused.
pub fn set_idle_priority() -> bool {
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { priority: 0 };
    // SAFETY: pid 0 names the calling thread, SCHED_IDLE takes priority 0,
    // and `param` outlives the call, which only reads it.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn per_block_percentiles_leave_out_a_short_tail_block() {
        // Blocks with p50 = 3, 50, 2 (value repeated) and a short tail.
        let mut samples: Vec<(u64, f64)> = [3.0, 50.0, 2.0]
            .iter()
            .enumerate()
            .flat_map(|(b, &v)| std::iter::repeat_n((b as u64, v), 4))
            .collect();
        samples.push((3, 0.5));
        assert_eq!(per_block_percentile(&samples, 0.5), [3.0, 50.0, 2.0]);
    }

    #[test]
    fn replayed_percentiles_take_each_requests_fastest_send() {
        // Requests 0..=3 sent three times; one send of request 3 hit a
        // burst, one send of request 2 failed.
        let sends = [
            [1.0, 1.2, 1.1],
            [2.0, 2.1, 2.2],
            [3.0, 1e9, 3.1],
            [4.0, 40.0, 4.2],
        ];
        let samples: Vec<(usize, f64)> = sends
            .iter()
            .enumerate()
            .flat_map(|(r, s)| s.iter().map(move |&ms| (r, ms)))
            .collect();
        assert_eq!(replayed_percentile(&samples, 1e9, 0.5), 2.0);
        assert_eq!(replayed_percentile(&samples, 1e9, 0.75), 4.0);
        assert_eq!(replayed_percentile(&samples, 1e9, 1.0), 1e9);
    }

    #[test]
    fn wilson_bound_is_positive_and_monotone() {
        let clean = wilson_upper(0, 1000);
        assert!(clean > 0.002 && clean < 0.003, "{clean}");
        assert!(wilson_upper(5, 1000) > clean);
        assert!(wilson_upper(5, 1000) > 0.005);
    }

    #[test]
    fn rusage_reports_cpu_and_memory() {
        let (cpu, rss) = rusage();
        assert!(cpu >= 0.0 && rss > 0.0);
        assert!(thread_cpu_seconds() <= cpu + 1e-3);
    }

    #[test]
    fn idle_priority_is_granted_without_privileges() {
        let granted = std::thread::spawn(set_idle_priority).join().unwrap();
        assert!(granted);
    }
}
