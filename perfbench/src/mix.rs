//! Seeded request pools for the two serving mixes.
//!
//! A pool is a fixed list of requests generated from the workload seed;
//! the load phases walk it in order and wrap around. Request classes come
//! from a shuffled deck, so every class appears in fixed proportions. The
//! content of each class (platform, W, kind, error, repetitions) comes from
//! a fixed design of its own, whose Table 1 decks put every Table 1 value
//! (cLat = 0 included) in fixed proportions; the seed interleaves the
//! classes and draws run seeds, fault seeds and repeats.

/// SplitMix64: a small seeded generator for the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`, rounded to three decimals.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        ((lo + (hi - lo) * self.unit()) * 1000.0).round() / 1000.0
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws every item once per round, in a fresh seeded order each round.
struct Deck<T: Copy> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(items: Vec<T>) -> Self {
        let next = items.len();
        Deck { items, next }
    }

    fn draw(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    Plan,
    Simulate,
    Healthz,
}

impl Endpoint {
    pub fn method_and_path(self) -> (&'static str, &'static str) {
        match self {
            Endpoint::Plan => ("POST", "/v1/plan"),
            Endpoint::Simulate => ("POST", "/v1/simulate"),
            Endpoint::Healthz => ("GET", "/v1/healthz"),
        }
    }
}

/// One request of a pool. `origin` is the index of the first request with
/// the same body (its own index unless it is a repeat).
pub struct Req {
    pub endpoint: Endpoint,
    pub body: String,
    pub origin: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Engine,
    Analytic,
}

#[derive(Clone, Copy)]
enum Slot {
    // Engine mix.
    Noisy,
    NoisyHet,
    Faulty,
    Adversarial,
    RepeatSimulate,
    PlanEngine,
    // Analytic mix.
    PlanExact,
    SimulateExact,
    HetUmr,
    RepeatPlan,
    Healthz,
}

/// Slots per deck round: the mix proportions in twentieths.
fn slots(mix: Mix) -> Vec<Slot> {
    let counts: &[(Slot, usize)] = match mix {
        Mix::Engine => &[
            (Slot::Noisy, 10),
            (Slot::NoisyHet, 2),
            (Slot::Faulty, 2),
            (Slot::Adversarial, 2),
            (Slot::RepeatSimulate, 2),
            (Slot::PlanEngine, 2),
        ],
        Mix::Analytic => &[
            (Slot::PlanExact, 7),
            (Slot::SimulateExact, 5),
            (Slot::HetUmr, 3),
            (Slot::RepeatPlan, 3),
            (Slot::Healthz, 2),
        ],
    };
    counts
        .iter()
        .flat_map(|&(slot, n)| std::iter::repeat_n(slot, n))
        .collect()
}

/// How far back a repeat may reach: well inside both response caches.
const REPEAT_WINDOW: usize = 32;
/// Repeats skip the most recent requests, which may still be in flight.
const REPEAT_GAP: usize = 4;

/// Table 1 parameter decks and the generator that shuffles them.
struct Table1Draws {
    rng: Rng,
    n: Deck<usize>,
    ratio: Deck<u32>,
    clat: Deck<u32>,
    nlat: Deck<u32>,
    /// Strata of log10(W) over [3, 6).
    w_stratum: Deck<u32>,
}

const W_STRATA: u32 = 12;

fn tenths(t: u32) -> String {
    format!("{}.{}", t / 10, t % 10)
}

impl Table1Draws {
    fn new(seed: u64) -> Self {
        Table1Draws {
            rng: Rng::new(seed),
            n: Deck::new((10..=50).step_by(5).collect()),
            ratio: Deck::new((12..=20).collect()),
            clat: Deck::new((0..=10).collect()),
            nlat: Deck::new((0..=10).collect()),
            w_stratum: Deck::new((0..W_STRATA).collect()),
        }
    }

    /// A Table 1 platform in the homogeneous shorthand.
    fn platform(&mut self) -> String {
        let n = self.n.draw(&mut self.rng);
        let ratio = tenths(self.ratio.draw(&mut self.rng));
        let clat = tenths(self.clat.draw(&mut self.rng));
        let nlat = tenths(self.nlat.draw(&mut self.rng));
        format!(
            r#"{{"homogeneous":{{"n":{n},"ratio":{ratio},"comp_latency":{clat},"net_latency":{nlat}}}}}"#
        )
    }

    /// A heterogeneous star of `lo..=hi` workers: speeds in [0.5, 2), each
    /// link `ratio·n` times faster than its worker (Table 1's bandwidth
    /// rule, per worker), latencies drawn from the Table 1 values.
    fn het_platform(&mut self, lo: usize, hi: usize) -> String {
        let n = lo + self.rng.below(hi - lo + 1);
        let ratio = f64::from(self.ratio.draw(&mut self.rng)) / 10.0;
        let workers: Vec<String> = (0..n)
            .map(|_| {
                let speed = self.rng.range(0.5, 2.0);
                let bandwidth =
                    (ratio * n as f64 * speed * self.rng.range(0.9, 1.1) * 1000.0).round() / 1000.0;
                let clat = tenths(self.clat.draw(&mut self.rng));
                let nlat = tenths(self.nlat.draw(&mut self.rng));
                format!(
                    r#"{{"speed":{speed},"bandwidth":{bandwidth},"comp_latency":{clat},"net_latency":{nlat}}}"#
                )
            })
            .collect();
        format!(r#"{{"workers":[{}]}}"#, workers.join(","))
    }

    /// W log-uniform over [10^3, 10^6), one stratum per draw.
    fn w_total(&mut self) -> f64 {
        let s = f64::from(self.w_stratum.draw(&mut self.rng));
        let exponent = 3.0 + 3.0 * (s + self.rng.unit()) / f64::from(W_STRATA);
        (10f64.powf(exponent) * 1000.0).round() / 1000.0
    }
}

/// Seed of the fixed designs every request class draws its content from.
const DESIGN_SEED: u64 = 0x5EED_0F7A_B1E1;

/// The fixed content stream of one request class: platform, W, kind,
/// error, repetitions, endpoint and the class's other knobs. The k-th
/// request of a class takes the k-th draw whatever the workload seed, so
/// the set of requests in a pool, their cost profile, the tail of their
/// service times and the share of analytic answers that miss the oracle's
/// claim do not swing from seed to seed. The workload seed orders the
/// classes and draws run seeds, fault seeds and which bodies are repeated.
struct Design {
    table1: Table1Draws,
    kind: Deck<u32>,
    reps: Deck<usize>,
    endpoint: Deck<Endpoint>,
}

impl Design {
    /// The design of class `class`, picking among `kinds` kinds.
    fn new(class: u64, kinds: u32) -> Self {
        Design {
            table1: Table1Draws::new(DESIGN_SEED.wrapping_add(class)),
            kind: Deck::new((0..kinds).collect()),
            reps: Deck::new((1..=4).collect()),
            endpoint: Deck::new(vec![Endpoint::Plan, Endpoint::Simulate]),
        }
    }

    fn kind(&mut self) -> u32 {
        self.kind.draw(&mut self.table1.rng)
    }

    /// Repetitions per `/simulate`, 1 to 4.
    fn reps(&mut self) -> usize {
        self.reps.draw(&mut self.table1.rng)
    }

    fn endpoint(&mut self) -> Endpoint {
        self.endpoint.draw(&mut self.table1.rng)
    }

    fn error(&mut self) -> f64 {
        self.table1.rng.range(0.1, 0.5)
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        self.table1.rng.range(lo, hi)
    }
}

struct Generator {
    /// The workload seed's stream.
    rng: Rng,
    slots: Deck<Slot>,
    noisy: Design,
    noisy_het: Design,
    faulty: Design,
    adversarial: Design,
    plan_engine: Design,
    plan_exact: Design,
    simulate_exact: Design,
    het_umr: Design,
    recent_simulate: Vec<usize>,
    recent_plan: Vec<usize>,
}

impl Generator {
    fn new(mix: Mix, seed: u64) -> Self {
        Generator {
            rng: Rng::new(seed),
            slots: Deck::new(slots(mix)),
            noisy: Design::new(0, 4),
            noisy_het: Design::new(1, 3),
            faulty: Design::new(2, 2),
            adversarial: Design::new(3, 4),
            plan_engine: Design::new(4, 7),
            plan_exact: Design::new(5, 2),
            simulate_exact: Design::new(6, 2),
            het_umr: Design::new(7, 1),
            recent_simulate: Vec::new(),
            recent_plan: Vec::new(),
        }
    }

    /// A run block: the seed comes from the workload seed.
    fn run(&mut self, scheduler: &str, reps: usize, extra: &str) -> String {
        let seed = self.rng.next_u64() >> 32;
        format!(r#"{{"scheduler":{scheduler},"seed":{seed},"reps":{reps}{extra}}}"#)
    }

    fn noisy_simulate(
        &mut self,
        platform: String,
        scheduler: &str,
        error: f64,
        reps: usize,
        extra_top: &str,
        extra_run: &str,
    ) -> String {
        let run = self.run(scheduler, reps, extra_run);
        format!(
            r#"{{"platform":{platform},"w_total":1000,"error_model":{{"kind":"normal","error":{error}}}{extra_top},"run":{run}}}"#
        )
    }

    fn next(&mut self, pool: &[Req]) -> (Endpoint, String, Option<usize>) {
        let slot = self.slots.draw(&mut self.rng);
        match slot {
            Slot::Noisy => {
                let d = &mut self.noisy;
                let e = d.error();
                let scheduler = match d.kind() {
                    0 => format!(r#"{{"kind":"rumr","error_estimate":{e}}}"#),
                    1 => r#"{"kind":"umr"}"#.to_string(),
                    2 => r#"{"kind":"factoring"}"#.to_string(),
                    _ => r#"{"kind":"mi","installments":3}"#.to_string(),
                };
                let (platform, reps) = (d.table1.platform(), d.reps());
                let body = self.noisy_simulate(platform, &scheduler, e, reps, "", "");
                (Endpoint::Simulate, body, None)
            }
            Slot::NoisyHet => {
                let d = &mut self.noisy_het;
                let e = d.error();
                let scheduler = match d.kind() {
                    0 => format!(r#"{{"kind":"het_rumr","error_estimate":{e}}}"#),
                    1 => r#"{"kind":"factoring"}"#.to_string(),
                    _ => r#"{"kind":"gss"}"#.to_string(),
                };
                let (platform, reps) = (d.table1.het_platform(8, 32), d.reps());
                let body = self.noisy_simulate(platform, &scheduler, e, reps, "", "");
                (Endpoint::Simulate, body, None)
            }
            Slot::Faulty => {
                let d = &mut self.faulty;
                let e = d.error();
                let scheduler = if d.kind() == 0 {
                    format!(r#"{{"kind":"rumr","error_estimate":{e}}}"#)
                } else {
                    r#"{"kind":"factoring"}"#.to_string()
                };
                let (mttf, mttr) = (d.range(150.0, 600.0), d.range(5.0, 30.0));
                let (platform, reps) = (d.table1.platform(), d.reps());
                let faults = format!(
                    r#","config":{{"faults":{{"kind":"poisson","mttf":{mttf},"mttr":{mttr},"horizon":4000,"seed":{}}}}},"recovery":true"#,
                    self.rng.next_u64() >> 32
                );
                let body = self.noisy_simulate(platform, &scheduler, e, reps, "", &faults);
                (Endpoint::Simulate, body, None)
            }
            Slot::Adversarial => {
                let d = &mut self.adversarial;
                let e = d.error();
                let scheduler = match d.kind() {
                    0 | 3 => format!(r#"{{"kind":"rumr","error_estimate":{e}}}"#),
                    1 => r#"{"kind":"umr"}"#.to_string(),
                    _ => r#"{"kind":"factoring"}"#.to_string(),
                };
                let speeds = format!(
                    r#","speeds":{{"kind":"adversarial","fraction":{},"slowdown":{}}}"#,
                    [0.1, 0.25, 0.5][d.table1.rng.below(3)],
                    d.range(1.5, 3.0)
                );
                let (platform, reps) = (d.table1.platform(), d.reps());
                let body = self.noisy_simulate(platform, &scheduler, e, reps, &speeds, "");
                (Endpoint::Simulate, body, None)
            }
            Slot::PlanEngine => {
                let d = &mut self.plan_engine;
                let scheduler = match d.kind() {
                    0 => format!(r#"{{"kind":"rumr","error_estimate":{}}}"#, d.error()),
                    k @ 1..=4 => format!(r#"{{"kind":"mi","installments":{k}}}"#),
                    5 => r#"{"kind":"factoring"}"#.to_string(),
                    _ => r#"{"kind":"gss"}"#.to_string(),
                };
                let platform = d.table1.platform();
                let body =
                    format!(r#"{{"platform":{platform},"w_total":1000,"scheduler":{scheduler}}}"#);
                (Endpoint::Plan, body, None)
            }
            Slot::PlanExact | Slot::SimulateExact => {
                let (plan, d) = match slot {
                    Slot::PlanExact => (true, &mut self.plan_exact),
                    _ => (false, &mut self.simulate_exact),
                };
                let scheduler = if d.kind() == 0 {
                    r#"{"kind":"umr"}"#
                } else {
                    r#"{"kind":"one_round"}"#
                };
                let (platform, w, reps) = (d.table1.platform(), d.table1.w_total(), d.reps());
                self.exact_body(plan, platform, w, reps, scheduler)
            }
            Slot::HetUmr => {
                let d = &mut self.het_umr;
                let plan = d.endpoint() == Endpoint::Plan;
                let (platform, w, reps) =
                    (d.table1.het_platform(8, 50), d.table1.w_total(), d.reps());
                self.exact_body(plan, platform, w, reps, r#"{"kind":"het_umr"}"#)
            }
            Slot::RepeatSimulate => self.repeat(pool, Endpoint::Simulate),
            Slot::RepeatPlan => self.repeat(pool, Endpoint::Plan),
            Slot::Healthz => (Endpoint::Healthz, String::new(), None),
        }
    }

    /// An error-free request the analytic fast path answers.
    fn exact_body(
        &mut self,
        plan: bool,
        platform: String,
        w: f64,
        reps: usize,
        scheduler: &str,
    ) -> (Endpoint, String, Option<usize>) {
        if plan {
            let body =
                format!(r#"{{"platform":{platform},"w_total":{w},"scheduler":{scheduler}}}"#);
            (Endpoint::Plan, body, None)
        } else {
            let run = self.run(scheduler, reps, "");
            let body = format!(r#"{{"platform":{platform},"w_total":{w},"run":{run}}}"#);
            (Endpoint::Simulate, body, None)
        }
    }

    /// A byte-identical copy of a recent request to `endpoint`; falls back
    /// to a fresh request of the mix until one exists.
    fn repeat(&mut self, pool: &[Req], endpoint: Endpoint) -> (Endpoint, String, Option<usize>) {
        let recent = match endpoint {
            Endpoint::Plan => &self.recent_plan,
            _ => &self.recent_simulate,
        };
        let eligible: Vec<usize> = recent
            .iter()
            .copied()
            .filter(|&i| i + REPEAT_GAP <= pool.len())
            .collect();
        if eligible.is_empty() {
            return self.next(pool);
        }
        let origin = eligible[self.rng.below(eligible.len())];
        (endpoint, pool[origin].body.clone(), Some(origin))
    }
}

/// Generate a pool of `len` requests for `mix` from `seed`.
pub fn generate(mix: Mix, seed: u64, len: usize) -> Vec<Req> {
    let mut g = Generator::new(mix, seed);
    let mut pool: Vec<Req> = Vec::with_capacity(len);
    while pool.len() < len {
        let (endpoint, body, origin) = g.next(&pool);
        let idx = pool.len();
        if origin.is_none() {
            let recent = match endpoint {
                Endpoint::Plan => &mut g.recent_plan,
                Endpoint::Simulate => &mut g.recent_simulate,
                Endpoint::Healthz => {
                    pool.push(Req {
                        endpoint,
                        body,
                        origin: idx,
                    });
                    continue;
                }
            };
            recent.push(idx);
            if recent.len() > REPEAT_WINDOW {
                recent.remove(0);
            }
        }
        pool.push(Req {
            endpoint,
            body,
            origin: origin.unwrap_or(idx),
        });
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_seeded() {
        for mix in [Mix::Engine, Mix::Analytic] {
            let a = generate(mix, 7, 400);
            let b = generate(mix, 7, 400);
            let c = generate(mix, 8, 400);
            assert!(a.iter().zip(&b).all(|(x, y)| x.body == y.body));
            assert!(a.iter().zip(&c).any(|(x, y)| x.body != y.body));
        }
    }

    #[test]
    fn repeats_point_at_earlier_identical_bodies() {
        for mix in [Mix::Engine, Mix::Analytic] {
            let pool = generate(mix, 3, 2000);
            let repeats = pool
                .iter()
                .enumerate()
                .filter(|(i, r)| r.origin != *i)
                .count();
            assert!(repeats > 100, "{mix:?}: {repeats} repeats");
            for (i, r) in pool.iter().enumerate() {
                assert!(r.origin <= i);
                assert_eq!(r.body, pool[r.origin].body);
                assert_eq!(r.endpoint, pool[r.origin].endpoint);
            }
        }
    }

    #[test]
    fn every_table1_latency_appears() {
        let pool = generate(Mix::Analytic, 1, 2000);
        for t in 0..=10 {
            let needle = format!("\"comp_latency\":{}", tenths(t));
            assert!(pool.iter().any(|r| r.body.contains(&needle)), "{needle}");
        }
    }
}
