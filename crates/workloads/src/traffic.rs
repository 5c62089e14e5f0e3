//! Request-traffic generation for the online serving mode: seeded
//! open-loop arrival processes (Poisson and bursty on/off), a closed-loop
//! client model with think times, and multi-tenant job-class assignment.
//!
//! Everything is deterministic from the seed — the serving experiments
//! and the stream-invariant test harness rely on byte-identical arrival
//! vectors across runs and worker counts. Times are nanoseconds, matching
//! [`memsched_model::TaskSet`] arrival stamps.

/// Deterministic 64-bit generator (SplitMix64 stream), dependency-free.
#[derive(Clone, Debug)]
pub struct TrafficGen {
    state: u64,
}

impl TrafficGen {
    /// A generator seeded for one traffic trace.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.state;
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential draw with the given mean (inverse-CDF method).
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        // 1 − u is in (0, 1], so the log is finite.
        -(1.0 - self.next_f64()).ln() * mean
    }
}

/// The open-loop arrival process shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalPattern {
    /// Homogeneous Poisson arrivals.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_per_sec: f64,
    },
    /// Two-phase Markov-modulated Poisson process: alternating ON bursts
    /// and quiet OFF phases, each with its own Poisson rate.
    Bursty {
        /// Arrival rate inside a burst, requests per second.
        on_rate_per_sec: f64,
        /// Arrival rate between bursts, requests per second.
        off_rate_per_sec: f64,
        /// Mean burst duration in nanoseconds (exponential).
        on_ns: u64,
        /// Mean quiet duration in nanoseconds (exponential).
        off_ns: u64,
    },
}

impl ArrivalPattern {
    /// The long-run average rate in requests per second.
    pub fn mean_rate_per_sec(&self) -> f64 {
        match *self {
            ArrivalPattern::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalPattern::Bursty {
                on_rate_per_sec,
                off_rate_per_sec,
                on_ns,
                off_ns,
            } => {
                let (on, off) = (on_ns as f64, off_ns as f64);
                (on_rate_per_sec * on + off_rate_per_sec * off) / (on + off)
            }
        }
    }
}

const NS_PER_SEC: f64 = 1e9;

/// `n` open-loop arrival times in nanoseconds, non-decreasing, drawn from
/// `pattern` with the given seed. The first arrival is itself one
/// inter-arrival gap after t = 0 (no request at the origin).
pub fn open_loop_arrivals(pattern: &ArrivalPattern, seed: u64, n: usize) -> Vec<u64> {
    let mut rng = TrafficGen::new(seed);
    let mut out = Vec::with_capacity(n);
    let mut now = 0.0f64;
    match *pattern {
        ArrivalPattern::Poisson { rate_per_sec } => {
            assert!(rate_per_sec > 0.0, "arrival rate must be positive");
            let mean_gap = NS_PER_SEC / rate_per_sec;
            for _ in 0..n {
                now += rng.next_exp(mean_gap);
                out.push(now as u64);
            }
        }
        ArrivalPattern::Bursty {
            on_rate_per_sec,
            off_rate_per_sec,
            on_ns,
            off_ns,
        } => {
            assert!(
                on_rate_per_sec > 0.0 && off_rate_per_sec > 0.0,
                "both phase rates must be positive"
            );
            assert!(on_ns > 0 && off_ns > 0, "phase durations must be positive");
            // Phase end-time and current rate evolve together; an
            // inter-arrival draw that crosses the phase boundary is
            // re-drawn from the boundary at the new rate (memorylessness
            // makes that the exact MMPP sampler).
            let mut in_burst = true;
            let mut phase_end = rng.next_exp(on_ns as f64);
            while out.len() < n {
                let rate = if in_burst {
                    on_rate_per_sec
                } else {
                    off_rate_per_sec
                };
                let gap = rng.next_exp(NS_PER_SEC / rate);
                if now + gap <= phase_end {
                    now += gap;
                    out.push(now as u64);
                } else {
                    now = phase_end;
                    in_burst = !in_burst;
                    let mean = if in_burst { on_ns } else { off_ns } as f64;
                    phase_end = now + rng.next_exp(mean);
                }
            }
        }
    }
    out
}

/// `n` closed-loop arrival times: `clients` independent clients each keep
/// one request in flight, waiting an exponential think time (mean
/// `think_ns`) after the estimated completion (`service_estimate_ns`)
/// before issuing the next. Returned sorted ascending.
pub fn closed_loop_arrivals(
    n: usize,
    clients: usize,
    think_ns: u64,
    service_estimate_ns: u64,
    seed: u64,
) -> Vec<u64> {
    assert!(clients > 0, "need at least one client");
    let mut rng = TrafficGen::new(seed);
    // Clients start staggered by one think time each so they do not all
    // fire at t = 0.
    let mut next_issue: Vec<f64> = (0..clients)
        .map(|_| rng.next_exp(think_ns.max(1) as f64))
        .collect();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // Earliest client issues next; ties break on the lowest index.
        let c = (0..clients)
            .min_by(|&a, &b| next_issue[a].total_cmp(&next_issue[b]))
            .expect("clients > 0");
        let at = next_issue[c];
        out.push(at as u64);
        next_issue[c] = at + service_estimate_ns as f64 + rng.next_exp(think_ns.max(1) as f64);
    }
    out.sort_unstable();
    out
}

/// Per-task relative completion deadlines for the overload-control
/// policies: deadline `i` is drawn uniformly from
/// `[0.5, 1.5) · base_ns · scale`, so the mean budget is
/// `base_ns · scale`. `base_ns` is typically the workload's estimated
/// service time; `scale` is the serve harness's `--deadline-scale` knob
/// (tighter < 1 < looser). Every stamp is at least 1 ns — a 0 deadline
/// means "none" to the engine and would silently disable shedding.
pub fn deadline_stamps(n: usize, base_ns: u64, scale: f64, seed: u64) -> Vec<u64> {
    assert!(base_ns > 0, "deadline base must be positive");
    assert!(
        scale.is_finite() && scale > 0.0,
        "deadline scale must be a positive finite number"
    );
    let mut rng = TrafficGen::new(seed);
    (0..n)
        .map(|_| {
            let jitter = 0.5 + rng.next_f64();
            ((base_ns as f64 * scale * jitter) as u64).max(1)
        })
        .collect()
}

/// Multi-tenant class assignment: class `i` is drawn with probability
/// `weights[i] / Σ weights`, independently per task. Returns one class
/// index per task.
pub fn assign_classes(n: usize, weights: &[f64], seed: u64) -> Vec<usize> {
    assert!(!weights.is_empty(), "need at least one class");
    assert!(
        weights.iter().all(|&w| w >= 0.0) && weights.iter().sum::<f64>() > 0.0,
        "weights must be non-negative with a positive sum"
    );
    let total: f64 = weights.iter().sum();
    let mut rng = TrafficGen::new(seed);
    (0..n)
        .map(|_| {
            let mut u = rng.next_f64() * total;
            for (i, &w) in weights.iter().enumerate() {
                if u < w {
                    return i;
                }
                u -= w;
            }
            weights.len() - 1
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_seed_deterministic() {
        let p = ArrivalPattern::Poisson {
            rate_per_sec: 500.0,
        };
        let a = open_loop_arrivals(&p, 42, 1000);
        let b = open_loop_arrivals(&p, 42, 1000);
        let c = open_loop_arrivals(&p, 43, 1000);
        assert_eq!(a, b, "same seed must reproduce the trace");
        assert_ne!(a, c, "different seeds must diverge");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
    }

    #[test]
    fn poisson_empirical_mean_matches_rate() {
        // Rate 1000/s → mean inter-arrival 1 ms = 1e6 ns; over 10k draws
        // the empirical mean must land within 5 %.
        let p = ArrivalPattern::Poisson {
            rate_per_sec: 1000.0,
        };
        let a = open_loop_arrivals(&p, 7, 10_000);
        let mean = *a.last().unwrap() as f64 / a.len() as f64;
        let expect = 1e6;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "empirical mean {mean} vs {expect}"
        );
    }

    #[test]
    fn bursty_is_deterministic_and_slower_off_phase() {
        let p = ArrivalPattern::Bursty {
            on_rate_per_sec: 2000.0,
            off_rate_per_sec: 100.0,
            on_ns: 5_000_000,
            off_ns: 5_000_000,
        };
        let a = open_loop_arrivals(&p, 11, 2000);
        assert_eq!(a, open_loop_arrivals(&p, 11, 2000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "non-decreasing");
        // The long-run rate sits between the two phase rates.
        let span_s = *a.last().unwrap() as f64 / 1e9;
        let rate = a.len() as f64 / span_s;
        assert!(rate > 100.0 && rate < 2000.0, "blended rate {rate}");
    }

    #[test]
    fn mean_rate_blends_phases() {
        let p = ArrivalPattern::Bursty {
            on_rate_per_sec: 1000.0,
            off_rate_per_sec: 100.0,
            on_ns: 1_000_000,
            off_ns: 3_000_000,
        };
        let r = p.mean_rate_per_sec();
        assert!((r - 325.0).abs() < 1e-9, "weighted mean, got {r}");
    }

    #[test]
    fn deadline_stamps_are_seeded_and_scaled() {
        let a = deadline_stamps(5000, 1_000_000, 1.0, 17);
        assert_eq!(a, deadline_stamps(5000, 1_000_000, 1.0, 17));
        assert_ne!(a, deadline_stamps(5000, 1_000_000, 1.0, 18));
        assert!(a.iter().all(|&d| (500_000..1_500_000).contains(&d)));
        let mean = a.iter().sum::<u64>() as f64 / a.len() as f64;
        assert!((mean - 1e6).abs() / 1e6 < 0.05, "mean {mean} vs 1e6");
        // The scale knob moves the whole distribution.
        let tight = deadline_stamps(100, 1_000_000, 0.25, 17);
        assert!(tight.iter().all(|&d| (1..500_000).contains(&d)));
    }

    #[test]
    fn class_mix_follows_weights() {
        let classes = assign_classes(10_000, &[3.0, 1.0], 99);
        assert_eq!(classes, assign_classes(10_000, &[3.0, 1.0], 99));
        let hi = classes.iter().filter(|&&c| c == 0).count() as f64 / 10_000.0;
        assert!((hi - 0.75).abs() < 0.03, "class-0 share {hi} vs 0.75");
        assert!(classes.iter().all(|&c| c < 2));
    }

    #[test]
    fn closed_loop_accounts_for_service_and_think_time() {
        // One client: consecutive arrivals are separated by at least the
        // service estimate, and the mean gap is service + think.
        let (think, service) = (2_000_000u64, 1_000_000u64);
        let a = closed_loop_arrivals(2000, 1, think, service, 5);
        assert_eq!(a, closed_loop_arrivals(2000, 1, think, service, 5));
        let gaps: Vec<u64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(
            gaps.iter().all(|&g| g >= service),
            "a client cannot issue before its request completes"
        );
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        let expect = (service + think) as f64;
        assert!(
            (mean - expect).abs() / expect < 0.08,
            "mean gap {mean} vs {expect}"
        );
    }

    #[test]
    fn closed_loop_many_clients_interleave() {
        let a = closed_loop_arrivals(1000, 8, 1_000_000, 500_000, 3);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        // Eight clients sustain roughly 8× the single-client throughput.
        let single = closed_loop_arrivals(1000, 1, 1_000_000, 500_000, 3);
        assert!(a.last().unwrap() < single.last().unwrap());
    }
}
