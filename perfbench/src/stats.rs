//! Sample statistics, digests and the seeded generator the benchmark uses.

/// Percentiles a `.tail` metric may report, highest first. The median is
/// the floor: it is reported when no higher percentile qualifies.
pub const TAIL_CANDIDATES: [f64; 8] = [99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// How closely the two interleaved halves of a sample must agree on a
/// tail for it to count as repeating within the run (a tenth).
pub const TAIL_REPEAT_SHARE: f64 = 0.1;

/// Nearest-rank percentile of an ascending slice (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64) * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = samples.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unordered samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.iter().copied()), 50.0)
}

/// A `.tail` value, the percentile it was read at, and whether it
/// repeats within the run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile used, in percent.
    pub pct: f64,
    /// The value at that percentile.
    pub value: f64,
    /// Read separately on the even- and odd-indexed samples (arrival
    /// order), the two values differ by at most [`TAIL_REPEAT_SHARE`] of
    /// the full value.
    pub repeats: bool,
}

/// The highest percentile in [`TAIL_CANDIDATES`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it. The choice depends on the
/// sample count alone, and the benchmark's sample counts follow from the
/// workload, the run length and the seed, never from the host's speed, so
/// runs of one configuration read the same percentile; [`Tail::repeats`]
/// checks within the run that it repeats within a tenth.
pub fn tail(samples: &[f64]) -> Tail {
    tail_at_most(samples, 100.0)
}

/// [`tail`] restricted to candidates at or below `cap` percent: for a
/// metric whose higher percentiles do not repeat from run to run.
pub fn tail_at_most(samples: &[f64], cap: f64) -> Tail {
    let all = sorted(samples.iter().copied());
    let pct = TAIL_CANDIDATES
        .into_iter()
        .filter(|&pct| pct <= cap)
        .find(|&pct| {
            let beyond = ((all.len() as f64) * (100.0 - pct) / 100.0 + 1e-9).floor() as usize;
            beyond >= TAIL_MIN_BEYOND
        })
        .unwrap_or(50.0);
    let value = percentile(&all, pct);
    let even = sorted(samples.iter().step_by(2).copied());
    let odd = sorted(samples.iter().skip(1).step_by(2).copied());
    let spread = (percentile(&even, pct) - percentile(&odd, pct)).abs();
    Tail {
        pct,
        value,
        repeats: spread <= TAIL_REPEAT_SHARE * value,
    }
}

/// Every candidate percentile that leaves [`TAIL_MIN_BEYOND`] samples
/// beyond it, with its value: the record from which a tail's repeatability
/// across runs can be judged.
pub fn tail_table(samples: &[f64]) -> Vec<(f64, f64)> {
    let all = sorted(samples.iter().copied());
    TAIL_CANDIDATES
        .into_iter()
        .filter(|&pct| {
            ((all.len() as f64) * (100.0 - pct) / 100.0 + 1e-9).floor() as usize >= TAIL_MIN_BEYOND
        })
        .map(|pct| (pct, percentile(&all, pct)))
        .collect()
}

/// 64-bit FNV-1a over `bytes`, as a fixed-width hex digest.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// SplitMix64: the benchmark's only source of seeded randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a named stream, so independent draws
    /// (arrivals, tenants, shapes) do not shift each other.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ u64::from_str_radix(&digest(stream.as_bytes()), 16).expect("hex digest"))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential inter-arrival gap of a Poisson process at `rate` per
    /// second, in seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        let u = ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        -u.ln() / rate
    }
}

/// CPU time the hypervisor gave to other guests (`steal` of
/// `/proc/stat`), in seconds, summed over CPUs; 0 where not reported.
/// Runs taken while it grows fast are slowed by the host, not the program.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|t| t.parse::<f64>().ok())
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_the_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples);
        assert_eq!(t.pct, 99.0, "99.9 leaves one sample beyond");
        assert_eq!(t.value, 990.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred).pct, 90.0);
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few).pct, 50.0, "19 samples support only the median");
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&forty).pct, 75.0);
        assert_eq!(tail(&forty).value, 30.0);
        assert_eq!(tail_at_most(&samples, 95.0).pct, 95.0);
        assert_eq!(tail_at_most(&samples, 95.0).value, 950.0);
    }

    #[test]
    fn tail_flags_halves_that_disagree() {
        // Every odd-indexed sample in the top fifth is ten times larger:
        // p95 differs between the halves, so the tail does not repeat.
        let mut samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert!(tail(&samples).repeats);
        for (i, v) in samples.iter_mut().enumerate() {
            if *v > 160.0 && i % 2 == 1 {
                *v *= 10.0;
            }
        }
        let t = tail(&samples);
        assert_eq!(t.pct, 95.0);
        assert!(!t.repeats);
    }

    #[test]
    fn percentile_is_nearest_rank_and_rng_is_seeded() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, "x").next_u64(), Rng::new(7, "y").next_u64());
    }
}
