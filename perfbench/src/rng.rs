//! Seeded input generation: a SplitMix64 stream, Poisson arrival
//! schedules and a Zipf sampler.  Everything a workload sends is drawn
//! from here, so the same `--seed` reproduces the same inputs exactly.

use std::time::Duration;

/// A SplitMix64 pseudo-random stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `stream` of workload seed `seed`; distinct streams of one
    /// seed are independent, so adding a draw to one input leaves the
    /// others unchanged.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// One element of `items`, uniformly.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Due times of a Poisson arrival process at `rate` per second over
/// `duration`, conditioned on its expected count `round(rate · duration)`:
/// the arrivals are uniform order statistics, drawn as normalised
/// exponential spacings.  Fixing the count keeps the offered load of a
/// run exact while the gaps stay exponential.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, duration: Duration) -> Vec<Duration> {
    let n = (rate * duration.as_secs_f64()).round() as usize;
    let gaps: Vec<f64> = (0..=n).map(|_| -(1.0 - rng.unit()).ln()).collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    gaps[..n]
        .iter()
        .map(|gap| {
            at += gap;
            duration.mul_f64(at / total)
        })
        .collect()
}

/// Zipf over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}
