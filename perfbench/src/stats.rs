//! Order statistics over measured samples.

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `q` in `(0, 1]`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it (p50 when there are fewer than twenty samples).
pub fn tail_percentile(samples: usize) -> f64 {
    [0.999, 0.99, 0.9]
        .into_iter()
        .find(|&q| (samples as f64 * (1.0 - q)).floor() >= 10.0)
        .unwrap_or(0.5)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// A small deterministic generator (splitmix64) for seed-derived inputs.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// Sub-buckets per power of two of a [`Histogram`] (0.8% resolution).
const SUB: u64 = 128;

/// A fixed-size log-linear histogram of nanosecond samples. Its footprint
/// does not grow with the sample count, so recording leaves the run's
/// memory metric alone.
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram { counts: vec![0; (2 * SUB + 56 * SUB) as usize], total: 0 }
    }

    fn index(ns: u64) -> usize {
        if ns < 2 * SUB {
            return ns as usize;
        }
        let exp = 63 - u64::from(ns.leading_zeros());
        let shift = exp - 7;
        (2 * SUB + (exp - 8) * SUB + ((ns >> shift) - SUB)) as usize
    }

    /// Midpoint of a bucket.
    fn value(index: usize) -> f64 {
        let index = index as u64;
        if index < 2 * SUB {
            return index as f64;
        }
        let (octave, mantissa) = ((index - 2 * SUB) / SUB, (index - 2 * SUB) % SUB + SUB);
        let shift = octave + 1;
        ((mantissa << shift) as f64) + ((1u64 << shift) as f64) / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile, `q` in `(0, 1]`, in nanoseconds.
    pub fn percentile(&self, q: f64) -> f64 {
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::value(index);
            }
        }
        f64::NAN
    }
}
