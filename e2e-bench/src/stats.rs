//! Order statistics, checksums and process measurements.

/// Median of `xs` (mean of the two middle values for an even count; 0 for
/// an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The highest percentile of `xs` that has at least ten samples above it,
/// but never below the median: `(value, percentile, sample count)`. Below
/// 20 samples no percentile above the median has ten samples beyond it,
/// and the median is reported.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let n = xs.len();
    if n < 20 {
        return (median(xs), 50.0, n);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Order statistic k (1-based) leaves n - k samples above it.
    let k = n - 10;
    (v[k - 1], 100.0 * k as f64 / n as f64, n)
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Number of runs whose checksum differs from the most common one.
pub fn off_mode(checksums: &[u64]) -> usize {
    let mut sorted = checksums.to_vec();
    sorted.sort_unstable();
    let mut best = 0usize;
    let mut i = 0usize;
    while i < sorted.len() {
        let j = sorted[i..].partition_point(|&c| c == sorted[i]) + i;
        best = best.max(j - i);
        i = j;
    }
    checksums.len() - best
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), (30.0, 75.0, 40));
        assert_eq!(tail(&xs[..5]), (3.0, 50.0, 5));
    }

    #[test]
    fn off_mode_counts_minority_runs() {
        assert_eq!(off_mode(&[7, 7, 7]), 0);
        assert_eq!(off_mode(&[1, 2, 3, 4]), 3);
        assert_eq!(off_mode(&[5, 9, 5, 9, 9]), 2);
    }
}
