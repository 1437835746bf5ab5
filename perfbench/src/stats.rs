//! Sample sets, percentiles and process memory.

use std::time::Duration;

/// A set of duration samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, d: Duration) {
        self.push_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn push_ns(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    pub fn extend(&mut self, other: Samples) {
        self.ns.extend(other.ns);
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// The samples in the order they were taken.
    pub fn values_ns(&self) -> &[u64] {
        &self.ns
    }

    pub fn sum_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Nearest-rank quantile in nanoseconds (`q` in `(0, 1]`); 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1] as f64
    }

    pub fn quantile_ms(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e6
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_ns(q) / 1e3
    }

    /// The median of an even-sized set is the mean of its two middle
    /// values, so a set of repeated set-up times reads as measured.
    pub fn median_ns(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2] as f64
        } else {
            (sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0
        }
    }
}

/// Median of plain values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Share of the host's CPU time stolen by the hypervisor between two
/// `/proc/stat` readings, or 0 where the counters are unavailable.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) => {
            ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
        }
        _ => 0.0,
    }
}

/// `(steal, total)` CPU ticks of all CPUs from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: hands every whole free page of every malloc arena back to
    /// the kernel.
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Returns the memory the benchmark has freed (its generated inputs, the
/// reference answers) to the kernel, then resets this process's peak
/// resident set size (`VmHWM`) to its current resident set, so
/// [`peak_rss_mb`] reports the peak of what is live from here on.
pub fn reset_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim takes no pointers and only releases pages the
    // allocator holds free; every live allocation stays where it is.
    unsafe {
        malloc_trim(0);
    }
    // 5 clears the high-water mark only; the process's pages are untouched.
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM value {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::new();
        for ns in 1..=100 {
            s.push_ns(ns);
        }
        assert_eq!(s.quantile_ns(0.5), 50.0);
        assert_eq!(s.quantile_ns(0.99), 99.0);
        assert_eq!(s.quantile_ns(1.0), 100.0);
        assert_eq!(Samples::new().quantile_ns(0.5), 0.0);
    }

    #[test]
    fn even_median_averages_the_middle_pair() {
        let mut s = Samples::new();
        for ns in [4, 1, 3, 2] {
            s.push_ns(ns);
        }
        assert_eq!(s.median_ns(), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
