//! Seeded randomness, quantiles, and process/host readings.

use std::time::Duration;

/// SplitMix64: the benchmark's only source of randomness, so one `--seed`
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x7462_5F62_656E_6368)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// An independent stream for one phase or generator.
    pub fn fork(&mut self) -> Rng {
        Rng(self.next_u64())
    }
}

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort in place and return `(p50, p99)`.
pub fn p50_p99(v: &mut [f64]) -> (f64, f64) {
    v.sort_by(f64::total_cmp);
    (quantile(v, 0.5), quantile(v, 0.99))
}

/// Report the spread of a run's set-up times on stderr.
pub fn report_setups(setups: &[f64]) {
    let mut v = setups.to_vec();
    v.sort_by(f64::total_cmp);
    let q: Vec<String> = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        .iter()
        .map(|&q| format!("{:.0}", quantile(&v, q) * 1e6))
        .collect();
    eprintln!("perfbench: {} set-ups, quantiles 0/10/25/50/75/90/100 % [{}] us", v.len(), q.join(" "));
}

pub fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// One stretch of consecutive completions: their rate and median latency.
#[derive(Debug, Clone, Copy)]
pub struct Stretch {
    /// Completions per second.
    pub rate: f64,
    pub p50_us: f64,
}

/// Cut completions, `(completion time in s, latency in µs)`, into
/// stretches of `k` consecutive completions in completion order. A host
/// stall slows the stretches it lands in and no others.
pub fn stretches(mut done: Vec<(f64, f64)>, k: usize) -> Vec<Stretch> {
    done.sort_by(|a, b| a.0.total_cmp(&b.0));
    (0..done.len().saturating_sub(1) / k)
        .map(|i| {
            let w = &done[i * k..=(i + 1) * k];
            Stretch {
                rate: k as f64 / (w[k].0 - w[0].0).max(1e-9),
                p50_us: median(w[1..].iter().map(|p| p.1).collect()),
            }
        })
        .collect()
}

/// Fewest stretches a phase may be read from.
pub const MIN_STRETCHES: usize = 40;

/// `(goodput, p50)` of a phase from its stretches: the rate nine in ten
/// of them reach (their lowest decile), and the median latency nine in ten
/// stay under (the highest decile of their medians).
///
/// A decile on the slow side, not the median: the pools run in two states
/// for stretches at a time (about 25 µs against 41 µs a `wire-tiny`
/// request, 130 µs against 205 µs a `lib-suite` cell), and the fast
/// state's share wandered from none to nine tenths of a run with the
/// host's load, so a median or a mean over stretches wandered with it, by
/// up to a third. The slow-side decile stays in the slow state while the
/// fast one holds under nine tenths of a run, and stalls (the host taking
/// the CPU away, a late wake-up) do not reach it while they hit under a
/// tenth of the stretches.
pub fn phase_figures(stretches: &[Stretch]) -> Result<(f64, f64), String> {
    if stretches.len() < MIN_STRETCHES {
        return Err(format!(
            "INVALID run: {} stretches, fewer than {MIN_STRETCHES}: too few responses to measure",
            stretches.len()
        ));
    }
    let mut rates: Vec<f64> = stretches.iter().map(|s| s.rate).collect();
    let mut p50s: Vec<f64> = stretches.iter().map(|s| s.p50_us).collect();
    rates.sort_by(f64::total_cmp);
    p50s.sort_by(f64::total_cmp);
    let deciles = |v: &[f64]| {
        [0.1, 0.25, 0.5, 0.75, 0.9]
            .iter()
            .map(|&q| format!("{:.1}", quantile(v, q)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "{} stretches; quantiles 10/25/50/75/90 %: rate [{}] /s, p50 [{}] us",
        stretches.len(),
        deciles(&rates),
        deciles(&p50s)
    );
    Ok((quantile(&rates, 0.1), quantile(&p50s, 0.9)))
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

extern "C" {
    fn getloadavg(loadavg: *mut f64, nelem: i32) -> i32;
}

/// Peak resident set of this process in MiB: `VmHWM`, the high-water mark
/// of this program's own address space (`ru_maxrss` would also carry the
/// peak of whatever process forked it, since Linux keeps it across exec).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One-minute load average of the host.
pub fn loadavg1() -> f64 {
    let mut l = [0.0f64; 1];
    // SAFETY: one element requested into a one-element buffer.
    if unsafe { getloadavg(l.as_mut_ptr(), 1) } == 1 {
        l[0]
    } else {
        0.0
    }
}

/// CPUs the process could use when it started, before any pinning.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn stretches_set_a_stall_aside() {
        // 1000 completions/s of 100 µs each, with one 50 ms stall after
        // the 300th.
        let done: Vec<(f64, f64)> = (0..1000)
            .map(|i| {
                (i as f64 * 1e-3 + if i >= 300 { 0.05 } else { 0.0 }, if i == 300 { 5e4 } else { 100.0 })
            })
            .collect();
        let s = stretches(done, 16);
        assert_eq!(s.len(), (1000 - 1) / 16);
        assert!(s.iter().any(|s| s.rate < 600.0), "the stalled stretch is slower");
        let (goodput, p50) = phase_figures(&s).unwrap();
        assert!((goodput - 1000.0).abs() < 1.0, "{goodput}");
        assert_eq!(p50, 100.0);
        assert!(phase_figures(&s[..MIN_STRETCHES - 1]).is_err(), "too few stretches to read");
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
    }
}
