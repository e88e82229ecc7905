//! Small helpers shared by the workloads: order statistics, timing loops,
//! process memory, and a seeded RNG per (seed, stream) pair.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// A generator for one named input stream of one seed. Streams are
/// independent, so adding a stream never shifts another one's values.
pub fn rng(seed: u64, stream: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// Linear-interpolated quantile of `v` at `q` in `[0, 1]` (NaN when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// The highest of p99.9 / p99 / p90 / p50 that has at least ten samples
/// above it, with its label; the median when there are fewer than twenty.
pub fn tail(v: &[f64]) -> (&'static str, f64) {
    for (label, q) in [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)] {
        // The epsilon absorbs `1.0 - q` rounding (0.1 is not exact).
        if (v.len() as f64) * (1.0 - q) + 1e-9 >= 10.0 {
            return (label, quantile(v, q));
        }
    }
    ("p50", median(v))
}

/// Seconds since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Time `f` once; returns its value and the wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, secs(t0))
}

/// User plus system CPU time of this process so far, ended threads
/// included, in seconds (`/proc/self/stat`, whose unit is the fixed 100 Hz
/// `USER_HZ`), or NaN when `/proc` is unavailable. A guest kernel leaves
/// time stolen by the hypervisor out of it.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // utime and stime are fields 14 and 15 of the line, the 12th
            // and 13th after the parenthesised command name.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
            Some((ticks(11)? + ticks(12)?) / 100.0)
        })
        .unwrap_or(f64::NAN)
}

/// Peak resident set size of this process in MB (`VmHWM`), or NaN when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over a byte stream: a stable digest of generated inputs.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

#[cfg(test)]
impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

#[cfg(test)]
impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, v: &[f64]) {
        for x in v {
            self.bytes(&x.to_bits().to_le_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).0, "p99");
        assert_eq!(tail(&v[..100]).0, "p90");
        assert_eq!(tail(&v[..10]).0, "p50");
    }
}
