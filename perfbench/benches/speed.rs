//! Host-speed probe. The benchmark shares a virtual machine whose speed
//! drifts over seconds and minutes as other tenants load the host: the
//! same pass took from 3.4 to 6.4 s within one process, and fixed loops
//! slowed down with it. Timings are therefore sampled together with a
//! fixed probe that belongs to the benchmark, never to the program, and
//! divided by the probe's slowdown against its time on a quiet host.
//! Program changes cannot move the probe, so the ratio keeps their
//! effect while the host's drift largely cancels.
//!
//! The probe has two parts: arithmetic in registers, and a range count
//! over a small table, the shape of a selectivity count. Over 34 passes
//! of three workloads, dividing by the two together left a pass-to-pass
//! variation of 5.4-5.9% where the arithmetic alone left 6.3-8.2% and
//! the raw times varied by 10-14%.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use crate::timing::median;

/// Independent multiply-xorshift rounds in one probe: about 3 us of
/// arithmetic in registers.
const PROBE_ROUNDS: u64 = 2_048;
/// Values in the probe's table (16 KB) and range counts over it.
const TABLE_LEN: usize = 2_048;
const SCANS: usize = 4;
/// The probe's median time on the reference host (2 vCPU Xeon VM) when
/// quiet; a slowdown of 1 means the host ran at that speed.
const PROBE_REF_NS: f64 = 5_000.0;
/// Least wall time between two probes inside a run.
const EVERY_NS: u128 = 2_000_000;
/// Probes taken back to back for one set-up sample.
const BURST: usize = 16;
/// Probes taken back to back after each cache miss.
pub const MISS_BURST: usize = 9;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The probe's table: fixed values in `0..1000`, built once.
fn table() -> &'static [f64] {
    static TABLE: OnceLock<Vec<f64>> = OnceLock::new();
    TABLE.get_or_init(|| (0..TABLE_LEN as u64).map(|i| (mix(i) % 1000) as f64).collect())
}

/// Runs the probe once and returns its wall time in nanoseconds.
fn probe_ns() -> u64 {
    let salt = black_box(0x9e37_79b9_7f4a_7c15_u64);
    let table = table();
    let t = Instant::now();
    let mut acc = 0u64;
    for r in 0..PROBE_ROUNDS {
        acc = acc.wrapping_add(mix(r ^ salt));
    }
    for k in 0..SCANS {
        let (lo, hi) = (black_box(100.0 + k as f64), black_box(600.0));
        acc += table.iter().map(|&x| ((x >= lo) & (x <= hi)) as u64).sum::<u64>();
    }
    black_box(acc);
    t.elapsed().as_nanos() as u64
}

/// Probe samples taken while a pass runs, at most one every 2 ms.
pub struct Speed {
    last: Instant,
    samples: Vec<u64>,
    spent_ns: u64,
}

impl Speed {
    pub fn new() -> Self {
        Speed { last: Instant::now(), samples: Vec::new(), spent_ns: 0 }
    }

    /// Whether the next probe is due.
    pub fn due(&self) -> bool {
        self.last.elapsed().as_nanos() >= EVERY_NS
    }

    /// Takes one probe sample now.
    pub fn sample(&mut self) {
        let t = Instant::now();
        self.samples.push(probe_ns());
        self.last = Instant::now();
        self.spent_ns += (self.last - t).as_nanos() as u64;
    }

    /// Wall seconds spent probing, to take out of the timed run.
    pub fn spent_s(&self) -> f64 {
        self.spent_ns as f64 / 1e9
    }

    /// The host's slowdown over the samples so far: the probe's median
    /// time over its reference time.
    pub fn slowdown(&self) -> f64 {
        slowdown_of(&self.samples)
    }

    /// Takes `n` probe samples back to back and returns the host's
    /// slowdown over them alone.
    pub fn burst(&mut self, n: usize) -> f64 {
        let from = self.samples.len();
        for _ in 0..n {
            self.sample();
        }
        slowdown_of(&self.samples[from..])
    }
}

fn slowdown_of(samples: &[u64]) -> f64 {
    let ns: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
    median(&ns) / PROBE_REF_NS
}

/// The host's slowdown right now, from a short burst of probes.
pub fn slowdown_now() -> f64 {
    Speed::new().burst(BURST)
}
