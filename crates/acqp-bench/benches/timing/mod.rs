//! Median-of-N wall-clock timing shared by the micro-benches.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` and prints its median wall time per call under `label`.
/// One untimed call sizes a batch of calls lasting about 5 ms (at least
/// one call), then `samples` batches are timed with [`Instant`]; the
/// median batch's per-call time is printed.
pub fn time_median<R>(label: &str, samples: usize, mut f: impl FnMut() -> R) {
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().as_nanos().max(1);
    let batch = (Duration::from_millis(5).as_nanos() / once).clamp(1, u128::from(u32::MAX)) as u32;
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed() / batch
        })
        .collect();
    times.sort_unstable();
    let median = times[times.len() / 2];
    println!("{label:<48} median {median:>12.3?} over {} samples", times.len());
}
