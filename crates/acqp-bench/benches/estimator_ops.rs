//! §5 micro-benchmarks: the probability computations the planners lean
//! on, as a function of dataset size.
//!
//! The paper's complexity claims, checked by shape here:
//! * building per-attribute conditional histograms is `O(|D|·n·K)`
//!   overall — one pass per subproblem (`hist`);
//! * truth-table construction is one gather over the conditioned rows
//!   (`truth_table`);
//! * the per-value sweep used by `GREEDYSPLIT` is a single pass
//!   (`truth_by_value`), independent of the number of candidate cuts;
//! * context refinement (the §5 index narrowing) is linear in the
//!   parent's support.
//!
//! Each line is the median of 20 timed samples
//! (`timing::time_median`).

mod timing;

use acqp_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use timing::time_median;

fn dataset(rows: usize, seed: u64) -> (Schema, Dataset, Query) {
    let mut rng = StdRng::seed_from_u64(seed);
    let schema =
        Schema::new((0..8).map(|i| Attribute::new(format!("x{i}"), 32, 10.0)).collect()).unwrap();
    let data = Dataset::from_rows(
        &schema,
        (0..rows)
            .map(|_| {
                let base: u16 = rng.gen_range(0..32);
                (0..8).map(|_| (base + rng.gen_range(0..8)) % 32).collect()
            })
            .collect(),
    )
    .unwrap();
    let query =
        Query::checked((0..4).map(|a| Pred::in_range(a, 8, 23)).collect(), &schema).unwrap();
    (schema, data, query)
}

fn main() {
    const SAMPLES: usize = 20;
    for rows in [5_000usize, 20_000, 80_000] {
        let (schema, data, query) = dataset(rows, 9);
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let root = est.root();
        time_median(&format!("counting_hist/{rows}"), SAMPLES, || est.hist(&root, 0));
        time_median(&format!("counting_truth_table/{rows}"), SAMPLES, || {
            est.truth_table(&root, &query)
        });
        time_median(&format!("counting_truth_by_value/{rows}"), SAMPLES, || {
            est.truth_by_value(&root, 7, &query)
        });
        time_median(&format!("counting_refine/{rows}"), SAMPLES, || {
            est.refine(&root, 7, Range::new(0, 15))
        });
    }
}
