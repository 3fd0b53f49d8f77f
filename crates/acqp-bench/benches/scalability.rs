//! §6.4 scalability: planner running time versus the number of query
//! predicates, attribute domain size, and the amount of historical
//! data.
//!
//! Expected complexity shapes (§6.4):
//! * heuristic — linear in |D|, linear in domain size, exponential
//!   (base 2) in the number of query predicates when `OptSeq` base
//!   plans are used (polynomial with `GreedySeq`);
//! * exhaustive — linear in |D|, polynomial in domain size, exponential
//!   in attributes with the domain size as base.
//!
//! Each line is the median of 10 timed samples
//! (`timing::time_median`); run
//! `cargo bench -p acqp-bench --bench scalability`.

mod timing;

use acqp_core::prelude::*;
use acqp_data::synthetic::{self, SyntheticConfig};
use acqp_data::workload::synthetic_query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use timing::time_median;

/// A correlated dataset with `n` attributes of domain `k` and `rows`
/// tuples; attribute 0 is cheap, the rest expensive.
fn correlated(n: usize, k: u16, rows: usize, seed: u64) -> (Schema, Dataset) {
    let mut rng = StdRng::seed_from_u64(seed);
    let attrs: Vec<Attribute> = (0..n)
        .map(|i| Attribute::new(format!("x{i}"), k, if i == 0 { 1.0 } else { 100.0 }))
        .collect();
    let schema = Schema::new(attrs).unwrap();
    let data = Dataset::from_rows(
        &schema,
        (0..rows)
            .map(|_| {
                let base = rng.gen_range(0..k);
                (0..n)
                    .map(|_| {
                        let jitter = rng.gen_range(0..=k / 4);
                        (base + jitter) % k
                    })
                    .collect()
            })
            .collect(),
    )
    .unwrap();
    (schema, data)
}

fn mid_query(schema: &Schema, preds: usize) -> Query {
    let k = schema.domain(1);
    Query::checked((1..=preds).map(|a| Pred::in_range(a, k / 4, 3 * k / 4)).collect(), schema)
        .unwrap()
}

/// Median time to build the root estimator and plan with `plan`,
/// printed as `group/param`.
fn time_plan(
    group: &str,
    param: impl std::fmt::Display,
    schema: &Schema,
    data: &Dataset,
    plan: impl Fn(&CountingEstimator) -> Result<Plan>,
) {
    time_median(&format!("{group}/{param}"), SAMPLES, || {
        plan(&CountingEstimator::with_ranges(data, Ranges::root(schema))).unwrap()
    });
}

const SAMPLES: usize = 10;

fn main() {
    // --- Heuristic vs dataset size (expect linear) ---
    for rows in [2_000usize, 4_000, 8_000, 16_000] {
        let (schema, data) = correlated(6, 16, rows, 1);
        let query = mid_query(&schema, 3);
        time_plan("heuristic_vs_rows", rows, &schema, &data, |est| {
            GreedyPlanner::new(5).plan(&schema, &query, est)
        });
    }

    // --- Heuristic vs domain size (expect ~linear) ---
    for k in [8u16, 16, 32, 64] {
        let (schema, data) = correlated(6, k, 6_000, 2);
        let query = mid_query(&schema, 3);
        time_plan("heuristic_vs_domain", k, &schema, &data, |est| {
            GreedyPlanner::new(5).plan(&schema, &query, est)
        });
    }

    // --- Heuristic (OptSeq base) vs number of predicates (expect 2^m) ---
    for m in [4usize, 6, 8, 10, 12] {
        let (schema, data) = correlated(m + 1, 8, 4_000, 3);
        let query = mid_query(&schema, m);
        let planner = GreedyPlanner::new(3).with_base(SeqAlgorithm::Optimal);
        time_plan("heuristic_optseq_vs_preds", m, &schema, &data, |est| {
            planner.plan(&schema, &query, est)
        });
    }

    // --- Heuristic (GreedySeq base) vs number of predicates (polynomial) ---
    for n in [7usize, 14, 27, 40] {
        let cfg = SyntheticConfig::new(n, 3, 0.5).with_rows(4_000);
        let g = synthetic::generate(&cfg);
        let query = synthetic_query(&cfg, &g.schema);
        let planner = GreedyPlanner::new(3).with_base(SeqAlgorithm::Greedy);
        time_plan("heuristic_greedyseq_vs_preds", query.len(), &g.schema, &g.data, |est| {
            planner.plan(&g.schema, &query, est)
        });
    }

    // --- Exhaustive vs domain size (expect high-degree polynomial) ---
    for k in [4u16, 6, 8] {
        let (schema, data) = correlated(3, k, 2_000, 4);
        let query = mid_query(&schema, 2);
        let planner = ExhaustivePlanner::new().max_subproblems(5_000_000);
        time_plan("exhaustive_vs_domain", k, &schema, &data, |est| {
            planner.plan(&schema, &query, est)
        });
    }

    // --- Exhaustive vs number of attributes (expect exponential) ---
    for n in [2usize, 3, 4] {
        let (schema, data) = correlated(n, 6, 2_000, 5);
        let query = mid_query(&schema, n - 1);
        let planner = ExhaustivePlanner::new().max_subproblems(5_000_000);
        time_plan("exhaustive_vs_attrs", n, &schema, &data, |est| {
            planner.plan(&schema, &query, est)
        });
    }
}
