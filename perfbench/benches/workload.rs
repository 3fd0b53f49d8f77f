//! Workload inputs, generated in advance from the `--seed` argument.
//!
//! Every workload runs one fixed deployment: a generated Lab trace
//! (planning history plus live trace) and a query population drawn from
//! that history. The seed shuffles the traffic (which signature each
//! admission carries, its window and its deadline) and draws the fault
//! streams; admission epochs follow from the position in the schedule.
//! Fixing the deployment keeps the figures of different seeds
//! comparable; the drift-invalidation dynamics of `zipf` and the energy
//! of a plan depend strongly on which queries exist. The program under
//! test only ever receives these generated inputs.

use std::path::PathBuf;

use acqp_core::prelude::*;
use acqp_data::{lab, workload};
use acqp_sensornet::sim::fleet_from_trace;
use acqp_sensornet::{
    Basestation, CrashConfig, FaultModel, Mote, ScheduleEntry, ServiceOptions, ServicePolicy,
};
use acqp_serve::{ServeConfig, Service};

/// The benchmark's workloads; see `BENCHMARK.json` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Zipf,
    Fleet,
    FleetVec,
    Faulty,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "zipf" => Some(Workload::Zipf),
            "fleet" => Some(Workload::Fleet),
            "fleet_vec" => Some(Workload::FleetVec),
            "faulty" => Some(Workload::Faulty),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Zipf => "zipf",
            Workload::Fleet => "fleet",
            Workload::FleetVec => "fleet_vec",
            Workload::Faulty => "faulty",
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Workload::Zipf => ZIPF,
            Workload::Fleet | Workload::FleetVec => FLEET,
            Workload::Faulty => FAULTY,
        }
    }

    pub fn mode(self) -> ExecMode {
        match self {
            Workload::FleetVec => ExecMode::Vectorized,
            _ => ExecMode::Scalar,
        }
    }
}

/// Input sizes of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Simulated epochs of the service run.
    pub epochs: usize,
    /// Motes in the fleet, each replaying the live trace.
    pub motes: u16,
    /// Distinct query signatures and scheduled admissions.
    pub population: usize,
    pub admissions: usize,
    /// Zipf skew of admissions over the population (0 = uniform).
    pub zipf_s: f64,
    /// Window length in epochs is `window_min + u` with `u < window_span`.
    pub window_min: usize,
    pub window_span: usize,
    /// Admissions arrive in bursts of this many at one epoch.
    pub burst: usize,
}

const ZIPF: Spec = Spec {
    epochs: 1_500,
    motes: 2,
    population: 48,
    admissions: 5_000,
    zipf_s: 1.1,
    window_min: 4,
    window_span: 8,
    burst: 1,
};

const FLEET: Spec = Spec {
    epochs: 6_000,
    motes: 26,
    population: 40,
    admissions: 1_400,
    zipf_s: 0.0,
    window_min: 500,
    window_span: 400,
    burst: 8,
};

/// `fleet`'s traffic through the fault-tolerant loop, on more motes:
/// shed and timed-out queries leave less engine work, and plan search
/// must stay a small share of the run.
const FAULTY: Spec = Spec { motes: 28, ..FLEET };

/// Seeds of the fixed deployment: the Lab trace and the query population.
const LAB_SEED: u64 = 0xced5;
const POPULATION_SEED: u64 = 42;
/// The planning history is every `HISTORY_STRIDE`-th row of the first
/// half of the trace: 1819 rows covering every mote and hour (the stride
/// is coprime with the 20 Lab motes). Plan search cost grows with it.
const HISTORY_STRIDE: usize = 11;
/// Admissions that hold the exact Zipf mix of signatures. On `zipf`
/// every signature appears in each stratum and the drift monitors fire
/// about once a stratum, so most signatures miss the cache once after
/// each firing, and the miss count follows the firing count.
const STRATUM: usize = 500;
/// Link loss of the `faulty` workload's network.
const LOSS_RATE: f64 = 0.15;
/// Per-read sensing failure probability of the `faulty` workload.
const SENSING_FAIL: f64 = 0.02;
/// Epochs at whose start the `faulty` basestation crashes.
const CRASH_EPOCHS: [usize; 3] = [537, 1_049, 1_561];
/// Snapshot cadence of the `faulty` basestation, in epochs.
const CHECKPOINT_EVERY: usize = 100;
/// Live instances of one signature before it yields to others.
const FAIR_SHARE: usize = 4;
/// Per-epoch budget on the summed expected per-tuple cost of live plans.
const EPOCH_BUDGET: f64 = 20_000.0;

/// The generated trace: schema, planning history and live trace.
pub struct Trace {
    pub schema: Schema,
    pub history: Dataset,
    pub live: Dataset,
}

/// Generates the deployment's Lab trace at its default size (20 motes
/// by 2000 epochs); the live trace is its second half.
pub fn generate() -> Trace {
    let g = lab::generate(&lab::LabConfig { seed: LAB_SEED, ..lab::LabConfig::default() });
    let (first, live) = g.split(0.5);
    Trace { schema: g.schema, history: first.thin(HISTORY_STRIDE), live }
}

/// Simulated epochs of a workload's run over `trace`.
pub fn epochs(spec: &Spec, trace: &Trace) -> usize {
    spec.epochs.min(trace.live.len())
}

/// Draws the query population and the admission schedule. Each
/// property of the schedule takes a fixed multiset of values that the
/// seed only shuffles: signatures in exact Zipf proportions within every
/// [`STRATUM`] consecutive admissions; each signature's windows evenly
/// spread over their range, so its total work, and with it the drift
/// monitors' firings, is nearly fixed; and, on `faulty`, exactly one
/// short deadline in four. So the amount of work barely depends on the
/// seed, and the figures of different seeds are comparable.
pub fn schedule(w: Workload, spec: &Spec, seed: u64, trace: &Trace) -> Result<Vec<ScheduleEntry>> {
    let population =
        workload::lab_queries(&trace.schema, &trace.history, spec.population, 3, POPULATION_SEED)?;
    let epochs = epochs(spec, trace);
    let n = spec.admissions;
    let mut rng = XorShift::new(seed);
    let mut ranks = Vec::with_capacity(n);
    for start in (0..n).step_by(STRATUM) {
        let mut stratum = zipf_ranks(population.len(), spec.zipf_s, STRATUM.min(n - start));
        rng.shuffle(&mut stratum);
        ranks.extend(stratum);
    }
    let mut windows: Vec<Vec<usize>> = vec![Vec::new(); population.len()];
    for &r in &ranks {
        windows[r].push(0);
    }
    for ws in &mut windows {
        let c = ws.len();
        for (j, x) in ws.iter_mut().enumerate() {
            *x = spec.window_min + j * spec.window_span / c;
        }
        rng.shuffle(ws);
    }
    let mut short: Vec<bool> = (0..n).map(|i| i % 4 == 0).collect();
    rng.shuffle(&mut short);
    let usable = epochs.saturating_sub(spec.window_min).max(1);
    let mut schedule = Vec::with_capacity(n);
    for (i, (&r, &short)) in ranks.iter().zip(&short).enumerate() {
        let window = windows[r].pop().expect("one window per entry");
        let admit = (i - i % spec.burst) * usable / n;
        let entry = ScheduleEntry::new(population[r].clone(), admit, window);
        // The faulty workload's short deadlines fall before the end of
        // the window, so those queries time out unless they finish
        // early; the rest get slack for queueing.
        schedule.push(match w {
            Workload::Faulty if short => {
                entry.with_deadline(window * 3 / 4 + rng.below(window / 2))
            }
            Workload::Faulty => entry.with_deadline(window + 16),
            _ => entry,
        });
    }
    Ok(schedule)
}

/// The planning policy (planner threads = 1). On `zipf` the drift
/// monitors fire about 10 times in a pass of 5000 admissions; each firing
/// clears the plan cache, so about 8% of admissions re-plan and plan
/// search does nearly all the work. The 99th latency percentile then
/// sits inside the misses, with one miss in eight beyond it, and the
/// median among the hits. Firing more often puts the 99th percentile in
/// the misses' tail, where host stalls decide it. The other workloads
/// measure execution: a threshold of 1 never fires, so each signature
/// misses the cache once.
pub fn serve_config(w: Workload) -> ServeConfig {
    let drift = match w {
        Workload::Zipf => DriftConfig { threshold: 0.2, min_samples: 2_560 },
        _ => DriftConfig { threshold: 1.0, min_samples: 256 },
    };
    ServeConfig { drift, ..ServeConfig::default() }
}

/// Builds the service policy and the fleet.
pub fn build<'h>(w: Workload, spec: &Spec, trace: &'h Trace) -> Result<(Service<'h>, Vec<Mote>)> {
    let bs = Basestation::new(trace.schema.clone(), &trace.history);
    let service = Service::new(bs, serve_config(w))?;
    Ok((service, fleet_from_trace(&trace.live, spec.motes)))
}

/// The robustness options of a workload; `faulty` journals into `dir`,
/// which must be fresh.
pub fn options(w: Workload, seed: u64, dir: Option<PathBuf>) -> ServiceOptions {
    match w {
        Workload::Faulty => ServiceOptions {
            faults: FaultModel::lossy(seed, LOSS_RATE).with_sensing_failures(SENSING_FAIL),
            crash: CrashConfig {
                checkpoint_dir: dir,
                checkpoint_every: CHECKPOINT_EVERY,
                crash_epochs: CRASH_EPOCHS.to_vec(),
                crash_rate: 0.0,
            },
            policy: ServicePolicy {
                epoch_cost_budget: Some(EPOCH_BUDGET),
                fair_share: FAIR_SHARE,
                ..ServicePolicy::default()
            },
            collect_rows: false,
        },
        _ => ServiceOptions::default(),
    }
}

/// Deterministic xorshift stream for schedule sampling.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        // splitmix64 of the seed, so nearby seeds give unrelated streams
        // and no seed yields the all-zero state.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        XorShift((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    /// Fisher-Yates shuffle.
    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `n` ranks of `0..population`, each repeated in proportion to its
/// Zipf(s) weight `1 / (rank + 1)^s` (largest remainders; 0 = uniform).
fn zipf_ranks(population: usize, s: f64, n: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=population).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * n as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..population).collect();
    by_remainder.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    let short = n - counts.iter().sum::<usize>();
    for &r in by_remainder.iter().take(short) {
        counts[r] += 1;
    }
    counts.iter().enumerate().flat_map(|(r, &c)| std::iter::repeat_n(r, c)).collect()
}
