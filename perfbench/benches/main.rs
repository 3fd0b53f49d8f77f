//! End-to-end and per-layer benchmark of the basestation service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each pass sets a workload up from its own seed, derived from
//! `--seed` (trace, population, schedule, policy and fleet), runs it
//! through `acqp_sensornet::run_service_with` with the
//! `acqp_serve::Service` policy behind a timing decorator, and checks
//! the outputs. `--trace 0` makes passes while another fits in
//! `--seconds` and prints the end-to-end metrics over all of them;
//! `--trace 1` alternates untraced and traced passes while another pair
//! fits, replays the last traced pass layer by layer, and prints the
//! per-layer metrics. Timings of the end-to-end metrics are divided by
//! the host's slowdown, measured alongside them (see `speed.rs`). The
//! last line of stdout is the JSON result; a failed check exits nonzero
//! without printing one.

mod layers;
mod speed;
mod timing;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use acqp_core::QueryStatus;
use acqp_obs::Recorder;
use acqp_sensornet::{run_service_with, ScheduleEntry, ServiceReport};
use acqp_serve::Service;

use timing::{median, percentile, Timed, Tracer};
use workload::{Spec, Trace, Workload};

/// Extra set-ups before each pass, so `setup_s` is a median over enough
/// samples, taken all through the run, to be steady.
const EXTRA_SETUPS: usize = 16;
/// Directory, relative to the working directory, for checkpoints and
/// span dumps. Removed checkpoints leave only the span dumps behind.
pub const OUT_DIR: &str = ".perfbench-out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Set-up phase times of one pass, in seconds, and the host's slowdown
/// measured just before them.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub generate: f64,
    pub schedule: f64,
    pub build: f64,
    pub slowdown: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.generate + self.schedule + self.build
    }

    /// Total set-up time at the probe's reference host speed.
    pub fn normalized(&self) -> f64 {
        self.total() / self.slowdown
    }
}

/// Everything one pass produced.
pub struct Pass {
    pub setup: SetupTimes,
    /// Wall time of `run_service_with`, less the time spent probing.
    pub wall: f64,
    /// The host's slowdown while the service ran.
    pub slowdown: f64,
    pub report: ServiceReport,
    pub trace: Trace,
    pub schedule: Vec<ScheduleEntry>,
    pub epochs: usize,
    pub hit_ns: Vec<u64>,
    pub miss_ns: Vec<u64>,
    pub miss_slowdown: Vec<f64>,
    pub misses: Vec<timing::Miss>,
    pub plans: std::collections::BTreeMap<u64, acqp_core::Plan>,
    pub miss_subproblems: u64,
    pub stats_epoch: u64,
    /// The faulty workload's checkpoint directory, still on disk when
    /// the caller asked to keep it.
    pub ckpt_dir: Option<PathBuf>,
}

impl Pass {
    pub fn admitted(&self) -> usize {
        self.report.queries.iter().filter(|q| q.admitted).count()
    }

    pub fn served(&self) -> usize {
        self.report
            .queries
            .iter()
            .filter(|q| {
                q.admitted && matches!(q.status, QueryStatus::Complete | QueryStatus::Partial)
            })
            .count()
    }

    /// Sensing energy per tuple, mote energy per admitted query and
    /// served share: what the paper's objective and the operator see.
    pub fn outcome(&self) -> [f64; 3] {
        let net = &self.report.network;
        [
            net.sensing_uj / self.report.tuples() as f64,
            net.total_uj() / self.admitted() as f64,
            self.served() as f64 / self.schedule.len() as f64,
        ]
    }

    pub fn in_range(&self) -> usize {
        self.schedule.iter().filter(|s| s.admit < self.epochs).count()
    }

    pub fn remove_ckpt_dir(&self) -> Result<(), String> {
        match &self.ckpt_dir {
            Some(d) => std::fs::remove_dir_all(d).map_err(|e| format!("{}: {e}", d.display())),
            None => Ok(()),
        }
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` as a set-up phase: timed, and a span when tracing.
fn phase<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let id = tracer.as_mut().map(|t| t.begin(name));
    let t = Instant::now();
    let out = f();
    let s = secs(t);
    if let (Some(tr), Some(id)) = (tracer.as_mut(), id) {
        tr.end(id);
    }
    (out, s)
}

/// Sets a workload up from its seed, times each phase and drops it.
fn setup(w: Workload, spec: &Spec, seed: u64) -> Result<SetupTimes, String> {
    let slowdown = speed::slowdown_now();
    let mut none = None;
    let (trace, generate) = phase(&mut none, "data.generate", workload::generate);
    let (sched, schedule) =
        phase(&mut none, "data.schedule", || workload::schedule(w, spec, seed, &trace));
    sched.map_err(|e| format!("schedule: {e}"))?;
    let (built, build) =
        phase(&mut none, "service.fleet_build", || workload::build(w, spec, &trace));
    built.map_err(|e| format!("service: {e}"))?;
    Ok(SetupTimes { generate, schedule, build, slowdown })
}

/// A fresh, empty checkpoint directory for one pass of `faulty`.
fn fresh_dir(w: Workload, n: usize) -> Result<Option<PathBuf>, String> {
    if w != Workload::Faulty {
        return Ok(None);
    }
    let dir = PathBuf::from(OUT_DIR).join(format!("ckpt-{}-{}-{n}", w.name(), std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(Some(dir))
}

/// One pass: set up, run through the decorator, check the outputs.
pub fn pass(
    w: Workload,
    spec: &Spec,
    seed: u64,
    n: usize,
    tracer: Option<&mut Tracer>,
    rec: &Recorder,
    keep_dir: bool,
) -> Result<Pass, String> {
    let mut tracer = tracer;
    let root = tracer.as_mut().map(|t| t.begin("pass"));
    let slowdown = speed::slowdown_now();

    let (trace, generate) = phase(&mut tracer, "data.generate", workload::generate);
    let (sched, schedule) =
        phase(&mut tracer, "data.schedule", || workload::schedule(w, spec, seed, &trace));
    let sched = sched.map_err(|e| format!("schedule: {e}"))?;
    let (built, build) =
        phase(&mut tracer, "service.fleet_build", || workload::build(w, spec, &trace));
    let (service, mut fleet) = built.map_err(|e| format!("service: {e}"))?;
    let setup = SetupTimes { generate, schedule, build, slowdown };
    let epochs = workload::epochs(spec, &trace);

    let dir = fresh_dir(w, n)?;
    let opts = workload::options(w, seed, dir.clone());
    let run_id = tracer.as_mut().map(|tr| tr.begin("service.run"));
    let mut timed: Timed<'_, Service<'_>> = Timed::new(service, tracer.as_deref_mut());
    timed.speed.sample();
    let t = Instant::now();
    let report = run_service_with(
        &trace.schema,
        &sched,
        &mut timed,
        &mut fleet,
        &acqp_sensornet::EnergyModel::mica_like(),
        epochs,
        w.mode(),
        rec,
        &opts,
    );
    let elapsed = secs(t);
    let Timed {
        hit_ns,
        miss_ns,
        miss_slowdown,
        hit_subproblems,
        miss_subproblems,
        misses,
        plans,
        inner,
        mut speed,
        ..
    } = timed;
    let wall = elapsed - speed.spent_s();
    speed.sample();
    let stats_epoch = acqp_sensornet::ServePlanner::stats_epoch(&inner);
    drop(inner);
    if let (Some(tr), Some(id)) = (tracer.as_mut(), run_id) {
        tr.end(id);
    }
    if let (Some(tr), Some(id)) = (tracer.as_mut(), root) {
        tr.end(id);
    }
    drop(fleet);
    let ckpt_dir = match dir {
        Some(d) if !keep_dir || report.is_err() => {
            std::fs::remove_dir_all(&d).map_err(|e| format!("{}: {e}", d.display()))?;
            None
        }
        d => d,
    };
    let report = report.map_err(|e| format!("{} run failed: {e}", w.name()))?;

    let p = Pass {
        setup,
        wall,
        slowdown: speed.slowdown(),
        report,
        trace,
        schedule: sched,
        epochs,
        hit_ns,
        miss_ns,
        miss_slowdown,
        misses,
        plans,
        miss_subproblems,
        stats_epoch,
        ckpt_dir,
    };
    if let Err(e) = check(w, &p, hit_subproblems) {
        p.remove_ckpt_dir()?;
        return Err(e);
    }
    Ok(p)
}

/// The output checks every pass must clear.
fn check(w: Workload, p: &Pass, hit_subproblems: u64) -> Result<(), String> {
    let name = w.name();
    if !p.report.all_correct() {
        return Err(format!("{name}: service verdicts diverged from ground truth"));
    }
    let admitted = p.admitted();
    let shed = p.report.queries.iter().filter(|q| q.shed_at.is_some()).count();
    // Every in-range entry is admitted; only admission control may
    // turn one away, and then it is counted as shed.
    if admitted + shed != p.in_range() || (w != Workload::Faulty && shed != 0) {
        return Err(format!(
            "{name}: {admitted} admitted + {shed} shed != {} in-range schedule entries",
            p.in_range()
        ));
    }
    let outcome_hit_sub: u64 =
        p.report.queries.iter().filter(|q| q.cache_hit).map(|q| q.subproblems).sum();
    if hit_subproblems != 0 || outcome_hit_sub != 0 {
        return Err(format!(
            "{name}: cache hits expanded {hit_subproblems} (decorator) / {outcome_hit_sub} \
             (report) plan-search subproblems, expected 0"
        ));
    }
    if p.hit_ns.len() + p.miss_ns.len() < admitted {
        return Err(format!("{name}: fewer plan_admitted calls than admissions"));
    }
    // Lossless workloads serve every query; the faulty one must lose
    // some to shedding or deadlines and serve the rest.
    let (served, scheduled) = (p.served(), p.schedule.len());
    let share_ok = match w {
        Workload::Faulty => served > 0 && served < scheduled,
        _ => served == scheduled,
    };
    if !share_ok {
        return Err(format!("{name}: {served} of {scheduled} queries served"));
    }
    if p.report.tuples() == 0 {
        return Err(format!("{name}: no tuples evaluated"));
    }
    Ok(())
}

/// What must repeat bitwise between passes over the same inputs.
fn fingerprint(p: &Pass) -> Vec<u64> {
    let n = &p.report.network;
    vec![
        n.sensing_uj.to_bits(),
        n.total_uj().to_bits(),
        p.report.bs_tx_uj.to_bits(),
        p.report.tuples() as u64,
        p.report.results() as u64,
        p.admitted() as u64,
        p.served() as u64,
        p.miss_ns.len() as u64,
    ]
}

/// A metric line of the result: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The seed of a run's `k`-th pass. Each pass draws its own schedule,
/// so a run averages over several schedules of its seed.
pub fn pass_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(1 << 16).wrapping_add(k as u64)
}

/// Work and time summed over a run's passes. Every pass is dropped
/// before the next starts, so peak RSS does not grow with the number of
/// passes.
#[derive(Default)]
struct Totals {
    walls: Vec<f64>,
    slowdowns: Vec<f64>,
    scheduled: usize,
    admitted: usize,
    tuples: usize,
    misses: usize,
    firings: u64,
    epochs: usize,
    /// Energy per tuple, energy per query and served share of the first
    /// pass. `fleet` and `fleet_vec` make different numbers of passes,
    /// but their first passes share inputs, so these must agree bitwise.
    first: Option<[f64; 3]>,
}

impl Totals {
    fn add(&mut self, p: &Pass) {
        self.walls.push(p.wall);
        self.slowdowns.push(p.slowdown);
        self.scheduled += p.schedule.len();
        self.admitted += p.admitted();
        self.tuples += p.report.tuples();
        self.misses += p.miss_ns.len();
        self.firings += p.stats_epoch;
        self.epochs = p.epochs;
        self.first.get_or_insert(p.outcome());
    }
}

/// Whether another round, as long as the longest of `rounds` so far,
/// still ends within `seconds` of `start`; the first round always runs.
pub fn another_fits(start: Instant, seconds: f64, rounds: &[f64]) -> bool {
    rounds.is_empty() || secs(start) + rounds.iter().copied().fold(0.0, f64::max) <= seconds
}

fn end_to_end(args: &Args) -> Result<(Vec<Metric>, usize), String> {
    let w = args.workload;
    let spec = w.spec();
    let start = Instant::now();
    let rec = Recorder::disabled();
    let mut t = Totals::default();
    let (mut setups, mut admits_ms, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    while another_fits(start, args.seconds, &rounds) {
        let round = Instant::now();
        let k = rounds.len();
        let seed = pass_seed(args.seed, k);
        for _ in 0..EXTRA_SETUPS {
            setups.push(setup(w, &spec, seed)?.normalized());
        }
        let p = pass(w, &spec, seed, k, None, &rec, false)?;
        setups.push(p.setup.normalized());
        // Hits are divided by the pass's slowdown, misses by the one
        // measured right after each.
        admits_ms.extend(p.hit_ns.iter().map(|&ns| ns as f64 / 1e6 / p.slowdown));
        admits_ms
            .extend(p.miss_ns.iter().zip(&p.miss_slowdown).map(|(&ns, s)| ns as f64 / 1e6 / s));
        t.add(&p);
        rounds.push(secs(round));
    }
    let p50 = percentile(&admits_ms, 0.50, "admit_ms_p50")?;
    let p99 = percentile(&admits_ms, 0.99, "admit_ms_p99")?;
    let rss = timing::peak_rss_mb()?;

    let wall: f64 = t.walls.iter().sum();
    let norm_wall: f64 = t.walls.iter().zip(&t.slowdowns).map(|(w, s)| w / s).sum();
    println!(
        "{} seed {}: {} passes in {:.2} s (service {:.3?} s at host slowdown {:.3?}); \
         {} scheduled, {} admitted, {} tuples, {} misses after {} drift firings; \
         {} epochs and {} motes a pass",
        w.name(),
        args.seed,
        t.walls.len(),
        secs(start),
        t.walls,
        t.slowdowns,
        t.scheduled,
        t.admitted,
        t.tuples,
        t.misses,
        t.firings,
        t.epochs,
        spec.motes,
    );
    // The median admission is a cache hit of 1-2 us that follows the
    // host's memory latency: its spread over runs reached half its value,
    // too wide for a bound. It is printed here and reported per layer as
    // `serve.hit_us_p50`; the metrics carry the 99th percentile.
    for (label, p) in [("admit_ms_p50", p50), ("admit_ms_p99", p99)] {
        println!(
            "  {label} = {:.4} ms over {} samples, {} beyond it",
            p.value, p.samples, p.beyond
        );
    }
    println!(
        "  unnormalized: {:.3} admissions/s, {:.1} tuples/s",
        t.admitted as f64 / wall,
        t.tuples as f64 / wall
    );
    let [uj_per_tuple, uj_per_query, served_share] = t.first.expect("at least one pass ran");
    let metrics = vec![
        ("admissions_per_s".to_string(), t.admitted as f64 / norm_wall, "1/s"),
        ("tuples_per_s".to_string(), t.tuples as f64 / norm_wall, "1/s"),
        ("admit_ms_p99".to_string(), p99.value, "ms"),
        ("sensing_uj_per_tuple".to_string(), uj_per_tuple, "uJ"),
        ("mote_uj_per_query".to_string(), uj_per_query, "uJ"),
        ("served_share".to_string(), served_share, "ratio"),
        ("peak_rss_mb".to_string(), rss, "MB"),
        ("setup_s".to_string(), median(&setups), "s"),
    ];
    Ok((metrics, t.scheduled))
}

fn json_result(metrics: &[Metric], attempted: usize) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload zipf|fleet|fleet_vec|faulty --seed N \
                 --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let result = if args.trace { layers::traced(&args) } else { end_to_end(&args) };
    let result = result.and_then(|(metrics, attempted)| {
        match metrics.iter().find(|(_, value, _)| !value.is_finite()) {
            Some((name, value, _)) => Err(format!("metric {name} is {value}")),
            None => Ok((metrics, attempted)),
        }
    });
    match result {
        Ok((metrics, attempted)) => {
            for (name, value, unit) in &metrics {
                println!("  {name} = {value} {unit}");
            }
            println!("{}", json_result(&metrics, attempted));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `fleet` and `fleet_vec` run the same inputs in the two execution
    /// modes; at a small size their energy and served share must agree
    /// bitwise.
    #[test]
    fn fleet_and_fleet_vec_agree_bitwise() {
        let small = Spec {
            admissions: 40,
            motes: 4,
            epochs: 300,
            window_min: 50,
            window_span: 100,
            ..Workload::Fleet.spec()
        };
        let rec = Recorder::disabled();
        let run = |w| pass(w, &small, 7, 0, None, &rec, false).expect("small pass");
        let (a, b) = (run(Workload::Fleet), run(Workload::FleetVec));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert_eq!(a.outcome().map(f64::to_bits), b.outcome().map(f64::to_bits));
        assert_eq!(a.report.per_mote.len(), 4);
        for (x, y) in a.report.per_mote.iter().zip(&b.report.per_mote) {
            assert_eq!(x.total_uj().to_bits(), y.total_uj().to_bits());
        }
    }
}
