//! The traced run: per-layer numbers, measured from outside the
//! program in three ways — the timing decorator's spans, a replay of
//! each cache miss and of each admitted plan through the public
//! planning and execution functions, and the counters the program
//! already registers, read from an enabled `Recorder`.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use acqp_core::{measure_mode, CostModel, CountingEstimator, ExecMode, GreedyPlanner, Ranges};
use acqp_obs::{MemorySink, Recorder, Snapshot};
use acqp_persist::CheckpointStore;
use acqp_sensornet::PlannedQuery;

use crate::timing::{median, percentile, schedstat, Tracer};
use crate::workload::{self, Workload};
use crate::{
    another_fits, fingerprint, pass, pass_seed, secs, setup, Args, Metric, Pass, EXTRA_SETUPS,
    OUT_DIR,
};

/// Cache misses replayed at most, spread evenly over the pass.
const MAX_REPLAYS: usize = 64;

/// Runs untraced and traced passes alternately while another pair fits
/// in `--seconds` (at least one pair), then the replays, and returns
/// the per-layer metrics.
pub fn traced(args: &Args) -> Result<(Vec<Metric>, usize), String> {
    let w = args.workload;
    let spec = w.spec();
    let mut setups = Vec::new();
    let start = Instant::now();
    let (cpu0, wait0) = schedstat();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    // Only the last traced pass keeps its spans, counters and checkpoint
    // directory; earlier ones are timed and dropped.
    let mut last: Option<(Pass, Snapshot, Tracer)> = None;
    let mut attempted = 0;
    let mut rounds = Vec::new();
    let mut slowdowns = Vec::new();
    while another_fits(start, args.seconds, &rounds) {
        let t = Instant::now();
        let (n, seed) = (2 * rounds.len(), pass_seed(args.seed, rounds.len()));
        for _ in 0..EXTRA_SETUPS {
            setups.push(setup(w, &spec, seed)?);
        }
        let plain = pass(w, &spec, seed, n, None, &Recorder::disabled(), false)?;
        let rec = Recorder::new(Arc::new(MemorySink::new()));
        let mut tracer = Tracer::new();
        let traced = pass(w, &spec, seed, n + 1, Some(&mut tracer), &rec, true)?;
        if let Some((old, _, _)) = last.take() {
            old.remove_ckpt_dir()?;
        }
        if fingerprint(&plain) != fingerprint(&traced) {
            traced.remove_ckpt_dir()?;
            return Err(format!("{}: recording changed the run's outputs", w.name()));
        }
        untraced_walls.push(plain.wall / plain.slowdown);
        traced_walls.push(traced.wall / traced.slowdown);
        slowdowns.extend([plain.slowdown, traced.slowdown]);
        attempted += plain.schedule.len() + traced.schedule.len();
        last = Some((traced, rec.drain(), tracer));
        rounds.push(secs(t));
    }
    let (cpu1, wait1) = schedstat();
    let (p, snap, mut tracer) = last.expect("at least one traced pass ran");

    let mut m: Vec<Metric> = Vec::new();
    let ms = |v: f64| v * 1e3;
    m.push(("data.generate_ms".into(), ms(median_of(&setups, |s| s.generate)), "ms"));
    m.push(("data.schedule_ms".into(), ms(median_of(&setups, |s| s.schedule)), "ms"));
    m.push(("service.fleet_build_ms".into(), ms(median_of(&setups, |s| s.build)), "ms"));

    // First, as it removes the last checkpoint directory.
    persist_metrics(w, &p, &mut m)?;
    serve_metrics(&p, &tracer, &snap, &mut m)?;
    replay_misses(w, &p, &mut tracer, &snap, &mut m)?;
    replay_exec(&p, &mut tracer, &mut m)?;
    fault_metrics(&p, &snap, &mut m);

    let net = &p.report.network;
    m.push(("energy.sensing_share".into(), net.sensing_uj / net.total_uj(), "ratio"));
    m.push(("energy.bs_tx_uj".into(), p.report.bs_tx_uj, "uJ"));
    m.push(("proc.cpu_s".into(), cpu1 - cpu0, "s"));
    m.push(("proc.runq_wait_s".into(), wait1 - wait0, "s"));
    m.push(("host.slowdown".into(), median(&slowdowns), "ratio"));
    m.push((
        "trace.overhead_share".into(),
        median(&traced_walls) / median(&untraced_walls) - 1.0,
        "ratio",
    ));

    write_spans(w, args.seed, &tracer)?;
    println!(
        "{} seed {}: {} untraced + {} traced passes in {:.2} s",
        w.name(),
        args.seed,
        untraced_walls.len(),
        traced_walls.len(),
        secs(start)
    );
    Ok((m, attempted))
}

fn median_of<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&xs.iter().map(f).collect::<Vec<_>>())
}

/// `serve.*` (decorator and report) and `service.*` (engine) metrics.
fn serve_metrics(
    p: &Pass,
    tracer: &Tracer,
    snap: &Snapshot,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let calls = p.hit_ns.len() + p.miss_ns.len();
    let (admit_ns, _) = tracer.totals("serve.plan_admitted");
    let (complete_ns, _) = tracer.totals("serve.query_completed");
    let (run_ns, run_self_ns) = tracer.totals("service.run");
    let policy_s = (admit_ns + complete_ns) as f64 / 1e9;
    let run_s = run_self_ns as f64 / 1e9;
    let wall = run_ns as f64 / 1e9;
    let to_us = |v: &[u64]| v.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>();
    let to_ms = |v: &[u64]| v.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>();
    let hit_p50 = percentile(&to_us(&p.hit_ns), 0.50, "serve.hit_us_p50")?;
    let miss_p50 = percentile(&to_ms(&p.miss_ns), 0.50, "serve.miss_ms_p50")?;
    let miss_p75 = percentile(&to_ms(&p.miss_ns), 0.75, "serve.miss_ms_p75")?;
    for (label, pct) in [
        ("serve.hit_us_p50", hit_p50),
        ("serve.miss_ms_p50", miss_p50),
        ("serve.miss_ms_p75", miss_p75),
    ] {
        println!("  {label}: {} samples, {} beyond it", pct.samples, pct.beyond);
    }
    let invalidations: u64 = p.report.queries.iter().map(|q| q.invalidated).sum();
    if invalidations != snap.counter("serve.cache.invalidations")
        || p.miss_ns.len() as u64 != snap.counter("serve.cache.misses")
        || p.hit_ns.len() as u64 != snap.counter("serve.cache.hits")
    {
        return Err("decorator and serve.cache.* counters disagree".into());
    }
    let tuples = p.report.tuples() as f64;
    let (demanded, performed) = (p.report.demanded_acquisitions, p.report.performed_acquisitions);

    m.push(("serve.admits".into(), calls as f64, "count"));
    m.push(("serve.misses".into(), p.miss_ns.len() as f64, "count"));
    m.push(("serve.hit_rate".into(), p.hit_ns.len() as f64 / calls as f64, "ratio"));
    m.push(("serve.hit_us_p50".into(), hit_p50.value, "us"));
    m.push(("serve.miss_ms_p50".into(), miss_p50.value, "ms"));
    m.push(("serve.miss_ms_p75".into(), miss_p75.value, "ms"));
    m.push(("serve.policy_s".into(), policy_s, "s"));
    m.push(("serve.policy_share".into(), policy_s / wall, "ratio"));
    m.push(("serve.complete_ms".into(), complete_ns as f64 / 1e6, "ms"));
    m.push(("serve.invalidations".into(), invalidations as f64, "count"));
    m.push(("serve.stats_epochs".into(), p.stats_epoch as f64, "count"));
    m.push(("service.run_s".into(), run_s, "s"));
    m.push(("service.share".into(), run_s / wall, "ratio"));
    m.push(("service.ns_per_tuple".into(), run_s * 1e9 / tuples, "ns"));
    m.push(("service.acq_demanded".into(), demanded as f64, "count"));
    m.push(("service.acq_performed".into(), performed as f64, "count"));
    m.push(("service.acq_performed_ratio".into(), performed as f64 / demanded as f64, "ratio"));
    m.push(("service.radio_msgs".into(), snap.counter("serve.radio.msgs") as f64, "count"));
    Ok(())
}

/// Replays cache misses through the public planning functions, in the
/// order `Service::plan_admitted` runs them on a miss: estimator,
/// greedy search per candidate split budget with its encoding, the two
/// static verifications, and the drift monitor's estimated
/// selectivities on a signature's first miss.
fn replay_misses(
    w: Workload,
    p: &Pass,
    tracer: &mut Tracer,
    snap: &Snapshot,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    let cfg = workload::serve_config(w);
    let schema = &p.trace.schema;
    let bs = acqp_sensornet::Basestation::new(schema.clone(), &p.trace.history);
    let stride = p.misses.len().div_ceil(MAX_REPLAYS).max(1);
    let mut armed: BTreeSet<u64> = BTreeSet::new();
    let (mut est_ns, mut greedy_ns, mut encode_ns, mut verify_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut sel_ns, mut sel_calls, mut replayed) = (0u64, 0u64, 0u64);
    let root = tracer.begin("replay.misses");
    for miss in p.misses.iter().step_by(stride) {
        let q = &miss.query;
        let id = tracer.begin("replay.miss");
        let (est, ns) = tracer.time("planner.estimator", |_| {
            CountingEstimator::with_ranges(&p.trace.history, Ranges::root(schema))
        });
        est_ns += ns;
        let mut best: Option<PlannedQuery> = None;
        let mut subproblems = 0u64;
        for &k in &cfg.candidate_splits {
            let (r, ns) = tracer.time("planner.greedy", |_| {
                GreedyPlanner::new(k).plan_with_report(schema, q, &est)
            });
            greedy_ns += ns;
            let r = r.map_err(|e| format!("replayed plan search failed: {e}"))?;
            subproblems += r.subproblems as u64;
            let (wire, ns) = tracer.time("plan.encode", |_| r.plan.encode());
            encode_ns += ns;
            let objective = r.expected_cost + cfg.alpha * wire.len() as f64;
            let planned =
                PlannedQuery { plan: r.plan, wire, expected_cost: r.expected_cost, objective };
            if best.as_ref().is_none_or(|b| planned.objective < b.objective) {
                best = Some(planned);
            }
        }
        let best = best.ok_or("no candidate split budgets")?;
        for _ in 0..2 {
            let (cert, ns) =
                tracer.time("verify.wire", |_| acqp_verify::verify_wire(&best.wire, q, schema));
            verify_ns += ns;
            let cert = cert.map_err(|e| format!("replayed plan failed verification: {e}"))?;
            cert.check_claim(best.expected_cost)
                .map_err(|e| format!("replayed plan's cost claim rejected: {e}"))?;
        }
        if armed.insert(q.signature()) {
            let (_, ns) = tracer.time("drift.selectivities", |_| bs.estimated_selectivities(q));
            sel_ns += ns;
            sel_calls += 1;
        }
        tracer.end(id);
        if best.wire != miss.wire || subproblems != miss.subproblems {
            return Err(format!(
                "miss replay diverged from the service: {subproblems} vs {} subproblems",
                miss.subproblems
            ));
        }
        replayed += 1;
    }
    tracer.end(root);

    let total_sub: u64 = p.misses.iter().map(|x| x.subproblems).sum();
    if total_sub != p.miss_subproblems || total_sub != snap.counter("serve.plan.subproblems") {
        return Err("subproblem counts of decorator and serve.plan.subproblems disagree".into());
    }
    // Miss time the named layers leave unexplained is the self time
    // of the enclosing replay spans.
    let (miss_ns, unnamed_ns) = tracer.totals("replay.miss");
    let per = |ns: u64| ns as f64 / replayed as f64;
    println!("  miss replay: {replayed} of {} misses replayed", p.misses.len());
    m.push(("planner.estimator_us_per_miss".into(), per(est_ns) / 1e3, "us"));
    m.push(("planner.greedy_ms_per_miss".into(), per(greedy_ns) / 1e6, "ms"));
    m.push(("planner.subproblems".into(), total_sub as f64, "count"));
    m.push(("plan.encode_us_per_miss".into(), per(encode_ns) / 1e3, "us"));
    m.push(("verify.wire_us".into(), per(verify_ns) / 1e3, "us"));
    m.push(("verify.checked".into(), snap.counter("verify.checked") as f64, "count"));
    m.push(("drift.selectivities_ms".into(), sel_ns as f64 / sel_calls.max(1) as f64 / 1e6, "ms"));
    m.push((
        "planner.miss_attributed_share".into(),
        1.0 - unnamed_ns as f64 / miss_ns as f64,
        "ratio",
    ));
    Ok(())
}

/// Replays every admitted plan over its window of the live trace
/// through `measure_mode` in both execution modes, which must agree.
fn replay_exec(p: &Pass, tracer: &mut Tracer, m: &mut Vec<Metric>) -> Result<(), String> {
    let schema = &p.trace.schema;
    let plans = &p.plans;
    let mut work = Vec::new();
    for (entry, q) in p.schedule.iter().zip(&p.report.queries) {
        if !q.admitted {
            continue;
        }
        let sig = entry.query.signature();
        if !plans.contains_key(&sig) {
            return Err("an admitted signature never missed the cache".into());
        }
        let end = (entry.admit + entry.window.max(1)).min(p.epochs).min(p.trace.live.len());
        work.push((sig, &entry.query, entry.admit..end));
    }
    let rows: usize = work.iter().map(|(_, _, r)| r.len()).sum();
    let mut run = |mode: ExecMode, name: &'static str| {
        tracer.time(name, |_| {
            work.iter()
                .map(|(sig, q, r)| {
                    let live = &p.trace.live;
                    measure_mode(
                        &plans[sig],
                        q,
                        schema,
                        &CostModel::PerAttribute,
                        live,
                        r.clone(),
                        mode,
                    )
                })
                .collect::<Vec<_>>()
        })
    };
    let (scalar, scalar_ns) = run(ExecMode::Scalar, "exec.scalar");
    let (batch, batch_ns) = run(ExecMode::Vectorized, "batch.kernel");
    for (a, b) in scalar.iter().zip(&batch) {
        if !a.all_correct
            || a.mean_cost.to_bits() != b.mean_cost.to_bits()
            || a.pass_rate.to_bits() != b.pass_rate.to_bits()
            || a.tuples != b.tuples
        {
            return Err("scalar and vectorized replays of an admitted plan disagree".into());
        }
    }
    println!("  exec replay: {} admitted plans over {rows} rows", work.len());
    m.push(("exec.scalar_ns_per_row".into(), scalar_ns as f64 / rows as f64, "ns"));
    m.push(("batch.kernel_ns_per_row".into(), batch_ns as f64 / rows as f64, "ns"));
    Ok(())
}

/// `fault.*` and admission-policy metrics (zero on lossless runs).
fn fault_metrics(p: &Pass, snap: &Snapshot, m: &mut Vec<Metric>) {
    let rob = p.report.robustness.clone().unwrap_or_default();
    let delivered = rob.delivered_results as f64;
    let lost = rob.lost_results as f64;
    let mut retries = 0u64;
    for s in ["diss", "result", "sample"] {
        let lost = snap.counter(&format!("serve.fault.{s}.lost"));
        retries += lost - snap.counter(&format!("serve.fault.{s}.timeouts"));
    }
    retries +=
        snap.counter("serve.fault.sensing.failures") - snap.counter("serve.fault.sensing.aborts");
    let delivery = if delivered + lost > 0.0 { delivered / (delivered + lost) } else { 1.0 };
    m.push(("fault.lost_results".into(), lost, "count"));
    m.push(("fault.aborted_tuples".into(), rob.aborted_tuples as f64, "count"));
    m.push(("fault.delivery_rate".into(), delivery, "ratio"));
    m.push(("fault.retries".into(), retries as f64, "count"));
    m.push(("service.shed".into(), rob.shed as f64, "count"));
    m.push(("service.timed_out".into(), rob.timed_out as f64, "count"));
    m.push(("service.budget_deferrals".into(), rob.budget_deferrals as f64, "count"));
}

/// `persist.*`: journaling counts and the cost of recovering from the
/// final checkpoint directory. Workloads without one recover from a
/// fresh empty directory (a cold start).
fn persist_metrics(w: Workload, p: &Pass, m: &mut Vec<Metric>) -> Result<(), String> {
    let rob = p.report.robustness.clone().unwrap_or_default();
    let empty;
    let dir: &Path = match &p.ckpt_dir {
        Some(d) => d,
        None => {
            empty = Path::new(OUT_DIR).join(format!("empty-{}-{}", w.name(), std::process::id()));
            std::fs::create_dir_all(&empty).map_err(|e| format!("{}: {e}", empty.display()))?;
            &empty
        }
    };
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry.and_then(|e| e.metadata()).map_err(|e| e.to_string())?;
        bytes += meta.len();
    }
    let t = Instant::now();
    let outcome = CheckpointStore::open(dir)
        .and_then(|s| s.recover_serve())
        .map_err(|e| format!("recovering {}: {e}", dir.display()))?;
    let recover_ms = secs(t) * 1e3;
    if w == Workload::Faulty && outcome.checkpoint.is_none() {
        return Err("the faulty run's checkpoint directory holds no valid snapshot".into());
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    m.push(("persist.checkpoints".into(), rob.checkpoints_written as f64, "count"));
    m.push(("persist.wal_replayed".into(), rob.wal_replayed as f64, "count"));
    m.push(("persist.cold_starts".into(), rob.cold_starts as f64, "count"));
    m.push(("persist.dir_bytes".into(), bytes as f64, "bytes"));
    m.push(("persist.recover_ms".into(), recover_ms, "ms"));
    Ok(())
}

/// Writes the traced pass's spans, one JSON object per line.
fn write_spans(w: Workload, seed: u64, tracer: &Tracer) -> Result<(), String> {
    let path = Path::new(OUT_DIR).join(format!("spans-{}-{seed}.jsonl", w.name()));
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(&path, tracer.to_json_lines())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("  spans written to {}", path.display());
    Ok(())
}
