//! The multi-query basestation service loop (`DESIGN.md` §14).
//!
//! [`run_service_with`] admits a *schedule* of queries over one fleet and
//! runs them concurrently, merging their acquisition demands per epoch:
//! within one `(epoch, mote)` slot the first query to demand an
//! attribute pays for the sensor read and every later live query is
//! served from the shared value cache for free
//! ([`acqp_core::SharedSource`]). Planning is delegated to a
//! [`ServePlanner`] hook so the policy layer (`acqp-serve`) can cache
//! plans and invalidate them on drift without this engine knowing
//! about either.
//!
//! Determinism: queries are admitted in schedule order, executed in
//! admission order within every slot, and motes are visited in index
//! order — the *arbitration order* is a pure function of the schedule,
//! so fixed seeds reproduce runs bit-for-bit. One epoch loop serves
//! every schedule: faults, crashes, admission policy and deadlines are
//! options of that loop, and at their defaults every packet gets through
//! on its first attempt. A loss-0 run with a single scheduled query then
//! performs exactly the `f64` ledger additions of
//! [`crate::sim::run_simulation_mode`] per accumulator, in the same
//! order, and is therefore bitwise identical to it (pinned by
//! `tests/serve_equivalence.rs`; multi-query loss-0 runs are pinned by
//! `tests/serve_golden.rs`). Latency is measured in **epochs**, never
//! wall-clock time.

use std::collections::BTreeMap;

use acqp_core::{
    AttrId, BatchExecutor, BatchOutcome, ColumnBatch, CostModel, Error, ExecMode, ExecOutcome,
    Plan, PreparedPlan, Query, QueryStatus, Result, Schema, SharedScratch, SharedSource,
    BATCH_ROWS,
};
use acqp_obs::{Counter, FlightRecorder, Hist, Recorder};
use acqp_persist::{PlanRecord, ServeCheckpoint, ServeLiveRecord, ServePlanEntry, WalRecord};
use acqp_verify::verify_wire;

use crate::basestation::PlannedQuery;
use crate::energy::{EnergyLedger, EnergyModel};
use crate::fault::{attempt_packet, FaultModel, FaultStats, FaultStream, FaultySource};
use crate::interp::execute_wire_verified;
use crate::mote::Mote;
use crate::recovery::{core_err, CrashConfig, CrashRuntime, RecoveredServeState};
use crate::sim::{emit_retry, result_packet_bytes};

/// One entry of a service schedule: `query` is admitted at epoch
/// `admit` and runs for `window` epochs (a zero window is treated as
/// one epoch). Entries are admitted in schedule order — ties at the
/// same admission epoch keep their relative order, which is the
/// service's deterministic arbitration order.
#[derive(Debug, Clone)]
pub struct ScheduleEntry {
    /// The query to run.
    pub query: Query,
    /// Epoch at which the query is admitted.
    pub admit: usize,
    /// Number of epochs the query stays live.
    pub window: usize,
    /// Optional deadline: the query must terminate within `deadline`
    /// epochs of its *scheduled* admission (queueing time counts).
    /// Crossing it while running degrades to a partial, typed
    /// [`QueryStatus::TimedOut`] outcome; crossing it while queued
    /// sheds the query. `None` — the lossless default — never binds.
    pub deadline: Option<usize>,
}

impl ScheduleEntry {
    /// A deadline-free entry: `query` admitted at `admit` for `window`
    /// epochs.
    pub fn new(query: Query, admit: usize, window: usize) -> Self {
        ScheduleEntry { query, admit, window, deadline: None }
    }

    /// Sets the entry's deadline (epochs from scheduled admission).
    pub fn with_deadline(mut self, deadline: usize) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// What the planning layer decided for an admitted query.
#[derive(Debug, Clone)]
pub struct AdmittedPlan {
    /// The plan to disseminate and execute.
    pub planned: PlannedQuery,
    /// True when the plan came out of a cache rather than a search.
    pub cache_hit: bool,
    /// Plan-search subproblems expanded to produce it (zero on a hit).
    pub subproblems: u64,
}

/// The planning policy behind [`run_service_with`]: the engine calls
/// [`ServePlanner::plan_admitted`] once per admission and
/// [`ServePlanner::query_completed`] once per completion (handing over
/// the query's observed per-predicate counts so the policy can track
/// drift and invalidate cached plans).
pub trait ServePlanner {
    /// Produces the plan for `query`, admitted at `epoch`.
    fn plan_admitted(&mut self, query: &Query, epoch: usize) -> Result<AdmittedPlan>;

    /// Notifies the policy that `query` completed at `epoch` with the
    /// given cumulative `(evaluated, passed)` counts per predicate.
    /// Returns how many cached plans this completion invalidated.
    fn query_completed(&mut self, query: &Query, epoch: usize, pred_counts: &[(u64, u64)]) -> u64;

    /// The policy's current statistics epoch (bumped on invalidation).
    fn stats_epoch(&self) -> u64;

    /// Snapshot of the policy's cached state for crash checkpoints.
    /// Policies without durable state (the default) return `None`; the
    /// engine then checkpoints live-query progress alone.
    fn policy_state(&self) -> Option<ServePolicyState> {
        None
    }

    /// Restores the policy after a basestation crash: `Some(state)`
    /// from a recovered checkpoint, `None` for a cold start (the policy
    /// must reset to genesis). The default does nothing.
    fn restore_policy_state(&mut self, state: Option<ServePolicyState>) {
        let _ = state;
    }
}

/// The serializable face of a [`ServePlanner`]'s cached state: the
/// stats epoch plus every cached plan as `(query, cache-key epoch,
/// plan)`. The query rides along because restoring a drift monitor
/// needs the predicates, not just the plan bytes.
#[derive(Debug, Clone)]
pub struct ServePolicyState {
    /// The policy's statistics epoch.
    pub stats_epoch: u64,
    /// Cached plans in deterministic key order.
    pub plans: Vec<(Query, u64, PlannedQuery)>,
}

/// Per-query accounting for one schedule entry.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Whether the query was admitted at all (entries whose admission
    /// epoch falls beyond the run are never admitted).
    pub admitted: bool,
    /// Epoch the query was admitted at.
    pub admit: usize,
    /// Epoch the query completed at (one past its last live epoch).
    pub completed_at: usize,
    /// Mote-epochs this query evaluated.
    pub tuples: usize,
    /// Tuples that satisfied the query.
    pub results: usize,
    /// Whether every verdict matched ground truth.
    pub all_correct: bool,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Plan-search subproblems expanded on admission.
    pub subproblems: u64,
    /// Admission-to-first-result latency in epochs (`None` when the
    /// query produced no result).
    pub latency_epochs: Option<u64>,
    /// Cached plans invalidated when this query's completion stats
    /// were absorbed.
    pub invalidated: u64,
    /// Typed terminal outcome. A loss-0 run without policy or deadlines
    /// only ever produces [`QueryStatus::Complete`] (or `Shed` for
    /// entries scheduled beyond the run).
    pub status: QueryStatus,
    /// Epoch admission control dropped the query, if it was shed by
    /// policy rather than scheduled beyond the run.
    pub shed_at: Option<usize>,
    /// Delivered result rows as `(epoch, mote)` pairs in delivery
    /// order, when [`ServiceOptions::collect_rows`] is on (the
    /// partial-result prefix guarantee is stated over these).
    pub rows: Vec<(usize, u16)>,
}

/// Result of one service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Epochs the service ran for.
    pub epochs: usize,
    /// One outcome per schedule entry, in schedule order.
    pub queries: Vec<QueryOutcome>,
    /// Aggregate energy over all motes.
    pub network: EnergyLedger,
    /// Per-mote energy ledgers.
    pub per_mote: Vec<EnergyLedger>,
    /// Basestation transmit energy spent on dissemination.
    pub bs_tx_uj: f64,
    /// Sensor reads physically performed (after cross-query merging).
    pub performed_acquisitions: u64,
    /// Sensor reads the live queries demanded (before merging) — the
    /// gap to `performed_acquisitions` is the sharing win.
    pub demanded_acquisitions: u64,
    /// Fault/crash/policy accounting. The service loop always fills it
    /// in; on a loss-0 run without crashes or policy only
    /// `delivered_results` is nonzero.
    pub robustness: Option<ServeRobustReport>,
}

impl ServiceReport {
    /// Total query-tuples evaluated across the schedule.
    pub fn tuples(&self) -> usize {
        self.queries.iter().map(|q| q.tuples).sum()
    }

    /// Total results across the schedule.
    pub fn results(&self) -> usize {
        self.queries.iter().map(|q| q.results).sum()
    }

    /// Whether every verdict of every query matched ground truth.
    pub fn all_correct(&self) -> bool {
        self.queries.iter().all(|q| q.all_correct)
    }

    /// Queries that terminated with the given status.
    pub fn count_status(&self, status: QueryStatus) -> usize {
        self.queries.iter().filter(|q| q.status == status).count()
    }
}

/// Robustness accounting for one fault-tolerant service run
/// (`DESIGN.md` §14.5).
#[derive(Debug, Clone, Default)]
pub struct ServeRobustReport {
    /// Result packets that reached the basestation.
    pub delivered_results: usize,
    /// Result packets dropped after exhausting the attempt cap.
    pub lost_results: usize,
    /// Tuples abandoned because a sensor read aborted.
    pub aborted_tuples: usize,
    /// Mote-epochs lost to dropout schedules.
    pub offline_epochs: usize,
    /// Queries shed by admission control.
    pub shed: usize,
    /// Queries terminated at their deadline.
    pub timed_out: usize,
    /// Admissions deferred because the epoch budget was full.
    pub budget_deferrals: u64,
    /// Admissions deferred by the fairness rule (hot signature at its
    /// fair share yielding to a waiting different signature).
    pub fairness_deferrals: u64,
    /// Live queries re-planned onto a new stats epoch after drift.
    pub readmissions: u64,
    /// Basestation crashes injected.
    pub crashes: usize,
    /// Recoveries that found no usable snapshot.
    pub cold_starts: usize,
    /// Snapshot files that failed validation across recoveries.
    pub corrupt_snapshots: usize,
    /// WAL records replayed across recoveries.
    pub wal_replayed: usize,
    /// Serve snapshots written during the run.
    pub checkpoints_written: usize,
    /// Radio energy (µJ, bs tx + mote rx) spent re-disseminating plans
    /// after crashes.
    pub recovery_rediss_uj: f64,
}

/// Admission-control and degradation policy for the service loop. The
/// default is a no-op: admit everything immediately, never shed, never
/// re-admit — required for loss-0 transparency.
#[derive(Debug, Clone, PartialEq)]
pub struct ServicePolicy {
    /// Per-epoch budget on the summed expected per-tuple cost of live
    /// plans. Admissions that would exceed it wait in the queue (in
    /// strict schedule order); `None` admits unconditionally.
    pub epoch_cost_budget: Option<f64>,
    /// Epochs an entry may wait in the admission queue before it is
    /// shed (only enforced when a budget is set).
    pub max_queue_epochs: usize,
    /// Fairness bound: once a signature has this many live instances,
    /// further admissions of it yield to waiting entries of *other*
    /// signatures — one hot signature cannot starve the tail.
    pub fair_share: usize,
    /// Re-plan in-flight queries onto the new stats epoch when a
    /// completion's drift firing invalidates the plan cache, instead of
    /// letting them finish on stale plans.
    pub readmit_on_drift: bool,
}

impl Default for ServicePolicy {
    fn default() -> Self {
        ServicePolicy {
            epoch_cost_budget: None,
            max_queue_epochs: 8,
            fair_share: 2,
            readmit_on_drift: false,
        }
    }
}

impl ServicePolicy {
    /// Validates the knobs: a budget must be a positive finite µJ
    /// figure and the fair share at least one.
    pub fn validate(&self) -> Result<()> {
        if let Some(b) = self.epoch_cost_budget {
            if !b.is_finite() || b <= 0.0 {
                return Err(Error::InvalidFlag {
                    flag: "epoch-budget".into(),
                    value: format!("{b}"),
                    why: "the per-epoch cost budget must be a positive finite number",
                });
            }
        }
        if self.fair_share == 0 {
            return Err(Error::InvalidFlag {
                flag: "fair-share".into(),
                value: "0".into(),
                why: "the fairness bound must admit at least one instance per signature",
            });
        }
        Ok(())
    }
}

/// Everything optional about a service run: fault injection, crash
/// recovery, admission policy, row collection. Every value runs through
/// the same epoch loop; [`Default`] is a loss-0 run with no crashes and
/// a no-op policy, whose output is pinned by `tests/serve_golden.rs`.
#[derive(Debug, Clone)]
pub struct ServiceOptions {
    /// Seeded fault model ([`FaultModel::none`] = lossless).
    pub faults: FaultModel,
    /// Crash/checkpoint configuration (inactive by default).
    pub crash: CrashConfig,
    /// Admission-control policy (no-op by default).
    pub policy: ServicePolicy,
    /// Collect delivered `(epoch, mote)` rows per query into
    /// [`QueryOutcome::rows`]. Changes no accounting; the deadline
    /// prefix tests compare these rows across runs.
    pub collect_rows: bool,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            faults: FaultModel::none(),
            crash: CrashConfig::default(),
            policy: ServicePolicy::default(),
            collect_rows: false,
        }
    }
}

/// Vectorized-mode precomputation for one live query on one mote: the
/// per-epoch verdicts and (node-constant) acquisition chains of its
/// plan over the mote's trace window, produced by the batch executor.
struct MotePre {
    verdicts: Vec<bool>,
    chains: Vec<Vec<AttrId>>,
}

/// One admitted, still-running query.
struct LiveQuery {
    /// Index into the schedule (also the arbitration key).
    idx: usize,
    planned: PlannedQuery,
    admit: usize,
    /// One past the query's last live epoch.
    end: usize,
    uplink_bytes: usize,
    /// `pred_of[a]` = index of the predicate on attribute `a`, if any.
    pred_of: Vec<Option<usize>>,
    /// Cumulative per-predicate `(evaluated, passed)` counts.
    pend: Vec<(u64, u64)>,
    tuples: usize,
    results: usize,
    all_correct: bool,
    first_result: Option<usize>,
    cache_hit: bool,
    subproblems: u64,
    /// Per-mote batch precomputation (vectorized mode only).
    pre: Vec<MotePre>,
    /// Query signature (the fairness key and the WAL admission record).
    sig: u64,
    /// Absolute deadline epoch (scheduled admission + deadline).
    deadline_at: Option<usize>,
    /// Epoch `pre`'s arrays start at (re-set on drift readmission).
    pre_base: usize,
    /// Which motes physically hold the current plan.
    mote_has: Vec<bool>,
    /// The basestation's belief about `mote_has` — process memory,
    /// wiped to all-false by a crash (which is what forces the
    /// recovery re-dissemination).
    bs_known: Vec<bool>,
    /// Passing tuples whose result packet timed out.
    lost_results: usize,
    /// Tuples discarded because their chain hit an aborted sensor.
    aborted_tuples: usize,
    /// Mote-epochs this query could not execute (offline mote or plan
    /// not yet disseminated).
    missed_epochs: usize,
    /// Delivered `(epoch, mote)` rows (opt-in, see
    /// [`ServiceOptions::collect_rows`]).
    rows: Vec<(usize, u16)>,
}

impl LiveQuery {
    /// Whether any tuple or result was lost — a window-end termination
    /// then reports [`QueryStatus::Partial`] instead of `Complete`.
    fn is_degraded(&self) -> bool {
        self.lost_results > 0 || self.aborted_tuples > 0 || self.missed_epochs > 0
    }
}

/// Pre-hoisted `serve.*` instruments (see `DESIGN.md` §8).
struct ServeMetrics {
    admitted: Counter,
    completed: Counter,
    tuples: Counter,
    results: Counter,
    radio: Counter,
    demanded: Counter,
    performed: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    invalidations: Counter,
    subproblems: Counter,
    latency: Hist,
}

impl ServeMetrics {
    fn new(rec: &Recorder) -> ServeMetrics {
        ServeMetrics {
            admitted: rec.counter("serve.queries.admitted"),
            completed: rec.counter("serve.queries.completed"),
            tuples: rec.counter("serve.tuples"),
            results: rec.counter("serve.results"),
            radio: rec.counter("serve.radio.msgs"),
            demanded: rec.counter("serve.acquisitions.demanded"),
            performed: rec.counter("serve.acquisitions.performed"),
            cache_hits: rec.counter("serve.cache.hits"),
            cache_misses: rec.counter("serve.cache.misses"),
            invalidations: rec.counter("serve.cache.invalidations"),
            subproblems: rec.counter("serve.plan.subproblems"),
            latency: rec.hist("serve.latency_epochs"),
        }
    }
}

/// Pre-hoisted `verify.*` instruments (see `DESIGN.md` §8): the static
/// plan-verification gates the service loop runs in front of every
/// dissemination and every checkpoint restore.
struct VerifyMetrics {
    checked: Counter,
    rejected: Counter,
    demoted: Counter,
    clamped: Counter,
    wire_bytes: Hist,
}

impl VerifyMetrics {
    fn new(rec: &Recorder) -> VerifyMetrics {
        VerifyMetrics {
            checked: rec.counter("verify.checked"),
            rejected: rec.counter("verify.rejected"),
            demoted: rec.counter("verify.recovery.demoted"),
            clamped: rec.counter("verify.cost.clamped"),
            wire_bytes: rec.hist("verify.wire_bytes"),
        }
    }

    /// Gate in front of every admission: the wire bytes must pass the
    /// structural and semantic passes (a failure is a hard typed error
    /// — malformed bytes never reach the radio), and the planner's
    /// claimed expected cost is replaced by its certified clamp when it
    /// falls outside the cost pass's bound, so admission control only
    /// ever budgets on numbers the verifier stands behind. For honest
    /// planners the clamp is the identity.
    fn admit(&self, plan: &mut AdmittedPlan, query: &Query, schema: &Schema) -> Result<()> {
        self.checked.incr(1);
        self.wire_bytes.observe(plan.planned.wire.len() as u64);
        let cert = match verify_wire(&plan.planned.wire, query, schema) {
            Ok(cert) => cert,
            Err(err) => {
                self.rejected.incr(1);
                return Err(err.into());
            }
        };
        if cert.check_claim(plan.planned.expected_cost).is_err() {
            self.clamped.incr(1);
            let claimed = plan.planned.expected_cost;
            plan.planned.expected_cost = if claimed.is_finite() {
                claimed.clamp(cert.bound.best_case, cert.bound.worst_case)
            } else {
                cert.bound.worst_case
            };
        }
        Ok(())
    }
}

/// Runs `schedule` as a concurrent multi-query service over the fleet
/// for `epochs` epochs, under explicit [`ServiceOptions`]: seeded
/// faults, crash recovery, admission control, deadlines. Plans come
/// from `planner`; every admission is disseminated to the whole fleet
/// (radio energy charged like the single-query engine's), every live
/// query executes once per `(epoch, mote)` slot with acquisitions merged
/// across queries, and every passing tuple transmits that query's
/// result packet. The one epoch loop behind it:
///
/// - pushes every dissemination and result packet through the bounded
///   retry + backoff of [`attempt_packet`], charging each attempt;
/// - wraps sensing in [`FaultySource`] so failed reads retry and
///   exhausted reads abort only the tuples whose chains touched them;
/// - applies the [`ServicePolicy`] in schedule order: per-epoch budget
///   admission with a fairness bound, queue-age and deadline shedding;
/// - degrades gracefully: deadline crossings yield a typed
///   [`QueryStatus::TimedOut`] outcome with the rows delivered so far,
///   lossy windows end as [`QueryStatus::Partial`];
/// - journals admissions/completions/epochs to the WAL and snapshots
///   serve state on the checkpoint cadence, so an injected basestation
///   crash recovers the plan cache, stats epoch and live-query
///   progress instead of cold-starting.
///
/// With default options every packet is delivered on its first attempt
/// and nothing is shed, so each slot performs exactly the lossless
/// `f64` ledger additions. Returns one [`QueryOutcome`] per schedule
/// entry, in schedule order.
///
/// The vectorized executor precomputes verdicts from admission-time
/// plans, which is incompatible with lossy sensing and crash-induced
/// replans — `ExecMode::Vectorized` is rejected unless the fault model
/// is lossless and crashes are disabled.
#[allow(clippy::too_many_arguments)]
pub fn run_service_with(
    schema: &Schema,
    schedule: &[ScheduleEntry],
    planner: &mut dyn ServePlanner,
    motes: &mut [Mote],
    model: &EnergyModel,
    epochs: usize,
    mode: ExecMode,
    rec: &Recorder,
    opts: &ServiceOptions,
) -> Result<ServiceReport> {
    opts.policy.validate()?;
    if mode == ExecMode::Vectorized && (!opts.faults.is_lossless() || opts.crash.is_active()) {
        return Err(Error::InvalidFlag {
            flag: "exec".into(),
            value: "vectorized".into(),
            why: "the vectorized service cannot inject faults or crashes; use scalar execution",
        });
    }

    let span = rec.span("serve.run");
    let flight = rec.flight().clone();
    let start_seq = flight.emit(
        0,
        0,
        "serve.start",
        &[
            ("queries", schedule.len().into()),
            ("motes", motes.len().into()),
            ("epochs", epochs.into()),
        ],
    );
    let cr = CrashRuntime::new(&opts.crash, rec).map_err(core_err)?;
    let outcomes: Vec<QueryOutcome> = schedule
        .iter()
        .map(|s| QueryOutcome {
            admitted: false,
            admit: s.admit,
            completed_at: s.admit,
            tuples: 0,
            results: 0,
            all_correct: true,
            cache_hit: false,
            subproblems: 0,
            latency_epochs: None,
            invalidated: 0,
            status: QueryStatus::Shed,
            shed_at: None,
            rows: Vec::new(),
        })
        .collect();
    let mut arrivals: Vec<Vec<usize>> = vec![Vec::new(); epochs];
    for (i, s) in schedule.iter().enumerate() {
        if s.admit < epochs {
            arrivals[s.admit].push(i);
        }
    }
    let scratch = SharedScratch::new(schema.len());
    let engine = RobustEngine {
        schema,
        schedule,
        planner,
        motes,
        model,
        epochs,
        mode,
        rec,
        opts,
        flight,
        start_seq,
        m: ServeMetrics::new(rec),
        rm: RobustMetrics::new(rec),
        vm: VerifyMetrics::new(rec),
        fstats: FaultStats::serve(rec),
        cr,
        outcomes,
        arrivals,
        live: Vec::new(),
        queue: Vec::new(),
        scratch,
        exec: BatchExecutor::new(),
        out: BatchOutcome::default(),
        bs_tx_uj: 0.0,
        demanded: 0,
        performed: 0,
        rob: ServeRobustReport::default(),
    };
    let report = engine.run()?;
    drop(span);
    Ok(report)
}

/// Admission-policy and degradation instruments (`serve.shed.*`,
/// `serve.degraded.*`, `serve.readmit.*`). They read zero on a loss-0
/// run without policy or deadlines.
struct RobustMetrics {
    /// `serve.shed.queries` — queries dropped by admission control.
    shed: Counter,
    /// `serve.shed.deferrals.budget` — admission passes stopped by a
    /// full epoch budget.
    defer_budget: Counter,
    /// `serve.shed.deferrals.fairness` — hot-signature entries that
    /// yielded to a waiting different signature.
    defer_fair: Counter,
    /// `serve.degraded.partial` — window-end terminations that lost
    /// tuples or results along the way.
    partial: Counter,
    /// `serve.degraded.timeouts` — deadline terminations.
    timeouts: Counter,
    /// `serve.degraded.lost_results` — result packets dropped after
    /// exhausting the attempt cap.
    lost_results: Counter,
    /// `serve.degraded.aborted_tuples` — tuples discarded on sensing
    /// aborts.
    aborted: Counter,
    /// `serve.readmit.queries` — live queries re-planned onto a new
    /// stats epoch after drift invalidation.
    readmitted: Counter,
    /// `serve.latency.degraded` — epochs spent by shed and timed-out
    /// queries, kept out of the completion latency histogram.
    degraded_latency: Hist,
}

impl RobustMetrics {
    fn new(rec: &Recorder) -> RobustMetrics {
        RobustMetrics {
            shed: rec.counter("serve.shed.queries"),
            defer_budget: rec.counter("serve.shed.deferrals.budget"),
            defer_fair: rec.counter("serve.shed.deferrals.fairness"),
            partial: rec.counter("serve.degraded.partial"),
            timeouts: rec.counter("serve.degraded.timeouts"),
            lost_results: rec.counter("serve.degraded.lost_results"),
            aborted: rec.counter("serve.degraded.aborted_tuples"),
            readmitted: rec.counter("serve.readmit.queries"),
            degraded_latency: rec.hist("serve.latency.degraded"),
        }
    }
}

/// A schedule entry waiting in the admission queue.
struct Pending {
    /// Index into the schedule.
    idx: usize,
    /// The entry's query signature (fairness key).
    sig: u64,
    /// Plan computed on first consideration and reused across
    /// deferrals. Basestation memory: wiped by crashes and by cache
    /// invalidations, so a later admission re-plans on fresh state.
    plan: Option<AdmittedPlan>,
}

/// The service loop. One instance per [`run_service_with`] call.
struct RobustEngine<'a> {
    schema: &'a Schema,
    schedule: &'a [ScheduleEntry],
    planner: &'a mut dyn ServePlanner,
    motes: &'a mut [Mote],
    model: &'a EnergyModel,
    epochs: usize,
    mode: ExecMode,
    rec: &'a Recorder,
    opts: &'a ServiceOptions,
    flight: FlightRecorder,
    start_seq: u64,
    m: ServeMetrics,
    rm: RobustMetrics,
    vm: VerifyMetrics,
    fstats: FaultStats,
    cr: CrashRuntime<'a>,
    outcomes: Vec<QueryOutcome>,
    /// Schedule indices by arrival epoch, in schedule order.
    arrivals: Vec<Vec<usize>>,
    live: Vec<LiveQuery>,
    /// Admission queue, in schedule order.
    queue: Vec<Pending>,
    scratch: SharedScratch,
    exec: BatchExecutor,
    out: BatchOutcome,
    bs_tx_uj: f64,
    demanded: u64,
    performed: u64,
    rob: ServeRobustReport,
}

impl RobustEngine<'_> {
    fn run(mut self) -> Result<ServiceReport> {
        let epochs = self.epochs;
        for e in 0..epochs {
            // Crashes fire at epoch starts only; epoch 0 cannot crash
            // (there is nothing to recover before the first
            // admissions) — the same clock the single-query crashy
            // simulator uses.
            let crashed = e > 0 && self.crash_scheduled(e);
            if crashed {
                self.crash_and_recover(e);
            }
            self.redisseminate(e, crashed);
            self.admissions(e)?;
            self.exec_motes(e);
            self.terminations(e)?;
            self.journal_epoch(e);
        }
        // Entries still queued when the run ends never got capacity.
        for p in std::mem::take(&mut self.queue) {
            self.shed(p.idx, epochs);
        }
        // `end` is clamped to `epochs`, so nothing should still be
        // live here; drain defensively all the same.
        for q in std::mem::take(&mut self.live) {
            let status = if q.is_degraded() { QueryStatus::Partial } else { QueryStatus::Complete };
            self.finish(q, epochs, status);
        }
        if let Some(err) = self.cr.take_error() {
            return Err(core_err(err));
        }
        Ok(self.report())
    }

    /// Whether the basestation crashes at the start of epoch `e`:
    /// explicitly scheduled, or drawn from the crash stream (which is
    /// hash-disjoint from every packet stream, so enabling crashes
    /// never changes which packets drop).
    fn crash_scheduled(&self, e: usize) -> bool {
        self.cr.cfg.crash_epochs.contains(&e)
            || (self.cr.cfg.crash_rate > 0.0
                && self.opts.faults.roll(FaultStream::Crash, 0, e, 0, 0) < self.cr.cfg.crash_rate)
    }

    /// Kills and restarts the basestation process: belief state and
    /// staged plans are wiped (physical mote state survives), then the
    /// serve checkpoint + WAL tail are read back to restore the
    /// policy's plan cache, stats epoch and live-query drift counters.
    fn crash_and_recover(&mut self, e: usize) {
        self.cr.crashes += 1;
        self.cr.counters.attempted.incr(1);
        let down_seq = self.flight.emit(e as u64, self.start_seq, "crash.down", &[]);
        for q in self.live.iter_mut() {
            for k in q.bs_known.iter_mut() {
                *k = false;
            }
        }
        for p in self.queue.iter_mut() {
            p.plan = None;
        }
        let recovered = match self.cr.journal.as_mut() {
            Some(j) => j.recover_serve(),
            None => RecoveredServeState::genesis(),
        };
        let (cold, replayed, corrupt, scanned) = (
            recovered.cold_start,
            recovered.replayed.len(),
            recovered.corrupt_snapshots,
            recovered.snapshots_scanned,
        );
        self.cr.cold_starts += usize::from(cold);
        if cold {
            self.cr.counters.cold_start.incr(1);
        }
        self.cr.corrupt_snapshots += corrupt;
        self.cr.counters.corrupt.incr(corrupt as u64);
        self.cr.wal_replayed += replayed;
        self.cr.counters.wal_replayed.incr(replayed as u64);
        let cp_epoch = recovered.checkpoint.as_ref().map_or(-1, |c| c.epoch as i64);
        match recovered.checkpoint {
            Some(cp) => {
                // Rebuild the policy's plan cache from the snapshot.
                // Every recovered plan must re-earn a full verification
                // certificate against its own query — the bytes sat on
                // disk, and the checksum layer only covers whole-record
                // corruption. A plan that fails any pass (or whose
                // claimed cost falls outside the certified bound) is
                // demoted: dropped from the cache so the policy
                // re-plans it on demand, instead of disseminating
                // corrupt bytes to the fleet.
                let mut plans = Vec::new();
                for entry in &cp.plans {
                    self.vm.checked.incr(1);
                    self.vm.wire_bytes.observe(entry.plan.wire.len() as u64);
                    let cert = verify_wire(&entry.plan.wire, &entry.query, self.schema)
                        .and_then(|c| c.check_claim(entry.plan.expected_cost).map(|()| c));
                    match (cert, Plan::decode(&entry.plan.wire)) {
                        (Ok(_), Ok(plan)) => plans.push((
                            entry.query.clone(),
                            entry.key_epoch,
                            PlannedQuery {
                                plan,
                                wire: entry.plan.wire.clone(),
                                expected_cost: entry.plan.expected_cost,
                                objective: entry.plan.objective,
                            },
                        )),
                        _ => {
                            self.vm.rejected.incr(1);
                            self.vm.demoted.incr(1);
                        }
                    }
                }
                self.planner.restore_policy_state(Some(ServePolicyState {
                    stats_epoch: cp.stats_epoch,
                    plans,
                }));
                // Live-query drift counters recover to their
                // checkpointed values; deltas since the snapshot are
                // lost. (The report's tuple/result tallies are ground
                // truth about what physically happened — a basestation
                // restart does not rewrite them.)
                for q in self.live.iter_mut() {
                    match cp.live.iter().find(|l| l.idx == q.idx as u64) {
                        Some(l) if l.pend.len() == q.pend.len() => q.pend = l.pend.clone(),
                        _ => q.pend.iter_mut().for_each(|p| *p = (0, 0)),
                    }
                }
            }
            None => {
                self.planner.restore_policy_state(None);
                for q in self.live.iter_mut() {
                    q.pend.iter_mut().for_each(|p| *p = (0, 0));
                }
            }
        }
        self.flight.emit(
            e as u64,
            down_seq,
            "crash.recover",
            &[
                ("cold_start", cold.into()),
                ("stats_epoch", (self.planner.stats_epoch() as i64).into()),
                ("wal_replayed", replayed.into()),
                ("corrupt_snapshots", corrupt.into()),
                ("snapshots_scanned", scanned.into()),
                ("checkpoint_epoch", cp_epoch.into()),
            ],
        );
    }

    /// Fresh per-epoch dissemination attempts for every live query the
    /// basestation believes some mote is missing — covers lossy
    /// admissions, post-crash belief wipes and drift readmissions. The
    /// energy of a post-crash round is additionally tallied as the
    /// recovery tax.
    fn redisseminate(&mut self, e: usize, crashed: bool) {
        let Self { live, motes, opts, fstats, flight, m, model, bs_tx_uj, cr, start_seq, .. } =
            self;
        let faults = &opts.faults;
        for q in live.iter_mut() {
            let wire_len = q.planned.wire.len();
            for (mi, mote) in motes.iter_mut().enumerate() {
                if q.bs_known[mi] || !faults.online(mote.id(), e) {
                    continue;
                }
                let d = attempt_packet(faults, FaultStream::Dissemination, mote.id(), e, fstats);
                emit_retry(flight, *start_seq, e, "diss", mote.id(), &d);
                let tx = (d.attempts as usize * wire_len) as f64 * model.radio_tx_uj_per_byte;
                *bs_tx_uj += tx;
                m.radio.incr(d.attempts as u64);
                let mut delta = tx;
                if d.delivered {
                    mote.receive(wire_len, model);
                    delta += wire_len as f64 * model.radio_rx_uj_per_byte;
                    q.mote_has[mi] = true;
                    q.bs_known[mi] = true;
                }
                if crashed {
                    cr.recovery_rediss_uj += delta;
                }
            }
        }
    }

    /// Queues this epoch's arrivals, sheds entries that can no longer
    /// run, and admits from the queue in schedule order under the
    /// policy's budget and fairness rules.
    fn admissions(&mut self, e: usize) -> Result<()> {
        for idx in self.arrivals[e].clone() {
            let sig = self.schedule[idx].query.signature();
            self.queue.push(Pending { idx, sig, plan: None });
        }
        if self.queue.is_empty() {
            return Ok(());
        }
        let budget = self.opts.policy.epoch_cost_budget;
        let max_wait = self.opts.policy.max_queue_epochs;
        let fair_share = self.opts.policy.fair_share;

        // Shed pass: entries whose deadline already passed while
        // queued, and (under a budget) entries past the queueing cap.
        let queue = std::mem::take(&mut self.queue);
        let mut kept: Vec<Pending> = Vec::with_capacity(queue.len());
        for p in queue {
            let s = &self.schedule[p.idx];
            let expired = s.deadline.is_some_and(|d| e >= s.admit + d)
                || (budget.is_some() && e > s.admit + max_wait);
            if expired {
                self.shed(p.idx, e);
            } else {
                kept.push(p);
            }
        }

        // Admission pass. Fairness first (before planning, so a
        // deferred hot entry costs nothing), then the budget check in
        // strict FIFO order: the first entry that does not fit stops
        // the pass, except that an oversized entry facing an *empty*
        // service is admitted anyway — it could otherwise never run.
        let sigs: Vec<u64> = kept.iter().map(|p| p.sig).collect();
        let other_behind: Vec<bool> =
            (0..sigs.len()).map(|i| sigs[i + 1..].iter().any(|&s| s != sigs[i])).collect();
        let mut sig_live: BTreeMap<u64, usize> = BTreeMap::new();
        for q in &self.live {
            *sig_live.entry(q.sig).or_insert(0) += 1;
        }
        let mut live_cost: f64 = self.live.iter().map(|q| q.planned.expected_cost).sum();
        let mut admitted_any = false;
        let mut deferred: Vec<Pending> = Vec::new();
        let mut iter = kept.into_iter().enumerate();
        while let Some((pos, mut p)) = iter.next() {
            if budget.is_some()
                && sig_live.get(&p.sig).copied().unwrap_or(0) >= fair_share
                && other_behind[pos]
            {
                self.rm.defer_fair.incr(1);
                self.rob.fairness_deferrals += 1;
                deferred.push(p);
                continue;
            }
            let plan = match p.plan.take() {
                Some(plan) => plan,
                None => {
                    let mut plan = self.planner.plan_admitted(&self.schedule[p.idx].query, e)?;
                    self.vm.admit(&mut plan, &self.schedule[p.idx].query, self.schema)?;
                    self.m.subproblems.incr(plan.subproblems);
                    if plan.cache_hit {
                        self.m.cache_hits.incr(1);
                    } else {
                        self.m.cache_misses.incr(1);
                    }
                    plan
                }
            };
            if let Some(b) = budget {
                let cost = plan.planned.expected_cost;
                if live_cost + cost > b && (admitted_any || !self.live.is_empty()) {
                    self.rm.defer_budget.incr(1);
                    self.rob.budget_deferrals += 1;
                    p.plan = Some(plan);
                    deferred.push(p);
                    deferred.extend(iter.map(|(_, rest)| rest));
                    break;
                }
                live_cost += cost;
            }
            *sig_live.entry(p.sig).or_insert(0) += 1;
            admitted_any = true;
            self.admit_now(p.idx, p.sig, plan, e);
        }
        self.queue = deferred;
        Ok(())
    }

    /// Admits one entry at epoch `e`: counters, fleet dissemination
    /// through the retry loop, WAL record, and the live-query state.
    fn admit_now(&mut self, idx: usize, sig: u64, plan: AdmittedPlan, e: usize) {
        let entry = &self.schedule[idx];
        self.m.admitted.incr(1);
        let wire_len = plan.planned.wire.len();
        let faults = &self.opts.faults;
        let mut mote_has = vec![false; self.motes.len()];
        for (mi, mote) in self.motes.iter_mut().enumerate() {
            if !faults.online(mote.id(), e) {
                continue;
            }
            let d = attempt_packet(faults, FaultStream::Dissemination, mote.id(), e, &self.fstats);
            emit_retry(&self.flight, self.start_seq, e, "diss", mote.id(), &d);
            self.bs_tx_uj +=
                (d.attempts as usize * wire_len) as f64 * self.model.radio_tx_uj_per_byte;
            self.m.radio.incr(d.attempts as u64);
            if d.delivered {
                mote.receive(wire_len, self.model);
                mote_has[mi] = true;
            }
        }
        self.flight.emit(
            e as u64,
            self.start_seq,
            "serve.admit",
            &[
                ("query", idx.into()),
                ("cache_hit", plan.cache_hit.into()),
                ("subproblems", plan.subproblems.into()),
                ("wire_bytes", wire_len.into()),
            ],
        );
        if let Some(j) = self.cr.journal.as_mut() {
            j.append(&WalRecord::ServeAdmit {
                idx: idx as u64,
                epoch: e as u64,
                sig,
                cache_hit: plan.cache_hit,
            });
        }
        let mut pred_of: Vec<Option<usize>> = vec![None; self.schema.len()];
        for (j, &a) in entry.query.attrs().iter().enumerate() {
            pred_of[a] = Some(j);
        }
        let end = (e + entry.window.max(1)).min(self.epochs);
        let pre = match self.mode {
            ExecMode::Scalar => Vec::new(),
            ExecMode::Vectorized => precompute_batches(
                &mut self.exec,
                &mut self.out,
                &plan.planned,
                &entry.query,
                self.schema,
                self.motes,
                e,
                end,
            ),
        };
        let o = &mut self.outcomes[idx];
        o.admitted = true;
        o.admit = e;
        let bs_known = mote_has.clone();
        self.live.push(LiveQuery {
            idx,
            planned: plan.planned,
            admit: e,
            end,
            uplink_bytes: result_packet_bytes(self.schema, &entry.query),
            pred_of,
            pend: vec![(0, 0); entry.query.len()],
            tuples: 0,
            results: 0,
            all_correct: true,
            first_result: None,
            cache_hit: plan.cache_hit,
            subproblems: plan.subproblems,
            pre,
            sig,
            deadline_at: entry.deadline.map(|d| entry.admit + d),
            pre_base: e,
            mote_has,
            bs_known,
            lost_results: 0,
            aborted_tuples: 0,
            missed_epochs: 0,
            rows: Vec::new(),
        });
    }

    /// One merged execution pass per mote, in index order. Phase A runs
    /// every live query whose plan the mote holds against one shared
    /// source (charging sensing + board energy in first-demand order);
    /// phase B does per-query accounting and result uplinks once the
    /// metered source has released the mote. Offline motes and motes
    /// still missing a plan count as missed epochs.
    fn exec_motes(&mut self, e: usize) {
        if self.live.is_empty() {
            return;
        }
        let mode = self.mode;
        let Self {
            schema,
            schedule,
            motes,
            model,
            opts,
            m,
            rm,
            fstats,
            flight,
            live,
            scratch,
            rob,
            demanded,
            performed,
            start_seq,
            ..
        } = self;
        let mut slot = SlotCtx {
            model,
            m,
            rm,
            faults: &opts.faults,
            fstats,
            flight,
            start_seq: *start_seq,
            collect_rows: opts.collect_rows,
            rob,
            tuples: 0,
            results: 0,
            radio: 0,
            demanded: 0,
        };
        let mut slot_outs: Vec<ExecOutcome> = Vec::new();
        for (mi, mote) in motes.iter_mut().enumerate() {
            if e >= mote.epochs() {
                continue;
            }
            let id = mote.id();
            if !slot.faults.online(id, e) {
                slot.fstats.offline_epochs.incr(1);
                slot.rob.offline_epochs += 1;
                for q in live.iter_mut() {
                    q.missed_epochs += 1;
                }
                continue;
            }
            scratch.reset();
            match mode {
                ExecMode::Scalar => {
                    slot_outs.clear();
                    let aborted_mask = {
                        // One metered source per slot: its board
                        // power-up state spans every query in the slot,
                        // so a board powers up at most once per epoch
                        // per mote no matter how many queries read it.
                        let mut src = FaultySource::new(
                            mote.epoch_source(e, schema, model),
                            slot.faults,
                            slot.fstats,
                            id,
                            e,
                        );
                        for q in live.iter_mut() {
                            if !q.mote_has[mi] {
                                q.missed_epochs += 1;
                                continue;
                            }
                            let mut shared = SharedSource::new(&mut src, scratch);
                            // Every plan that reaches a live query was
                            // verified at admission (or at checkpoint
                            // restore), so the checked-free interpreter
                            // path is sound.
                            slot_outs.push(execute_wire_verified(
                                &q.planned.wire,
                                &schedule[q.idx].query,
                                schema,
                                &mut shared,
                            ));
                        }
                        src.aborted_mask()
                    };
                    let ran = live.iter_mut().filter(|q| q.mote_has[mi]);
                    for (q, o) in ran.zip(&slot_outs) {
                        let query = &schedule[q.idx].query;
                        slot.account(q, query, mote, e, o.verdict, &o.acquired, aborted_mask);
                    }
                    slot.m.performed.incr(scratch.acquired().len() as u64);
                    *performed += scratch.acquired().len() as u64;
                }
                ExecMode::Vectorized => {
                    // Lossless faults are a precondition for this mode,
                    // so every mote holds every plan and nothing can
                    // abort. Merge the precomputed per-query chains into
                    // one deduplicated chain in first-demand order (the
                    // exact order the scalar shared source acquires
                    // in), then charge it once.
                    let mut seen = 0u64;
                    let mut merged: Vec<AttrId> = Vec::new();
                    for q in live.iter_mut() {
                        // Moved out for the call so the chain is
                        // borrowed, not cloned, while `q` is accounted.
                        let pre = std::mem::take(&mut q.pre);
                        let off = e - q.pre_base;
                        let chain = &pre[mi].chains[off];
                        for &a in chain {
                            let bit = 1u64 << a;
                            if seen & bit == 0 {
                                seen |= bit;
                                merged.push(a);
                            }
                        }
                        let query = &schedule[q.idx].query;
                        slot.account(q, query, mote, e, pre[mi].verdicts[off], chain, 0);
                        q.pre = pre;
                    }
                    mote.charge_epoch(&merged, schema, model);
                    slot.m.performed.incr(merged.len() as u64);
                    *performed += merged.len() as u64;
                }
            }
        }
        m.tuples.incr(slot.tuples);
        m.results.incr(slot.results);
        m.radio.incr(slot.radio);
        m.demanded.incr(slot.demanded);
        *demanded += slot.demanded;
    }

    /// Window-end and deadline terminations, then (when enabled) drift
    /// readmission of the surviving live queries.
    fn terminations(&mut self, e: usize) -> Result<()> {
        let due = |q: &LiveQuery| q.end == e + 1 || q.deadline_at.is_some_and(|d| e + 1 >= d);
        if !self.live.iter().any(due) {
            return Ok(());
        }
        let live = std::mem::take(&mut self.live);
        let mut rest = Vec::with_capacity(live.len());
        let mut invalidated_total = 0u64;
        for q in live {
            if !due(&q) {
                rest.push(q);
                continue;
            }
            let due_window = q.end == e + 1;
            let status = if due_window {
                if q.is_degraded() {
                    QueryStatus::Partial
                } else {
                    QueryStatus::Complete
                }
            } else {
                QueryStatus::TimedOut
            };
            invalidated_total += self.finish(q, e + 1, status);
        }
        self.live = rest;
        if invalidated_total > 0 {
            // Plans staged for queued entries were built against the
            // invalidated statistics; drop them so admission re-plans.
            for p in self.queue.iter_mut() {
                p.plan = None;
            }
            if self.opts.policy.readmit_on_drift && !self.live.is_empty() {
                self.readmit(e)?;
            }
        }
        Ok(())
    }

    /// Finalizes one terminated query with a typed status. Returns how
    /// many cached plans its completion stats invalidated.
    fn finish(&mut self, q: LiveQuery, at: usize, status: QueryStatus) -> u64 {
        let query = &self.schedule[q.idx].query;
        let invalidated = self.planner.query_completed(query, at, &q.pend);
        self.m.invalidations.incr(invalidated);
        let latency = q.first_result.map(|f| (f - q.admit) as u64 + 1);
        match status {
            QueryStatus::Complete | QueryStatus::Partial => {
                self.m.completed.incr(1);
                if let Some(l) = latency {
                    self.m.latency.observe(l);
                }
                if status == QueryStatus::Partial {
                    self.rm.partial.incr(1);
                }
            }
            QueryStatus::TimedOut => {
                self.rm.timeouts.incr(1);
                self.rob.timed_out += 1;
                self.rm.degraded_latency.observe((at - q.admit) as u64);
                self.flight.emit(
                    at as u64,
                    self.start_seq,
                    "serve.timeout",
                    &[("query", q.idx.into()), ("results", q.results.into())],
                );
            }
            QueryStatus::Shed => unreachable!("shed queries never reach finish"),
        }
        let lat_field = latency.map(i64::try_from).and_then(std::result::Result::ok).unwrap_or(-1);
        self.flight.emit(
            at as u64,
            self.start_seq,
            "serve.complete",
            &[
                ("query", q.idx.into()),
                ("results", q.results.into()),
                ("latency", lat_field.into()),
                ("invalidated", invalidated.into()),
                ("status", status.label().into()),
            ],
        );
        if let Some(j) = self.cr.journal.as_mut() {
            j.append(&WalRecord::ServeComplete {
                idx: q.idx as u64,
                epoch: at as u64,
                status: status.to_u8(),
            });
        }
        let o = &mut self.outcomes[q.idx];
        o.completed_at = at;
        o.tuples = q.tuples;
        o.results = q.results;
        o.all_correct = q.all_correct;
        o.cache_hit = q.cache_hit;
        o.subproblems = q.subproblems;
        o.latency_epochs = latency;
        o.invalidated = invalidated;
        o.status = status;
        o.rows = q.rows;
        invalidated
    }

    /// Drift invalidated the plan cache: re-plan every in-flight query
    /// onto the new statistics epoch instead of letting it finish on a
    /// stale plan. The new plans reach the fleet through the next
    /// epoch's re-dissemination pass (belief state is reset here), so
    /// no query is dropped by the invalidation.
    fn readmit(&mut self, e: usize) -> Result<()> {
        for qi in 0..self.live.len() {
            let (idx, sig) = (self.live[qi].idx, self.live[qi].sig);
            let mut plan = self.planner.plan_admitted(&self.schedule[idx].query, e + 1)?;
            self.vm.admit(&mut plan, &self.schedule[idx].query, self.schema)?;
            self.m.subproblems.incr(plan.subproblems);
            if plan.cache_hit {
                self.m.cache_hits.incr(1);
            } else {
                self.m.cache_misses.incr(1);
            }
            self.rm.readmitted.incr(1);
            self.rob.readmissions += 1;
            self.flight.emit(
                (e + 1) as u64,
                self.start_seq,
                "serve.readmit",
                &[
                    ("query", idx.into()),
                    ("cache_hit", plan.cache_hit.into()),
                    ("subproblems", plan.subproblems.into()),
                ],
            );
            if let Some(j) = self.cr.journal.as_mut() {
                j.append(&WalRecord::ServeAdmit {
                    idx: idx as u64,
                    epoch: (e + 1) as u64,
                    sig,
                    cache_hit: plan.cache_hit,
                });
            }
            let end = self.live[qi].end;
            let pre = match self.mode {
                ExecMode::Scalar => Vec::new(),
                ExecMode::Vectorized => precompute_batches(
                    &mut self.exec,
                    &mut self.out,
                    &plan.planned,
                    &self.schedule[idx].query,
                    self.schema,
                    self.motes,
                    e + 1,
                    end,
                ),
            };
            let q = &mut self.live[qi];
            q.planned = plan.planned;
            q.pre = pre;
            q.pre_base = e + 1;
            q.mote_has.iter_mut().for_each(|h| *h = false);
            q.bs_known.iter_mut().for_each(|h| *h = false);
        }
        Ok(())
    }

    /// Sheds one queued entry at epoch `e`: typed outcome, degraded
    /// latency observation, WAL record.
    fn shed(&mut self, idx: usize, e: usize) {
        let s = &self.schedule[idx];
        self.rm.shed.incr(1);
        self.rob.shed += 1;
        let waited = (e - s.admit) as u64;
        self.rm.degraded_latency.observe(waited);
        self.flight.emit(
            e as u64,
            self.start_seq,
            "serve.shed",
            &[("query", idx.into()), ("waited", waited.into())],
        );
        if let Some(j) = self.cr.journal.as_mut() {
            j.append(&WalRecord::ServeComplete {
                idx: idx as u64,
                epoch: e as u64,
                status: QueryStatus::Shed.to_u8(),
            });
        }
        let o = &mut self.outcomes[idx];
        o.status = QueryStatus::Shed;
        o.shed_at = Some(e);
        o.completed_at = e;
    }

    /// Journals the epoch boundary and, on the checkpoint cadence,
    /// snapshots the serve state: the policy's plan cache and stats
    /// epoch plus every live query's progress record.
    fn journal_epoch(&mut self, e: usize) {
        let every = self.cr.cfg.checkpoint_every;
        let state = if self.cr.journal.is_some() && every != 0 && (e + 1).is_multiple_of(every) {
            Some(self.planner.policy_state())
        } else {
            None
        };
        let stats_epoch_now = self.planner.stats_epoch();
        let Some(journal) = self.cr.journal.as_mut() else { return };
        journal.append(&WalRecord::EpochEnd { epoch: e as u64 });
        let Some(state) = state else { return };
        let (stats_epoch, plans) = match state {
            Some(st) => (
                st.stats_epoch,
                st.plans
                    .into_iter()
                    .map(|(query, key_epoch, planned)| ServePlanEntry {
                        query,
                        key_epoch,
                        plan: PlanRecord {
                            version: key_epoch,
                            wire: planned.wire,
                            expected_cost: planned.expected_cost,
                            objective: planned.objective,
                        },
                    })
                    .collect(),
            ),
            None => (stats_epoch_now, Vec::new()),
        };
        let live: Vec<ServeLiveRecord> = self
            .live
            .iter()
            .map(|q| ServeLiveRecord {
                idx: q.idx as u64,
                admit: q.admit as u64,
                end: q.end as u64,
                pend: q.pend.clone(),
            })
            .collect();
        let cp = ServeCheckpoint {
            epoch: e as u64,
            last_seq: journal.folded_seq(),
            stats_epoch,
            plans,
            live,
        };
        let last_seq = cp.last_seq;
        if journal.write_serve_snapshot(&cp) {
            self.cr.checkpoints_written += 1;
            self.cr.counters.checkpoints.incr(1);
            self.flight.emit(
                e as u64,
                self.start_seq,
                "recovery.checkpoint",
                &[("last_seq", last_seq.into()), ("stats_epoch", stats_epoch.into())],
            );
        }
    }

    /// Final gauges, ledgers and the assembled [`ServiceReport`].
    fn report(mut self) -> ServiceReport {
        self.rob.crashes = self.cr.crashes;
        self.rob.cold_starts = self.cr.cold_starts;
        self.rob.corrupt_snapshots = self.cr.corrupt_snapshots;
        self.rob.wal_replayed = self.cr.wal_replayed;
        self.rob.checkpoints_written = self.cr.checkpoints_written;
        self.rob.recovery_rediss_uj = self.cr.recovery_rediss_uj;
        self.rec.gauge("serve.stats_epoch", self.planner.stats_epoch() as f64);
        let per_mote: Vec<EnergyLedger> = self.motes.iter().map(|mt| *mt.ledger()).collect();
        if self.rec.enabled() {
            for (mt, l) in self.motes.iter().zip(&per_mote) {
                let id = mt.id();
                self.rec.gauge(&format!("sensornet.mote{id}.sensing_uj"), l.sensing_uj);
                self.rec
                    .gauge(&format!("sensornet.mote{id}.radio_uj"), l.radio_tx_uj + l.radio_rx_uj);
                self.rec.gauge(&format!("sensornet.mote{id}.total_uj"), l.total_uj());
            }
        }
        let mut network = EnergyLedger::default();
        for l in &per_mote {
            network.absorb(l);
        }
        let report = ServiceReport {
            epochs: self.epochs,
            queries: self.outcomes,
            network,
            per_mote,
            bs_tx_uj: self.bs_tx_uj,
            performed_acquisitions: self.performed,
            demanded_acquisitions: self.demanded,
            robustness: Some(self.rob),
        };
        self.flight.emit(
            self.epochs as u64,
            self.start_seq,
            "serve.end",
            &[
                ("results", report.results().into()),
                ("all_correct", report.all_correct().into()),
                ("performed", report.performed_acquisitions.into()),
                ("demanded", report.demanded_acquisitions.into()),
            ],
        );
        report
    }
}

/// What per-query slot accounting needs from the engine, split off its
/// fleet and live-query borrows, plus the tallies one execution pass
/// accumulates and `exec_motes` adds to the `serve.*` counters once.
struct SlotCtx<'s> {
    model: &'s EnergyModel,
    m: &'s ServeMetrics,
    rm: &'s RobustMetrics,
    faults: &'s FaultModel,
    fstats: &'s FaultStats,
    flight: &'s FlightRecorder,
    start_seq: u64,
    collect_rows: bool,
    rob: &'s mut ServeRobustReport,
    tuples: u64,
    results: u64,
    radio: u64,
    demanded: u64,
}

impl SlotCtx<'_> {
    /// Per-query slot accounting shared by both exec modes: tuple and
    /// result counters, sensing-abort discards, drift observations over
    /// the query's own acquisition chain, ground-truth verification and
    /// the result uplink through the retry loop. At a lossless fault
    /// model the uplink is delivered on its first attempt, so the
    /// ledgers see exactly one result packet per passing tuple.
    #[allow(clippy::too_many_arguments)]
    fn account(
        &mut self,
        q: &mut LiveQuery,
        query: &Query,
        mote: &mut Mote,
        e: usize,
        verdict: bool,
        chain: &[AttrId],
        aborted_mask: u64,
    ) {
        q.tuples += 1;
        self.tuples += 1;
        self.demanded += chain.len() as u64;
        if aborted_mask != 0 {
            let mask = chain.iter().fold(0u64, |acc, &a| acc | (1u64 << (a as u32).min(63)));
            if mask & aborted_mask != 0 {
                // A sensor this tuple's own chain touched could not be
                // read within the attempt cap: discard the tuple.
                // Queries that never demanded the failed sensor keep
                // their epoch.
                q.aborted_tuples += 1;
                self.rm.aborted.incr(1);
                self.rob.aborted_tuples += 1;
                return;
            }
        }
        // Per-query drift observations use the query's own acquisition
        // chain — identical to what an independent run would observe.
        for &a in chain {
            if let Some(j) = q.pred_of[a] {
                q.pend[j].0 += 1;
                q.pend[j].1 += u64::from(query.pred(j).eval(mote.peek(e, a)));
            }
        }
        let truth = query.eval_with(|a| mote.peek(e, a));
        q.all_correct &= verdict == truth;
        if verdict {
            q.results += 1;
            self.results += 1;
            q.first_result.get_or_insert(e);
            let d = attempt_packet(self.faults, FaultStream::Result, mote.id(), e, self.fstats);
            emit_retry(self.flight, self.start_seq, e, "result", mote.id(), &d);
            mote.transmit(d.attempts as usize * q.uplink_bytes, self.model);
            self.radio += u64::from(d.attempts);
            if d.delivered {
                self.rob.delivered_results += 1;
                if self.collect_rows {
                    q.rows.push((e, mote.id()));
                }
            } else {
                q.lost_results += 1;
                self.rm.lost_results.incr(1);
                self.rob.lost_results += 1;
            }
        }
    }
}

/// Vectorized-mode admission work: runs the batch executor over each
/// mote's trace window and stores per-epoch verdicts and owned
/// acquisition chains for the epoch loop to merge.
#[allow(clippy::too_many_arguments)]
fn precompute_batches(
    exec: &mut BatchExecutor,
    out: &mut BatchOutcome,
    planned: &PlannedQuery,
    query: &Query,
    schema: &Schema,
    motes: &[Mote],
    admit: usize,
    end: usize,
) -> Vec<MotePre> {
    let prepared = PreparedPlan::new(&planned.plan, query, schema, &CostModel::PerAttribute);
    motes
        .iter()
        .map(|mote| {
            let stop = end.min(mote.epochs());
            let mut verdicts = Vec::new();
            let mut chains = Vec::new();
            let mut start = admit;
            while start < stop {
                let len = BATCH_ROWS.min(stop - start);
                let batch = ColumnBatch::slice(mote.trace(), start, len);
                exec.execute_batch(&prepared, &batch, None, out);
                for slot in 0..len {
                    verdicts.push(out.verdict(slot));
                    chains.push(out.acquired(&prepared, slot).to_vec());
                }
                start += len;
            }
            MotePre { verdicts, chains }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basestation::Basestation;
    use crate::sim::{fleet_from_trace, run_simulation_mode};
    use acqp_core::{Attribute, Dataset, Pred};

    /// A minimal cache-free policy for engine tests: plans every
    /// admission from scratch via the reported sweep.
    struct PlainPlanner<'h> {
        bs: Basestation<'h>,
        alpha: f64,
    }

    impl ServePlanner for PlainPlanner<'_> {
        fn plan_admitted(&mut self, query: &Query, _epoch: usize) -> Result<AdmittedPlan> {
            let (_, planned, subproblems) =
                self.bs.plan_query_sized_reported(query, self.alpha, &[0, 1, 2, 4])?;
            Ok(AdmittedPlan { planned, cache_hit: false, subproblems })
        }

        fn query_completed(&mut self, _: &Query, _: usize, _: &[(u64, u64)]) -> u64 {
            0
        }

        fn stats_epoch(&self) -> u64 {
            0
        }
    }

    fn setup() -> (Schema, Dataset, Query) {
        let schema = Schema::new(vec![
            Attribute::new("a", 2, 100.0),
            Attribute::new("b", 2, 100.0),
            Attribute::new("t", 2, 1.0),
        ])
        .unwrap();
        let mut rows = Vec::new();
        for i in 0..240u16 {
            let t = i % 2;
            let a = if i % 10 == 0 { 1 - t } else { t };
            let b = if i % 12 == 0 { t } else { 1 - t };
            rows.push(vec![a, b, t]);
        }
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
        (schema, data, query)
    }

    #[test]
    fn single_query_service_matches_engine_bitwise() {
        let (schema, data, query) = setup();
        let bs = Basestation::new(schema.clone(), &data);
        let model = EnergyModel::mica_like();
        let epochs = 64usize;
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            // Reference: the single-query engine.
            let planned = bs.plan_query_sized(&query, 0.01, &[0, 1, 2, 4]).unwrap().1;
            let mut ref_fleet = fleet_from_trace(&data, 3);
            let sim = run_simulation_mode(
                &schema,
                &query,
                &planned,
                &mut ref_fleet,
                &model,
                epochs,
                mode,
                &Recorder::disabled(),
            );

            // The service with one scheduled query covering the run.
            let mut planner =
                PlainPlanner { bs: Basestation::new(schema.clone(), &data), alpha: 0.01 };
            let mut fleet = fleet_from_trace(&data, 3);
            let schedule = [ScheduleEntry::new(query.clone(), 0, epochs)];
            let rep = run_service_with(
                &schema,
                &schedule,
                &mut planner,
                &mut fleet,
                &model,
                epochs,
                mode,
                &Recorder::disabled(),
                &ServiceOptions::default(),
            )
            .unwrap();

            assert_eq!(rep.tuples(), sim.tuples);
            assert_eq!(rep.results(), sim.results);
            assert!(rep.all_correct() && sim.all_correct);
            assert_eq!(rep.per_mote.len(), sim.per_mote.len());
            for (a, b) in rep.per_mote.iter().zip(&sim.per_mote) {
                assert_eq!(a.sensing_uj.to_bits(), b.sensing_uj.to_bits());
                assert_eq!(a.board_uj.to_bits(), b.board_uj.to_bits());
                assert_eq!(a.radio_tx_uj.to_bits(), b.radio_tx_uj.to_bits());
                assert_eq!(a.radio_rx_uj.to_bits(), b.radio_rx_uj.to_bits());
            }
            assert_eq!(rep.network.total_uj().to_bits(), sim.network.total_uj().to_bits());
            // With one query nothing can be shared.
            assert_eq!(rep.performed_acquisitions, rep.demanded_acquisitions);
        }
    }

    #[test]
    fn overlapping_queries_share_acquisitions() {
        let (schema, data, query) = setup();
        let q2 = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(2, 0, 0)]).unwrap();
        let model = EnergyModel::mica_like();
        let epochs = 48usize;
        let schedule = [
            ScheduleEntry::new(query.clone(), 0, epochs),
            ScheduleEntry::new(q2.clone(), 0, epochs),
        ];

        let mut planner = PlainPlanner { bs: Basestation::new(schema.clone(), &data), alpha: 0.01 };
        let mut fleet = fleet_from_trace(&data, 2);
        let shared = run_service_with(
            &schema,
            &schedule,
            &mut planner,
            &mut fleet,
            &model,
            epochs,
            ExecMode::Scalar,
            &Recorder::disabled(),
            &ServiceOptions::default(),
        )
        .unwrap();
        assert!(shared.performed_acquisitions < shared.demanded_acquisitions);

        // N-independent-runs baseline: each query on its own fleet.
        let mut independent = 0.0;
        for entry in &schedule {
            let bs = Basestation::new(schema.clone(), &data);
            let planned = bs.plan_query_sized(&entry.query, 0.01, &[0, 1, 2, 4]).unwrap().1;
            let mut f = fleet_from_trace(&data, 2);
            let sim = run_simulation_mode(
                &schema,
                &entry.query,
                &planned,
                &mut f,
                &model,
                epochs,
                ExecMode::Scalar,
                &Recorder::disabled(),
            );
            independent += sim.network.total_uj();
        }
        assert!(
            shared.network.total_uj() < independent,
            "shared {} !< independent {independent}",
            shared.network.total_uj()
        );
        // Both queries ran to completion with correct verdicts.
        assert!(shared.all_correct());
        assert_eq!(shared.queries.len(), 2);
        assert!(shared.queries.iter().all(|q| q.admitted && q.tuples == 2 * epochs));
    }

    #[test]
    fn scalar_and_vectorized_service_agree_bitwise() {
        let (schema, data, query) = setup();
        let q2 = Query::new(vec![Pred::in_range(1, 1, 1), Pred::in_range(2, 1, 1)]).unwrap();
        let model = EnergyModel::mica_like();
        let epochs = 40usize;
        let schedule = [ScheduleEntry::new(query, 0, 30), ScheduleEntry::new(q2, 8, 40)];
        let mut reports = Vec::new();
        for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
            let mut planner =
                PlainPlanner { bs: Basestation::new(schema.clone(), &data), alpha: 0.01 };
            let mut fleet = fleet_from_trace(&data, 2);
            reports.push(
                run_service_with(
                    &schema,
                    &schedule,
                    &mut planner,
                    &mut fleet,
                    &model,
                    epochs,
                    mode,
                    &Recorder::disabled(),
                    &ServiceOptions::default(),
                )
                .unwrap(),
            );
        }
        let (s, v) = (&reports[0], &reports[1]);
        assert_eq!(s.performed_acquisitions, v.performed_acquisitions);
        assert_eq!(s.demanded_acquisitions, v.demanded_acquisitions);
        for (a, b) in s.per_mote.iter().zip(&v.per_mote) {
            assert_eq!(a.sensing_uj.to_bits(), b.sensing_uj.to_bits());
            assert_eq!(a.board_uj.to_bits(), b.board_uj.to_bits());
            assert_eq!(a.radio_tx_uj.to_bits(), b.radio_tx_uj.to_bits());
            assert_eq!(a.radio_rx_uj.to_bits(), b.radio_rx_uj.to_bits());
        }
        for (a, b) in s.queries.iter().zip(&v.queries) {
            assert_eq!(a.tuples, b.tuples);
            assert_eq!(a.results, b.results);
            assert_eq!(a.latency_epochs, b.latency_epochs);
            assert!(a.all_correct && b.all_correct);
        }
    }

    #[test]
    fn schedule_edges_are_handled() {
        let (schema, data, query) = setup();
        let model = EnergyModel::mica_like();
        let schedule = [
            // Zero window is clamped to one epoch.
            ScheduleEntry::new(query.clone(), 2, 0),
            // Admission beyond the run: never admitted.
            ScheduleEntry::new(query.clone(), 100, 5),
        ];
        let mut planner = PlainPlanner { bs: Basestation::new(schema.clone(), &data), alpha: 0.0 };
        let mut fleet = fleet_from_trace(&data, 2);
        let rep = run_service_with(
            &schema,
            &schedule,
            &mut planner,
            &mut fleet,
            &model,
            10,
            ExecMode::Scalar,
            &Recorder::disabled(),
            &ServiceOptions::default(),
        )
        .unwrap();
        assert!(rep.queries[0].admitted);
        assert_eq!(rep.queries[0].tuples, 2);
        assert_eq!(rep.queries[0].completed_at, 3);
        assert!(!rep.queries[1].admitted);
        assert_eq!(rep.queries[1].tuples, 0);

        // A zero-epoch run admits nothing and spends nothing.
        let mut fleet = fleet_from_trace(&data, 2);
        let rep = run_service_with(
            &schema,
            &schedule,
            &mut planner,
            &mut fleet,
            &model,
            0,
            ExecMode::Scalar,
            &Recorder::disabled(),
            &ServiceOptions::default(),
        )
        .unwrap();
        assert!(rep.queries.iter().all(|q| !q.admitted));
        assert_eq!(rep.network.total_uj(), 0.0);
    }

    #[test]
    fn budget_admission_is_fair_and_sheds_expired_entries() {
        let (schema, data, query) = setup();
        let q2 = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(2, 0, 0)]).unwrap();
        let model = EnergyModel::mica_like();
        let bs = Basestation::new(schema.clone(), &data);
        let ca = bs.plan_query_sized(&query, 0.01, &[0, 1, 2, 4]).unwrap().1.expected_cost;
        let cb = bs.plan_query_sized(&q2, 0.01, &[0, 1, 2, 4]).unwrap().1.expected_cost;
        // Room for either query alone but never for two at once: the
        // service serializes, one admission per window.
        let budget = ca.max(cb) + 0.5 * ca.min(cb);
        assert!(budget < ca + cb);
        let schedule = [
            ScheduleEntry::new(query.clone(), 0, 2),
            ScheduleEntry::new(query.clone(), 0, 2),
            ScheduleEntry::new(q2.clone(), 0, 2),
            ScheduleEntry::new(query.clone(), 0, 2).with_deadline(2),
        ];
        let opts = ServiceOptions {
            policy: ServicePolicy {
                epoch_cost_budget: Some(budget),
                max_queue_epochs: 8,
                fair_share: 1,
                readmit_on_drift: false,
            },
            ..ServiceOptions::default()
        };
        let mut planner = PlainPlanner { bs: Basestation::new(schema.clone(), &data), alpha: 0.01 };
        let mut fleet = fleet_from_trace(&data, 2);
        let rep = run_service_with(
            &schema,
            &schedule,
            &mut planner,
            &mut fleet,
            &model,
            8,
            ExecMode::Scalar,
            &Recorder::disabled(),
            &opts,
        )
        .unwrap();
        let rob = rep.robustness.as_ref().unwrap();

        // First instance runs immediately; the duplicate yields to the
        // different signature... but strict FIFO budget order still
        // runs the duplicate before q2 once capacity frees up.
        assert_eq!(rep.queries[0].admit, 0);
        assert_eq!(rep.queries[0].status, QueryStatus::Complete);
        assert_eq!(rep.queries[1].admit, 2);
        assert_eq!(rep.queries[1].status, QueryStatus::Complete);
        // The lone q2 is not starved by the hot signature.
        assert!(rep.queries[2].admitted);
        assert_eq!(rep.queries[2].status, QueryStatus::Complete);
        // The deadlined duplicate expires in the queue and is shed.
        assert_eq!(rep.queries[3].status, QueryStatus::Shed);
        assert_eq!(rep.queries[3].shed_at, Some(2));
        assert!(!rep.queries[3].admitted);

        assert_eq!(rob.shed, 1);
        assert!(rob.fairness_deferrals >= 2, "fairness deferrals: {}", rob.fairness_deferrals);
        assert!(rob.budget_deferrals >= 2, "budget deferrals: {}", rob.budget_deferrals);
        assert_eq!(rep.count_status(QueryStatus::Complete), 3);
    }

    #[test]
    fn deadline_crossing_degrades_to_partial_prefix() {
        let (schema, data, _) = setup();
        // A predicate on `t` alone: passes on every odd epoch, so both
        // runs deliver rows from the start.
        let query = Query::new(vec![Pred::in_range(2, 1, 1)]).unwrap();
        let model = EnergyModel::mica_like();
        let epochs = 10usize;
        let run = |schedule: &[ScheduleEntry]| {
            let opts = ServiceOptions { collect_rows: true, ..ServiceOptions::default() };
            let mut planner =
                PlainPlanner { bs: Basestation::new(schema.clone(), &data), alpha: 0.01 };
            let mut fleet = fleet_from_trace(&data, 2);
            run_service_with(
                &schema,
                schedule,
                &mut planner,
                &mut fleet,
                &model,
                epochs,
                ExecMode::Scalar,
                &Recorder::disabled(),
                &opts,
            )
            .unwrap()
        };
        let full = run(&[ScheduleEntry::new(query.clone(), 0, epochs)]);
        let timed = run(&[ScheduleEntry::new(query.clone(), 0, epochs).with_deadline(3)]);

        let f = &full.queries[0];
        let t = &timed.queries[0];
        assert_eq!(f.status, QueryStatus::Complete);
        assert_eq!(t.status, QueryStatus::TimedOut);
        assert_eq!(t.completed_at, 3);
        assert_eq!(timed.robustness.as_ref().unwrap().timed_out, 1);
        // Graceful degradation: the timed-out query's delivered rows
        // are exactly the prefix of the unconstrained run's rows.
        assert!(t.rows.len() < f.rows.len());
        assert_eq!(t.rows[..], f.rows[..t.rows.len()]);
        assert!(t.rows.iter().all(|&(e, _)| e < 3));
    }
}
