//! Measurement from outside the program: the timing decorator around
//! the service policy, in-memory spans, percentiles and process stats.

use std::collections::BTreeMap;
use std::time::Instant;

use acqp_core::{Plan, Query, Result};
use acqp_sensornet::{AdmittedPlan, ServePlanner, ServePolicyState};

use crate::speed::{Speed, MISS_BURST};

/// One recorded span: name, start and end (ns since the tracer's
/// origin) and the span that was open when it began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory for the whole run and written out at its end.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        let end = self.now_ns();
        self.spans[id].end_ns = end;
        self.spans[id].ns()
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = f(self);
        let ns = self.end(id);
        (out, ns)
    }

    /// Self time per span: its duration minus the part its children
    /// cover (children never overlap: one thread, strictly nested).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ns();
            }
        }
        own
    }

    /// Total duration and total self time of every span named `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .fold((0, 0), |(t, o), (s, &sn)| (t + s.ns(), o + sn))
    }

    /// JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (i, (s, o)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{o}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// A cache miss seen by the decorator, kept for the replay.
pub struct Miss {
    pub query: Query,
    pub subproblems: u64,
    pub wire: Vec<u8>,
}

/// Timing decorator: implements the public [`ServePlanner`] trait by
/// forwarding to the wrapped policy and timing every call.
pub struct Timed<'t, P> {
    pub inner: P,
    /// Wall time of every `plan_admitted` call, hits and misses.
    pub hit_ns: Vec<u64>,
    pub miss_ns: Vec<u64>,
    /// The host's slowdown measured right after each miss.
    pub miss_slowdown: Vec<f64>,
    /// Subproblems reported on cache hits (must stay 0).
    pub hit_subproblems: u64,
    pub miss_subproblems: u64,
    pub tracer: Option<&'t mut Tracer>,
    /// Traced runs only: every miss, and the first plan per signature.
    pub misses: Vec<Miss>,
    pub plans: BTreeMap<u64, Plan>,
    /// Host-speed probes taken between calls, outside their timings.
    pub speed: Speed,
}

impl<'t, P: ServePlanner> Timed<'t, P> {
    pub fn new(inner: P, tracer: Option<&'t mut Tracer>) -> Self {
        Timed {
            inner,
            hit_ns: Vec::new(),
            miss_ns: Vec::new(),
            miss_slowdown: Vec::new(),
            hit_subproblems: 0,
            miss_subproblems: 0,
            tracer,
            misses: Vec::new(),
            plans: BTreeMap::new(),
            speed: Speed::new(),
        }
    }

    /// Samples the host's speed when a probe is due, as its own span.
    fn probe(&mut self) {
        if self.speed.due() {
            self.probe_burst(1);
        }
    }

    /// Takes `n` probes now, as one span; returns their slowdown.
    fn probe_burst(&mut self, n: usize) -> f64 {
        let span = self.tracer.as_mut().map(|t| t.begin("host.probe"));
        let slowdown = self.speed.burst(n);
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.end(id);
        }
        slowdown
    }
}

impl<P: ServePlanner> ServePlanner for Timed<'_, P> {
    fn plan_admitted(&mut self, query: &Query, epoch: usize) -> Result<AdmittedPlan> {
        let span = self.tracer.as_mut().map(|t| t.begin("serve.plan_admitted"));
        let t0 = Instant::now();
        let out = self.inner.plan_admitted(query, epoch);
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.end(id);
        }
        let plan = out?;
        if plan.cache_hit {
            self.probe();
            self.hit_ns.push(ns);
            self.hit_subproblems += plan.subproblems;
        } else {
            // A miss takes milliseconds, over which the host's speed
            // may differ from its average over the pass.
            let slowdown = self.probe_burst(MISS_BURST);
            self.miss_slowdown.push(slowdown);
            self.miss_ns.push(ns);
            self.miss_subproblems += plan.subproblems;
            if self.tracer.is_some() {
                self.plans.entry(query.signature()).or_insert_with(|| plan.planned.plan.clone());
                self.misses.push(Miss {
                    query: query.clone(),
                    subproblems: plan.subproblems,
                    wire: plan.planned.wire.clone(),
                });
            }
        }
        Ok(plan)
    }

    fn query_completed(&mut self, query: &Query, epoch: usize, pred_counts: &[(u64, u64)]) -> u64 {
        let span = self.tracer.as_mut().map(|t| t.begin("serve.query_completed"));
        let invalidated = self.inner.query_completed(query, epoch, pred_counts);
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.end(id);
        }
        self.probe();
        invalidated
    }

    fn stats_epoch(&self) -> u64 {
        self.inner.stats_epoch()
    }

    fn policy_state(&self) -> Option<ServePolicyState> {
        self.inner.policy_state()
    }

    fn restore_policy_state(&mut self, state: Option<ServePolicyState>) {
        self.inner.restore_policy_state(state)
    }
}

/// A nearest-rank percentile with its support: the sample count and
/// how many samples lie beyond the reported rank.
#[derive(Debug, Clone, Copy)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1]`) of `values`, or an error
/// naming `what` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64, what: &str) -> std::result::Result<Pct, String> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "{what}: refusing p{} over {n} samples ({beyond} beyond it, need {MIN_BEYOND})",
            p * 100.0
        ));
    }
    Ok(Pct { value: v[rank - 1], samples: n, beyond })
}

/// Median of `values` (the mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> std::result::Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// CPU time and run-queue wait of this thread so far, in seconds.
pub fn schedstat() -> (f64, f64) {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut it = s.split_whitespace().map(|x| x.parse::<f64>().unwrap_or(0.0) / 1e9);
    (it.next().unwrap_or(0.0), it.next().unwrap_or(0.0))
}
