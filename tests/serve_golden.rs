//! Golden pin of the multi-query service at loss 0 (`DESIGN.md` §14.5).
//!
//! Two fixed multi-query schedules — staggered, overlapping windows, a
//! repeated signature that hits the plan cache, a zero window and an
//! entry admitted beyond the run — are served with default
//! [`ServeConfig`] in both exec modes. Every per-mote ledger field and
//! the basestation's transmit energy are pinned by their `f64` bit
//! patterns, and every query by its tuples, results, completion epoch,
//! cache hit and status. The values were recorded from the dedicated
//! lossless loop that default options used to run on; the one service
//! loop must reproduce its physics bit for bit at loss 0.

use std::fmt::Write as _;

use acqp::core::exec::ExecMode;
use acqp::core::prelude::*;
use acqp::data::lab::{self, LabConfig};
use acqp::obs::Recorder;
use acqp::sensornet::{
    run_service_with, Basestation, EnergyModel, Mote, ScheduleEntry, ServiceOptions, ServiceReport,
};
use acqp::serve::{serve_schedule, ServeConfig, Service};

/// Renders everything the golden pins, one line per mote and query.
fn fingerprint(rep: &ServiceReport) -> String {
    let mut s = String::new();
    for (i, l) in rep.per_mote.iter().enumerate() {
        writeln!(
            s,
            "mote{i} {:016x} {:016x} {:016x} {:016x}",
            l.sensing_uj.to_bits(),
            l.board_uj.to_bits(),
            l.radio_tx_uj.to_bits(),
            l.radio_rx_uj.to_bits()
        )
        .unwrap();
    }
    writeln!(s, "bs_tx {:016x}", rep.bs_tx_uj.to_bits()).unwrap();
    for (i, q) in rep.queries.iter().enumerate() {
        writeln!(
            s,
            "q{i} tuples {} results {} completed_at {} cache_hit {} {}",
            q.tuples,
            q.results,
            q.completed_at,
            q.cache_hit,
            q.status.label()
        )
        .unwrap();
    }
    s
}

fn serve(
    schema: &Schema,
    history: &Dataset,
    trace: &Dataset,
    schedule: &[ScheduleEntry],
    motes: u16,
    mode: ExecMode,
) -> ServiceReport {
    let rep = serve_schedule(
        schema,
        history,
        trace,
        schedule,
        motes,
        &EnergyModel::mica_like(),
        trace.len(),
        mode,
        ServeConfig::default(),
        &Recorder::disabled(),
    )
    .expect("golden schedule serves");
    assert!(rep.service.all_correct(), "{mode:?}: verdicts diverged from ground truth");
    rep.service
}

fn assert_golden(name: &str, golden: &str, run: impl Fn(ExecMode) -> ServiceReport) {
    for mode in [ExecMode::Scalar, ExecMode::Vectorized] {
        assert_eq!(fingerprint(&run(mode)), golden, "{name} in {mode:?} mode");
    }
}

/// Lab data planned from its first half and served over its second
/// half on three motes: four signatures, one repeated twice.
#[test]
fn lab_schedule_matches_golden() {
    let g = lab::generate(&LabConfig { motes: 4, epochs: 120, ..LabConfig::default() });
    let (history, trace) = g.split(0.5);
    let epochs = trace.len();
    let q = |preds: Vec<Pred>| Query::new(preds).expect("well-formed golden query");
    let bright_cool = q(vec![Pred::in_range(0, 4, 63), Pred::in_range(1, 0, 40)]);
    let humid_day = q(vec![Pred::in_range(2, 10, 40), Pred::in_range(4, 8, 18)]);
    let three =
        q(vec![Pred::in_range(1, 10, 45), Pred::in_range(0, 0, 20), Pred::in_range(5, 0, 31)]);
    let schedule = vec![
        ScheduleEntry::new(bright_cool.clone(), 0, 120),
        ScheduleEntry::new(humid_day.clone(), 15, 60),
        ScheduleEntry::new(bright_cool.clone(), 40, 400),
        ScheduleEntry::new(three, 90, 30),
        ScheduleEntry::new(humid_day.clone(), 100, 0),
        ScheduleEntry::new(bright_cool, 150, 80),
        ScheduleEntry::new(humid_day, epochs + 5, 10),
    ];
    assert_golden("lab", LAB_GOLDEN, |mode| serve(&g.schema, &history, &trace, &schedule, 3, mode));
}

/// A hand-built five-attribute trace (two cheap, three expensive,
/// correlated through a shared phase) on four motes, each replaying it
/// from a different offset so every mote's ledger differs.
#[test]
fn synthetic_schedule_matches_golden() {
    let schema = Schema::new(vec![
        Attribute::new("a", 6, 90.0),
        Attribute::new("b", 4, 60.0),
        Attribute::new("c", 5, 120.0),
        Attribute::new("t", 2, 1.0),
        Attribute::new("h", 8, 2.0),
    ])
    .unwrap();
    let rows: Vec<Vec<u16>> = (0..160u16)
        .map(|i| {
            let h = (i / 3) % 8;
            vec![(h + i % 3) % 6, (i / 7) % 4, (h / 2 + i % 2) % 5, i % 2, h]
        })
        .collect();
    let data = Dataset::from_rows(&schema, rows).unwrap();
    let q = |preds: Vec<Pred>| Query::new(preds).expect("well-formed golden query");
    let ab = q(vec![Pred::in_range(0, 2, 4), Pred::in_range(1, 1, 2)]);
    let ct = q(vec![Pred::in_range(2, 0, 2), Pred::in_range(3, 1, 1)]);
    let ach = q(vec![Pred::in_range(0, 0, 3), Pred::in_range(2, 2, 4), Pred::in_range(4, 2, 6)]);
    let schedule = vec![
        ScheduleEntry::new(ab.clone(), 0, 70),
        ScheduleEntry::new(ct.clone(), 5, 40),
        ScheduleEntry::new(ach.clone(), 5, 90),
        ScheduleEntry::new(ab.clone(), 30, 60),
        ScheduleEntry::new(ct, 60, 200),
        ScheduleEntry::new(ach, 61, 1),
        ScheduleEntry::new(ab, 120, 25),
    ];
    assert_golden("synthetic", SYNTHETIC_GOLDEN, |mode| {
        let mut service =
            Service::new(Basestation::new(schema.clone(), &data), ServeConfig::default())
                .expect("default serve config is valid");
        let mut fleet: Vec<Mote> = (0..4u16)
            .map(|id| {
                let rows: Vec<Vec<u16>> = (0..data.len())
                    .map(|r| data.row((r + 37 * id as usize) % data.len()).to_vec())
                    .collect();
                Mote::new(id, Dataset::from_rows(&schema, rows).unwrap())
            })
            .collect();
        let rep = run_service_with(
            &schema,
            &schedule,
            &mut service,
            &mut fleet,
            &EnergyModel::mica_like(),
            data.len(),
            mode,
            &Recorder::disabled(),
            &ServiceOptions::default(),
        )
        .expect("golden schedule serves");
        assert!(rep.all_correct(), "{mode:?}: verdicts diverged from ground truth");
        rep
    });
}

const LAB_GOLDEN: &str = "\
mote0 40e98e8000000000 0000000000000000 4099bc0000000000 4042000000000000
mote1 40e98e8000000000 0000000000000000 4099bc0000000000 4042000000000000
mote2 40e98e8000000000 0000000000000000 4099bc0000000000 4042000000000000
bs_tx 4062000000000000
q0 tuples 360 results 321 completed_at 120 cache_hit false complete
q1 tuples 180 results 180 completed_at 75 cache_hit false complete
q2 tuples 600 results 501 completed_at 240 cache_hit true complete
q3 tuples 90 results 9 completed_at 120 cache_hit false complete
q4 tuples 3 results 3 completed_at 101 cache_hit false complete
q5 tuples 240 results 219 completed_at 230 cache_hit false complete
q6 tuples 0 results 0 completed_at 245 cache_hit false shed
";

const SYNTHETIC_GOLDEN: &str = "\
mote0 40d9280000000000 0000000000000000 4079c00000000000 4042000000000000
mote1 40dac48000000000 0000000000000000 407dd00000000000 4042000000000000
mote2 40d9fa0000000000 0000000000000000 407c400000000000 4042000000000000
mote3 40d8920000000000 0000000000000000 407d400000000000 4042000000000000
bs_tx 4068000000000000
q0 tuples 280 results 73 completed_at 70 cache_hit false complete
q1 tuples 160 results 42 completed_at 45 cache_hit false complete
q2 tuples 360 results 117 completed_at 95 cache_hit false complete
q3 tuples 240 results 62 completed_at 90 cache_hit true complete
q4 tuples 400 results 104 completed_at 160 cache_hit true complete
q5 tuples 4 results 0 completed_at 62 cache_hit true complete
q6 tuples 100 results 25 completed_at 145 cache_hit false complete
";
