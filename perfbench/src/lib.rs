//! # perfbench — the simulator's end-to-end and per-layer benchmark
//!
//! An outside consumer of the workspace crates: every layer is driven
//! through public calls only (`ocean::run_params_cfg`,
//! `kvstore::run_params_cfg`, `RunConfig` fields, `RunStats` sums, and the
//! post-hoc `critpath` / `advisor` / export calls). Host time per layer is
//! attributed by spans the benchmark records around those calls
//! ([`spans`]); nothing inside the simulator is instrumented.
//!
//! A *cell* is one application × class × platform simulation; a *pass* runs
//! every cell of a workload once, one after another, on the calling thread.
//! See `README.md` in this directory for the workloads, the metrics and
//! the baseline numbers.

pub mod host;
pub mod spans;

use apps::kvstore::{self, KvParams};
use apps::ocean::{self, OceanParams};
use apps::{App, OptClass, Platform, Scale};
use sim_core::{advise, analyze, metrics, what_if_report, Bucket, RunConfig, RunStats};
use spans::Spans;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Simulated processors in every cell (the figures binaries' default).
const NPROCS: usize = 16;

/// A KV seed kept out of every tuning run, recorded in each result so a
/// later claim can be re-checked on traffic it was not tuned on.
pub const HELD_OUT_SEED: u64 = 0x5eed_0ff5;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Fewest timed passes of an end-to-end run, whatever the time budget.
const MIN_PASSES: usize = 3;

/// Fewest rounds (untraced + traced pass) of a traced run: fewer than
/// [`MIN_PASSES`], so a traced run on a slowed host still ends in time.
const MIN_TRACED_ROUNDS: usize = 2;

/// Projections requested from `what_if_report` per diagnosed cell.
const WHAT_IF_TOP: usize = 8;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Ocean, all four classes, on SVM, SMP and DSM; sequential engine.
    OceanJourney,
    /// KV, all four classes, on SMP and DSM; fused sharded engine.
    KvFused,
    /// Ocean and KV, Orig and P/A, on SVM with every diagnostic layer on.
    SvmDiagnose,
}

/// Which engine replays a cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// The classic thread-per-processor scheduler (`shards = 1`), the
    /// oracle.
    Sequential,
    /// Generation threads plus the fused single-thread replay loop.
    Fused,
}

impl Engine {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Sequential => "sequential",
            Engine::Fused => "fused",
        }
    }

    fn other(self) -> Engine {
        match self {
            Engine::Sequential => Engine::Fused,
            Engine::Fused => Engine::Sequential,
        }
    }
}

/// How a pass runs its cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mode {
    /// Replay engine.
    pub engine: Engine,
    /// Bulk slice fast path (`false` = the scalar reference path).
    pub bulk: bool,
    /// Sharing profile, trace, interval metrics and race detector on, and
    /// the post-hoc analyses and exports after each cell.
    pub diag: bool,
}

impl Mode {
    fn plain(self) -> Mode {
        Mode {
            diag: false,
            ..self
        }
    }
}

/// One simulation: application × optimization class × platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Ocean or KV.
    pub app: App,
    /// The paper's optimization class.
    pub class: OptClass,
    /// Simulated platform.
    pub platform: Platform,
}

impl Cell {
    /// `App/Class/Platform`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.app.name(),
            self.class.label(),
            self.platform.name()
        )
    }
}

fn grid(apps: &[App], classes: &[OptClass], platforms: &[Platform]) -> Vec<Cell> {
    let mut v = Vec::new();
    for &app in apps {
        for &platform in platforms {
            for &class in classes {
                v.push(Cell {
                    app,
                    class,
                    platform,
                });
            }
        }
    }
    v
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::OceanJourney,
        Workload::KvFused,
        Workload::SvmDiagnose,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OceanJourney => "ocean-journey",
            Workload::KvFused => "kv-fused",
            Workload::SvmDiagnose => "svm-diagnose",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cells of one pass, in execution order. The first is also the
    /// set-up's warm-up cell.
    pub fn cells(self) -> Vec<Cell> {
        match self {
            Workload::OceanJourney => grid(
                &[App::Ocean],
                &OptClass::ALL,
                &[Platform::Svm, Platform::Smp, Platform::Dsm],
            ),
            Workload::KvFused => grid(&[App::Kv], &OptClass::ALL, &[Platform::Smp, Platform::Dsm]),
            Workload::SvmDiagnose => grid(
                &[App::Ocean, App::Kv],
                &[OptClass::Orig, OptClass::PadAlign],
                &[Platform::Svm],
            ),
        }
    }

    /// How the workload's timed passes run.
    pub fn mode(self) -> Mode {
        Mode {
            engine: match self {
                Workload::KvFused => Engine::Fused,
                _ => Engine::Sequential,
            },
            bulk: true,
            diag: self == Workload::SvmDiagnose,
        }
    }

    /// Whether the workload's inputs depend on `--seed` (only KV traffic is
    /// seeded; Ocean's grid is analytic).
    pub fn uses_seed(self) -> bool {
        self.cells().iter().any(|c| c.app == App::Kv)
    }
}

/// Everything a pass needs besides the cells: scale, processor count,
/// sharded gate width and the applications' inputs.
#[derive(Clone, Debug)]
pub struct Setup {
    /// Problem-size preset.
    pub scale: Scale,
    /// Simulated processors per cell.
    pub nprocs: usize,
    /// Generation threads the fused engine may run at once
    /// (`RunConfig::shards`).
    pub gate: usize,
    /// Ocean input parameters.
    pub ocean: OceanParams,
    /// KV traffic parameters; `kv.seed` is the benchmark's `--seed`.
    pub kv: KvParams,
}

impl Setup {
    /// Inputs at `scale` with KV traffic seeded by `seed`, 16 processors,
    /// and a gate of `max(2, nproc - 1)` generation threads: one core is
    /// left for the replay thread, but never fewer than 2, because
    /// `shards = 1` selects the sequential engine instead of the fused one.
    pub fn new(scale: Scale, seed: u64) -> Setup {
        Setup {
            scale,
            nprocs: NPROCS,
            gate: host::nproc().saturating_sub(1).max(2),
            ocean: OceanParams::at(scale),
            kv: KvParams {
                seed,
                ..KvParams::at(scale)
            },
        }
    }

    /// The scheduler configuration of one cell. Every layer switch is set
    /// explicitly, so `SIM_*` environment defaults cannot change what a
    /// workload measures.
    fn config(&self, mode: Mode, label: String) -> RunConfig {
        let mut cfg = RunConfig::new(self.nprocs).named(label);
        cfg.shards = match mode.engine {
            Engine::Sequential => 1,
            Engine::Fused => self.gate,
        };
        cfg.shard_fused = true;
        cfg.bulk = mode.bulk;
        cfg.detect_races = mode.diag;
        cfg.sharing_profile = mode.diag;
        cfg.trace = mode.diag;
        cfg.metrics = if mode.diag {
            metrics::DEFAULT_INTERVAL
        } else {
            0
        };
        cfg
    }
}

/// Diagnostic-layer counts and export sizes of one diagnosed cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct DiagCounts {
    /// Trace events captured.
    trace_events: u64,
    /// Dependency edges captured.
    trace_edges: u64,
    /// Trace events plus edges dropped at their caps.
    trace_dropped: u64,
    /// Per-processor interval samples taken.
    metrics_samples: u64,
    /// Interval-metrics records dropped at their caps.
    metrics_dropped: u64,
    /// Pages in the sharing profile.
    sharing_pages: u64,
    /// Racy words reported by the detector.
    races: u64,
    /// Bytes of the Chrome, sharing, metrics and advisor JSON exports.
    export_bytes: u64,
}

/// A cell that ran to completion: its statistics with the diagnostic
/// reports removed (so they compare with a plain run) and, when diagnosed,
/// the layer counts and the first diagnostic check that failed.
#[derive(Clone, Debug)]
struct CellOut {
    /// Timed statistics, with `sharing`, `trace` and `metrics` stripped.
    stats: RunStats,
    /// Diagnostic counts (all zero on a plain cell).
    diag: DiagCounts,
    /// A failed diagnostic check: the cell counts as failed, but its counts
    /// (races, drops) are still reported.
    failure: Option<String>,
}

/// Simulated operations of a run: shared accesses, lock acquires and
/// barrier arrivals.
fn sim_ops(stats: &RunStats) -> u64 {
    let c = stats.sum_counters();
    c.accesses + c.lock_acquires + c.barriers
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Run one cell. A verifier or engine panic becomes `Err` with the reason,
/// a failed diagnostic check [`CellOut::failure`]; nothing escapes the
/// cell.
///
/// With `spans` on, the cell records `apps.reference` / `apps.generate`
/// probe spans (the input work `run_params_cfg` repeats internally, timed
/// separately so it can be subtracted), the `run_cfg.<platform>` span, and
/// one span per post-hoc call.
fn run_cell(
    setup: &Setup,
    cell: Cell,
    mode: Mode,
    spans: &mut Spans,
    id: usize,
) -> Result<CellOut, String> {
    let top = spans.open("cell", Some(id));
    let r = catch_unwind(AssertUnwindSafe(|| cell_body(setup, cell, mode, spans, id)));
    spans.close(top);
    match r {
        Ok(r) => r,
        Err(p) => Err(format!(
            "{}: panicked: {}",
            cell.label(),
            panic_message(&*p)
        )),
    }
}

fn cell_body(
    setup: &Setup,
    cell: Cell,
    mode: Mode,
    spans: &mut Spans,
    id: usize,
) -> Result<CellOut, String> {
    let label = cell.label();
    let cfg = setup.config(mode, label.clone());
    let n = setup.nprocs;
    let pf = cell.platform;
    let run_span = format!("run_cfg.{}", pf.name());
    let mut stats = match cell.app {
        App::Ocean => {
            if spans.on() {
                let want = spans.time("apps.reference", Some(id), || {
                    ocean::reference(&setup.ocean)
                });
                std::hint::black_box(want);
            }
            let v = ocean::version_for(cell.class);
            spans.time(&run_span, Some(id), || {
                ocean::run_params_cfg(pf, n, &setup.ocean, v, cfg).stats
            })
        }
        App::Kv => {
            let v = kvstore::version_for(cell.class);
            if spans.on() {
                let q = spans.time("apps.generate", Some(id), || {
                    kvstore::route_queues(&setup.kv, n, v)
                });
                std::hint::black_box(q);
                let want = spans.time("apps.reference", Some(id), || {
                    kvstore::reference(&setup.kv, n)
                });
                std::hint::black_box(want);
            }
            spans.time(&run_span, Some(id), || {
                kvstore::run_params_cfg(pf, n, &setup.kv, v, cfg).stats
            })
        }
        other => unreachable!("no workload runs {}", other.name()),
    };
    let (diag, failure) = if mode.diag {
        let (diag, check) = diagnose(&stats, spans, id)?;
        (diag, check.err().map(|e| format!("{label}: {e}")))
    } else {
        (DiagCounts::default(), None)
    };
    stats.sharing = None;
    stats.trace = None;
    stats.metrics = None;
    Ok(CellOut {
        stats,
        diag,
        failure,
    })
}

/// The post-hoc half of a diagnosed cell, and its checks: no drops, no
/// races, critpath length equal to the run's end, every what-if and
/// advisor bound at least 1.0. `Err` when a layer's report is missing.
fn diagnose(
    stats: &RunStats,
    spans: &mut Spans,
    id: usize,
) -> Result<(DiagCounts, Result<(), String>), String> {
    let tr = stats.trace.as_ref().ok_or("trace missing")?;
    let m = stats.metrics.as_ref().ok_or("interval metrics missing")?;
    let sh = stats.sharing.as_ref().ok_or("sharing profile missing")?;
    let cell = Some(id);
    let cp = spans.time("critpath.analyze", cell, || analyze(tr));
    let proj = spans.time("critpath.what_if", cell, || {
        what_if_report(tr, &cp, WHAT_IF_TOP)
    });
    let (rep, advisor_bytes) = spans.time("advisor.advise", cell, || {
        let rep = advise(stats);
        let bytes = std::hint::black_box(rep.to_json()).len();
        (rep, bytes)
    });
    let chrome = spans.time("trace.export", cell, || {
        std::hint::black_box(tr.to_chrome_json_with(Some(m))).len()
    });
    let sharing = spans.time("sharing.export", cell, || {
        std::hint::black_box(sh.to_json()).len()
    });
    let metrics = spans.time("metrics.export", cell, || {
        std::hint::black_box(m.to_json()).len()
    });

    let counts = DiagCounts {
        trace_events: tr.total_events() as u64,
        trace_edges: tr.edges.len() as u64,
        trace_dropped: tr.dropped_events() + tr.edges_dropped,
        metrics_samples: m.procs.iter().map(|p| p.samples.len() as u64).sum(),
        metrics_dropped: m.total_dropped(),
        sharing_pages: sh.pages.len() as u64,
        races: stats.races() as u64,
        export_bytes: (chrome + sharing + metrics + advisor_bytes) as u64,
    };
    let check = if counts.trace_dropped + counts.metrics_dropped > 0 {
        Err(format!(
            "diagnostics dropped at their caps (trace {}, metrics {})",
            counts.trace_dropped, counts.metrics_dropped
        ))
    } else if counts.races > 0 {
        Err(format!("{} races: {}", counts.races, stats.race_summary()))
    } else if cp.total != tr.end() {
        Err(format!(
            "critpath total {} != trace end {}",
            cp.total,
            tr.end()
        ))
    } else if let Some(p) = proj.iter().find(|p| p.speedup < 1.0) {
        Err(format!(
            "what-if bound {} < 1.0 for {:?}",
            p.speedup, p.target
        ))
    } else if let Some(r) = rep.recs.iter().find(|r| r.speedup < 1.0) {
        Err(format!(
            "advisor bound {} < 1.0 for {:?}",
            r.speedup, r.action
        ))
    } else if let Some(f) = rep.families.iter().find(|f| f.speedup < 1.0) {
        Err(format!("advisor family bound {} < 1.0", f.speedup))
    } else {
        Ok(())
    };
    Ok((counts, check))
}

/// One pass over a workload's cells.
struct Pass {
    /// Host wall seconds.
    wall_s: f64,
    /// Host CPU seconds of the whole process (all threads).
    cpu_s: f64,
    /// Host `(wall, CPU)` seconds of each cell, in cell order.
    cell_s: Vec<(f64, f64)>,
    /// Per-cell outcomes, in cell order.
    cells: Vec<Result<CellOut, String>>,
}

/// Run every cell once, in order.
fn run_pass(setup: &Setup, cells: &[Cell], mode: Mode, spans: &mut Spans) -> Pass {
    let (t0, c0) = (Instant::now(), host::process_cpu_s());
    let mut cell_s = Vec::with_capacity(cells.len());
    let mut out = Vec::with_capacity(cells.len());
    for (i, &c) in cells.iter().enumerate() {
        let (w, cpu) = (Instant::now(), host::process_cpu_s());
        out.push(run_cell(setup, c, mode, spans, i));
        cell_s.push((w.elapsed().as_secs_f64(), host::process_cpu_s() - cpu));
    }
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: host::process_cpu_s() - c0,
        cell_s,
        cells: out,
    }
}

/// `(wall, CPU)` seconds of a typical pass: each cell's median over the
/// passes, summed over the cells. Unlike the median pass, a stall that
/// hits one cell of one pass cannot move it.
fn typical_pass(cell_s: &[Vec<(f64, f64)>]) -> (f64, f64) {
    let ncells = cell_s.first().map_or(0, Vec::len);
    (0..ncells).fold((0.0, 0.0), |(w, c), i| {
        let ws: Vec<f64> = cell_s.iter().map(|p| p[i].0).collect();
        let cs: Vec<f64> = cell_s.iter().map(|p| p[i].1).collect();
        (w + median(&ws), c + median(&cs))
    })
}

/// Cells attempted and failed over a run, with the reason of each failure.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Cell executions and cross-checks attempted.
    pub attempted: u64,
    /// Of those, failed.
    pub failed: u64,
    /// One line per failure.
    pub problems: Vec<String>,
}

impl Ledger {
    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(problem());
        }
    }

    /// Count a pass's cells. Each successful cell must also reproduce the
    /// statistics of the first successful run of the same cell in `oracle`
    /// (filled on first sight), under the check named `what`.
    fn count_pass(
        &mut self,
        cells: &[Cell],
        pass: &Pass,
        oracle: &mut [Option<RunStats>],
        what: &str,
    ) {
        for (i, r) in pass.cells.iter().enumerate() {
            match r {
                Err(e) => self.check(false, || e.clone()),
                Ok(CellOut {
                    failure: Some(e), ..
                }) => self.check(false, || e.clone()),
                Ok(out) => match &oracle[i] {
                    None => {
                        self.check(true, String::new);
                        oracle[i] = Some(out.stats.clone());
                    }
                    Some(want) => self.check(out.stats == *want, || {
                        format!("{}: {what} changed the statistics", cells[i].label())
                    }),
                },
            }
        }
    }

    /// Share of attempts that failed.
    pub fn failed_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One named metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Median of a non-empty sample (mean of the middle two for even counts).
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// What one benchmark run produced.
pub struct Report {
    /// Attempts and failures.
    pub ledger: Ledger,
    /// Metrics in the order they are printed.
    pub metrics: Vec<Metric>,
    /// Wall seconds of each timed pass, in run order (the sample behind
    /// the medians).
    pub pass_walls: Vec<f64>,
    /// Wall seconds of each set-up repetition.
    pub setup_walls: Vec<f64>,
    /// Resident-set peak of each timed pass, MiB (end-to-end runs only).
    pub pass_peaks: Vec<f64>,
    /// The span recorder (empty unless traced).
    pub spans: Spans,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The value of metric `name`, if emitted.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Set up once: generate the KV traffic, construct each platform model the
/// workload uses, and run the first cell untimed as a warm-up. Returns the
/// set-up's wall seconds.
fn set_up(setup: &Setup, w: Workload, ledger: &mut Ledger, spans: &mut Spans) -> f64 {
    let cells = w.cells();
    let t0 = Instant::now();
    let top = spans.open("setup", None);
    if w.uses_seed() {
        spans.time("apps.generate", None, || {
            std::hint::black_box(kvstore::generate_requests(&setup.kv, setup.nprocs))
        });
    }
    let mut platforms: Vec<Platform> = Vec::new();
    for c in &cells {
        if !platforms.contains(&c.platform) {
            platforms.push(c.platform);
        }
    }
    for pf in platforms {
        spans.time(&format!("platform.{}", pf.name()), None, || {
            std::hint::black_box(pf.boxed(setup.nprocs))
        });
    }
    let warm = run_cell(setup, cells[0], w.mode(), spans, 0);
    ledger.check(warm.is_ok(), || warm.err().unwrap_or_default());
    spans.close(top);
    t0.elapsed().as_secs_f64()
}

/// Call `round` until `budget` is spent (at least `min` times); a round is
/// not started when the median round so far would overrun the budget.
fn timed_loop(budget: Duration, min: usize, mut round: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut walls = Vec::new();
    loop {
        let r0 = Instant::now();
        round(walls.len());
        walls.push(r0.elapsed().as_secs_f64());
        let spent = t0.elapsed().as_secs_f64();
        if walls.len() >= min && spent + median(&walls) > budget.as_secs_f64() {
            return;
        }
    }
}

/// The end-to-end run: [`SETUP_REPS`] set-ups, then untraced passes for
/// `budget`. Emits every end-to-end metric.
pub fn measure(setup: &Setup, w: Workload, budget: Duration) -> Report {
    let cells = w.cells();
    let mode = w.mode();
    let mut spans = Spans::new(false);
    let mut ledger = Ledger::default();
    let setup_walls: Vec<f64> = (0..SETUP_REPS)
        .map(|_| set_up(setup, w, &mut ledger, &mut spans))
        .collect();

    let mut oracle: Vec<Option<RunStats>> = vec![None; cells.len()];
    let mut walls = Vec::new();
    let mut cell_s = Vec::new();
    let mut peaks = Vec::new();
    timed_loop(budget, MIN_PASSES, |_| {
        host::reset_peak_rss();
        let p = run_pass(setup, &cells, mode, &mut spans);
        peaks.push(host::peak_rss_mib());
        ledger.count_pass(&cells, &p, &mut oracle, "a repeated pass");
        walls.push(p.wall_s);
        cell_s.push(p.cell_s);
    });
    let stats: Vec<&RunStats> = oracle.iter().flatten().collect();
    let ops: u64 = stats.iter().map(|s| sim_ops(s)).sum();
    let cycles: u64 = stats.iter().map(|s| s.total_cycles()).sum();
    let (wall, cpu) = typical_pass(&cell_s);

    let mut r = Report {
        ledger,
        metrics: Vec::new(),
        pass_walls: walls,
        setup_walls,
        pass_peaks: peaks,
        spans,
    };
    r.push("wall_s", wall, "s");
    r.push("cpu_s", cpu, "s");
    r.push("sim_ops_per_s", ops as f64 / wall, "ops/s");
    r.push("sim_cycles", cycles as f64, "cycles");
    // The first pass, not the median: later passes peak higher (about
    // 55 MiB more per pass on svm-diagnose, even after the trim), so a
    // median would depend on how many passes fit in the budget.
    r.push("peak_rss_mib", r.pass_peaks[0], "MiB");
    r.push("setup_s", median(&r.setup_walls), "s");
    r.push("pass_ratio", 1.0 - r.ledger.failed_ratio(), "fraction");
    r
}

/// Layer totals of one traced pass, read off its spans.
struct LayerPass {
    reference_s: f64,
    generate_s: f64,
    /// `run_cfg` span minus the input probes, per platform.
    run_s: [(Platform, f64); 3],
    posthoc: [(&'static str, f64); 6],
    probes_s: f64,
    wall_s: f64,
}

const RUN_PLATFORMS: [Platform; 3] = [Platform::Svm, Platform::Smp, Platform::Dsm];
const POSTHOC: [(&str, &str); 6] = [
    ("critpath.analyze", "critpath.analyze_s"),
    ("critpath.what_if", "critpath.what_if_s"),
    ("advisor.advise", "advisor.advise_s"),
    ("trace.export", "trace.export_s"),
    ("sharing.export", "sharing.export_s"),
    ("metrics.export", "metrics.export_s"),
];

fn layer_pass(spans: &Spans, pass: usize, wall_s: f64) -> LayerPass {
    let mut run_s = RUN_PLATFORMS.map(|p| (p, 0.0));
    for s in spans.spans().iter().filter(|s| s.pass == Some(pass)) {
        let Some(rest) = s.name.strip_prefix("run_cfg.") else {
            continue;
        };
        let Some(id) = s.cell else { continue };
        // The probes repeat the reference / queue-routing work that
        // `run_params_cfg` does internally for the same input.
        let probes: f64 = spans
            .spans()
            .iter()
            .filter(|p| {
                p.pass == Some(pass)
                    && p.cell == Some(id)
                    && (p.name == "apps.reference" || p.name == "apps.generate")
            })
            .fold(0.0, |acc, p| acc + p.secs());
        if let Some(slot) = run_s.iter_mut().find(|(p, _)| p.name() == rest) {
            slot.1 += (s.secs() - probes).max(0.0);
        }
    }
    let reference_s = spans.total(pass, "apps.reference");
    let generate_s = spans.total(pass, "apps.generate");
    LayerPass {
        reference_s,
        generate_s,
        run_s,
        posthoc: POSTHOC.map(|(span, metric)| (metric, spans.total(pass, span))),
        probes_s: reference_s + generate_s,
        wall_s,
    }
}

/// Spread of a small sample: max minus min.
fn range(v: &[f64]) -> f64 {
    let max = v.iter().copied().fold(f64::MIN, f64::max);
    let min = v.iter().copied().fold(f64::MAX, f64::min);
    max - min
}

/// The traced run: one set-up with spans, then rounds for `budget` (at
/// least [`MIN_TRACED_ROUNDS`]). A round runs an untraced pass, a traced
/// pass, on the diagnose workload a plain pass without the layers, then a
/// scalar-path pass and a pass on the other engine, both with the layers
/// off. Ratios pair passes of the same round, so a host slowdown that lasts
/// a round moves both sides. Emits every per-layer metric, and counts the
/// cross-checks (bulk = scalar, fused = sequential, layers invisible) as
/// attempts.
pub fn measure_traced(setup: &Setup, w: Workload, budget: Duration) -> Report {
    let cells = w.cells();
    let mode = w.mode();
    let plain = mode.plain();
    let scalar_mode = Mode {
        bulk: false,
        ..plain
    };
    let other_mode = Mode {
        engine: plain.engine.other(),
        ..plain
    };
    let mut spans = Spans::new(true);
    let mut ledger = Ledger::default();
    let setup_wall = set_up(setup, w, &mut ledger, &mut spans);

    let mut oracle: Vec<Option<RunStats>> = vec![None; cells.len()];
    let mut untraced: Vec<(f64, f64)> = Vec::new();
    let mut layers_s: Vec<f64> = Vec::new();
    let mut bulk_speedup: Vec<f64> = Vec::new();
    let mut fused_over_seq: Vec<f64> = Vec::new();
    let mut layers: Vec<LayerPass> = Vec::new();
    let mut counts: Vec<DiagCounts> = vec![DiagCounts::default(); cells.len()];
    timed_loop(budget, MIN_TRACED_ROUNDS, |i| {
        spans.set_on(false);
        let u = run_pass(setup, &cells, mode, &mut spans);
        ledger.count_pass(&cells, &u, &mut oracle, "a repeated pass");
        untraced.push((u.wall_s, u.cpu_s));

        spans.set_on(true);
        spans.set_pass(Some(i));
        let top = spans.open("pass.traced", None);
        let t = run_pass(setup, &cells, mode, &mut spans);
        spans.close(top);
        spans.set_pass(None);
        ledger.count_pass(&cells, &t, &mut oracle, "a traced pass");
        for (slot, r) in counts.iter_mut().zip(&t.cells) {
            if let Ok(out) = r {
                *slot = out.diag;
            }
        }
        let l = layer_pass(&spans, i, t.wall_s);

        // The plain-layers pass every ratio of this round is taken against.
        let base = if mode.diag {
            let top = spans.open("pass.plain", None);
            let p = run_pass(setup, &cells, plain, &mut Spans::new(false));
            spans.close(top);
            let what = "switching the diagnostic layers off";
            ledger.count_pass(&cells, &p, &mut oracle, what);
            // Inline sink cost: the diagnosed untraced pass against the
            // plain pass, with the post-hoc spans taken out.
            layers_s.push(u.wall_s - p.wall_s - l.posthoc.iter().map(|x| x.1).sum::<f64>());
            p.wall_s
        } else {
            u.wall_s
        };
        layers.push(l);

        let top = spans.open("pass.scalar", None);
        let sc = run_pass(setup, &cells, scalar_mode, &mut Spans::new(false));
        spans.close(top);
        ledger.count_pass(&cells, &sc, &mut oracle, "the scalar reference path");
        bulk_speedup.push(sc.wall_s / base);

        let top = spans.open(format!("pass.{}", other_mode.engine.name()), None);
        let o = run_pass(setup, &cells, other_mode, &mut Spans::new(false));
        spans.close(top);
        ledger.count_pass(&cells, &o, &mut oracle, "the other engine");
        fused_over_seq.push(match plain.engine {
            Engine::Sequential => o.wall_s / base,
            Engine::Fused => base / o.wall_s,
        });
    });
    if layers_s.is_empty() {
        layers_s.push(0.0);
    }

    let stats: Vec<&RunStats> = oracle.iter().flatten().collect();
    let mut r = Report {
        ledger,
        metrics: Vec::new(),
        pass_walls: untraced.iter().map(|u| u.0).collect(),
        setup_walls: vec![setup_wall],
        pass_peaks: Vec::new(),
        spans,
    };
    let med = |f: &dyn Fn(&LayerPass) -> f64| median(&layers.iter().map(f).collect::<Vec<_>>());

    r.push("apps.reference_s", med(&|l| l.reference_s), "s");
    r.push("apps.generate_s", med(&|l| l.generate_s), "s");
    let mut run_total = 0.0;
    for (k, pf) in RUN_PLATFORMS.iter().enumerate() {
        let v = med(&|l| l.run_s[k].1);
        run_total += v;
        r.push(&format!("sched.run_s.{}", pf.name()), v, "s");
    }
    let sum = |f: &dyn Fn(&RunStats) -> u64| -> u64 { stats.iter().map(|s| f(s)).sum() };
    let accesses = sum(&|s| s.sum_counters().accesses);
    let syncs = sum(&|s| {
        let c = s.sum_counters();
        c.lock_acquires + c.barriers / s.nprocs().max(1) as u64
    });
    r.push(
        "sched.ns_per_access",
        run_total * 1e9 / accesses.max(1) as f64,
        "ns",
    );
    r.push(
        "sched.ns_per_sync",
        run_total * 1e9 / syncs.max(1) as f64,
        "ns",
    );
    let idle: Vec<f64> = untraced.iter().map(|&(w, c)| 1.0 - c / w).collect();
    r.push("sched.idle_ratio", median(&idle), "ratio");
    r.push("view.bulk_speedup", median(&bulk_speedup), "ratio");
    r.push("shard.fused_over_seq", median(&fused_over_seq), "ratio");

    // A cell that failed everywhere is missing from these sums (and counted
    // in the ledger).
    let on = |pf: Platform, f: &dyn Fn(&sim_core::Counter) -> u64| -> f64 {
        oracle
            .iter()
            .zip(&cells)
            .filter(|(_, c)| c.platform == pf)
            .filter_map(|(s, _)| s.as_ref())
            .map(|s| f(&s.sum_counters()))
            .sum::<u64>() as f64
    };
    r.push(
        "svm-hlrc.remote_fetches",
        on(Platform::Svm, &|c| c.remote_fetches),
        "count",
    );
    r.push(
        "svm-hlrc.diffs_created",
        on(Platform::Svm, &|c| c.diffs_created),
        "count",
    );
    r.push(
        "svm-hlrc.twins_created",
        on(Platform::Svm, &|c| c.twins_created),
        "count",
    );
    r.push(
        "svm-hlrc.invalidations",
        on(Platform::Svm, &|c| c.invalidations),
        "count",
    );
    r.push(
        "svm-hlrc.bytes_transferred",
        on(Platform::Svm, &|c| c.bytes_transferred),
        "bytes",
    );
    r.push(
        "cc-numa.remote_fetches",
        on(Platform::Dsm, &|c| c.remote_fetches),
        "count",
    );
    r.push(
        "cc-numa.cache_misses",
        on(Platform::Dsm, &|c| c.cache_misses),
        "count",
    );
    r.push(
        "smp-bus.cache_misses",
        on(Platform::Smp, &|c| c.cache_misses),
        "count",
    );
    r.push(
        "smp-bus.bytes_transferred",
        on(Platform::Smp, &|c| c.bytes_transferred),
        "bytes",
    );

    for (name, b) in [
        ("sim.compute_cycles", Bucket::Compute),
        ("sim.data_wait_cycles", Bucket::DataWait),
        ("sim.lock_wait_cycles", Bucket::LockWait),
        ("sim.barrier_wait_cycles", Bucket::BarrierWait),
        ("sim.handler_cycles", Bucket::HandlerCompute),
        ("sim.cache_stall_cycles", Bucket::CacheStall),
    ] {
        r.push(name, sum(&|s| s.sum(b)) as f64, "cycles");
    }

    let dsum = |f: &dyn Fn(&DiagCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
    r.push("trace.events", dsum(&|d| d.trace_events), "count");
    r.push("trace.edges", dsum(&|d| d.trace_edges), "count");
    r.push("trace.dropped", dsum(&|d| d.trace_dropped), "count");
    r.push("metrics.intervals", dsum(&|d| d.metrics_samples), "count");
    r.push("metrics.dropped", dsum(&|d| d.metrics_dropped), "count");
    r.push("sharing.pages", dsum(&|d| d.sharing_pages), "count");
    r.push("detector.races", dsum(&|d| d.races), "count");

    r.push("diag.layers_s", median(&layers_s), "s");
    r.push("diag.layers_s.spread", range(&layers_s), "s");
    for k in 0..POSTHOC.len() {
        r.push(layers[0].posthoc[k].0, med(&|l| l.posthoc[k].1), "s");
    }
    r.push("export.bytes", dsum(&|d| d.export_bytes), "bytes");
    let overhead: Vec<f64> = layers
        .iter()
        .zip(&untraced)
        .map(|(l, u)| (l.wall_s - l.probes_s) / u.0)
        .collect();
    r.push("bench.trace_overhead", median(&overhead), "ratio");
    r
}
