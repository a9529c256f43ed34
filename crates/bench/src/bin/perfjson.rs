//! perfjson — machine-readable simulator-performance benchmark.
//!
//! Times each benchmark cell (application x platform, default scale, 8
//! simulated processors) twice — once on the word-at-a-time scalar
//! reference path and once on the bulk fast path — and writes
//! `BENCH_simulator.json` with host seconds, the bulk-over-scalar speedup,
//! and simulated-cycles-per-host-second throughput. The two paths produce
//! bit-identical `RunStats` (enforced by `tests/equivalence.rs`); this
//! binary measures only how fast the simulator gets there.
//!
//! One extra cell (Ocean on SVM) runs with the sharing profiler on: its
//! `RunStats` must stay bit-identical to the profiler-off run, its host
//! overhead is recorded in the JSON, and the gathered per-page profile is
//! written to `--profile-out` for CI to archive.
//!
//! A second extra cell re-times Ocean on SVM with the race detector on,
//! scalar vs bulk: the batched shadow-memory checks must produce the same
//! `RunStats` (and zero races) as the per-word path, and the JSON records
//! the detector-on bulk speedup.
//!
//! A third extra cell runs Ocean on SVM with the event tracer on: the
//! `RunStats` with the trace stripped must be bit-identical to the plain
//! run, the default buffer cap must not drop events, and the Chrome
//! `trace_event` export is written to `--trace-out` for CI to archive.
//!
//! A fourth cell runs the critical-path analyzer over that trace: pure
//! post-hoc host work whose reconstructed path length must equal the
//! end-to-end virtual time; the JSON records the analysis cost.
//!
//! A fifth cell runs Ocean on SVM with the interval-metrics engine on:
//! the `RunStats` with the report stripped must be bit-identical to the
//! plain run (metrics never charge cycles), the default caps must not
//! drop, and the JSON records the host overhead next to the other
//! diagnostic layers'.
//!
//! A sixth cell runs Ocean on SVM with all three diagnostic layers on and
//! feeds them to the optimization advisor: the layers together must still
//! be invisible in the timed `RunStats`, every recommendation bound must
//! be `>= 1.0`, and the JSON records the pure post-hoc analysis cost plus
//! the per-family recommendation counts.
//!
//! Every main cell is additionally re-timed on the sharded generate/replay
//! engine (`with_shards(4)`, fused single-threaded event-loop replay). Its
//! `RunStats` are asserted bit-identical to the sequential bulk run right
//! here in the bench, and the JSON records per cell the sequential and
//! fused-sharded host seconds (`fused_speedup` is relative to sequential)
//! plus the host's CPU count. The speedup column only means anything
//! relative to `host_cpus`: generation runs on its own threads, so on a
//! single-CPU host the pipeline serializes and the column reads as pure
//! engine overhead, while multi-core hosts overlap generation with replay.
//!
//! A final section sweeps the descriptor batch size (`with_shard_batch`)
//! on one fused cell: the channel-granularity knob must be invisible in
//! the statistics and its host-time effect is recorded per size.
//!
//! ```text
//! cargo run -p bench --release --bin perfjson [-- --scale test|default|paper \
//!     --procs N --out PATH --profile-out PATH --trace-out PATH]
//! ```

use apps::{App, AppSpec, OptClass, Platform, Scale};
use sim_core::RunConfig;
use std::fmt::Write as _;
use std::time::Instant;

struct Cell {
    app: App,
    platform: Platform,
    host_s_scalar: f64,
    host_s_bulk: f64,
    host_s_fused: f64,
    sim_cycles: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut scale = Scale::Default;
    let mut nprocs = 8usize;
    let mut out_path = String::from("BENCH_simulator.json");
    let mut profile_path = String::from("BENCH_sharing_profile.json");
    let mut trace_path = String::from("BENCH_trace.json");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("test") => Scale::Test,
                    Some("default") => Scale::Default,
                    Some("paper") => Scale::Paper,
                    other => panic!("unknown scale {other:?} (test|default|paper)"),
                };
            }
            "--procs" => {
                i += 1;
                nprocs = args[i].parse().expect("--procs N");
            }
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            "--profile-out" => {
                i += 1;
                profile_path = args[i].clone();
            }
            "--trace-out" => {
                i += 1;
                trace_path = args[i].clone();
            }
            other => panic!("unknown argument {other}"),
        }
        i += 1;
    }
    let scale_name = match scale {
        Scale::Test => "test",
        Scale::Default => "default",
        Scale::Paper => "paper",
    };

    // The three apps the bulk fast path targets hardest, plus the
    // server-shaped KV workload (lock-heavy, bulk-light — the opposite
    // corner of the engine), on all three platforms of the study.
    let apps = [App::Lu, App::Ocean, App::Radix, App::Kv];
    let mut cells = Vec::new();
    for app in apps {
        for platform in Platform::ALL {
            let spec = AppSpec {
                app,
                class: OptClass::Algorithm,
            };
            eprintln!("[perfjson] {} on {}...", app.name(), platform.name());
            let t0 = Instant::now();
            let scalar = spec.run_cfg(
                platform,
                nprocs,
                scale,
                RunConfig::new(nprocs).scalar_reference(),
            );
            let host_s_scalar = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            let bulk = spec.run_cfg(platform, nprocs, scale, RunConfig::new(nprocs));
            let host_s_bulk = t1.elapsed().as_secs_f64();
            assert_eq!(
                scalar, bulk,
                "scalar and bulk RunStats diverge for {app:?} on {platform:?}"
            );
            let t2 = Instant::now();
            let fused = spec.run_cfg(
                platform,
                nprocs,
                scale,
                RunConfig::new(nprocs).with_shards(4),
            );
            let host_s_fused = t2.elapsed().as_secs_f64();
            assert_eq!(
                bulk, fused,
                "fused sharded and sequential RunStats diverge for {app:?} on {platform:?}"
            );
            cells.push(Cell {
                app,
                platform,
                host_s_scalar,
                host_s_bulk,
                host_s_fused,
                sim_cycles: bulk.total_cycles(),
            });
        }
    }

    // One profiler-on cell: the sharing profiler must be invisible in the
    // statistics (only the `sharing` field may differ) and cheap on the
    // host. The profile itself is written out for CI to archive.
    let prof_spec = AppSpec {
        app: App::Ocean,
        class: OptClass::Algorithm,
    };
    eprintln!("[perfjson] Ocean on SVM with sharing profiler...");
    let t2 = Instant::now();
    let plain = prof_spec.run_cfg(Platform::Svm, nprocs, scale, RunConfig::new(nprocs));
    let host_s_plain = t2.elapsed().as_secs_f64();
    let t3 = Instant::now();
    let profiled = prof_spec.run_cfg(
        Platform::Svm,
        nprocs,
        scale,
        RunConfig::new(nprocs).with_sharing_profile(),
    );
    let host_s_profiled = t3.elapsed().as_secs_f64();
    let profile = profiled.sharing.clone().expect("SVM produces a profile");
    let mut stripped = profiled;
    stripped.sharing = None;
    assert_eq!(
        stripped, plain,
        "sharing profiler perturbed RunStats for Ocean on SVM"
    );
    std::fs::write(&profile_path, profile.to_json()).expect("write sharing profile json");
    eprintln!("[perfjson] wrote {profile_path}");

    // Detector-on cell: the batched shadow-memory checks in the bulk fast
    // path must match the per-word reference exactly — same RunStats, zero
    // races on a race-free app — and the JSON records what batching buys.
    eprintln!("[perfjson] Ocean on SVM with race detector (scalar vs bulk)...");
    let t4 = Instant::now();
    let det_scalar = prof_spec.run_cfg(
        Platform::Svm,
        nprocs,
        scale,
        RunConfig::new(nprocs)
            .scalar_reference()
            .with_race_detection(),
    );
    let host_s_det_scalar = t4.elapsed().as_secs_f64();
    let t5 = Instant::now();
    let det_bulk = prof_spec.run_cfg(
        Platform::Svm,
        nprocs,
        scale,
        RunConfig::new(nprocs).with_race_detection(),
    );
    let host_s_det_bulk = t5.elapsed().as_secs_f64();
    assert_eq!(
        det_scalar, det_bulk,
        "detector-on scalar and bulk RunStats diverge for Ocean on SVM"
    );
    assert_eq!(det_bulk.races(), 0, "Ocean must be race-free");

    // Traced cell: event tracing must be invisible in the statistics (only
    // the `trace` field may differ), the default buffer cap must hold the
    // whole run, and the Perfetto export is archived by CI.
    eprintln!("[perfjson] Ocean on SVM with event tracer...");
    let t6 = Instant::now();
    let mut traced = prof_spec.run_cfg(
        Platform::Svm,
        nprocs,
        scale,
        RunConfig::new(nprocs).with_trace(),
    );
    let host_s_traced = t6.elapsed().as_secs_f64();
    let tr = traced.trace.take().expect("tracing was requested");
    assert_eq!(
        traced, plain,
        "event tracer perturbed RunStats for Ocean on SVM"
    );
    assert_eq!(tr.dropped_events(), 0, "default trace cap overflowed");
    std::fs::write(&trace_path, tr.to_chrome_json()).expect("write trace json");
    eprintln!(
        "[perfjson] wrote {trace_path} ({} events)",
        tr.total_events()
    );

    // Critical-path cell: the analyzer is pure post-hoc work on the trace —
    // the timed RunStats were already asserted bit-identical above — so
    // this only measures host-side analysis cost and checks the defining
    // invariant (reconstructed path length == end-to-end virtual time).
    eprintln!("[perfjson] critical-path analysis of the traced cell...");
    let t7 = Instant::now();
    let cp = sim_core::critpath::analyze(&tr);
    let host_s_critpath = t7.elapsed().as_secs_f64();
    assert_eq!(
        cp.total,
        tr.end(),
        "critical-path length != end-to-end time for Ocean on SVM"
    );
    assert_eq!(cp.baseline, tr.end(), "what-if baseline != end-to-end time");
    assert_eq!(cp.edges_dropped, 0, "default edge cap overflowed");

    // Metrics-on cell: the interval-metrics engine must be invisible in
    // the statistics (only the `metrics` field may differ) and cheap on
    // the host; the JSON records its overhead next to the other layers'.
    eprintln!("[perfjson] Ocean on SVM with interval metrics...");
    let t8 = Instant::now();
    let mut metered = prof_spec.run_cfg(
        Platform::Svm,
        nprocs,
        scale,
        RunConfig::new(nprocs).with_metrics(sim_core::metrics::DEFAULT_INTERVAL),
    );
    let host_s_metrics = t8.elapsed().as_secs_f64();
    let metrics = metered.metrics.take().expect("metrics were requested");
    assert_eq!(
        metered, plain,
        "interval metrics perturbed RunStats for Ocean on SVM"
    );
    assert_eq!(
        metrics.total_dropped(),
        0,
        "default metrics caps overflowed"
    );

    // Advisor cell: all three diagnostic layers on at once, fused into
    // ranked recommendations. The layers together must still be invisible
    // in the timed statistics, and the advisor itself is pure post-hoc
    // host work; the JSON records its analysis cost and what it found.
    eprintln!("[perfjson] Ocean on SVM with the optimization advisor...");
    let t9 = Instant::now();
    let mut advised = prof_spec.run_cfg(
        Platform::Svm,
        nprocs,
        scale,
        RunConfig::new(nprocs)
            .with_sharing_profile()
            .with_trace()
            .with_metrics(sim_core::metrics::DEFAULT_INTERVAL),
    );
    let host_s_advised = t9.elapsed().as_secs_f64();
    let t10 = Instant::now();
    let rep = sim_core::advise(&advised);
    let host_s_advisor = t10.elapsed().as_secs_f64();
    advised.sharing = None;
    advised.trace = None;
    advised.metrics = None;
    assert_eq!(
        advised, plain,
        "diagnostic layers perturbed RunStats for Ocean on SVM"
    );
    for r in &rep.recs {
        assert!(r.speedup >= 1.0, "advisor bound < 1.0 for {:?}", r.action);
    }
    let rec_count = |fam| rep.recs.iter().filter(|r| r.family == fam).count();

    // Batch sweep: the descriptor batch size is a channel-granularity knob
    // on the generate side — it must be invisible in the statistics, and
    // the sweep records what it costs (or buys) in host time on one fused
    // cell. Sizes bracket the default (512) by 8x in both directions.
    let batch_sizes: [usize; 3] = [64, 512, 4096];
    let mut batch_cells = Vec::new();
    for &b in &batch_sizes {
        eprintln!("[perfjson] Ocean on SVM fused sharded, batch {b}...");
        let tb = Instant::now();
        let got = prof_spec.run_cfg(
            Platform::Svm,
            nprocs,
            scale,
            RunConfig::new(nprocs).with_shards(4).with_shard_batch(b),
        );
        let host_s = tb.elapsed().as_secs_f64();
        assert_eq!(got, plain, "shard batch size {b} perturbed RunStats");
        batch_cells.push((b, host_s));
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"benchmark\": \"simulator-throughput\",");
    let _ = writeln!(json, "  \"scale\": \"{scale_name}\",");
    let _ = writeln!(json, "  \"nprocs\": {nprocs},");
    let _ = writeln!(
        json,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    let _ = writeln!(
        json,
        "  \"profiled_cell\": {{\"app\": \"Ocean\", \"platform\": \"SVM\", \
         \"host_s_plain\": {:.4}, \"host_s_profiled\": {:.4}, \
         \"profiler_overhead\": {:.2}}},",
        host_s_plain,
        host_s_profiled,
        host_s_profiled / host_s_plain.max(1e-12)
    );
    let _ = writeln!(
        json,
        "  \"detector_cell\": {{\"app\": \"Ocean\", \"platform\": \"SVM\", \
         \"host_s_scalar\": {:.4}, \"host_s_bulk\": {:.4}, \
         \"bulk_speedup\": {:.2}, \"races\": {}}},",
        host_s_det_scalar,
        host_s_det_bulk,
        host_s_det_scalar / host_s_det_bulk.max(1e-12),
        det_bulk.races()
    );
    let _ = writeln!(
        json,
        "  \"traced_cell\": {{\"app\": \"Ocean\", \"platform\": \"SVM\", \
         \"host_s_plain\": {:.4}, \"host_s_traced\": {:.4}, \
         \"tracer_overhead\": {:.2}, \"events\": {}, \"dropped\": {}}},",
        host_s_plain,
        host_s_traced,
        host_s_traced / host_s_plain.max(1e-12),
        tr.total_events(),
        tr.dropped_events()
    );
    let _ = writeln!(
        json,
        "  \"metrics_cell\": {{\"app\": \"Ocean\", \"platform\": \"SVM\", \
         \"host_s_plain\": {:.4}, \"host_s_metrics\": {:.4}, \
         \"metrics_overhead\": {:.2}, \"intervals\": {}, \"pages\": {}, \
         \"dropped\": {}}},",
        host_s_plain,
        host_s_metrics,
        host_s_metrics / host_s_plain.max(1e-12),
        metrics.max_interval() + 1,
        metrics.pages.len(),
        metrics.total_dropped()
    );
    let _ = writeln!(
        json,
        "  \"advisor_cell\": {{\"app\": \"Ocean\", \"platform\": \"SVM\", \
         \"host_s_plain\": {:.4}, \"host_s_layered\": {:.4}, \
         \"layered_overhead\": {:.2}, \"advise_host_s\": {:.4}, \
         \"recommendations\": {}, \"by_family\": {{\"P/A\": {}, \"DS\": {}, \
         \"Alg\": {}}}}},",
        host_s_plain,
        host_s_advised,
        host_s_advised / host_s_plain.max(1e-12),
        host_s_advisor,
        rep.recs.len(),
        rec_count(sim_core::Family::PadAlign),
        rec_count(sim_core::Family::DataStruct),
        rec_count(sim_core::Family::Algorithm)
    );
    let _ = writeln!(
        json,
        "  \"critpath_cell\": {{\"app\": \"Ocean\", \"platform\": \"SVM\", \
         \"analysis_host_s\": {:.4}, \"path_cycles\": {}, \"edges\": {}, \
         \"edges_dropped\": {}, \"invariant_ok\": {}}},",
        host_s_critpath,
        cp.total,
        cp.edges,
        cp.edges_dropped,
        cp.total == tr.end() && cp.baseline == tr.end()
    );
    json.push_str("  \"batch_sweep\": {\"app\": \"Ocean\", \"platform\": \"SVM\", \"cells\": [");
    for (i, (b, s)) in batch_cells.iter().enumerate() {
        let _ = write!(json, "{{\"batch\": {b}, \"host_s\": {s:.4}}}");
        if i + 1 < batch_cells.len() {
            json.push_str(", ");
        }
    }
    json.push_str("]},\n");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let speedup = c.host_s_scalar / c.host_s_bulk.max(1e-12);
        let fused_speedup = c.host_s_bulk / c.host_s_fused.max(1e-12);
        let cps = c.sim_cycles as f64 / c.host_s_bulk.max(1e-12);
        let _ = write!(
            json,
            "    {{\"app\": \"{}\", \"platform\": \"{}\", \
             \"host_s_scalar\": {:.4}, \"host_s_bulk\": {:.4}, \
             \"bulk_speedup\": {:.2}, \"host_s_fused\": {:.4}, \
             \"fused_speedup\": {:.2}, \"sim_cycles\": {}, \
             \"sim_cycles_per_host_s\": {:.0}}}",
            c.app.name(),
            c.platform.name(),
            c.host_s_scalar,
            c.host_s_bulk,
            speedup,
            c.host_s_fused,
            fused_speedup,
            c.sim_cycles,
            cps
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("{json}");
    eprintln!("[perfjson] wrote {out_path}");
}
