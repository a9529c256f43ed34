//! Benchmark driver: runs one workload and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ocean-journey|kv-fused|svm-diagnose --seed N --seconds S --trace 0|1
//! ```
//!
//! Standard output ends with one JSON line `{"correct", "attempted",
//! "failed", "metrics"}`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it is the run's
//! manifest. Both are also written to `.bench_results/` under the working
//! directory, and a traced run writes its host-time spans there as Chrome
//! `trace_event` JSON (open it in Perfetto).

use apps::Scale;
use perfbench::spans::escape;
use perfbench::{host, measure, measure_traced, Report, Setup, Workload, HELD_OUT_SEED};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <ocean-journey|kv-fused|svm-diagnose> \
                     --seed <u64> --seconds <1..=3600> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=3600).contains(&s) {
                    return Err(format!("--seconds {s} is out of range 1..=3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0|1)")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn manifest(args: &Args, setup: &Setup) -> String {
    let bench = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = bench
        .parent()
        .expect("the benchmark sits inside the repository");
    let (cpus, model) = host::cpu_info();
    let mode = args.workload.mode();
    let commit = host::git_commit(root)
        .map_or_else(|| "null".to_string(), |c| format!("\"{}\"", escape(&c)));
    let mut j = String::from("{");
    let _ = write!(
        j,
        "\"workload\": \"{}\", \"trace\": {}, \"seconds\": {}, \
         \"host_cpus\": {cpus}, \"cpu_model\": \"{}\", \"nproc\": {}, \
         \"gate\": {}, \"scale\": \"{:?}\", \"nprocs\": {}, \
         \"engine\": \"{}\", \"bulk\": {}, \"diagnostics\": {}, \
         \"kv_seed\": {}, \"kv_seed_used\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"git_commit\": {commit}, \"source_digest\": \"{}\"",
        args.workload.name(),
        args.trace as u8,
        args.seconds,
        escape(&model),
        host::nproc(),
        setup.gate,
        setup.scale,
        setup.nprocs,
        mode.engine.name(),
        mode.bulk,
        mode.diag,
        args.seed,
        args.workload.uses_seed(),
        host::source_digest(root, bench),
    );
    j.push('}');
    j
}

/// The result line. Non-finite values cannot be written as JSON numbers;
/// they are reported as failures instead.
fn result_line(r: &Report) -> String {
    let mut bad = 0u64;
    let mut m = String::new();
    for (i, x) in r.metrics.iter().enumerate() {
        let v = if x.value.is_finite() {
            x.value
        } else {
            bad += 1;
            eprintln!("[perfbench] metric {} is not finite ({})", x.name, x.value);
            0.0
        };
        let _ = write!(
            m,
            "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            x.name,
            x.unit
        );
    }
    let failed = r.ledger.failed + bad;
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{m}}}}}",
        failed == 0,
        r.ledger.attempted + bad
    )
}

fn fmt_list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.4}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let setup = Setup::new(Scale::Default, args.seed);
    let manifest = manifest(&args, &setup);
    eprintln!("[perfbench] {manifest}");
    let budget = Duration::from_secs(args.seconds);
    let report = if args.trace {
        measure_traced(&setup, args.workload, budget)
    } else {
        measure(&setup, args.workload, budget)
    };
    for p in &report.ledger.problems {
        eprintln!("[perfbench] FAILED {p}");
    }
    let samples = format!(
        "{{\"pass_wall_s\": [{}], \"setup_s\": [{}], \"pass_peak_rss_mib\": [{}]}}",
        fmt_list(&report.pass_walls),
        fmt_list(&report.setup_walls),
        fmt_list(&report.pass_peaks)
    );
    let result = result_line(&report);

    let out = Path::new(".bench_results");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    let record =
        format!("{{\"manifest\": {manifest},\n \"samples\": {samples},\n \"result\": {result}}}\n");
    let written = std::fs::create_dir_all(out)
        .and_then(|()| std::fs::write(out.join(format!("{stem}.json")), record))
        .and_then(|()| {
            if args.trace {
                let spans = report.spans.to_chrome_json(&manifest);
                std::fs::write(out.join(format!("{stem}.perfetto.json")), spans)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", out.display());
        std::process::exit(1);
    }

    println!("{{\"manifest\": {manifest}, \"samples\": {samples}}}");
    println!("{result}");
}
