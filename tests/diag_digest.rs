//! Diagnostics output pinned against recorded digests.
//!
//! The other diagnostics suites compare engines with each other and sinks
//! on with sinks off; none of them notices a change that moves every
//! engine's output the same way. This one runs Ocean and KV (`Orig`,
//! test scale, 4 processors) on all four platforms with the trace, the
//! interval metrics and the sharing profile all on, and compares an FNV-1a
//! digest of each exported document with a value recorded from a known
//! good build. Any change to what the diagnostics layers record — which
//! events, in what order, at what virtual times — fails here.
//!
//! When a change to the diagnostics is intended, rerun with
//! `cargo test --release --test diag_digest -- --nocapture` and copy the
//! printed table over `EXPECTED`.

use apps::{App, AppSpec, OptClass};
use sim_core::{metrics, RunConfig};
use svm_restructure::prelude::*;

/// FNV-1a, 64-bit: stable across Rust releases, unlike `DefaultHasher`.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(app, platform, trace json, metrics json, sharing json)` digests.
type Row = (&'static str, &'static str, u64, u64, u64);

#[rustfmt::skip]
const EXPECTED: [Row; 8] = [
    ("Ocean", "SVM", 0x36315de78ba3566b, 0x32a66e8e4a3607b8, 0xcf5cf9ce8149330b),
    ("Ocean", "TMK", 0x3857688e34f43c55, 0x06ed8a22b53e80fe, 0xfa769d7ff5f726c0),
    ("Ocean", "DSM", 0x753ec8a9c83ac997, 0x1ed0b520cad50969, 0xf8e5ed75f9a13475),
    ("Ocean", "SMP", 0x6b00745e6affcec3, 0xee554e8b98573196, 0xf8e5ed75f9a13475),
    ("KV", "SVM", 0x1fc18e592d616c83, 0x070df60846e78dc1, 0xefdfec192c4c03e9),
    ("KV", "TMK", 0x9128ef372e226624, 0x0d96fc6dbd6d82ef, 0x4a4df4ce185dfcf3),
    ("KV", "DSM", 0xab31e4c7b48181d4, 0x5a8763e171686633, 0xf8e5ed75f9a13475),
    ("KV", "SMP", 0xf56e9657251368c0, 0x5d8f075c5ad4b52d, 0xf8e5ed75f9a13475),
];

fn digests(app: App, pf: PlatformKind) -> (u64, u64, u64) {
    let cfg = RunConfig::new(4)
        .with_trace()
        .with_metrics(metrics::DEFAULT_INTERVAL)
        .with_sharing_profile();
    let stats = AppSpec {
        app,
        class: OptClass::Orig,
    }
    .run_cfg(pf, 4, Scale::Test, cfg);
    let m = stats.metrics.as_ref().expect("metrics were requested");
    let tr = stats.trace.as_ref().expect("trace was requested");
    let sh = stats
        .sharing
        .as_ref()
        .expect("sharing profile was requested");
    (
        fnv1a(&tr.to_chrome_json_with(Some(m))),
        fnv1a(&m.to_json()),
        fnv1a(&sh.to_json()),
    )
}

#[test]
fn diagnostics_exports_match_recorded_digests() {
    let cells = [App::Ocean, App::Kv].into_iter().flat_map(|app| {
        [
            PlatformKind::Svm,
            PlatformKind::Tmk,
            PlatformKind::Dsm,
            PlatformKind::Smp,
        ]
        .map(|pf| (app, pf))
    });
    let got: Vec<Row> = cells
        .map(|(app, pf)| {
            let (t, m, s) = digests(app, pf);
            (app.name(), pf.name(), t, m, s)
        })
        .collect();
    for (app, pf, t, m, s) in &got {
        println!("    ({app:?}, {pf:?}, {t:#018x}, {m:#018x}, {s:#018x}),");
    }
    assert_eq!(got, EXPECTED, "diagnostics output changed");
}
