//! The benchmark's own smoke test, at `Scale::Test`: every workload emits
//! exactly the metrics `BENCHMARK.json` names, with their units, and a
//! failing cell is counted, not dropped.

use apps::Scale;
use perfbench::{measure, measure_traced, Report, Setup, Workload};
use std::time::Duration;

/// `(name, unit)` of every entry listed in one section of `BENCHMARK.json`
/// (one object per line; the unit is empty for workloads).
fn contract(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit").unwrap_or_default())))
        .collect()
}

fn emitted(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn tiny() -> Duration {
    Duration::from_millis(1)
}

#[test]
fn workload_names_match_the_contract() {
    let names: Vec<String> = contract("workloads").into_iter().map(|p| p.0).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let want = contract("end_to_end");
    assert_eq!(want.len(), 7);
    for w in Workload::ALL {
        let r = measure(&Setup::new(Scale::Test, 3), w, tiny());
        assert_eq!(emitted(&r), want, "{}", w.name());
        assert_eq!(r.ledger.failed, 0, "{}: {:?}", w.name(), r.ledger.problems);
        assert!(r
            .metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value > 0.0));
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    let want = contract("per_layer");
    for w in Workload::ALL {
        let r = measure_traced(&Setup::new(Scale::Test, 3), w, tiny());
        assert_eq!(emitted(&r), want, "{}", w.name());
        assert_eq!(r.ledger.failed, 0, "{}: {:?}", w.name(), r.ledger.problems);
        assert!(r.metrics.iter().all(|m| m.value.is_finite()));
        assert!(!r.spans.spans().is_empty());
        if w == Workload::SvmDiagnose {
            assert!(r.get("trace.events").unwrap() > 0.0);
            assert!(r.get("export.bytes").unwrap() > 0.0);
        }
    }
}

/// KV traffic whose bucket count (17) is not a multiple of the processor
/// count (16): every KV cell panics in `run_params_cfg`, Ocean cells pass.
fn broken_kv() -> Setup {
    let mut s = Setup::new(Scale::Test, 3);
    s.kv.keys = 16 * 17;
    s
}

#[test]
fn a_failing_cell_is_counted_not_dropped() {
    let r = measure(&broken_kv(), Workload::SvmDiagnose, tiny());
    // Two of the four cells are KV, in every timed pass.
    assert!(r.ledger.failed >= 2 * r.pass_walls.len() as u64);
    assert!(r.ledger.attempted > r.ledger.failed);
    assert!(r.ledger.problems.iter().all(|p| p.contains("KV/")));
    let pass = r.get("pass_ratio").unwrap();
    assert!(pass < 1.0 && pass > 0.0, "pass_ratio {pass}");
    assert_eq!(emitted(&r), contract("end_to_end"));

    let t = measure_traced(&broken_kv(), Workload::KvFused, tiny());
    assert_eq!(t.ledger.failed, t.ledger.attempted);
    assert_eq!(emitted(&t), contract("per_layer"));
}
