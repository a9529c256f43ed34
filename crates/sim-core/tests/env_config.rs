//! Environment wiring of `RunConfig::new`: unset variables fall back to
//! defaults, well-formed values take effect, malformed values fail fast
//! with an error naming the variable (the bugfix — they used to be
//! silently swallowed, so a typoed `SIM_SHARDS` could run a different
//! engine than CI believed it was exercising).
//!
//! Mutating the process environment races with any concurrently running
//! test, so every test here takes one global mutex and restores the prior
//! values before releasing it (the CI sharded leg exports `SIM_SHARDS=4`
//! for the whole suite — clobbering it would corrupt unrelated tests).

use sim_core::{RunConfig, MAX_SHARD_BATCH};
use std::sync::Mutex;

static ENV_LOCK: Mutex<()> = Mutex::new(());

const VARS: [&str; 5] = [
    "SIM_SHARDS",
    "SIM_SHARD_BATCH",
    "SIM_SHARING",
    "SIM_TRACE",
    "SIM_METRICS",
];

/// Run `f` with the `SIM_*` variables set exactly to `vars`
/// (everything else unset), restoring the previous environment after.
fn with_env<R>(vars: &[(&str, &str)], f: impl FnOnce() -> R + std::panic::UnwindSafe) -> R {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved: Vec<(&str, Option<String>)> =
        VARS.iter().map(|&v| (v, std::env::var(v).ok())).collect();
    for &v in &VARS {
        std::env::remove_var(v);
    }
    for &(k, val) in vars {
        std::env::set_var(k, val);
    }
    let out = std::panic::catch_unwind(f);
    for (v, old) in saved {
        match old {
            Some(val) => std::env::set_var(v, val),
            None => std::env::remove_var(v),
        }
    }
    match out {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(f).expect_err("expected a panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn unset_variables_use_defaults() {
    with_env(&[], || {
        let cfg = RunConfig::new(4);
        assert_eq!(cfg.shards, 1);
        assert!((1..=MAX_SHARD_BATCH).contains(&cfg.shard_batch));
        assert!(!cfg.sharing_profile);
        assert!(!cfg.trace);
        assert_eq!(cfg.metrics, 0);
    });
}

#[test]
fn well_formed_values_take_effect() {
    with_env(&[("SIM_SHARDS", "4"), ("SIM_SHARD_BATCH", "128")], || {
        let cfg = RunConfig::new(4);
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.shard_batch, 128);
    });
}

#[test]
fn diagnostics_variables_take_effect() {
    with_env(
        &[
            ("SIM_SHARING", "1"),
            ("SIM_TRACE", "1"),
            ("SIM_METRICS", "65536"),
        ],
        || {
            let cfg = RunConfig::new(4);
            assert!(cfg.sharing_profile);
            assert!(cfg.trace);
            assert_eq!(cfg.metrics, 65536);
        },
    );
}

#[test]
fn diagnostics_variables_turn_on_the_layers() {
    // End-to-end: a run launched with the env set actually attaches the
    // reports, so diagnostics can be flipped on without touching code.
    with_env(
        &[
            ("SIM_SHARING", "1"),
            ("SIM_TRACE", "1"),
            ("SIM_METRICS", "65536"),
        ],
        || {
            let cfg = RunConfig::new(2);
            let platform = Box::new(sim_core::NullPlatform::new(2));
            let stats = sim_core::run(platform, cfg, |p| {
                p.start_timing();
                p.work(100);
                p.barrier(0);
                p.stop_timing();
            });
            assert!(stats.sharing.is_some(), "SIM_SHARING=1 attaches sharing");
            assert!(stats.trace.is_some(), "SIM_TRACE=1 attaches the trace");
            let m = stats
                .metrics
                .as_ref()
                .expect("SIM_METRICS attaches metrics");
            assert_eq!(m.interval, 65536);
        },
    );
}

#[test]
fn malformed_shards_panics_naming_variable_and_value() {
    for bad in ["", "four", "0", "-1", "1e3", "999999999999"] {
        let msg = with_env(&[("SIM_SHARDS", bad)], || {
            panic_message(|| {
                let _ = RunConfig::new(4);
            })
        });
        assert!(
            msg.contains("SIM_SHARDS") && msg.contains(bad),
            "SIM_SHARDS={bad:?}: unhelpful panic message {msg:?}"
        );
    }
}

#[test]
fn malformed_batch_panics_naming_variable_and_value() {
    for bad in ["", "lots", "0", "1048577"] {
        let msg = with_env(&[("SIM_SHARD_BATCH", bad)], || {
            panic_message(|| {
                let _ = RunConfig::new(4);
            })
        });
        assert!(
            msg.contains("SIM_SHARD_BATCH") && msg.contains(bad),
            "SIM_SHARD_BATCH={bad:?}: unhelpful panic message {msg:?}"
        );
    }
}

#[test]
fn malformed_diagnostics_panics_naming_variable_and_value() {
    for (var, bad) in [
        ("SIM_SHARING", "2"),
        ("SIM_SHARING", "shared"),
        ("SIM_TRACE", ""),
        ("SIM_TRACE", "yes please"),
        ("SIM_METRICS", "often"),
        ("SIM_METRICS", "-1"),
        ("SIM_METRICS", "1e6"),
    ] {
        let msg = with_env(&[(var, bad)], || {
            panic_message(|| {
                let _ = RunConfig::new(4);
            })
        });
        assert!(
            msg.contains(var) && msg.contains(bad),
            "{var}={bad:?}: unhelpful panic message {msg:?}"
        );
    }
}

#[test]
fn boolean_spellings_are_case_insensitive() {
    for (raw, want) in [
        ("1", true),
        ("true", true),
        ("ON", true),
        ("Yes", true),
        ("0", false),
        ("FALSE", false),
        ("off", false),
        ("no", false),
    ] {
        with_env(&[("SIM_SHARING", raw), ("SIM_TRACE", raw)], || {
            let cfg = RunConfig::new(4);
            assert_eq!(cfg.sharing_profile, want, "SIM_SHARING = {raw:?}");
            assert_eq!(cfg.trace, want, "SIM_TRACE = {raw:?}");
        });
    }
}
