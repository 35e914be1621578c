//! The benchmark's counts are a function of the seed alone: the same
//! seed twice yields identical counts, another seed another stream.
//! Runs `fleet`, the workload whose replays, forgeries and Zipf bursts
//! make every count non-trivial, over the same segment and recording
//! the benchmark reports, with no extra measuring time.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::fs;
use std::path::PathBuf;

use perfbench::e2e::{self, SEGMENT};
use perfbench::gen::{workload, RX_RESET_EVERY};
use perfbench::ladder;
use perfbench::report::Metric;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("create test directory");
    dir
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

#[test]
fn same_seed_repeats_every_count_and_another_seed_changes_the_stream() {
    let w = workload("fleet").expect("fleet is a workload");
    let dir = scratch("determinism");
    let e2e = |seed| e2e::run(w, seed, 0.0, &dir).expect("oracle holds");
    let (a, b) = (e2e(7), e2e(7));
    assert_eq!(a.segment, b.segment);
    assert_eq!(a.segment.rx_resets, (SEGMENT - 1) / RX_RESET_EVERY);
    assert!(a.segment.lost > 0);
    assert_eq!(a.segment.failed, 0);
    let lost = |o: &e2e::Outcome| value(&o.metrics, "lost_frames_per_reset");
    assert_eq!(lost(&a), lost(&b));

    let trace = |seed| ladder::run(w, seed, 0.0, &dir).expect("oracle holds");
    let (ta, tb) = (trace(7), trace(7));
    for name in [
        "gateway.events_per_frame",
        "esp.saves_per_1k_frames",
        "stable.bytes_per_1k_frames",
        "crypto.frames_per_group",
        "stable.appends_per_1k_frames",
    ] {
        assert_eq!(value(&ta.metrics, name), value(&tb.metrics, name), "{name}");
        assert!(value(&ta.metrics, name) > 0.0, "{name}");
    }

    let stream = |seed| {
        let rec = ladder::record(w, seed, &dir).expect("oracle holds");
        rec.batches
            .into_iter()
            .flat_map(|b| b.wires)
            .collect::<Vec<_>>()
    };
    let seven = stream(7);
    assert_eq!(seven, stream(7));
    assert_ne!(seven, stream(8));
    let _ = fs::remove_dir_all(&dir);
}
