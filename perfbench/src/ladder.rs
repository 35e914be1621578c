//! The traced run: the layer ladder.
//!
//! One closed-loop segment is recorded (its batches, their labels and
//! the reset schedule), then replayed through every rung on fresh state
//! built the same way. Each rung calls one layer's public verbs,
//! including its reset/recover verbs, and records one span around every
//! call. A rung's self time is its cost minus the rung below it:
//!
//! * `esp` minus `crypto` (verify + decrypt) + `wire` + `window`;
//! * `sadb` minus `esp`;
//! * `gateway` minus `sadb`.
//!
//! Self times come from rung totals divided by frames offered.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use anti_replay::{AntiReplayWindow, SeqNum};
use bytes::Bytes;
use reset_crypto::FrameToVerify;
use reset_ipsec::{Inbound, Outbound, Sadb, SecurityAssociation};
use reset_stable::{SlotId, StableStore, WalStable};
use reset_telemetry::Telemetry;
use reset_wire::{check_frame_length, frame_overhead, peek_spi, seal_frame, HEADER_LEN};

use crate::alloc;
use crate::gen::{spi_of, Workload, WINDOW};
use crate::oracle::{Counts, Expect};
use crate::report::{median, ratio, Metric};
use crate::rig::{build_receiver, fresh_wal, role_sas, ClosedLoop, Failure, Rig};

/// Repetitions of the whole ladder a traced run makes at most.
const MAX_REPS: usize = 50;
/// WAL operations the `stable` rung times per repetition.
const STABLE_OPS: usize = 8192;

/// One span: a timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    /// 0 for a rung's root span.
    pub parent: u32,
    pub name: &'static str,
    /// `u32::MAX` when the span covers no single batch.
    pub batch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Keeps spans in memory; written out when the run ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// An untraced tracer only measures durations.
    enabled: bool,
}

const NO_BATCH: u32 = u32::MAX;

impl Tracer {
    fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            enabled: true,
        }
    }

    fn untraced(epoch: Instant) -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(epoch)
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a rung's root span; close it with [`Tracer::close`].
    fn open(&mut self, name: &'static str) -> (u32, Instant) {
        let start = Instant::now();
        if !self.enabled {
            return (0, start);
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent: 0,
            name,
            batch: NO_BATCH,
            start_ns: self.ns(start),
            end_ns: 0,
        });
        (id, start)
    }

    fn close(&mut self, (id, _): (u32, Instant)) {
        if self.enabled {
            let end = self.ns(Instant::now());
            self.spans[id as usize - 1].end_ns = end;
        }
    }

    /// Ends the span `name` begun at `start`; returns its duration.
    #[inline]
    fn span(&mut self, name: &'static str, batch: usize, parent: u32, start: Instant) -> u64 {
        let end = Instant::now();
        if self.enabled {
            self.spans.push(Span {
                id: self.spans.len() as u32 + 1,
                parent,
                name,
                batch: batch as u32,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
        end.duration_since(start).as_nanos() as u64
    }
}

/// One recorded batch, with the grouping every rung shares.
pub struct RecBatch {
    pub wires: Vec<Bytes>,
    expects: Vec<Expect>,
    rx_reset: bool,
    tx_reset: bool,
    /// Runs of consecutive frames of one SA: `(start, end, sa index)`.
    groups: Vec<(usize, usize, usize)>,
    /// Distinct SA indices of the batch, first-seen order.
    touched: Vec<usize>,
    /// Distinct SA indices of the batch's fresh frames.
    touched_tx: Vec<usize>,
}

/// A recorded segment.
pub struct Recording {
    w: Workload,
    pool: Vec<u8>,
    pub batches: Vec<RecBatch>,
    counts: Counts,
}

impl Recording {
    fn frames(&self) -> f64 {
        self.counts.frames as f64
    }
}

fn sa_index(spi: u32) -> usize {
    spi.wrapping_sub(spi_of(0)) as usize
}

fn distinct(idxs: impl Iterator<Item = usize>, sas: usize) -> Vec<usize> {
    let mut seen = vec![false; sas];
    idxs.filter(|&i| !std::mem::replace(&mut seen[i], true))
        .collect()
}

/// Runs the closed loop for the workload's `ladder_batches`, keeping
/// every batch. Every verdict is checked as in the end-to-end run.
pub fn record(w: Workload, seed: u64, dir: &Path) -> Result<Recording, Failure> {
    let mut s = ClosedLoop::new(w, seed, Rig::open(&w, dir)?);
    let sas = w.sas as usize;
    let mut batches = Vec::with_capacity(w.ladder_batches as usize);
    for _ in 0..w.ladder_batches {
        let step = s.step()?;
        let mut groups = Vec::new();
        let mut i = 0;
        while i < step.wires.len() {
            let spi = peek_spi(&step.wires[i]).expect("generated frames carry an SPI");
            let mut j = i + 1;
            while j < step.wires.len() && peek_spi(&step.wires[j]) == Some(spi) {
                j += 1;
            }
            groups.push((i, j, sa_index(spi)));
            i = j;
        }
        let touched = distinct(groups.iter().map(|g| g.2), sas);
        let touched_tx = distinct(
            step.expects.iter().filter_map(|e| match e {
                Expect::Fresh { spi, .. } => Some(sa_index(*spi)),
                _ => None,
            }),
            sas,
        );
        batches.push(RecBatch {
            wires: step.wires,
            expects: step.expects,
            rx_reset: step.rx_reset,
            tx_reset: step.tx_reset,
            groups,
            touched,
            touched_tx,
        });
    }
    Ok(Recording {
        w,
        pool: s.pool.clone(),
        batches,
        counts: s.oracle.counts,
    })
}

fn seq_of(wire: &[u8]) -> u64 {
    u32::from_be_bytes(wire[4..8].try_into().expect("header checked")) as u64
}

fn check_delivered(rung: &str, got: u64, rec: &Recording) -> Result<(), Failure> {
    if got != rec.counts.delivered {
        return Err(Failure::Violation(format!(
            "rung {rung} delivered {got} frames, the recorded run delivered {}",
            rec.counts.delivered
        )));
    }
    Ok(())
}

/// Per-repetition totals, in nanoseconds or counts.
#[derive(Debug, Default, Clone)]
struct Rep {
    verify_ns: u64,
    verify_frames: u64,
    decrypt_ns: u64,
    decrypt_frames: u64,
    seal_ns: u64,
    seal_frames: u64,
    groups: u64,
    parse_ns: u64,
    window_ns: u64,
    window_frames: u64,
    esp_rx_ns: u64,
    esp_tx_ns: u64,
    esp_saves: u64,
    sadb_ns: u64,
    gw_ns: u64,
    gw_events: u64,
    gw_recover_ns: u64,
    gw_wal_appends: u64,
    gw_wal_bytes: u64,
    gw_compactions: u64,
    gw_untraced_ns: u64,
    gw_telemetry_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
    shard1_ns: u64,
    shard2_ns: u64,
    shard2_recover_ns: u64,
    store_ns: f64,
    load_ns: f64,
}

/// `crypto`: `verify_batch` per (SA, batch) group, then `decrypt_batch`
/// over the group's fresh frames; `seal_frame` per fresh frame.
fn rung_crypto(
    rec: &Recording,
    tx: &[SecurityAssociation],
    rx: &[SecurityAssociation],
    tr: &mut Tracer,
    rep: &mut Rep,
) -> Result<(), Failure> {
    let root = tr.open("crypto");
    let mut verdicts = Vec::new();
    let mut arena = Vec::new();
    let mut rejected = 0u64;
    for (b, batch) in rec.batches.iter().enumerate() {
        for &(s, e, idx) in &batch.groups {
            let sa = &rx[idx];
            let cipher = sa.cipher();
            let body = HEADER_LEN + cipher.iv_len();
            let frames: Vec<FrameToVerify<'_>> = batch.wires[s..e]
                .iter()
                .map(|w| {
                    let ct_end = w.len() - cipher.icv_len();
                    FrameToVerify {
                        seq: seq_of(w),
                        header: &w[..body],
                        ciphertext: &w[body..ct_end],
                        // Sequence numbers stay below 2^32 in every run.
                        esn_hi: sa.esn().then_some(0),
                        icv: &w[ct_end..],
                    }
                })
                .collect();
            verdicts.clear();
            let t = Instant::now();
            cipher.verify_batch(&frames, &mut verdicts);
            rep.verify_ns += tr.span("crypto.verify", b, root.0, t);
            rep.verify_frames += frames.len() as u64;
            rep.groups += 1;
            rejected += verdicts.iter().filter(|ok| !**ok).count() as u64;

            arena.clear();
            let mut jobs = Vec::new();
            for (k, (f, ok)) in frames.iter().zip(&verdicts).enumerate() {
                if *ok && matches!(batch.expects[s + k], Expect::Fresh { .. }) {
                    let start = arena.len();
                    arena.extend_from_slice(f.ciphertext);
                    jobs.push((f.seq, start..arena.len()));
                }
            }
            if !jobs.is_empty() {
                let t = Instant::now();
                cipher.decrypt_batch(&mut arena, &jobs);
                rep.decrypt_ns += tr.span("crypto.decrypt", b, root.0, t);
                rep.decrypt_frames += jobs.len() as u64;
            }
        }
        let t = Instant::now();
        let mut sealed = 0;
        for e in &batch.expects {
            if let Expect::Fresh { spi, seq, off, len } = *e {
                let sa = &tx[sa_index(spi)];
                let payload = &rec.pool[off as usize..off as usize + len as usize];
                let wire = seal_frame(spi, seq, payload, sa.cipher(), sa.esn())
                    .map_err(|e| Failure::Infra(e.to_string()))?;
                std::hint::black_box(wire);
                sealed += 1;
            }
        }
        rep.seal_ns += tr.span("crypto.seal", b, root.0, t);
        rep.seal_frames += sealed;
    }
    tr.close(root);
    let forged = rec
        .batches
        .iter()
        .flat_map(|b| &b.expects)
        .filter(|e| matches!(e, Expect::Forged { .. }))
        .count() as u64;
    if rejected != forged {
        return Err(Failure::Violation(format!(
            "verify_batch rejected {rejected} frames, {forged} were forged"
        )));
    }
    Ok(())
}

/// `wire`: `check_frame_length` + `peek_spi` over each batch.
fn rung_wire(rec: &Recording, rx: &[SecurityAssociation], tr: &mut Tracer, rep: &mut Rep) {
    let overhead = frame_overhead(rx[0].cipher());
    let root = tr.open("wire");
    for (b, batch) in rec.batches.iter().enumerate() {
        let t = Instant::now();
        for w in &batch.wires {
            let spi = peek_spi(w);
            let parts = check_frame_length(w, overhead);
            std::hint::black_box((spi, parts.is_ok()));
        }
        rep.parse_ns += tr.span("wire.parse", b, root.0, t);
    }
    tr.close(root);
}

/// `window`: `check_and_accept` over each batch's authentic sequence
/// numbers, one window per SA. A receiver reset restarts every window
/// at its right edge plus `2K` with every slot seen, as the wake-up
/// leap does.
fn rung_window(rec: &Recording, tr: &mut Tracer, rep: &mut Rep) {
    let w = rec.w;
    let mut windows: Vec<AntiReplayWindow> =
        (0..w.sas).map(|_| AntiReplayWindow::new(WINDOW)).collect();
    let root = tr.open("window");
    for (b, batch) in rec.batches.iter().enumerate() {
        if batch.rx_reset {
            for win in &mut windows {
                let edge = SeqNum::new(win.right_edge().value() + 2 * w.k);
                *win = AntiReplayWindow::with_right_edge(WINDOW, edge, true);
            }
        }
        let seqs: Vec<(usize, SeqNum)> = batch
            .wires
            .iter()
            .zip(&batch.expects)
            .filter(|(_, e)| !matches!(e, Expect::Forged { .. }))
            .map(|(wire, _)| {
                let spi = peek_spi(wire).expect("generated frames carry an SPI");
                (sa_index(spi), SeqNum::new(seq_of(wire)))
            })
            .collect();
        let t = Instant::now();
        for &(idx, seq) in &seqs {
            std::hint::black_box(windows[idx].check_and_accept(seq));
        }
        rep.window_ns += tr.span("window.check_and_accept", b, root.0, t);
        rep.window_frames += seqs.len() as u64;
    }
    tr.close(root);
}

fn wal_with_telemetry(dir: &Path, name: &str) -> Result<(WalStable, Telemetry), Failure> {
    let wal = fresh_wal(dir, name)?;
    let t = Telemetry::new();
    wal.attach_telemetry(&t);
    Ok((wal, t))
}

/// `esp`: `Inbound::process_batch` per (SA, batch) group and
/// `save_completed` on the SAs owing a save; `Inbound::reset` +
/// `wake_up` at receiver resets. `Outbound::protect` per fresh frame on
/// the sender side, with its own resets.
fn rung_esp(
    rec: &Recording,
    tx: &[SecurityAssociation],
    rx: &[SecurityAssociation],
    dir: &Path,
    tr: &mut Tracer,
    rep: &mut Rep,
) -> Result<(), Failure> {
    let w = rec.w;
    let (wal, telemetry) = wal_with_telemetry(dir, "esp-rx")?;
    let mut inbound: Vec<Inbound<WalStable>> = rx
        .iter()
        .map(|sa| Inbound::new(sa.clone(), wal.clone(), w.k, WINDOW))
        .collect();
    let root = tr.open("esp.rx");
    let mut delivered = 0u64;
    let mut wakeup_saves = 0u64;
    for (b, batch) in rec.batches.iter().enumerate() {
        if batch.rx_reset {
            let before = telemetry.snapshot().wal_appends;
            let t = Instant::now();
            for i in &mut inbound {
                i.reset();
                i.wake_up()?;
            }
            tr.span("esp.recover", b, root.0, t);
            wakeup_saves += telemetry.snapshot().wal_appends - before;
        }
        for &(s, e, idx) in &batch.groups {
            let t = Instant::now();
            let results = inbound[idx].process_batch(&batch.wires[s..e])?;
            rep.esp_rx_ns += tr.span("esp.process_batch", b, root.0, t);
            delivered += results.iter().filter(|r| r.is_delivered()).count() as u64;
        }
        let t = Instant::now();
        for &idx in &batch.touched {
            if inbound[idx].seq_state().pending_save().is_some() {
                inbound[idx].save_completed()?;
            }
        }
        rep.esp_rx_ns += tr.span("esp.save_completed", b, root.0, t);
    }
    tr.close(root);
    rep.esp_saves = telemetry.snapshot().wal_appends - wakeup_saves;
    check_delivered("esp", delivered, rec)?;

    let wal = fresh_wal(dir, "esp-tx")?;
    let mut outbound: Vec<Outbound<WalStable>> = tx
        .iter()
        .map(|sa| Outbound::new(sa.clone(), wal.clone(), w.k))
        .collect();
    let root = tr.open("esp.tx");
    for (b, batch) in rec.batches.iter().enumerate() {
        if batch.tx_reset {
            for o in &mut outbound {
                o.reset();
                o.wake_up()?;
            }
        }
        let t = Instant::now();
        for e in &batch.expects {
            if let Expect::Fresh { spi, off, len, .. } = *e {
                let payload = &rec.pool[off as usize..off as usize + len as usize];
                let wire = outbound[sa_index(spi)].protect(payload)?;
                std::hint::black_box(wire);
            }
        }
        for &idx in &batch.touched_tx {
            if outbound[idx].seq_state().pending_save().is_some() {
                outbound[idx].save_completed()?;
            }
        }
        rep.esp_tx_ns += tr.span("esp.protect", b, root.0, t);
    }
    tr.close(root);
    Ok(())
}

/// `sadb`: `Sadb::process_batch` per batch and `save_completed` on the
/// SAs owing a save; `reset_all` + `recover_all` at receiver resets.
/// Self-contained: nothing else calls `Sadb::process_batch`, and no
/// end-to-end metric depends on this rung.
fn rung_sadb(
    rec: &Recording,
    rx: &[SecurityAssociation],
    dir: &Path,
    tr: &mut Tracer,
    rep: &mut Rep,
) -> Result<(), Failure> {
    let w = rec.w;
    // Counted like the `esp` and `gateway` rungs' WALs, so self times
    // compare like with like.
    let (wal, _telemetry) = wal_with_telemetry(dir, "sadb")?;
    let mut sadb: Sadb<WalStable> = Sadb::new();
    for sa in rx {
        sadb.install_inbound(sa.clone(), wal.clone(), w.k, WINDOW);
    }
    let root = tr.open("sadb");
    let mut delivered = 0u64;
    for (b, batch) in rec.batches.iter().enumerate() {
        if batch.rx_reset {
            let t = Instant::now();
            sadb.reset_all();
            sadb.recover_all()?;
            tr.span("sadb.recover_all", b, root.0, t);
        }
        let t = Instant::now();
        let results = sadb.process_batch(&batch.wires)?;
        for &idx in &batch.touched {
            let inbound = sadb
                .inbound_mut(spi_of(idx as u32))
                .expect("every SA installed");
            if inbound.seq_state().pending_save().is_some() {
                inbound.save_completed()?;
            }
        }
        rep.sadb_ns += tr.span("sadb.process_batch", b, root.0, t);
        delivered += results.iter().filter(|r| r.is_delivered()).count() as u64;
    }
    tr.close(root);
    check_delivered("sadb", delivered, rec)
}

/// What a gateway-shaped rung measured.
#[derive(Default)]
struct DrainTotals {
    drain_ns: u64,
    recover_ns: u64,
    events: u64,
    wal_appends: u64,
    wal_bytes: u64,
    compactions: u64,
    allocs: u64,
    alloc_bytes: u64,
}

/// How the `gateway` rung is instrumented.
#[derive(Clone, Copy, PartialEq)]
enum GwMode {
    /// Spans, WAL counters.
    Traced,
    /// Spans, WAL counters, and a `Telemetry` on the gateway.
    Telemetry,
    /// Spans, WAL counters, and the allocation counter armed.
    Allocs,
    /// Durations only, as the end-to-end run times them.
    Untraced,
}

/// `gateway` / `shard`: the drain step (`push_wire_batch` +
/// `poll_events` + `save_completed`) per batch, `reset` + `recover` at
/// receiver resets. `shards == 0` is the plain `Gateway`.
fn drain_rung(
    rec: &Recording,
    dir: &Path,
    tr: &mut Tracer,
    name: &'static str,
    shards: usize,
    mode: GwMode,
) -> Result<DrainTotals, Failure> {
    let (drain_name, recover_name) = match name {
        "gateway" => ("gateway.drain", "gateway.recover"),
        _ => ("shard.drain", "shard.recover"),
    };
    let gw_telemetry = (mode == GwMode::Telemetry).then(Telemetry::new);
    let (mut rx, wals) = build_receiver(&rec.w, dir, name, shards, gw_telemetry.as_ref())?;
    let wal_telemetry = Telemetry::new();
    if mode != GwMode::Untraced {
        for wal in &wals {
            wal.attach_telemetry(&wal_telemetry);
        }
    }
    let mut tot = DrainTotals::default();
    let mut delivered = 0u64;
    let root = tr.open(name);
    for (b, batch) in rec.batches.iter().enumerate() {
        if batch.rx_reset {
            let t = Instant::now();
            rx.reset();
            rx.recover()?;
            tot.recover_ns += tr.span(recover_name, b, root.0, t);
            tot.events += rx.poll_events().len() as u64;
        }
        if mode == GwMode::Allocs {
            alloc::arm();
        }
        let t = Instant::now();
        rx.push_wire_batch(&batch.wires)?;
        let events = rx.poll_events();
        rx.save_completed()?;
        tot.drain_ns += tr.span(drain_name, b, root.0, t);
        if mode == GwMode::Allocs {
            let (n, bytes) = alloc::disarm();
            tot.allocs += n;
            tot.alloc_bytes += bytes;
        }
        tot.events += events.len() as u64;
        delivered += events
            .iter()
            .filter(|e| matches!(e, reset_ipsec::GatewayEvent::Delivered { .. }))
            .count() as u64;
    }
    tr.close(root);
    check_delivered(name, delivered, rec)?;
    let snap = wal_telemetry.snapshot();
    tot.wal_appends = snap.wal_appends;
    tot.wal_bytes = snap.wal_append_bytes;
    tot.compactions = wals.iter().map(|w| w.compactions()).sum();
    Ok(tot)
}

/// `stable`: `WalStable` store then load over the workload's slot count
/// (both directions of every SA), repeated to [`STABLE_OPS`] operations.
fn rung_stable(w: &Workload, dir: &Path, tr: &mut Tracer, rep: &mut Rep) -> Result<(), Failure> {
    let mut wal = fresh_wal(dir, "stable")?;
    let slots: Vec<SlotId> = (0..w.sas)
        .flat_map(|r| [SlotId::sender(spi_of(r)), SlotId::receiver(spi_of(r))])
        .collect();
    let rounds = STABLE_OPS.div_ceil(slots.len());
    let root = tr.open("stable");
    let (mut store_ns, mut load_ns) = (0u64, 0u64);
    for round in 0..rounds {
        let t = Instant::now();
        for &slot in &slots {
            wal.store(slot, round as u64 + 1)?;
        }
        store_ns += tr.span("stable.store", round, root.0, t);
        let t = Instant::now();
        for &slot in &slots {
            std::hint::black_box(wal.load(slot)?);
        }
        load_ns += tr.span("stable.load", round, root.0, t);
    }
    tr.close(root);
    let ops = (rounds * slots.len()) as f64;
    rep.store_ns = store_ns as f64 / ops;
    rep.load_ns = load_ns as f64 / ops;
    Ok(())
}

/// One pass of every rung over the recording.
fn one_rep(
    rec: &Recording,
    tx: &[SecurityAssociation],
    rx: &[SecurityAssociation],
    dir: &Path,
    tr: &mut Tracer,
    count_allocs: bool,
) -> Result<Rep, Failure> {
    let mut rep = Rep::default();
    rung_crypto(rec, tx, rx, tr, &mut rep)?;
    rung_wire(rec, rx, tr, &mut rep);
    rung_window(rec, tr, &mut rep);
    rung_esp(rec, tx, rx, dir, tr, &mut rep)?;
    rung_sadb(rec, rx, dir, tr, &mut rep)?;

    let gw = drain_rung(rec, dir, tr, "gateway", 0, GwMode::Traced)?;
    rep.gw_ns = gw.drain_ns;
    rep.gw_events = gw.events;
    rep.gw_recover_ns = gw.recover_ns;
    rep.gw_wal_appends = gw.wal_appends;
    rep.gw_wal_bytes = gw.wal_bytes;
    rep.gw_compactions = gw.compactions;
    rep.gw_telemetry_ns = drain_rung(rec, dir, tr, "gateway", 0, GwMode::Telemetry)?.drain_ns;
    let mut untraced = Tracer::untraced(tr.epoch);
    rep.gw_untraced_ns =
        drain_rung(rec, dir, &mut untraced, "gateway", 0, GwMode::Untraced)?.drain_ns;
    if count_allocs {
        let counted = drain_rung(rec, dir, tr, "gateway", 0, GwMode::Allocs)?;
        rep.allocs = counted.allocs;
        rep.alloc_bytes = counted.alloc_bytes;
    }

    rep.shard1_ns = drain_rung(rec, dir, tr, "shard", 1, GwMode::Traced)?.drain_ns;
    let s2 = drain_rung(rec, dir, tr, "shard", 2, GwMode::Traced)?;
    rep.shard2_ns = s2.drain_ns;
    rep.shard2_recover_ns = s2.recover_ns;
    rung_stable(&rec.w, dir, tr, &mut rep)?;
    Ok(rep)
}

/// What the traced run measured.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub extra: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// Records the workload's `ladder_batches`, then replays them through
/// the ladder until `seconds` have passed (at least once). Per-layer
/// times are medians over the repetitions; counts repeat exactly.
pub fn run(w: Workload, seed: u64, seconds: f64, dir: &Path) -> Result<Outcome, Failure> {
    let start = Instant::now();
    let rec = record(w, seed, dir)?;
    let (tx, rx) = role_sas(&w);
    let budget = Duration::from_secs_f64(seconds);
    let mut reps = Vec::new();
    let mut spans = Vec::new();
    let mut allocs = (0, 0);
    loop {
        let t = Instant::now();
        let mut tr = Tracer::new(start);
        let first = reps.is_empty();
        let rep = one_rep(&rec, &tx, &rx, dir, &mut tr, first)?;
        if first {
            spans = tr.spans;
            allocs = (rep.allocs, rep.alloc_bytes);
        }
        reps.push(rep);
        let elapsed = start.elapsed();
        if reps.len() >= MAX_REPS || elapsed + t.elapsed() > budget {
            break;
        }
    }
    Ok(Outcome {
        metrics: metrics(&rec, &reps, allocs),
        extra: vec![
            Metric {
                name: "ladder_reps",
                value: reps.len() as f64,
                unit: "count",
            },
            // Printed, not in the result object: a WAL compacts every
            // 8192 records, which only `fleet`'s recording reaches.
            Metric {
                name: "stable.compactions",
                value: reps[0].gw_compactions as f64,
                unit: "count",
            },
        ],
        attempted: rec.counts.frames,
        failed: rec.counts.failed,
        spans,
    })
}

/// The per-layer metrics, medians over `reps`.
fn metrics(rec: &Recording, reps: &[Rep], (allocs, alloc_bytes): (u64, u64)) -> Vec<Metric> {
    let frames = rec.frames();
    let directions = 2.0 * rec.w.sas as f64;
    let resets = rec.counts.rx_resets as f64;
    let max_share = {
        let mut per = [0u64; 2];
        for b in &rec.batches {
            for wire in &b.wires {
                let spi = peek_spi(wire).expect("generated frames carry an SPI");
                per[reset_wire::spi_shard(spi, 2)] += 1;
            }
        }
        ratio(per[0].max(per[1]) as f64, frames)
    };
    let m = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let crypto_rx = |r: &Rep| (r.verify_ns + r.decrypt_ns + r.parse_ns + r.window_ns) as f64;
    let r0 = &reps[0];
    let metric = |name, value, unit| Metric { name, value, unit };
    vec![
        metric(
            "crypto.verify_ns_per_frame",
            m(&|r| ratio(r.verify_ns as f64, r.verify_frames as f64)),
            "ns/frame",
        ),
        metric(
            "crypto.decrypt_ns_per_frame",
            m(&|r| ratio(r.decrypt_ns as f64, r.decrypt_frames as f64)),
            "ns/frame",
        ),
        metric(
            "crypto.seal_ns_per_frame",
            m(&|r| ratio(r.seal_ns as f64, r.seal_frames as f64)),
            "ns/frame",
        ),
        metric(
            "crypto.frames_per_group",
            ratio(r0.verify_frames as f64, r0.groups as f64),
            "frames/group",
        ),
        metric(
            "wire.parse_ns_per_frame",
            m(&|r| ratio(r.parse_ns as f64, frames)),
            "ns/frame",
        ),
        metric(
            "window.ns_per_frame",
            m(&|r| ratio(r.window_ns as f64, r.window_frames as f64)),
            "ns/frame",
        ),
        metric(
            "esp.rx_ns_per_frame",
            m(&|r| ratio(r.esp_rx_ns as f64, frames)),
            "ns/frame",
        ),
        metric(
            "esp.rx_self_ns_per_frame",
            m(&|r| ratio(r.esp_rx_ns as f64 - crypto_rx(r), frames)),
            "ns/frame",
        ),
        metric(
            "esp.tx_ns_per_frame",
            m(&|r| ratio(r.esp_tx_ns as f64, r.seal_frames as f64)),
            "ns/frame",
        ),
        metric(
            "esp.saves_per_1k_frames",
            ratio(r0.esp_saves as f64 * 1e3, frames),
            "saves/1k",
        ),
        metric(
            "sadb.ns_per_frame",
            m(&|r| ratio(r.sadb_ns as f64, frames)),
            "ns/frame",
        ),
        metric(
            "sadb.self_ns_per_frame",
            m(&|r| ratio(r.sadb_ns as f64 - r.esp_rx_ns as f64, frames)),
            "ns/frame",
        ),
        metric(
            "gateway.ns_per_frame",
            m(&|r| ratio(r.gw_ns as f64, frames)),
            "ns/frame",
        ),
        metric(
            "gateway.self_ns_per_frame",
            m(&|r| ratio(r.gw_ns as f64 - r.sadb_ns as f64, frames)),
            "ns/frame",
        ),
        metric(
            "gateway.events_per_frame",
            ratio(r0.gw_events as f64, frames),
            "events/frame",
        ),
        metric(
            "gateway.allocs_per_frame",
            ratio(allocs as f64, frames),
            "allocs/frame",
        ),
        metric(
            "gateway.alloc_bytes_per_frame",
            ratio(alloc_bytes as f64, frames),
            "B/frame",
        ),
        metric(
            "gateway.recover_us_per_sa",
            m(&|r| ratio(r.gw_recover_ns as f64 / 1e3, resets * directions)),
            "us/SA",
        ),
        metric("stable.store_ns", m(&|r| r.store_ns), "ns"),
        metric("stable.load_ns", m(&|r| r.load_ns), "ns"),
        metric(
            "stable.bytes_per_1k_frames",
            ratio(r0.gw_wal_bytes as f64 * 1e3, frames),
            "B/1k",
        ),
        metric(
            "stable.appends_per_1k_frames",
            ratio(r0.gw_wal_appends as f64 * 1e3, frames),
            "records/1k",
        ),
        metric(
            "shard.ns_per_frame",
            m(&|r| ratio(r.shard2_ns as f64, frames)),
            "ns/frame",
        ),
        metric(
            "shard.speedup_vs_1",
            m(&|r| ratio(r.shard1_ns as f64, r.shard2_ns as f64)),
            "ratio",
        ),
        metric("shard.max_share", max_share, "ratio"),
        metric(
            "shard.recover_us_per_sa",
            m(&|r| ratio(r.shard2_recover_ns as f64 / 1e3, resets * directions)),
            "us/SA",
        ),
        metric(
            "telemetry.on_off_ratio",
            m(&|r| ratio(r.gw_telemetry_ns as f64, r.gw_ns as f64)),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            m(&|r| ratio(r.gw_ns as f64, r.gw_untraced_ns as f64)),
            "ratio",
        ),
    ]
}

/// Writes `spans` as tab-separated lines under a header naming the host.
pub fn write_spans(path: &Path, host: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut out = BufWriter::new(fs::File::create(path)?);
    writeln!(out, "# host: {host}")?;
    writeln!(out, "id\tparent\tname\tbatch\tstart_ns\tend_ns")?;
    for s in spans {
        let batch = if s.batch == NO_BATCH {
            "-".to_string()
        } else {
            s.batch.to_string()
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{batch}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
