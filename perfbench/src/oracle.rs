//! The verdict oracle: every offered frame carries the generator's
//! label, and every gateway verdict is checked against it.
//!
//! A verdict that breaks a §5 guarantee is a [`Violation`] and ends the
//! run: a delivered replay or forgery, a double delivery, a payload
//! that differs from what was sealed, or more than `2K` fresh frames of
//! one SA lost to one receiver reset. A verdict that is merely wrong —
//! a fresh frame rejected outside the post-reset leap — counts as
//! `failed`.

use bytes::Bytes;
use reset_ipsec::GatewayEvent;

use crate::gen::spi_of;

/// What the generator says a frame is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A genuine frame: `len` payload bytes at `off` in the pool.
    Fresh {
        spi: u32,
        seq: u64,
        off: u32,
        len: u16,
    },
    /// A byte-exact copy of an earlier genuine frame.
    Replay { spi: u32 },
    /// An earlier genuine frame with one ICV bit flipped.
    Forged { spi: u32 },
}

impl Expect {
    pub fn spi(&self) -> u32 {
        match *self {
            Expect::Fresh { spi, .. } | Expect::Replay { spi } | Expect::Forged { spi } => spi,
        }
    }
}

/// The SPI a per-frame verdict names; `None` for lifecycle events.
fn event_spi(ev: &GatewayEvent) -> Option<u32> {
    match *ev {
        GatewayEvent::Delivered { spi, .. }
        | GatewayEvent::ReplayDropped { spi, .. }
        | GatewayEvent::AuthFailed { spi }
        | GatewayEvent::UnknownSa { spi }
        | GatewayEvent::Buffered { spi }
        | GatewayEvent::DroppedDown { spi } => Some(spi),
        _ => None,
    }
}

/// A broken guarantee; the message names the frame and the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation(pub String);

/// Verdict tallies. Every field is a count that repeats exactly for a
/// given seed and batch count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub frames: u64,
    pub fresh: u64,
    pub delivered: u64,
    /// Fresh frames rejected inside a post-reset leap.
    pub lost: u64,
    /// Frames whose verdict disagrees with their label.
    pub failed: u64,
    pub rx_resets: u64,
    /// Gateway events drained, `Recovered` included.
    pub events: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct SaState {
    /// Highest sequence number delivered (the window's right edge).
    highest: u64,
    /// Receiver resets seen when this SA last delivered a fresh frame.
    epoch: u64,
    /// Fresh frames lost since then.
    lost: u64,
}

/// Per-SA expectations for one receiver.
pub struct Oracle {
    two_k: u64,
    sas: Vec<SaState>,
    /// Receiver resets so far.
    epoch: u64,
    pub counts: Counts,
}

impl Oracle {
    pub fn new(sas: u32, k: u64) -> Self {
        Oracle {
            two_k: 2 * k,
            sas: vec![SaState::default(); sas as usize],
            epoch: 0,
            counts: Counts::default(),
        }
    }

    fn sa(&mut self, spi: u32) -> Result<&mut SaState, Violation> {
        let idx = spi.wrapping_sub(spi_of(0)) as usize;
        self.sas
            .get_mut(idx)
            .ok_or_else(|| Violation(format!("event for unknown SPI {spi:#x}")))
    }

    /// The receiver reset and recovered; `events` is what recovery
    /// emitted and `directions` the SA directions it must report.
    pub fn on_receiver_reset(
        &mut self,
        events: &[GatewayEvent],
        directions: usize,
    ) -> Result<(), Violation> {
        self.epoch += 1;
        self.counts.rx_resets += 1;
        self.counts.events += events.len() as u64;
        match events {
            [GatewayEvent::Recovered { sas }] if *sas == directions => Ok(()),
            other => Err(Violation(format!(
                "recovery emitted {other:?}, expected Recovered {{ sas: {directions} }}"
            ))),
        }
    }

    /// Checks one drained batch: `events[i]` is the verdict on the
    /// frame labelled `expects[i]`.
    pub fn check(
        &mut self,
        expects: &[Expect],
        events: &[GatewayEvent],
        pool: &[u8],
    ) -> Result<(), Violation> {
        if events.len() != expects.len() {
            return Err(Violation(format!(
                "{} events for {} frames",
                events.len(),
                expects.len()
            )));
        }
        self.counts.frames += expects.len() as u64;
        self.counts.events += events.len() as u64;
        let two_k = self.two_k;
        let epoch = self.epoch;
        // A `Gateway` emits one verdict per frame, in arrival order.
        for (i, (expect, event)) in expects.iter().zip(events).enumerate() {
            let spi = event_spi(event)
                .ok_or_else(|| Violation(format!("unexpected event in a drain: {event:?}")))?;
            if spi != expect.spi() {
                return Err(Violation(format!(
                    "frame {i} on SPI {:#x} got a verdict for SPI {spi:#x}: {event:?}",
                    expect.spi()
                )));
            }
            let ok = match *expect {
                Expect::Fresh { spi, seq, off, len } => {
                    self.counts.fresh += 1;
                    match event {
                        GatewayEvent::Delivered {
                            spi: got_spi,
                            seq: got_seq,
                            payload,
                        } => {
                            check_payload(i, spi, seq, *got_spi, got_seq.value(), payload, {
                                let off = off as usize;
                                &pool[off..off + len as usize]
                            })?;
                            let sa = self.sa(spi)?;
                            if seq <= sa.highest {
                                return Err(Violation(format!(
                                    "frame {i}: SPI {spi:#x} seq {seq} delivered at or below \
                                     the delivered edge {}",
                                    sa.highest
                                )));
                            }
                            *sa = SaState {
                                highest: seq,
                                epoch,
                                lost: 0,
                            };
                            self.counts.delivered += 1;
                            true
                        }
                        GatewayEvent::ReplayDropped { .. } => {
                            let sa = self.sa(spi)?;
                            // Every fresh frame an SA rejects between a
                            // reset and its first delivery after it is
                            // lost to the leap; at most 2K per reset.
                            let resets = epoch - sa.epoch;
                            let in_leap = resets > 0;
                            if in_leap {
                                sa.lost += 1;
                                if sa.lost > two_k * resets {
                                    return Err(Violation(format!(
                                        "SPI {spi:#x} lost {} fresh frames to {resets} \
                                         receiver reset(s), more than 2K = {two_k} each",
                                        sa.lost
                                    )));
                                }
                                self.counts.lost += 1;
                            }
                            in_leap
                        }
                        _ => false,
                    }
                }
                Expect::Replay { spi } => match event {
                    GatewayEvent::Delivered { seq, .. } => {
                        return Err(Violation(format!(
                            "frame {i}: replay on SPI {spi:#x} delivered as seq {}",
                            seq.value()
                        )))
                    }
                    GatewayEvent::ReplayDropped { spi: got, .. } => *got == spi,
                    _ => false,
                },
                Expect::Forged { spi } => match event {
                    GatewayEvent::Delivered { seq, .. } => {
                        return Err(Violation(format!(
                            "frame {i}: forgery on SPI {spi:#x} delivered as seq {}",
                            seq.value()
                        )))
                    }
                    GatewayEvent::AuthFailed { spi: got } => *got == spi,
                    _ => false,
                },
            };
            if !ok {
                self.counts.failed += 1;
            }
        }
        Ok(())
    }
}

fn check_payload(
    i: usize,
    spi: u32,
    seq: u64,
    got_spi: u32,
    got_seq: u64,
    payload: &Bytes,
    sealed: &[u8],
) -> Result<(), Violation> {
    if got_spi != spi || got_seq != seq {
        return Err(Violation(format!(
            "frame {i}: sealed as SPI {spi:#x} seq {seq}, delivered as SPI {got_spi:#x} seq \
             {got_seq}"
        )));
    }
    if payload[..] != *sealed {
        return Err(Violation(format!(
            "frame {i}: SPI {spi:#x} seq {seq} delivered a payload that differs from the \
             sealed one"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use anti_replay::{RxOutcome, SeqNum};

    fn delivered(spi: u32, seq: u64, payload: &[u8]) -> GatewayEvent {
        GatewayEvent::Delivered {
            spi,
            seq: SeqNum::new(seq),
            payload: Bytes::copy_from_slice(payload),
        }
    }

    fn dropped(spi: u32, seq: u64) -> GatewayEvent {
        GatewayEvent::ReplayDropped {
            spi,
            seq: SeqNum::new(seq),
            outcome: RxOutcome::DiscardedStale,
        }
    }

    fn fresh(seq: u64) -> Expect {
        Expect::Fresh {
            spi: spi_of(0),
            seq,
            off: 0,
            len: 2,
        }
    }

    #[test]
    fn delivered_replay_and_bad_payload_are_violations() {
        let pool = [7u8, 8];
        let spi = spi_of(0);
        let mut o = Oracle::new(1, 4);
        o.check(&[fresh(1)], &[delivered(spi, 1, &pool)], &pool)
            .unwrap();
        assert!(o
            .check(
                &[Expect::Replay { spi }],
                &[delivered(spi, 1, &pool)],
                &pool
            )
            .is_err());
        assert!(o
            .check(&[fresh(2)], &[delivered(spi, 2, &[0, 0])], &pool)
            .is_err());
        assert!(o
            .check(&[fresh(1)], &[delivered(spi, 1, &pool)], &pool)
            .is_err());
    }

    #[test]
    fn leap_losses_are_bounded_by_2k_per_reset() {
        let pool = [7u8, 8];
        let spi = spi_of(0);
        let recovered = [GatewayEvent::Recovered { sas: 2 }];
        let mut o = Oracle::new(1, 2);
        o.check(&[fresh(1)], &[delivered(spi, 1, &pool)], &pool)
            .unwrap();
        // Before any reset a rejected fresh frame is a failure.
        o.check(&[fresh(2)], &[dropped(spi, 2)], &pool).unwrap();
        assert_eq!((o.counts.failed, o.counts.lost), (1, 0));
        o.on_receiver_reset(&recovered, 2).unwrap();
        let losses: Vec<Expect> = (3..=6).map(fresh).collect();
        let verdicts: Vec<GatewayEvent> = (3..=6).map(|s| dropped(spi, s)).collect();
        o.check(&losses, &verdicts, &pool).unwrap();
        assert_eq!(o.counts.lost, 4);
        assert!(o.check(&[fresh(7)], &[dropped(spi, 7)], &pool).is_err());
    }
}
