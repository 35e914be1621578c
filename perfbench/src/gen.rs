//! Seeded traffic generation: the four workloads and the frame stream
//! each one offers. Everything here is a pure function of the seed and
//! the batch index, so two runs with one seed see the same frames.

use reset_sim::DetRng;

/// Frames remembered for replays and forgeries (the adversary's tap).
pub const HISTORY: usize = 4096;
/// Payload bytes are slices of one seeded pool; a delivered payload is
/// checked against its slice.
pub const POOL_LEN: usize = 1 << 16;
/// Largest payload any workload offers.
pub const MAX_PAYLOAD: usize = 1400;
/// Receiver reset cadence, in batches.
pub const RX_RESET_EVERY: u64 = 50;
/// Sender reset cadence, in batches.
pub const TX_RESET_EVERY: u64 = 70;
/// Anti-replay window size for every workload.
pub const WINDOW: u64 = 64;

/// How a workload picks SAs, sizes and adversarial frames.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Every batch holds one burst of `burst` frames per SA, SAs in a
    /// shuffled order, all payloads `payload` bytes long.
    Bursts { burst: usize, payload: usize },
    /// Zipf(1.0) SA popularity, geometric bursts of mean 4, IMIX
    /// 64/576/1400 B at 7:4:1, 5% replays and 1% forgeries.
    Fleet,
}

/// One workload: its traffic mix and the gateway shape it runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub sas: u32,
    pub batch: usize,
    pub k: u64,
    pub mix: Mix,
    /// Batches the traced run records and replays through every rung.
    pub ladder_batches: u64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "burst64",
        sas: 8,
        batch: 512,
        k: 64,
        mix: Mix::Bursts {
            burst: 64,
            payload: 64,
        },
        ladder_batches: 110,
    },
    Workload {
        name: "mtu1400",
        sas: 8,
        batch: 512,
        k: 64,
        mix: Mix::Bursts {
            burst: 64,
            payload: 1400,
        },
        ladder_batches: 110,
    },
    Workload {
        name: "fleet",
        sas: 4096,
        batch: 256,
        k: 32,
        mix: Mix::Fleet,
        ladder_batches: 220,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The SPI of the SA with popularity rank `rank` (0 = most popular).
pub fn spi_of(rank: u32) -> u32 {
    0x1000 + rank
}

/// One frame slot of a batch, before sealing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Spec {
    /// A fresh payload of `len` bytes on SA `spi`.
    Fresh { spi: u32, len: u16 },
    /// A byte-exact copy of the genuine frame sent `back` frames ago.
    Replay { back: u32 },
    /// That copy with one ICV bit flipped.
    Forged { back: u32 },
}

/// The seeded frame-stream generator.
pub struct Generator {
    w: Workload,
    rng: DetRng,
    /// Zipf CDF over SA ranks (fleet only).
    zipf_cdf: Vec<f64>,
    /// Genuine frames generated so far (bounds replay look-back).
    genuine: u64,
}

impl Generator {
    pub fn new(w: Workload, seed: u64) -> Self {
        let zipf_cdf = match w.mix {
            Mix::Fleet => {
                let weights: Vec<f64> = (1..=w.sas).map(|r| 1.0 / r as f64).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                weights
                    .iter()
                    .map(|x| {
                        acc += x / total;
                        acc
                    })
                    .collect()
            }
            Mix::Bursts { .. } => Vec::new(),
        };
        Generator {
            w,
            rng: DetRng::new(seed ^ 0x9e37_79b9_7f4a_7c15),
            zipf_cdf,
            genuine: 0,
        }
    }

    /// The payload pool, derived from the seed.
    pub fn pool(seed: u64) -> Vec<u8> {
        let mut pool = vec![0u8; POOL_LEN + MAX_PAYLOAD];
        DetRng::new(seed).fill_bytes(&mut pool);
        pool
    }

    /// The next batch of frame slots.
    pub fn next_batch(&mut self) -> Vec<Spec> {
        let mut out = Vec::with_capacity(self.w.batch);
        match self.w.mix {
            Mix::Bursts { burst, payload } => {
                let mut order: Vec<u32> = (0..self.w.sas).collect();
                self.rng.shuffle(&mut order);
                for rank in order {
                    for _ in 0..burst {
                        out.push(Spec::Fresh {
                            spi: spi_of(rank),
                            len: payload as u16,
                        });
                    }
                }
                out.truncate(self.w.batch);
                self.genuine += out.len() as u64;
            }
            Mix::Fleet => {
                while out.len() < self.w.batch {
                    let u = self.rng.unit_f64();
                    let rank = self.zipf_cdf.partition_point(|&c| c < u) as u32;
                    let rank = rank.min(self.w.sas - 1);
                    let mut burst = 1;
                    while self.rng.chance(0.75) {
                        burst += 1;
                    }
                    for _ in 0..burst {
                        if out.len() == self.w.batch {
                            break;
                        }
                        out.push(self.fleet_slot(spi_of(rank)));
                    }
                }
            }
        }
        out
    }

    fn fleet_slot(&mut self, spi: u32) -> Spec {
        let roll = self.rng.below(100);
        let history = self.genuine.min(HISTORY as u64);
        if roll < 6 && history > 0 {
            // Half look back a few frames (in-window for a hot SA), half
            // anywhere in the tap (mostly stale).
            let reach = if self.rng.chance(0.5) {
                history.min(32)
            } else {
                history
            };
            let back = 1 + self.rng.below(reach) as u32;
            return if roll < 5 {
                Spec::Replay { back }
            } else {
                Spec::Forged { back }
            };
        }
        let len = match self.rng.below(12) {
            0..=6 => 64,
            7..=10 => 576,
            _ => 1400,
        };
        self.genuine += 1;
        Spec::Fresh { spi, len }
    }
}

/// Offset into the payload pool of the `n`th genuine frame.
pub fn pool_offset(n: u64) -> usize {
    (n.wrapping_mul(0x9e37_79b9) % POOL_LEN as u64) as usize
}
