//! The closed loop every run drives: a sender and a receiver `Gateway`,
//! their WALs, and a step that seals a batch, drains it through the
//! receiver and checks every verdict. The receiver builder also makes
//! the `ShardedGateway`s the traced run's `shard` rung drains.

use std::collections::VecDeque;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bytes::Bytes;
use reset_ipsec::{
    CryptoSuite, Gateway, GatewayBuilder, GatewayEvent, IpsecError, SecurityAssociation,
    ShardedGateway,
};
use reset_stable::{Durability, StableError, WalStable};
use reset_telemetry::Telemetry;

use crate::gen::{
    pool_offset, spi_of, Generator, Spec, Workload, HISTORY, RX_RESET_EVERY, TX_RESET_EVERY, WINDOW,
};
use crate::oracle::{Expect, Oracle, Violation};

/// Master secret both ends derive every SA's keys from.
pub const MASTER: &[u8] = b"perfbench-master-secret";
const SENDER: &[u8] = b"west";
const RECEIVER: &[u8] = b"east";

/// Why a run stopped early.
#[derive(Debug)]
pub enum Failure {
    /// The oracle caught a broken guarantee.
    Violation(String),
    /// A gateway or store call returned an error.
    Infra(String),
}

impl From<Violation> for Failure {
    fn from(v: Violation) -> Self {
        Failure::Violation(v.0)
    }
}

impl From<IpsecError> for Failure {
    fn from(e: IpsecError) -> Self {
        Failure::Infra(e.to_string())
    }
}

impl From<StableError> for Failure {
    fn from(e: StableError) -> Self {
        Failure::Infra(e.to_string())
    }
}

/// The receiver verbs a drain step and a reset use, over both gateway
/// types.
pub trait Receiver {
    fn push_wire_batch(&mut self, wires: &[Bytes]) -> Result<(), IpsecError>;
    fn poll_events(&mut self) -> Vec<GatewayEvent>;
    fn save_completed(&mut self) -> Result<(), StableError>;
    fn reset(&mut self);
    fn recover(&mut self) -> Result<usize, IpsecError>;
}

impl Receiver for Gateway<WalStable> {
    fn push_wire_batch(&mut self, wires: &[Bytes]) -> Result<(), IpsecError> {
        Gateway::push_wire_batch(self, wires)
    }
    fn poll_events(&mut self) -> Vec<GatewayEvent> {
        Gateway::poll_events(self)
    }
    fn save_completed(&mut self) -> Result<(), StableError> {
        Gateway::save_completed(self)
    }
    fn reset(&mut self) {
        Gateway::reset(self)
    }
    fn recover(&mut self) -> Result<usize, IpsecError> {
        Gateway::recover(self)
    }
}

impl Receiver for ShardedGateway<WalStable> {
    fn push_wire_batch(&mut self, wires: &[Bytes]) -> Result<(), IpsecError> {
        ShardedGateway::push_wire_batch(self, wires)
    }
    fn poll_events(&mut self) -> Vec<GatewayEvent> {
        ShardedGateway::poll_events(self)
    }
    fn save_completed(&mut self) -> Result<(), StableError> {
        ShardedGateway::save_completed(self)
    }
    fn reset(&mut self) {
        ShardedGateway::reset(self)
    }
    fn recover(&mut self) -> Result<usize, IpsecError> {
        ShardedGateway::recover(self)
    }
}

/// Opens a fresh WAL at `dir/name.wal`, discarding any earlier log.
pub fn fresh_wal(dir: &Path, name: &str) -> Result<WalStable, Failure> {
    let path = dir.join(format!("{name}.wal"));
    match fs::remove_file(&path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(Failure::Infra(format!("{}: {e}", path.display()))),
    }
    Ok(WalStable::open(path, Durability::ProcessCrash)?)
}

fn builder(
    w: &Workload,
    make: impl FnMut(u32, reset_ipsec::SaDirection) -> WalStable + Send + 'static,
) -> GatewayBuilder<WalStable> {
    GatewayBuilder::with_stores(make)
        .suite(CryptoSuite::ChaCha20Poly1305)
        .save_interval(w.k)
        .window(WINDOW)
}

/// The sender gateway with every SA installed, over its own WAL.
fn build_sender(w: &Workload, dir: &Path) -> Result<Gateway<WalStable>, Failure> {
    let wal = fresh_wal(dir, "tx")?;
    let mut gw = builder(w, move |_, _| wal.clone()).build();
    for rank in 0..w.sas {
        gw.add_peer_between(spi_of(rank), MASTER, SENDER, RECEIVER);
    }
    Ok(gw)
}

/// A receiver with every SA installed. `shards == 0` builds a plain
/// `Gateway` over one WAL; otherwise a `ShardedGateway` with one WAL per
/// shard, routed by `reset_wire::spi_shard`. Returns the WALs too.
pub fn build_receiver(
    w: &Workload,
    dir: &Path,
    name: &str,
    shards: usize,
    telemetry: Option<&Telemetry>,
) -> Result<(Box<dyn Receiver>, Vec<WalStable>), Failure> {
    let wals = (0..shards.max(1))
        .map(|i| fresh_wal(dir, &format!("{name}-{i}")))
        .collect::<Result<Vec<_>, _>>()?;
    let routed = wals.clone();
    let mut b = builder(w, move |spi, _| {
        routed[reset_wire::spi_shard(spi, routed.len())].clone()
    });
    if let Some(t) = telemetry {
        b = b.telemetry(t.clone());
    }
    let rx: Box<dyn Receiver> = if shards == 0 {
        let mut gw = b.build();
        for rank in 0..w.sas {
            gw.add_peer_between(spi_of(rank), MASTER, RECEIVER, SENDER);
        }
        Box::new(gw)
    } else {
        let mut gw = b.shards(shards).build_sharded();
        for rank in 0..w.sas {
            gw.add_peer_between(spi_of(rank), MASTER, RECEIVER, SENDER);
        }
        Box::new(gw)
    };
    Ok((rx, wals))
}

/// Both ends' SAs as the gateways install them, in rank order: the
/// sender's outbound SAs and the receiver's inbound SAs. Lower ladder
/// rungs build their own endpoints from these.
pub fn role_sas(w: &Workload) -> (Vec<SecurityAssociation>, Vec<SecurityAssociation>) {
    let pull = |local: &[u8], remote: &[u8], outbound: bool| {
        let mut gw = GatewayBuilder::in_memory()
            .suite(CryptoSuite::ChaCha20Poly1305)
            .build();
        (0..w.sas)
            .map(|rank| {
                let spi = spi_of(rank);
                gw.add_peer_between(spi, MASTER, local, remote);
                if outbound {
                    gw.sadb().outbound(spi).expect("installed").sa().clone()
                } else {
                    gw.sadb().inbound(spi).expect("installed").sa().clone()
                }
            })
            .collect::<Vec<_>>()
    };
    (pull(SENDER, RECEIVER, true), pull(RECEIVER, SENDER, false))
}

/// What one step did and how long its timed parts took.
pub struct Step {
    pub batch: u64,
    pub rx_reset: bool,
    pub tx_reset: bool,
    /// Receiver `reset()` + `recover()`, when this step began with one.
    pub recover_ns: Option<u64>,
    /// Sender `protect` of every fresh frame plus its `save_completed`.
    pub tx_ns: u64,
    /// Receiver `push_wire_batch` + `poll_events` + `save_completed`.
    pub drain_ns: u64,
    pub genuine: usize,
    pub wires: Vec<Bytes>,
    pub expects: Vec<Expect>,
}

/// Both gateways of a closed loop, SAs installed.
pub struct Rig {
    sender: Gateway<WalStable>,
    receiver: Box<dyn Receiver>,
}

impl Rig {
    /// Opens the WALs, builds both gateways and installs every SA: the
    /// set-up `setup_s` times.
    pub fn open(w: &Workload, dir: &Path) -> Result<Rig, Failure> {
        let sender = build_sender(w, dir)?;
        let (receiver, _) = build_receiver(w, dir, "rx", 0, None)?;
        Ok(Rig { sender, receiver })
    }
}

/// One closed loop: the rig plus generator, tap and oracle.
pub struct ClosedLoop {
    w: Workload,
    pub pool: Vec<u8>,
    gen: Generator,
    sender: Gateway<WalStable>,
    receiver: Box<dyn Receiver>,
    /// Genuine frames recently sent: `(spi, wire)`.
    tap: VecDeque<(u32, Bytes)>,
    genuine: u64,
    pub oracle: Oracle,
    batch: u64,
}

/// Directory for this run's WALs and span files.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl ClosedLoop {
    /// Drives `rig` with the frame stream of `seed`.
    pub fn new(w: Workload, seed: u64, rig: Rig) -> ClosedLoop {
        ClosedLoop {
            w,
            pool: Generator::pool(seed),
            gen: Generator::new(w, seed),
            sender: rig.sender,
            receiver: rig.receiver,
            tap: VecDeque::with_capacity(HISTORY),
            genuine: 0,
            oracle: Oracle::new(w.sas, w.k),
            batch: 0,
        }
    }

    /// Batches stepped so far.
    pub fn batches(&self) -> u64 {
        self.batch
    }

    /// Runs one batch: resets due at this batch, seal, drain, check.
    pub fn step(&mut self) -> Result<Step, Failure> {
        let b = self.batch;
        self.batch += 1;
        let tx_reset = b > 0 && b.is_multiple_of(TX_RESET_EVERY);
        let rx_reset = b > 0 && b.is_multiple_of(RX_RESET_EVERY);
        if tx_reset {
            self.sender.reset();
            self.sender.recover()?;
            self.sender.poll_events();
        }
        let recover_ns = if rx_reset {
            let t = Instant::now();
            self.receiver.reset();
            self.receiver.recover()?;
            let ns = t.elapsed().as_nanos() as u64;
            let events = self.receiver.poll_events();
            self.oracle
                .on_receiver_reset(&events, 2 * self.w.sas as usize)?;
            Some(ns)
        } else {
            None
        };

        let specs = self.gen.next_batch();
        let first = self.genuine;
        let t = Instant::now();
        let mut sealed = Vec::with_capacity(specs.len());
        let mut n = first;
        for spec in &specs {
            if let Spec::Fresh { spi, len } = *spec {
                let off = pool_offset(n);
                n += 1;
                let frame = self
                    .sender
                    .protect(spi, &self.pool[off..off + len as usize])?
                    .ok_or_else(|| Failure::Infra(format!("SPI {spi:#x} not up")))?;
                sealed.push(frame);
            }
        }
        self.sender.save_completed()?;
        let tx_ns = t.elapsed().as_nanos() as u64;
        let genuine = sealed.len();
        self.genuine = n;

        let (wires, expects) = self.assemble(&specs, sealed, first);
        let t = Instant::now();
        self.receiver.push_wire_batch(&wires)?;
        let events = self.receiver.poll_events();
        self.receiver.save_completed()?;
        let drain_ns = t.elapsed().as_nanos() as u64;
        self.oracle.check(&expects, &events, &self.pool)?;
        Ok(Step {
            batch: b,
            rx_reset,
            tx_reset,
            recover_ns,
            tx_ns,
            drain_ns,
            genuine,
            wires,
            expects,
        })
    }

    /// Lays the batch out in spec order: sealed frames, and replays or
    /// forgeries copied from the tap.
    fn assemble(
        &mut self,
        specs: &[Spec],
        sealed: Vec<reset_ipsec::SentFrame>,
        first: u64,
    ) -> (Vec<Bytes>, Vec<Expect>) {
        let mut wires = Vec::with_capacity(specs.len());
        let mut expects = Vec::with_capacity(specs.len());
        let mut sealed = sealed.into_iter();
        let mut n = first;
        for spec in specs {
            match *spec {
                Spec::Fresh { spi, len } => {
                    let frame = sealed.next().expect("one sealed frame per fresh spec");
                    expects.push(Expect::Fresh {
                        spi,
                        seq: frame.seq.value(),
                        off: pool_offset(n) as u32,
                        len,
                    });
                    n += 1;
                    if self.tap.len() == HISTORY {
                        self.tap.pop_front();
                    }
                    self.tap.push_back((spi, frame.wire.clone()));
                    wires.push(frame.wire);
                }
                Spec::Replay { back } => {
                    let (spi, wire) = &self.tap[self.tap.len() - back as usize];
                    expects.push(Expect::Replay { spi: *spi });
                    wires.push(wire.clone());
                }
                Spec::Forged { back } => {
                    let (spi, wire) = &self.tap[self.tap.len() - back as usize];
                    let mut forged = wire.to_vec();
                    *forged.last_mut().expect("frames carry an ICV") ^= 0x01;
                    expects.push(Expect::Forged { spi: *spi });
                    wires.push(Bytes::from(forged));
                }
            }
        }
        (wires, expects)
    }
}
