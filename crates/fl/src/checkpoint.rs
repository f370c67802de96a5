//! Crash-safe checkpoint/resume for FL simulations (DESIGN.md §4d).
//!
//! Every K rounds the simulator saves its complete cross-round state —
//! the global model, the previous global model, the per-round records so
//! far, pending stale deliveries and the adversary's cross-round state —
//! to one file per config fingerprint. Everything *else* a round reads is
//! a pure function of the config (datasets, partition, malicious set,
//! per-round RNG streams), so a resumed run replays the remaining rounds
//! bitwise identically to an uninterrupted one (the resume-equivalence
//! proptest in `tests/robustness.rs` pins this).
//!
//! The file is one fixed binary layout (version 3): every integer
//! little-endian, every run length-prefixed with a `u64`:
//!
//! ```text
//! magic "fabckpt\n" · version u32 · fingerprint (u64 len, bytes)
//! · next_round u64 · global_bits (u64 n, n × u32)
//! · prev_global_bits (u64 tag: 0 = none, 1 = some; then u64 n, n × u32)
//! · rounds (u64 n; each: round u64, accuracy u32, 11 counters u64,
//!   selection_available u8, skipped u8)
//! · pending (u64 n; each: client u64, malicious u8, weight u32, payload)
//! · attack_state (u64 n, n × u64)
//! · inflight (u64 n; each: seq u32, client u64, malicious u8, weight u32,
//!   payload) · inflight_meta (u64 n, n × u64) · checksum u64
//! ```
//!
//! Model parameters travel as their `f32::to_bits` words, copied straight
//! from the in-memory runs, so non-finite values and signed zeros round-
//! trip bitwise. The golden file `tests/fixtures/ckpt-v3.bin` pins the
//! layout: any change to it must bump [`CHECKPOINT_VERSION`].
//!
//! Writes are atomic and durable: the whole file is built in memory and
//! written with one `write` call to a temp file, which is fsynced, then
//! the current file is renamed to `*.prev.bin`, the temp file to the
//! current name, and the directory is fsynced. A crash mid-write can
//! therefore never leave the *only* copy torn. Loading verifies the magic,
//! the version, every length field against the bytes that remain, the
//! config fingerprint and an FNV-1a checksum; a corrupt latest file falls
//! back to the previous one, then to a fresh start from round 0.

use crate::metrics::RoundRecord;
use crate::{FlConfig, FlError};
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Bump when the checkpoint layout changes; mismatched files are ignored
/// (the run restarts from round 0) rather than misread.
///
/// v2 added the mid-round in-flight submission log (`inflight` /
/// `inflight_meta`) the serve shell uses as a write-ahead log for kill -9
/// recovery inside a round. v3 replaced the JSON encoding with the binary
/// layout in the module docs; v2 files (`ckpt-*.json`) are never read.
pub const CHECKPOINT_VERSION: u32 = 3;

/// The first eight bytes of every checkpoint file.
const MAGIC: [u8; 8] = *b"fabckpt\n";

/// Where and how often [`crate::simulate_with`] checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Directory holding one checkpoint file per config fingerprint.
    pub dir: PathBuf,
    /// Save every `every` completed rounds (0 = only at completion). The
    /// final round is always saved so finished runs resume instantly.
    pub every: usize,
}

impl CheckpointSpec {
    /// Creates a spec.
    pub fn new(dir: impl Into<PathBuf>, every: usize) -> CheckpointSpec {
        CheckpointSpec {
            dir: dir.into(),
            every,
        }
    }

    /// Whether a checkpoint is due after `completed` of `total` rounds.
    pub(crate) fn due(&self, completed: usize, total: usize) -> bool {
        completed == total || (self.every > 0 && completed.is_multiple_of(self.every))
    }
}

/// A straggler update held over for delivery in the next round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingStale {
    /// Submitting client id.
    pub client: usize,
    /// Whether the submission is the adversary's.
    pub malicious: bool,
    /// Aggregation weight (bits; the staleness discount is applied at
    /// delivery, from the plan, so the stored entry is the raw submission).
    pub weight_bits: u32,
    /// Payload (bits).
    pub payload_bits: Vec<u32>,
}

/// One *accepted, validated* submission of the round in progress — the
/// serve shell's write-ahead log entry. `seq` is the submission's position
/// in the round's canonical staging order ([`crate::round::StagedRound`]),
/// which is the sort/dedup key that makes the recovered log independent of
/// network arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InflightSubmission {
    /// Canonical staging sequence number within the round.
    pub seq: u32,
    /// Submitting client id.
    pub client: usize,
    /// Whether the submission is the adversary's.
    pub malicious: bool,
    /// Aggregation weight (bits).
    pub weight_bits: u32,
    /// Payload (bits).
    pub payload_bits: Vec<u32>,
}

/// One simulation's complete resumable state after `next_round` rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Layout version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Canonical serialization of the config *minus the round budget* —
    /// every per-round stream keys on the round index alone, so a run
    /// checkpointed under `rounds = r` is a bitwise prefix of the same
    /// config with a larger budget (this is what makes kill/resume
    /// testable, and lets a grid extend `rounds` without recomputing).
    pub fingerprint: String,
    /// The next round to execute (`rounds.len()` rounds are recorded).
    pub next_round: usize,
    /// Global model parameters (bits).
    pub global_bits: Vec<u32>,
    /// Previous global model (bits), if any round aggregated yet.
    pub prev_global_bits: Option<Vec<u32>>,
    /// Per-round records completed so far.
    pub rounds: Vec<RoundRecord>,
    /// Stale updates awaiting delivery in `next_round`.
    pub pending: Vec<PendingStale>,
    /// Opaque adversary state (`Attack::checkpoint_state`).
    pub attack_state: Vec<u64>,
    /// Validated submissions of the round in progress (`next_round`),
    /// sorted by `seq` — the serve shell's write-ahead log. The batch
    /// simulator always checkpoints at round boundaries, so it leaves
    /// this empty.
    pub inflight: Vec<InflightSubmission>,
    /// Mid-round accounting alongside `inflight`: empty, or the five
    /// words `[expected, offline, diverged, silent, deadline_fired]` from
    /// the round's META announcement and deadline state.
    pub inflight_meta: Vec<u64>,
    /// FNV-1a over every field above; detects torn or corrupt files that
    /// still decode.
    pub checksum: u64,
}

/// Incremental FNV-1a (64-bit).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// Byte-wise FNV-1a; names checkpoint files ([`path_for`]).
    fn bytes(&mut self, s: &[u8]) {
        for &b in s {
            self.0 = (self.0 ^ b as u64).wrapping_mul(Fnv::PRIME);
        }
    }

    /// One FNV-1a step over a whole `u64` lane, then a fold of the high
    /// half into the low half. The multiply only carries input bits
    /// upward, so without the fold two flips of the same high bit in
    /// different lanes (two negated parameters) would cancel. Every step
    /// is a bijection of the state, so a single changed lane always
    /// changes the result.
    fn u64(&mut self, v: u64) {
        let h = (self.0 ^ v).wrapping_mul(Fnv::PRIME);
        self.0 = h ^ (h >> 32);
    }

    /// A length-prefixed word run, two words per lane.
    fn words(&mut self, w: &[u32]) {
        self.u64(w.len() as u64);
        let (pairs, tail) = w.as_chunks::<2>();
        for &[lo, hi] in pairs {
            self.u64(lo as u64 | (hi as u64) << 32);
        }
        for &x in tail {
            self.u64(x as u64);
        }
    }

    /// A length-prefixed byte string, eight bytes per lane (the last one
    /// zero-padded).
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut lane = [0u8; 8];
            lane.iter_mut().zip(chunk).for_each(|(d, &b)| *d = b);
            self.u64(u64::from_le_bytes(lane));
        }
    }
}

/// The eleven counters of a [`RoundRecord`], in layout order.
fn counters(r: &RoundRecord) -> [usize; 11] {
    [
        r.malicious_selected,
        r.malicious_passed,
        r.delivered,
        r.stale,
        r.dropped,
        r.straggling,
        r.quarantined,
        r.stale_quarantined,
        r.offline,
        r.diverged,
        r.silent,
    ]
}

impl Checkpoint {
    /// The checksum of every payload field, in layout order.
    pub fn body_checksum(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.version as u64);
        h.str(&self.fingerprint);
        h.u64(self.next_round as u64);
        h.words(&self.global_bits);
        match &self.prev_global_bits {
            None => h.u64(0),
            Some(bits) => {
                h.u64(1);
                h.words(bits);
            }
        }
        h.u64(self.rounds.len() as u64);
        for r in &self.rounds {
            h.u64(r.round as u64);
            h.u64(r.accuracy.to_bits() as u64);
            for c in counters(r) {
                h.u64(c as u64);
            }
            h.u64(r.selection_available as u64);
            h.u64(r.skipped as u64);
        }
        h.u64(self.pending.len() as u64);
        for p in &self.pending {
            h.u64(p.client as u64);
            h.u64(p.malicious as u64);
            h.u64(p.weight_bits as u64);
            h.words(&p.payload_bits);
        }
        h.u64(self.attack_state.len() as u64);
        for &w in &self.attack_state {
            h.u64(w);
        }
        h.u64(self.inflight.len() as u64);
        for s in &self.inflight {
            h.u64(s.seq as u64);
            h.u64(s.client as u64);
            h.u64(s.malicious as u64);
            h.u64(s.weight_bits as u64);
            h.words(&s.payload_bits);
        }
        h.u64(self.inflight_meta.len() as u64);
        for &w in &self.inflight_meta {
            h.u64(w);
        }
        h.0
    }

    /// Stamps `checksum` from the current payload fields.
    pub fn seal(mut self) -> Checkpoint {
        self.checksum = self.body_checksum();
        self
    }
}

/// Bytes of one encoded [`RoundRecord`].
const RECORD_BYTES: usize = 8 + 4 + 11 * 8 + 2;
/// Fewest bytes one encoded [`PendingStale`] can take (empty payload).
const PENDING_MIN_BYTES: usize = 8 + 1 + 4 + 8;
/// Fewest bytes one encoded [`InflightSubmission`] can take.
const INFLIGHT_MIN_BYTES: usize = 4 + PENDING_MIN_BYTES;

/// Appends the little-endian encoding of fixed-size values.
struct Writer(Vec<u8>);

impl Writer {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    /// A word run after its `u64` length, copied in one pass.
    fn words(&mut self, w: &[u32]) {
        self.u64(w.len() as u64);
        let at = self.0.len();
        self.0.resize(at + 4 * w.len(), 0);
        let (dst, _) = self.0.split_at_mut(at).1.as_chunks_mut::<4>();
        for (d, &x) in dst.iter_mut().zip(w) {
            *d = x.to_le_bytes();
        }
    }
}

/// The exact size of `c`'s encoding, so [`encode`] allocates once.
fn encoded_len(c: &Checkpoint) -> usize {
    let payload = |n: usize| 8 + 4 * n;
    MAGIC.len()
        + 4
        + 8
        + c.fingerprint.len()
        + 8
        + payload(c.global_bits.len())
        + 8
        + c.prev_global_bits.as_ref().map_or(0, |b| payload(b.len()))
        + 8
        + RECORD_BYTES * c.rounds.len()
        + 8
        + c.pending
            .iter()
            .map(|p| PENDING_MIN_BYTES + 4 * p.payload_bits.len())
            .sum::<usize>()
        + payload(2 * c.attack_state.len())
        + 8
        + c.inflight
            .iter()
            .map(|s| INFLIGHT_MIN_BYTES + 4 * s.payload_bits.len())
            .sum::<usize>()
        + payload(2 * c.inflight_meta.len())
        + 8
}

/// The on-disk bytes of `c` (layout in the module docs). `c.checksum` is
/// written as is: [`Checkpoint::seal`] it first.
pub fn encode(c: &Checkpoint) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(encoded_len(c)));
    w.0.extend_from_slice(&MAGIC);
    w.u32(c.version);
    w.u64(c.fingerprint.len() as u64);
    w.0.extend_from_slice(c.fingerprint.as_bytes());
    w.u64(c.next_round as u64);
    w.words(&c.global_bits);
    match &c.prev_global_bits {
        None => w.u64(0),
        Some(bits) => {
            w.u64(1);
            w.words(bits);
        }
    }
    w.u64(c.rounds.len() as u64);
    for r in &c.rounds {
        w.u64(r.round as u64);
        w.u32(r.accuracy.to_bits());
        for v in counters(r) {
            w.u64(v as u64);
        }
        w.u8(r.selection_available as u8);
        w.u8(r.skipped as u8);
    }
    w.u64(c.pending.len() as u64);
    for p in &c.pending {
        w.u64(p.client as u64);
        w.u8(p.malicious as u8);
        w.u32(p.weight_bits);
        w.words(&p.payload_bits);
    }
    w.u64(c.attack_state.len() as u64);
    c.attack_state.iter().for_each(|&v| w.u64(v));
    w.u64(c.inflight.len() as u64);
    for s in &c.inflight {
        w.u32(s.seq);
        w.u64(s.client as u64);
        w.u8(s.malicious as u8);
        w.u32(s.weight_bits);
        w.words(&s.payload_bits);
    }
    w.u64(c.inflight_meta.len() as u64);
    c.inflight_meta.iter().for_each(|&v| w.u64(v));
    w.u64(c.checksum);
    w.0
}

/// Reads the little-endian encoding back, front to back. Every read is
/// checked against the bytes that remain, so no input can panic it or
/// make it allocate more than the input's own size.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// A bool stored as exactly 0 or 1, so the encoding stays canonical.
    fn bool(&mut self) -> Option<bool> {
        match self.array::<1>()? {
            [0] => Some(false),
            [1] => Some(true),
            _ => None,
        }
    }

    /// A count of items at least `min_bytes` each, rejected unless that
    /// many could still follow.
    fn count(&mut self, min_bytes: usize) -> Option<usize> {
        self.usize().filter(|&n| n <= self.0.len() / min_bytes)
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn words(&mut self) -> Option<Vec<u32>> {
        let n = self.count(4)?;
        let (words, _) = self.bytes(4 * n)?.as_chunks::<4>();
        Some(words.iter().map(|&b| u32::from_le_bytes(b)).collect())
    }

    fn u64s(&mut self) -> Option<Vec<u64>> {
        let n = self.count(8)?;
        let (words, _) = self.bytes(8 * n)?.as_chunks::<8>();
        Some(words.iter().map(|&b| u64::from_le_bytes(b)).collect())
    }

    /// One record, fields in layout order ([`counters`], then the flags;
    /// a struct literal evaluates its fields in the order written).
    fn record(&mut self) -> Option<RoundRecord> {
        Some(RoundRecord {
            round: self.usize()?,
            accuracy: f32::from_bits(self.u32()?),
            malicious_selected: self.usize()?,
            malicious_passed: self.usize()?,
            delivered: self.usize()?,
            stale: self.usize()?,
            dropped: self.usize()?,
            straggling: self.usize()?,
            quarantined: self.usize()?,
            stale_quarantined: self.usize()?,
            offline: self.usize()?,
            diverged: self.usize()?,
            silent: self.usize()?,
            selection_available: self.bool()?,
            skipped: self.bool()?,
        })
    }
}

/// Parses [`encode`]'s bytes. `None` for anything that is not exactly
/// one well-formed checkpoint (bad magic, a length past the end, a bool
/// that is not 0 or 1, trailing bytes). Neither the version nor the
/// checksum is verified here: [`load`] does that.
pub fn decode(bytes: &[u8]) -> Option<Checkpoint> {
    let mut r = Reader(bytes);
    if r.array()? != MAGIC {
        return None;
    }
    let version = r.u32()?;
    let fp_len = r.count(1)?;
    let fingerprint = String::from_utf8(r.bytes(fp_len)?.to_vec()).ok()?;
    let next_round = r.usize()?;
    let global_bits = r.words()?;
    let prev_global_bits = match r.u64()? {
        0 => None,
        1 => Some(r.words()?),
        _ => return None,
    };
    let n = r.count(RECORD_BYTES)?;
    let rounds = (0..n).map(|_| r.record()).collect::<Option<Vec<_>>>()?;
    let n = r.count(PENDING_MIN_BYTES)?;
    let pending = (0..n)
        .map(|_| {
            Some(PendingStale {
                client: r.usize()?,
                malicious: r.bool()?,
                weight_bits: r.u32()?,
                payload_bits: r.words()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let attack_state = r.u64s()?;
    let n = r.count(INFLIGHT_MIN_BYTES)?;
    let inflight = (0..n)
        .map(|_| {
            Some(InflightSubmission {
                seq: r.u32()?,
                client: r.usize()?,
                malicious: r.bool()?,
                weight_bits: r.u32()?,
                payload_bits: r.words()?,
            })
        })
        .collect::<Option<Vec<_>>>()?;
    let inflight_meta = r.u64s()?;
    let checksum = r.u64()?;
    r.0.is_empty().then_some(Checkpoint {
        version,
        fingerprint,
        next_round,
        global_bits,
        prev_global_bits,
        rounds,
        pending,
        attack_state,
        inflight,
        inflight_meta,
        checksum,
    })
}

/// The canonical config fingerprint: the config's JSON with the round
/// budget pinned to zero (see [`Checkpoint::fingerprint`]).
pub fn fingerprint(cfg: &FlConfig) -> String {
    let mut canon = cfg.clone();
    canon.rounds = 0;
    serde_json::to_string(&canon).expect("config serializes")
}

/// The checkpoint path for a fingerprint: `ckpt-<fnv64(fingerprint)>.bin`.
pub fn path_for(dir: &Path, fp: &str) -> PathBuf {
    let mut h = Fnv::new();
    h.bytes(fp.as_bytes());
    dir.join(format!("ckpt-{:016x}.bin", h.0))
}

fn prev_path(path: &Path) -> PathBuf {
    path.with_extension("prev.bin")
}

/// Makes `dir`'s entries durable: a rename or create inside it survives
/// an OS crash once this returns.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// `create_dir_all`, with each directory it creates made durable in its
/// parent.
fn create_dir_durable(dir: &Path) -> std::io::Result<()> {
    if dir.is_dir() {
        return Ok(());
    }
    let parent = match dir.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    create_dir_durable(parent)?;
    match std::fs::create_dir(dir) {
        // Another process won the race to create it.
        Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && dir.is_dir() => Ok(()),
        Err(e) => Err(e),
        Ok(()) => sync_dir(parent),
    }
}

/// Atomically and durably writes `ckpt`, keeping the previously current
/// file as `*.prev.bin`. The data path is `write temp (one write call) →
/// fsync temp → rename current to prev → rename temp to current → fsync
/// the directory`: at every instant an intact checkpoint exists on disk
/// under one of the two names, and once `save` returns the new one
/// survives an OS crash or power loss on a filesystem that honours fsync.
///
/// # Errors
///
/// Returns [`FlError::Checkpoint`] on any filesystem failure.
pub fn save(dir: &Path, ckpt: &Checkpoint) -> Result<(), FlError> {
    let io = |what: &str, e: std::io::Error| FlError::Checkpoint(format!("{what}: {e}"));
    create_dir_durable(dir).map_err(|e| io("create checkpoint dir", e))?;
    let path = path_for(dir, &ckpt.fingerprint);
    let tmp = path.with_extension("bin.tmp");
    let bytes = encode(ckpt);
    File::create(&tmp)
        .and_then(|mut f| {
            f.write_all(&bytes)?;
            f.sync_all()
        })
        .map_err(|e| io("write checkpoint temp", e))?;
    if path.exists() {
        std::fs::rename(&path, prev_path(&path)).map_err(|e| io("rotate checkpoint", e))?;
    }
    std::fs::rename(&tmp, &path).map_err(|e| io("publish checkpoint", e))?;
    sync_dir(dir).map_err(|e| io("sync checkpoint dir", e))
}

fn try_load(path: &Path, fp: &str, max_rounds: usize) -> Option<Checkpoint> {
    // A zero-length or torn file (e.g. the rename landed but the data
    // blocks of a crashed write never did) fails to decode: degrade to
    // `prev`, then round 0.
    let c = decode(&std::fs::read(path).ok()?)?;
    let intact = c.version == CHECKPOINT_VERSION
        && c.fingerprint == fp
        && c.checksum == c.body_checksum()
        && c.rounds.len() == c.next_round
        && c.next_round <= max_rounds
        && !c.global_bits.is_empty();
    intact.then_some(c)
}

/// Loads the most recent intact checkpoint for `cfg`: the current file if
/// it verifies, else the `*.prev.bin` fallback, else `None` (start from
/// round 0). Never errors — a corrupt checkpoint degrades to recomputing,
/// not to garbage state.
pub fn load(dir: &Path, cfg: &FlConfig) -> Option<Checkpoint> {
    let fp = fingerprint(cfg);
    let path = path_for(dir, &fp);
    try_load(&path, &fp, cfg.rounds).or_else(|| try_load(&prev_path(&path), &fp, cfg.rounds))
}

/// Bit-packs a float slice for checkpoint storage.
pub fn to_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Unpacks checkpoint bit storage back to floats.
pub fn from_bits(v: &[u32]) -> Vec<f32> {
    v.iter().map(|&x| f32::from_bits(x)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskKind;

    fn cfg() -> FlConfig {
        FlConfig::builder(TaskKind::Fashion)
            .rounds(4)
            .n_clients(10)
            .clients_per_round(5)
            .train_size(100)
            .test_size(40)
            .seed(3)
            .build()
    }

    fn ckpt(fp: String) -> Checkpoint {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: fp,
            next_round: 2,
            global_bits: vec![1.5f32.to_bits(), f32::NAN.to_bits()],
            prev_global_bits: Some(vec![0.25f32.to_bits(), 0]),
            rounds: vec![
                RoundRecord {
                    round: 0,
                    accuracy: 0.125,
                    ..RoundRecord::default()
                },
                RoundRecord {
                    round: 1,
                    accuracy: 0.25,
                    ..RoundRecord::default()
                },
            ],
            pending: vec![PendingStale {
                client: 7,
                malicious: true,
                weight_bits: 3.0f32.to_bits(),
                payload_bits: vec![9, 8],
            }],
            attack_state: vec![1, 4],
            inflight: vec![InflightSubmission {
                seq: 2,
                client: 3,
                malicious: false,
                weight_bits: 5.0f32.to_bits(),
                payload_bits: vec![11, 12],
            }],
            inflight_meta: vec![4, 0, 0, 1, 0],
            checksum: 0,
        }
        .seal()
    }

    #[test]
    fn fingerprint_ignores_round_budget() {
        let a = cfg();
        let mut b = cfg();
        b.rounds = 99;
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let mut c = cfg();
        c.seed = 4;
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn roundtrip_preserves_non_finite_params_bitwise() {
        let dir = crate::test_dir("ckpt-roundtrip");
        let c = ckpt(fingerprint(&cfg()));
        save(&dir, &c).unwrap();
        let back = load(&dir, &cfg()).expect("intact checkpoint loads");
        assert_eq!(back, c);
        assert!(f32::from_bits(back.global_bits[1]).is_nan());
        // No temp litter after a successful save.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_current_falls_back_to_prev_then_none() {
        let dir = crate::test_dir("ckpt-fallback");
        let fp = fingerprint(&cfg());
        let mut first = ckpt(fp.clone());
        first.next_round = 1;
        first.rounds.truncate(1);
        let first = first.seal();
        let second = ckpt(fp.clone());
        save(&dir, &first).unwrap();
        save(&dir, &second).unwrap();
        assert_eq!(load(&dir, &cfg()).unwrap().next_round, 2);

        // Truncate the current file: detected, prev wins.
        let path = path_for(&dir, &fp);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert_eq!(load(&dir, &cfg()).unwrap(), first);

        // Rewrite `next_round` so the file still decodes but the checksum
        // does not match: the checksum, not the parser, rejects it.
        let prev = prev_path(&path);
        let mut bytes = std::fs::read(&prev).unwrap();
        let at = MAGIC.len() + 4 + 8 + fp.len();
        assert_eq!(bytes[at..at + 8], 1u64.to_le_bytes(), "next_round field");
        bytes[at..at + 8].copy_from_slice(&0u64.to_le_bytes());
        let tampered = decode(&bytes).expect("a tampered field still decodes");
        assert_eq!(tampered.next_round, 0);
        assert_ne!(tampered.checksum, tampered.body_checksum());
        std::fs::write(&prev, bytes).unwrap();
        assert!(load(&dir, &cfg()).is_none(), "checksum catches tampering");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_fingerprint_version_or_overlong_are_rejected() {
        let dir = crate::test_dir("ckpt-reject");
        let fp = fingerprint(&cfg());
        save(&dir, &ckpt(fp.clone()).seal()).unwrap();
        let mut other = cfg();
        other.seed = 99;
        assert!(load(&dir, &other).is_none(), "fingerprint mismatch");
        let mut short = cfg();
        short.rounds = 1;
        assert!(
            load(&dir, &short).is_none(),
            "a checkpoint past the round budget is unusable"
        );

        let mut c = ckpt(fp);
        c.version = CHECKPOINT_VERSION + 1;
        let c = c.seal();
        save(&dir, &c).unwrap();
        // Both slots now hold the bad version (current) and the good one
        // (prev): fallback still works.
        assert_eq!(load(&dir, &cfg()).unwrap().version, CHECKPOINT_VERSION);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_covers_every_field() {
        let base = ckpt(fingerprint(&cfg()));
        let mut c = base.clone();
        c.attack_state[0] = 2;
        assert_ne!(c.body_checksum(), base.checksum);
        let mut c = base.clone();
        c.rounds[0].quarantined = 5;
        assert_ne!(c.body_checksum(), base.checksum);
        let mut c = base.clone();
        c.pending[0].malicious = false;
        assert_ne!(c.body_checksum(), base.checksum);
        let mut c = base.clone();
        c.inflight[0].seq = 3;
        assert_ne!(c.body_checksum(), base.checksum);
        let mut c = base.clone();
        c.inflight[0].payload_bits[1] = 99;
        assert_ne!(c.body_checksum(), base.checksum);
        let mut c = base.clone();
        c.inflight_meta[0] = 5;
        assert_ne!(c.body_checksum(), base.checksum);
        let mut c = base.clone();
        c.inflight.clear();
        assert_ne!(c.body_checksum(), base.checksum);
        // Two negated parameters flip the same high bit of two lanes.
        let mut c = base.clone();
        c.global_bits[1] ^= 1 << 31;
        c.prev_global_bits.as_mut().unwrap()[1] ^= 1 << 31;
        assert_ne!(c.body_checksum(), base.checksum);
    }

    #[test]
    fn encoding_is_exactly_sized_and_decodes_back() {
        let c = ckpt(fingerprint(&cfg()));
        let bytes = encode(&c);
        assert_eq!(bytes.len(), encoded_len(&c));
        assert_eq!(decode(&bytes), Some(c.clone()));
        let mut bare = c;
        bare.prev_global_bits = None;
        bare.rounds.clear();
        bare.pending.clear();
        bare.inflight.clear();
        bare.inflight_meta.clear();
        let bytes = encode(&bare);
        assert_eq!(bytes.len(), encoded_len(&bare));
        assert_eq!(decode(&bytes), Some(bare));
    }

    const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/ckpt-v3.bin");

    /// The committed golden file pins the layout: `save` must reproduce it
    /// byte for byte and `load` must read it back. A layout change fails
    /// here; bump [`CHECKPOINT_VERSION`], then regenerate with
    /// `cargo test -p fabflip-fl --lib regenerate_golden -- --ignored`.
    #[test]
    fn save_reproduces_the_golden_file() {
        let dir = crate::test_dir("ckpt-golden");
        let c = ckpt(fingerprint(&cfg()));
        save(&dir, &c).unwrap();
        let path = path_for(&dir, &c.fingerprint);
        let golden = std::fs::read(GOLDEN).unwrap();
        assert!(
            std::fs::read(&path).unwrap() == golden,
            "checkpoint layout changed: bump CHECKPOINT_VERSION and regenerate {GOLDEN}"
        );
        std::fs::write(&path, &golden).unwrap();
        assert_eq!(load(&dir, &cfg()), Some(c));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[ignore = "rewrites the committed golden file"]
    fn regenerate_golden() {
        std::fs::write(GOLDEN, encode(&ckpt(fingerprint(&cfg())))).unwrap();
    }

    /// A v2 checkpoint was JSON under `ckpt-<fnv>.json`. It is never
    /// read: under either name the run starts from round 0.
    #[test]
    fn v2_json_checkpoints_start_from_round_zero() {
        let dir = crate::test_dir("ckpt-v2");
        let fp = fingerprint(&cfg());
        let v2 = format!(
            r#"{{"version":2,"fingerprint":{},"next_round":1,"global_bits":[1,2],\
               "prev_global_bits":null,"rounds":[{{"round":0,"accuracy":0.5}}],\
               "pending":[],"attack_state":[],"checksum":0}}"#,
            serde_json::to_string(&fp).unwrap()
        );
        let v2_path = path_for(&dir, &fp).with_extension("json");
        std::fs::write(&v2_path, &v2).unwrap();
        assert_eq!(load(&dir, &cfg()), None, "old name is never looked at");
        std::fs::write(path_for(&dir, &fp), &v2).unwrap();
        assert_eq!(
            load(&dir, &cfg()),
            None,
            "JSON under the new name does not decode"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A 64-byte file whose global run claims 2^40 words must be rejected
    /// from its length field, before anything is allocated for it.
    #[test]
    fn oversized_length_field_is_rejected_without_allocating() {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes()); // fingerprint length
        bytes.extend_from_slice(&0u64.to_le_bytes()); // next_round
        bytes.extend_from_slice(&(1u64 << 40).to_le_bytes()); // global words
        bytes.resize(64, 0);
        assert_eq!(decode(&bytes), None);
        let dir = crate::test_dir("ckpt-oversized");
        std::fs::write(path_for(&dir, &fingerprint(&cfg())), &bytes).unwrap();
        assert_eq!(load(&dir, &cfg()), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_length_current_degrades_to_prev_then_none() {
        let dir = crate::test_dir("ckpt-zero");
        let fp = fingerprint(&cfg());
        let mut first = ckpt(fp.clone());
        first.next_round = 1;
        first.rounds.truncate(1);
        let first = first.seal();
        save(&dir, &first).unwrap();
        save(&dir, &ckpt(fp.clone())).unwrap();

        let path = path_for(&dir, &fp);
        std::fs::write(&path, "").unwrap();
        assert_eq!(load(&dir, &cfg()), Some(first), "prev wins");

        std::fs::write(prev_path(&path), "").unwrap();
        assert_eq!(load(&dir, &cfg()), None, "both empty: fresh start");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash-at-any-byte robustness: truncate the current checkpoint file
    /// at *every* prefix length (including zero). Loading must never
    /// panic, never return garbage — every truncation either fails
    /// verification (falling back to the intact prev) or, at the full
    /// length, loads the real checkpoint.
    #[test]
    fn truncation_at_every_byte_offset_degrades_cleanly() {
        let dir = crate::test_dir("ckpt-truncate");
        let fp = fingerprint(&cfg());
        let mut prev = ckpt(fp.clone());
        prev.next_round = 1;
        prev.rounds.truncate(1);
        let prev = prev.seal();
        let current = ckpt(fp.clone());
        save(&dir, &prev).unwrap();
        save(&dir, &current).unwrap();

        let path = path_for(&dir, &fp);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let got = load(&dir, &cfg()).expect("prev checkpoint stays intact");
            if cut == full.len() {
                assert_eq!(got, current);
            } else {
                assert_eq!(got, prev, "truncation at byte {cut} must fall back");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A single corrupted byte anywhere in the current file — flipped
    /// one bit, the top bit, or all eight — must fail verification and
    /// fall back to the intact prev, never decode to garbage or panic.
    #[test]
    fn single_byte_flip_at_every_offset_falls_back() {
        let dir = crate::test_dir("ckpt-flip");
        let fp = fingerprint(&cfg());
        let mut prev = ckpt(fp.clone());
        prev.next_round = 1;
        prev.rounds.truncate(1);
        let prev = prev.seal();
        save(&dir, &prev).unwrap();
        save(&dir, &ckpt(fp.clone())).unwrap();

        let path = path_for(&dir, &fp);
        let full = std::fs::read(&path).unwrap();
        for at in 0..full.len() {
            for mask in [0x01u8, 0x80, 0xFF] {
                let mut bytes = full.clone();
                bytes[at] ^= mask;
                std::fs::write(&path, &bytes).unwrap();
                assert_eq!(
                    load(&dir, &cfg()),
                    Some(prev.clone()),
                    "flip {mask:#04x} at byte {at} must fall back"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_packing_roundtrips() {
        let v = vec![0.0, -0.0, 1.5, f32::NAN, f32::NEG_INFINITY];
        let back = from_bits(&to_bits(&v));
        for (a, b) in v.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
