//! The crash-tolerant TCP aggregation server (DESIGN.md §4g).
//!
//! A thread-per-core `std::net` shell around the pure round engine of
//! `fabflip_fl::round`: acceptor/handler threads parse and validate
//! frames, a single engine thread owns the [`ServerCore`] and the round's
//! write-ahead log, and every aggregation decision is a pure function of
//! the ordered, validated submission log — so a `kill -9` at any instant
//! resumes, from the checkpoint, to a bitwise-identical global model.
//!
//! Robustness mechanics:
//!
//! * **Durability before acknowledgement** — a submission is answered
//!   `Accepted` only after it is in the persisted checkpoint's in-flight
//!   log (written and fsynced, file and directory, so the answer
//!   survives an OS crash as well as a process kill). A crash between
//!   enqueue and persist loses only submissions the client still owns
//!   (it never saw `Accepted`) and will retry; a crash after persist
//!   makes the retry a `Duplicate`. Either way the final log — sorted by
//!   canonical sequence number — is identical.
//! * **Bounded queues, explicit backpressure** — the handler→engine
//!   submission queue is bounded; when full, handlers answer `BUSY` with
//!   a retry hint instead of queueing unboundedly. The accept side is
//!   bounded by the worker count: each worker serves one connection at a
//!   time, and waiting connections sit in the OS backlog.
//! * **Deadlines with graceful degradation** — each round arms a
//!   deadline at its first event. If the full announced cohort arrives,
//!   the round closes exactly as the batch simulator would
//!   (`degrade = false`); if the deadline fires short, the round closes
//!   over the delivered cohort with `DefenseKind::for_cohort`
//!   degradation.
//! * **Poisoned connections never take down the round** — wire errors
//!   tear down that one connection; handler panics are caught and also
//!   only cost the connection. Round state lives in the engine thread.

use crate::wire::{self, Frame, StatusOk, Verdict};
use fabflip_fl::checkpoint::{self, Checkpoint, InflightSubmission};
use fabflip_fl::metrics::RoundRecord;
use fabflip_fl::round::{server_accepts, RoundInput, ServerCore};
use fabflip_fl::{FlConfig, FlError};
use fabflip_tensor::quant;
use std::collections::VecDeque;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Server failure.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid serving configuration.
    Config(String),
    /// Socket-level failure while starting up.
    Io(std::io::Error),
    /// A round failed to close (training/aggregation/checkpoint error).
    Fl(FlError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "config: {m}"),
            ServeError::Io(e) => write!(f, "i/o: {e}"),
            ServeError::Fl(e) => write!(f, "round engine: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Config(_) => None,
            ServeError::Io(e) => Some(e),
            ServeError::Fl(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<FlError> for ServeError {
    fn from(e: FlError) -> ServeError {
        ServeError::Fl(e)
    }
}

/// How the server runs one FL deployment.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// The experiment configuration. The fault plan must be inactive —
    /// the serve path's faults come from the real wire (and the chaos
    /// proxy), not the simulated transport.
    pub cfg: FlConfig,
    /// Bind address (`port 0` picks an ephemeral port).
    pub bind: SocketAddr,
    /// Checkpoint directory (the write-ahead log lives here too).
    pub ckpt_dir: PathBuf,
    /// Connection-handler threads (`0` = one per available core).
    pub workers: usize,
    /// Bound on the handler→engine submission queue; a full queue answers
    /// `BUSY`.
    pub queue_cap: usize,
    /// Per-round deadline, armed at the round's first event. When it
    /// fires with a short cohort the round closes degraded.
    pub deadline: Duration,
    /// Per-connection socket read/write timeout.
    pub io_timeout: Duration,
    /// Per-frame payload cap.
    pub max_frame: usize,
}

impl ServeOptions {
    /// Defaults tuned for loopback test deployments.
    pub fn new(cfg: FlConfig, ckpt_dir: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            cfg,
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            ckpt_dir: ckpt_dir.into(),
            workers: 0,
            queue_cap: 16,
            deadline: Duration::from_secs(30),
            io_timeout: Duration::from_secs(10),
            max_frame: wire::DEFAULT_MAX_FRAME,
        }
    }
}

/// Reply slot a handler waits on while the engine makes its submission
/// durable.
struct Ack {
    slot: Mutex<Option<(Verdict, u64)>>,
    cv: Condvar,
}

impl Ack {
    fn new() -> Arc<Ack> {
        Arc::new(Ack {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn set(&self, verdict: Verdict, round: u64) {
        if let Ok(mut s) = self.slot.lock() {
            *s = Some((verdict, round));
            self.cv.notify_all();
        }
    }

    fn wait(&self, timeout: Duration) -> Option<(Verdict, u64)> {
        let mut s = match self.slot.lock() {
            Ok(s) => s,
            Err(p) => p.into_inner(),
        };
        let deadline = Instant::now() + timeout;
        while s.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            s = match self.cv.wait_timeout(s, deadline - now) {
                Ok((g, _)) => g,
                Err(p) => p.into_inner().0,
            };
        }
        *s
    }
}

/// A validated submission handed from a handler to the engine.
struct SubmitJob {
    round: u64,
    seq: u32,
    client: u32,
    malicious: bool,
    weight: f32,
    payload: Vec<f32>,
    ack: Arc<Ack>,
}

/// One validated, persisted log entry of the round in progress.
struct LogEntry {
    seq: u32,
    client: u32,
    malicious: bool,
    weight: f32,
    payload: Vec<f32>,
}

/// The round's META announcement.
#[derive(Clone, Copy)]
struct MetaInfo {
    expected: u32,
    offline: u32,
    diverged: u32,
    silent: u32,
}

/// All mutable server state, owned by one mutex. Handlers take the lock
/// only for short validations and queue pushes; the engine thread drains
/// the queue, persists, and closes rounds.
struct Engine {
    core: ServerCore,
    cfg: FlConfig,
    fingerprint: String,
    ckpt_dir: PathBuf,
    dim: usize,
    round: usize,
    rounds: Vec<RoundRecord>,
    /// Sorted by `seq` (canonical order), deduped.
    log: Vec<LogEntry>,
    queue: VecDeque<SubmitJob>,
    meta: Option<MetaInfo>,
    quarantined: usize,
    deadline_at: Option<Instant>,
    done: bool,
    /// The error that stopped the engine, as the round close raised it.
    fatal: Option<FlError>,
}

impl Engine {
    fn seq_logged(&self, seq: u32) -> bool {
        self.log.binary_search_by_key(&seq, |e| e.seq).is_ok()
    }

    fn seq_pending(&self, seq: u32, round: u64) -> bool {
        self.queue.iter().any(|j| j.seq == seq && j.round == round)
    }

    /// Persists the full resumable state, including the round-in-progress
    /// write-ahead log.
    fn persist(&self) -> Result<(), FlError> {
        let ckpt = Checkpoint {
            version: checkpoint::CHECKPOINT_VERSION,
            fingerprint: self.fingerprint.clone(),
            next_round: self.round,
            global_bits: checkpoint::to_bits(self.core.global()),
            prev_global_bits: self.core.prev_global().map(checkpoint::to_bits),
            rounds: self.rounds.clone(),
            pending: Vec::new(),
            // The attack's cross-round state lives in the load
            // generator's ClientFleet, which survives server crashes; the
            // server checkpoint does not carry it.
            attack_state: Vec::new(),
            inflight: self
                .log
                .iter()
                .map(|e| InflightSubmission {
                    seq: e.seq,
                    client: e.client as usize,
                    malicious: e.malicious,
                    weight_bits: e.weight.to_bits(),
                    payload_bits: checkpoint::to_bits(&e.payload),
                })
                .collect(),
            inflight_meta: match self.meta {
                None => Vec::new(),
                Some(m) => vec![
                    m.expected as u64,
                    m.offline as u64,
                    m.diverged as u64,
                    m.silent as u64,
                    0, // deadline_fired: a fired deadline closes the round at once
                ],
            },
            checksum: 0,
        }
        .seal();
        checkpoint::save(&self.ckpt_dir, &ckpt)
    }

    /// Closes the round in progress over the current log.
    fn close_round(&mut self, degrade: bool) -> Result<(), FlError> {
        let meta = self.meta;
        let input = RoundInput {
            updates: self.log.iter().map(|e| e.payload.clone()).collect(),
            weights: self.log.iter().map(|e| e.weight).collect(),
            malicious_indices: self
                .log
                .iter()
                .enumerate()
                .filter(|(_, e)| e.malicious)
                .map(|(i, _)| i)
                .collect(),
            degrade,
            quarantined: self.quarantined,
            offline: meta.map_or(0, |m| m.offline as usize),
            diverged: meta.map_or(0, |m| m.diverged as usize),
            silent: meta.map_or(0, |m| m.silent as usize),
            ..RoundInput::default()
        };
        let round = self.round;
        let record = self.core.close_round(round, input)?;
        self.rounds.push(record);
        self.round += 1;
        self.log.clear();
        self.meta = None;
        self.quarantined = 0;
        self.deadline_at = None;
        self.done = self.round >= self.cfg.rounds;
        self.persist()
    }
}

struct Inner {
    state: Mutex<Engine>,
    /// Wakes the engine on queue pushes, META arrival, and stop.
    cv: Condvar,
    stop: AtomicBool,
    queue_cap: usize,
    deadline: Duration,
    io_timeout: Duration,
    max_frame: usize,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, Engine> {
        match self.state.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

/// A running aggregation server.
pub struct ServeHandle {
    addr: SocketAddr,
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown (idempotent; also triggered by a SHUTDOWN
    /// frame).
    pub fn stop(&self) {
        self.inner.request_stop();
    }

    /// Rounds closed so far (records in order).
    pub fn records(&self) -> Vec<RoundRecord> {
        self.inner.lock().rounds.clone()
    }

    /// Waits for shutdown and returns the closed-round records.
    ///
    /// # Errors
    ///
    /// [`ServeError::Fl`] when a round failed to close; the server stops
    /// serving at the failure point (state up to the last durable
    /// checkpoint is preserved for a restart).
    pub fn join(mut self) -> Result<Vec<RoundRecord>, ServeError> {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let st = self.inner.lock();
        match &st.fatal {
            Some(e) => Err(ServeError::Fl(e.clone())),
            None => Ok(st.rounds.clone()),
        }
    }
}

/// Starts the server: binds, recovers any checkpointed state (including a
/// mid-round write-ahead log), and spawns the engine and worker threads.
///
/// # Errors
///
/// [`ServeError::Config`] for an active fault plan or invalid config;
/// [`ServeError::Io`] on bind failure; [`ServeError::Fl`] when the
/// recovered checkpoint is unusable.
pub fn spawn(opts: ServeOptions) -> Result<ServeHandle, ServeError> {
    if opts.cfg.faults.is_active() {
        return Err(ServeError::Config(
            "serve requires an inactive fault plan: wire faults come from the network \
             (use the chaos proxy), not the simulated transport"
                .into(),
        ));
    }
    opts.cfg.validate().map_err(ServeError::Config)?;
    if opts.queue_cap == 0 {
        return Err(ServeError::Config("queue_cap must be positive".into()));
    }

    let mut core = ServerCore::new(&opts.cfg)?;
    let fingerprint = checkpoint::fingerprint(&opts.cfg);
    let mut round = 0usize;
    let mut rounds: Vec<RoundRecord> = Vec::new();
    let mut log: Vec<LogEntry> = Vec::new();
    let mut meta: Option<MetaInfo> = None;

    // Crash recovery: the checkpoint carries both the last closed-round
    // state and the in-flight log of the round that was in progress.
    if let Some(c) = checkpoint::load(&opts.ckpt_dir, &opts.cfg) {
        core.restore(
            checkpoint::from_bits(&c.global_bits),
            c.prev_global_bits.as_deref().map(checkpoint::from_bits),
        )?;
        round = c.next_round;
        rounds = c.rounds;
        log = c
            .inflight
            .iter()
            .map(|s| LogEntry {
                seq: s.seq,
                client: s.client as u32,
                malicious: s.malicious,
                weight: f32::from_bits(s.weight_bits),
                payload: checkpoint::from_bits(&s.payload_bits),
            })
            .collect();
        log.sort_by_key(|e| e.seq);
        if c.inflight_meta.len() >= 4 {
            meta = Some(MetaInfo {
                expected: c.inflight_meta[0] as u32,
                offline: c.inflight_meta[1] as u32,
                diverged: c.inflight_meta[2] as u32,
                silent: c.inflight_meta[3] as u32,
            });
        }
    }

    let listener = TcpListener::bind(opts.bind)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let dim = core.dim();
    let done = round >= opts.cfg.rounds;
    // Re-arm the deadline on mid-round recovery so a cohort that died
    // with the server still degrades instead of stalling forever.
    let deadline_at = (!log.is_empty() || meta.is_some()).then(|| Instant::now() + opts.deadline);
    let engine = Engine {
        core,
        cfg: opts.cfg.clone(),
        fingerprint,
        ckpt_dir: opts.ckpt_dir.clone(),
        dim,
        round,
        rounds,
        log,
        queue: VecDeque::new(),
        meta,
        quarantined: 0,
        deadline_at,
        done,
        fatal: None,
    };

    let inner = Arc::new(Inner {
        state: Mutex::new(engine),
        cv: Condvar::new(),
        stop: AtomicBool::new(false),
        queue_cap: opts.queue_cap,
        deadline: opts.deadline,
        io_timeout: opts.io_timeout,
        max_frame: opts.max_frame,
    });

    let workers = if opts.workers > 0 {
        opts.workers
    } else {
        std::thread::available_parallelism().map_or(2, |n| n.get())
    };

    let mut threads = Vec::with_capacity(workers + 1);
    let engine_inner = Arc::clone(&inner);
    threads.push(std::thread::spawn(move || engine_loop(&engine_inner)));
    for _ in 0..workers {
        let w_inner = Arc::clone(&inner);
        let w_listener = listener.try_clone()?;
        threads.push(std::thread::spawn(move || {
            accept_loop(&w_inner, &w_listener)
        }));
    }

    Ok(ServeHandle {
        addr,
        inner,
        threads,
    })
}

/// Worker thread: accept one connection at a time, serve it to
/// completion. A panic while serving (a handler bug, never an expected
/// path) is caught so the worker — and the round — survive it.
fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    while !inner.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_inner = Arc::clone(inner);
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    handle_conn(&conn_inner, stream);
                }));
                // A poisoned connection (panic included) costs only
                // itself.
                drop(result);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
}

/// Serves one connection until EOF, error, timeout, or shutdown.
fn handle_conn(inner: &Arc<Inner>, stream: TcpStream) {
    if stream.set_read_timeout(Some(inner.io_timeout)).is_err()
        || stream.set_write_timeout(Some(inner.io_timeout)).is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let frame = match wire::read_frame(&mut stream, inner.max_frame) {
            Ok(f) => f,
            // Any wire failure (timeout, checksum, truncation, garbage):
            // this connection is poisoned; tear it down — the round and
            // every other connection are untouched.
            Err(_) => {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        let reply = match frame {
            Frame::Hello => {
                let st = inner.lock();
                Frame::HelloOk {
                    dim: st.dim as u32,
                    round: st.round as u64,
                    done: st.done,
                }
            }
            Frame::Submit(sub) => handle_submit(inner, sub),
            Frame::Meta {
                round,
                expected,
                offline,
                diverged,
                silent,
            } => {
                let mut st = inner.lock();
                if !st.done && round == st.round as u64 && st.meta.is_none() {
                    st.meta = Some(MetaInfo {
                        expected,
                        offline,
                        diverged,
                        silent,
                    });
                    if st.deadline_at.is_none() {
                        st.deadline_at = Some(Instant::now() + inner.deadline);
                    }
                    inner.cv.notify_all();
                }
                Frame::MetaOk {
                    round: st.round as u64,
                }
            }
            Frame::Status { include_model } => {
                let st = inner.lock();
                Frame::StatusOk(Box::new(StatusOk {
                    round: st.round as u64,
                    done: st.done,
                    logged: st.log.len() as u32,
                    expected: st.meta.map(|m| m.expected),
                    global_bits: include_model.then(|| checkpoint::to_bits(st.core.global())),
                    prev_global_bits: if include_model {
                        st.core.prev_global().map(checkpoint::to_bits)
                    } else {
                        None
                    },
                }))
            }
            Frame::Shutdown => {
                let _ = wire::write_frame(&mut stream, &Frame::ShutdownOk);
                inner.request_stop();
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            // Server-to-client frames arriving at the server: protocol
            // violation; poisoned connection.
            _ => {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        if wire::write_frame(&mut stream, &reply).is_err() {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
    }
}

/// Validates one submission and hands it to the engine, waiting for the
/// durability acknowledgement.
fn handle_submit(inner: &Arc<Inner>, sub: wire::Submit) -> Frame {
    // Decode outside the lock: it is the submission's only O(d) work.
    let payload = quant::decode(&sub.payload);
    let ack = Ack::new();
    {
        let mut st = inner.lock();
        let round = st.round as u64;
        if st.done || sub.round != round {
            return Frame::SubmitOk {
                verdict: Verdict::WrongRound,
                round,
            };
        }
        if st.seq_logged(sub.seq) {
            return Frame::SubmitOk {
                verdict: Verdict::Duplicate,
                round,
            };
        }
        if st.seq_pending(sub.seq, sub.round) {
            // Queued but not yet durable: only the persisted log may
            // answer `Duplicate` (the client is allowed to forget a
            // submission on that answer), so a concurrent retry backs
            // off instead.
            return Frame::Busy {
                retry_ms: busy_hint_ms(inner),
            };
        }
        if !server_accepts(&payload, st.dim) {
            st.quarantined += 1;
            return Frame::SubmitOk {
                verdict: Verdict::Quarantined,
                round,
            };
        }
        if st.queue.len() >= inner.queue_cap {
            // Explicit backpressure: the client backs off and retries.
            return Frame::Busy {
                retry_ms: busy_hint_ms(inner),
            };
        }
        st.queue.push_back(SubmitJob {
            round: sub.round,
            seq: sub.seq,
            client: sub.client,
            malicious: sub.malicious,
            weight: f32::from_bits(sub.weight_bits),
            payload,
            ack: Arc::clone(&ack),
        });
        if st.deadline_at.is_none() {
            st.deadline_at = Some(Instant::now() + inner.deadline);
        }
        inner.cv.notify_all();
    }
    // Durability gate: only the engine's persisted-log verdict is
    // acknowledged. If the engine cannot keep up, answer BUSY — the
    // retry will be deduped once the entry lands.
    match ack.wait(inner.io_timeout) {
        Some((verdict, round)) => Frame::SubmitOk { verdict, round },
        None => Frame::Busy {
            retry_ms: busy_hint_ms(inner),
        },
    }
}

fn busy_hint_ms(inner: &Inner) -> u32 {
    (inner.io_timeout.as_millis() / 4).clamp(5, 250) as u32
}

/// The engine thread: drains the submission queue (dedup → append to the
/// sorted log → persist → acknowledge), closes rounds when the announced
/// cohort is complete or the deadline fires, and exits on shutdown.
fn engine_loop(inner: &Arc<Inner>) {
    let mut st = inner.lock();
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            // Unanswered handlers get BUSY via their ack timeout; every
            // accepted submission is already durable.
            return;
        }
        if let Some(job) = st.queue.pop_front() {
            let round = st.round as u64;
            let verdict = if st.done || job.round != round {
                Verdict::WrongRound
            } else if st.seq_logged(job.seq) {
                Verdict::Duplicate
            } else {
                let at = st
                    .log
                    .binary_search_by_key(&job.seq, |e| e.seq)
                    .unwrap_or_else(|i| i);
                st.log.insert(
                    at,
                    LogEntry {
                        seq: job.seq,
                        client: job.client,
                        malicious: job.malicious,
                        weight: job.weight,
                        payload: job.payload,
                    },
                );
                match st.persist() {
                    Ok(()) => Verdict::Accepted,
                    Err(_) => {
                        // Durability failed: withdraw the entry and leave
                        // the ack unanswered — the handler times out into
                        // BUSY and the client retries. Answering anything
                        // durable-sounding here would lose the submission.
                        if let Ok(i) = st.log.binary_search_by_key(&job.seq, |e| e.seq) {
                            st.log.remove(i);
                        }
                        continue;
                    }
                }
            };
            job.ack.set(verdict, st.round as u64);
            continue;
        }

        // Queue drained: close if the cohort is complete or overdue.
        if !st.done {
            if let Some(m) = st.meta {
                if st.log.len() >= m.expected as usize {
                    if let Err(e) = st.close_round(false) {
                        st.fatal = Some(e);
                        inner.request_stop();
                        return;
                    }
                    continue;
                }
            }
            if let Some(t) = st.deadline_at {
                let now = Instant::now();
                if now >= t {
                    // Deadline fired with a short (or unannounced)
                    // cohort: close degraded over what was delivered.
                    if let Err(e) = st.close_round(true) {
                        st.fatal = Some(e);
                        inner.request_stop();
                        return;
                    }
                    continue;
                }
                let (g, _) = match inner.cv.wait_timeout(st, t - now) {
                    Ok(r) => r,
                    Err(p) => p.into_inner(),
                };
                st = g;
                continue;
            }
        }
        // Idle (no deadline armed, or all rounds done): wait for work.
        // The periodic timeout keeps the stop flag polled even if a
        // notification is missed.
        let (g, _) = match inner.cv.wait_timeout(st, Duration::from_millis(100)) {
            Ok(r) => r,
            Err(p) => p.into_inner(),
        };
        st = g;
    }
}
