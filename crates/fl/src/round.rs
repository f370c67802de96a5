//! Round building blocks shared by the batch simulator ([`crate::simulate`])
//! and the network serving shell (`fabflip-serve`): client-side staging
//! ([`ClientFleet`]) and server-side round close ([`ServerCore`]).
//!
//! This split is the purity boundary of DESIGN.md §4g. Everything that
//! decides the next global model — client selection, local training, the
//! adversary's crafted update, the defense — is a pure function of
//! `(cfg, round)` plus the ordered, validated submission log handed to
//! [`ServerCore::close_round`]. The batch simulator builds that log from
//! its in-process fault transport; the TCP server builds it from network
//! submissions sorted by staging sequence number. Both paths therefore
//! produce bitwise-identical transcripts (pinned by the serve parity
//! test), and a kill -9 at any point resumes to the same global model.

use crate::faults::{streams, sub_seed, ClientFault};
use crate::metrics::RoundRecord;
use crate::{FlConfig, FlError, TaskKind};
use fabflip_agg::{AggError, Defense, Selection};
use fabflip_attacks::{Attack, AttackContext, AttackError, TaskInfo};
use fabflip_data::{dirichlet_partition, Dataset};
use fabflip_nn::losses::{accuracy, softmax_cross_entropy_hard};
use fabflip_nn::Sequential;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngCore, SeedableRng};
use std::sync::{Mutex, PoisonError};

/// Fixed task seed: all runs (clean baseline and attacked) share the same
/// class prototypes, so `acc_natk` and `acc_max` are comparable.
pub(crate) const TASK_SEED: u64 = 0xDA7A_5EED;

/// The server's per-submission validator: a payload is accepted when it
/// has the model dimension, every coordinate is finite, and it is not the
/// all-zero dead-buffer sentinel. Quarantining here is *degradation
/// accounting*; the aggregation rules additionally filter malformed input
/// themselves (defense in depth). Shared by the batch fault transport
/// and the `fabflip-serve` ingest path.
pub fn server_accepts(payload: &[f32], d: usize) -> bool {
    payload.len() == d && payload.iter().all(|v| v.is_finite()) && payload.iter().any(|&v| v != 0.0)
}

/// Evaluates `model` on `test`, batching to bound peak memory.
///
/// # Errors
///
/// Propagates forward-pass failures.
pub fn evaluate_model(
    model: &mut Sequential,
    test: &Dataset,
    batch: usize,
) -> Result<f32, FlError> {
    let n = test.len();
    if n == 0 {
        return Ok(0.0);
    }
    let mut correct_weighted = 0.0f32;
    let idx: Vec<usize> = (0..n).collect();
    for chunk in idx.chunks(batch.max(1)) {
        let b = test.gather(chunk);
        let logits = model.forward(&b.images)?;
        correct_weighted += accuracy(&logits, &b.labels) * chunk.len() as f32;
    }
    Ok(correct_weighted / n as f32)
}

/// A [`RngCore`] that counts the draws taken through it.
struct CountingRng<R> {
    inner: R,
    draws: u64,
}

impl<R: RngCore> RngCore for CountingRng<R> {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// The task's client model, built once per fleet (DESIGN.md §4b).
///
/// A benign client starts from `cfg.task.build_model(crng)` and
/// `set_flat_params(global)`, which overwrites every sampled weight. The
/// He-normal draws still advance `crng`, whose later draws shuffle the
/// client's batches. So a client clones this template and advances `crng`
/// by the init's draw count instead: the same model and the same stream,
/// without sampling weights it throws away.
pub(crate) struct ClientModel {
    /// Never run forward, so its layers' grow-only buffers stay empty and
    /// each clone copies only parameters.
    template: Sequential,
    /// `next_u64` draws one `build_model` takes (data-independent).
    init_draws: u64,
}

impl ClientModel {
    fn new(task: TaskKind, seed: u64) -> ClientModel {
        // Only the count is used: set_flat_params overwrites the values.
        let mut rng = CountingRng {
            inner: StdRng::seed_from_u64(sub_seed(seed, streams::MODEL_INIT, 0, 0)),
            draws: 0,
        };
        let template = task.build_model(&mut rng);
        ClientModel {
            template,
            init_draws: rng.draws,
        }
    }

    /// The model `task.build_model(rng)` then `set_flat_params(global)`
    /// returns, with `rng` left where that leaves it.
    fn instantiate(&self, global: &[f32], rng: &mut StdRng) -> Result<Sequential, FlError> {
        let mut model = self.template.clone();
        for _ in 0..self.init_draws {
            rng.next_u64();
        }
        model.set_flat_params(global)?;
        Ok(model)
    }
}

/// Trains one benign client: start at `global`, run `local_epochs` of
/// mini-batch SGD on the client's shard, return the flat update.
pub(crate) fn train_benign_client(
    cfg: &FlConfig,
    client_model: &ClientModel,
    train: &Dataset,
    shard: &[usize],
    global: &[f32],
    rng: &mut StdRng,
) -> Result<Vec<f32>, FlError> {
    let mut model = client_model.instantiate(global, rng)?;
    for _ in 0..cfg.local_epochs {
        for b in train.shuffled_batches(shard, cfg.batch, rng) {
            model.train_step(&b.images, cfg.lr, |logits| {
                softmax_cross_entropy_hard(logits, &b.labels)
            })?;
        }
    }
    Ok(model.flat_params())
}

/// Result of one selected client's local phase.
enum LocalOutcome {
    /// Adversary-controlled: its update is crafted centrally, not here.
    Malicious,
    /// No local data: the client never submits.
    Offline,
    /// Local training produced non-finite weights: fails to submit.
    Diverged,
    /// Dropout fault: the client is unreachable before it computes.
    Dropped,
    /// A finished benign update and its sample weight.
    Trained(Vec<f32>, f32),
}

type ClientOutcome = Result<LocalOutcome, FlError>;

/// The adversary's crafted update and its `ATTACK` stream after the craft.
type Crafted = (Result<Vec<f32>, AttackError>, StdRng);

/// One unit of a round's staging dispatch.
enum Unit {
    /// The local phase of the client at this selection index.
    Client(usize, ClientOutcome),
    /// The oracle-free attack's craft.
    Craft(Crafted),
}

/// A submission staged for this round's transport. Its position in
/// [`StagedRound::submissions`] is its canonical sequence number: the
/// order the batch transport delivers in, and the order the serve path
/// restores by sorting the network log before closing the round.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedSubmission {
    /// The simulated in-transit fault that strikes this submission, from
    /// the config's fault plan (`None` for every submission when the plan
    /// is inactive — the serve path requires an inactive plan and gets its
    /// faults from the wire instead).
    pub fault: Option<ClientFault>,
    /// Submitting client id.
    pub client: usize,
    /// Whether this is one of the adversary's copies.
    pub malicious: bool,
    /// Aggregation weight (local sample count; `synth_set_size` claimed by
    /// malicious copies).
    pub weight: f32,
    /// The raw f32 update, pre-quantization.
    pub payload: Vec<f32>,
}

/// One round of client-side work: staged submissions in canonical order
/// plus the accounting of selected clients that never submit.
#[derive(Debug, Default)]
pub struct StagedRound {
    /// Submissions in canonical (selection, then malicious-copy) order.
    pub submissions: Vec<StagedSubmission>,
    /// Selected clients with no local data.
    pub offline: usize,
    /// Benign clients whose local training went non-finite.
    pub diverged: usize,
    /// Clients dropped *before* local compute by the fault plan.
    pub dropped: usize,
    /// Selected malicious clients with nothing to submit (no attack
    /// configured, or an oracle-dependent attack with an empty oracle).
    pub silent: usize,
}

/// The client side of one FL deployment: datasets, the Dirichlet
/// partition, the adversary-controlled subset, the (stateful) attack and
/// the benign clients' model template.
/// [`ClientFleet::stage_round`] is everything that happens *before* the
/// wire — identical whether the wire is the in-process fault transport or
/// a TCP socket.
pub struct ClientFleet {
    cfg: FlConfig,
    train: Dataset,
    shards: Vec<Vec<usize>>,
    malicious: Vec<usize>,
    attack: Option<Box<dyn Attack>>,
    task_info: TaskInfo,
    client_model: ClientModel,
}

impl ClientFleet {
    /// Builds the fleet for `cfg`: synthesizes the training split,
    /// partitions it, draws the malicious subset, and constructs the
    /// attack (pooling the adversary's shards when it needs real data).
    ///
    /// # Errors
    ///
    /// Returns [`FlError`] on invalid configuration or partition failure.
    pub fn new(cfg: &FlConfig) -> Result<ClientFleet, FlError> {
        cfg.validate().map_err(FlError::BadConfig)?;
        let spec = cfg.task.spec();
        let train = Dataset::synthesize_split(
            &spec,
            cfg.train_size,
            TASK_SEED,
            sub_seed(cfg.seed, streams::TRAIN_DATA, 0, 0),
        );
        let shards = dirichlet_partition(
            &train,
            cfg.n_clients,
            cfg.beta,
            sub_seed(cfg.seed, streams::PARTITION, 0, 0),
        )?;

        // Adversary-controlled clients: a uniformly random subset, kept as
        // a sorted vector (membership via binary search) so every
        // iteration over it is deterministic — a HashSet here leaks hash
        // order into the adversary's data pool (fabcheck:
        // nondeterministic-collection).
        let mut setup_rng = StdRng::seed_from_u64(sub_seed(cfg.seed, streams::MALICIOUS_SET, 0, 0));
        let mut ids: Vec<usize> = (0..cfg.n_clients).collect();
        ids.shuffle(&mut setup_rng);
        let mut malicious: Vec<usize> = ids[..cfg.n_malicious()].to_vec();
        malicious.sort_unstable();

        // The Fig. 7 real-data adversary pools its clients' Dirichlet
        // shards.
        let adversary_data = if cfg.attack.needs_adversary_data() {
            let mut pool: Vec<usize> = malicious
                .iter()
                .flat_map(|&c| shards[c].iter().copied())
                .collect();
            pool.sort_unstable();
            let b = train.gather(&pool);
            Some(Dataset::new(b.images, b.labels, train.num_classes()))
        } else {
            None
        };
        let attack = cfg.attack.build(adversary_data);

        let task_info = TaskInfo {
            channels: spec.channels,
            height: spec.height,
            width: spec.width,
            num_classes: spec.num_classes,
            synth_set_size: cfg.synth_set_size,
            local_lr: cfg.lr,
            local_batch: cfg.batch,
            local_epochs: cfg.local_epochs,
        };
        Ok(ClientFleet {
            cfg: cfg.clone(),
            train,
            shards,
            malicious,
            attack,
            task_info,
            client_model: ClientModel::new(cfg.task, cfg.seed),
        })
    }

    /// The attack's opaque cross-round state (`Attack::checkpoint_state`).
    pub fn attack_state(&self) -> Vec<u64> {
        self.attack
            .as_ref()
            .map_or_else(Vec::new, |a| a.checkpoint_state())
    }

    /// Restores attack state captured by [`ClientFleet::attack_state`].
    pub fn restore_attack_state(&mut self, state: &[u64]) {
        if let Some(a) = self.attack.as_mut() {
            a.restore_state(state);
        }
    }

    /// Runs the client side of one round against the current `global`
    /// model: sample `K` clients, compute the fault schedule, train benign
    /// clients in parallel, craft the adversary's update, and stage every
    /// submission in canonical order. Pure per `(cfg, round, global)` and
    /// the attack's cross-round state — thread-count invariant and
    /// identical after a resume.
    ///
    /// # Errors
    ///
    /// Propagates training and attack failures; a failed benign client
    /// takes precedence over a failed craft, and among clients the first
    /// in selection order wins.
    pub fn stage_round(
        &mut self,
        round: usize,
        global: &[f32],
        prev_global: Option<&[f32]>,
    ) -> Result<StagedRound, FlError> {
        let ClientFleet {
            cfg,
            train,
            shards,
            malicious,
            attack,
            task_info,
            client_model,
        } = self;
        let round_u64 = round as u64;
        let mut round_rng =
            StdRng::seed_from_u64(sub_seed(cfg.seed, streams::CLIENT_SAMPLING, round_u64, 0));
        let mut pool: Vec<usize> = (0..cfg.n_clients).collect();
        pool.shuffle(&mut round_rng);
        let selected = &pool[..cfg.clients_per_round];

        // The round's fault schedule — pure per (seed, round, client), so
        // it is thread-count invariant and recomputed identically after a
        // resume (no fault state is checkpointed beyond pending stales).
        let faults: Vec<Option<ClientFault>> = selected
            .iter()
            .map(|&c| cfg.faults.fault_for(cfg.seed, round_u64, c as u64))
            .collect();
        let malicious_sel: Vec<(usize, usize)> = selected
            .iter()
            .enumerate()
            .filter(|&(_, &c)| malicious.binary_search(&c).is_ok())
            .map(|(s, &c)| (s, c))
            .collect();
        let malicious_selected = malicious_sel.len();

        // Adversarial crafting: one update for all malicious clients, from
        // this round's `ATTACK` stream. The stream is handed back so the
        // per-copy Sybil noise continues it.
        let task = cfg.task;
        let build_model = move |rng: &mut StdRng| task.build_model(rng);
        let craft = |attack: &mut dyn Attack, oracle: &[Vec<f32>]| {
            let ctx = AttackContext {
                global,
                prev_global,
                benign_updates: oracle,
                n_selected: cfg.clients_per_round,
                n_malicious_selected: malicious_selected,
                task: task_info,
                build_model: &build_model,
            };
            let mut arng = StdRng::seed_from_u64(sub_seed(cfg.seed, streams::ATTACK, round_u64, 0));
            (attack.craft(&ctx, &mut arng), arng)
        };
        let attack = attack.as_deref_mut().filter(|_| malicious_selected > 0);
        // An attack that never reads the benign oracle is crafted as unit 0
        // of the dispatch that trains the benign clients, so the craft (in
        // a ZKA round the longest single item) overlaps with training
        // instead of following it; oracle attacks wait for the cohort.
        let (early, late) = if cfg.attack.uses_benign_oracle() {
            (None, attack)
        } else {
            (attack.map(Mutex::new), None)
        };
        let offset = usize::from(early.is_some());

        // Benign local training. Every client already draws from an
        // independent RNG stream keyed by (seed, round, client), and the
        // craft from its own `ATTACK` stream, so all units run in parallel
        // and merge in unit order — the transcript is bitwise identical to
        // the sequential loop (see the determinism contract in
        // `fabflip_tensor::par`).
        let local_phase = |s: usize| -> ClientOutcome {
            let client = selected[s];
            if malicious.binary_search(&client).is_ok() {
                return Ok(LocalOutcome::Malicious);
            }
            let shard = &shards[client];
            if shard.is_empty() {
                return Ok(LocalOutcome::Offline);
            }
            if faults[s] == Some(ClientFault::Dropout) {
                // Dropout strikes before local compute: nothing to train.
                return Ok(LocalOutcome::Dropped);
            }
            let mut crng = StdRng::seed_from_u64(sub_seed(
                cfg.seed,
                streams::CLIENT_TRAIN,
                round_u64,
                client as u64,
            ));
            let w = train_benign_client(cfg, client_model, train, shard, global, &mut crng)?;
            if w.iter().any(|v| !v.is_finite()) {
                // Local training diverged (possible once the global model
                // is poisoned): a real client would fail to submit. Skip
                // it so non-finite values never reach attacks or defenses.
                return Ok(LocalOutcome::Diverged);
            }
            Ok(LocalOutcome::Trained(w, shard.len() as f32))
        };
        let units: Vec<Unit> = fabflip_tensor::par::map_collect(offset + selected.len(), |u| {
            match early.as_ref().filter(|_| u == 0) {
                Some(slot) => {
                    // Unit 0 runs once, so this is the only lock: poison
                    // cannot be observed (a panicking craft re-raises out
                    // of the dispatch and the mutex dies with this frame).
                    let mut attack = slot.lock().unwrap_or_else(PoisonError::into_inner);
                    Unit::Craft(craft(&mut **attack, &[]))
                }
                None => Unit::Client(u - offset, local_phase(u - offset)),
            }
        });

        let mut out = StagedRound::default();
        // The adversary's oracle is the benign updates as *computed* — its
        // white-box client-level view, before transport faults strike
        // (dropout happens pre-compute, so dropped clients are absent).
        // The payloads are staged from this same vector after the craft.
        let mut trained: Vec<Vec<f32>> = Vec::new();
        let mut trained_at: Vec<(usize, f32)> = Vec::new();
        let mut crafted = None;
        for unit in units {
            match unit {
                Unit::Craft(c) => crafted = Some(c),
                Unit::Client(s, outcome) => match outcome? {
                    LocalOutcome::Malicious => {}
                    LocalOutcome::Offline => out.offline += 1,
                    LocalOutcome::Diverged => out.diverged += 1,
                    LocalOutcome::Dropped => out.dropped += 1,
                    LocalOutcome::Trained(w, weight) => {
                        trained.push(w);
                        trained_at.push((s, weight));
                    }
                },
            }
        }
        if let Some(attack) = late {
            crafted = Some(craft(attack, &trained));
        }

        out.submissions.reserve(trained.len() + malicious_selected);
        for (payload, (s, weight)) in trained.into_iter().zip(trained_at) {
            out.submissions.push(StagedSubmission {
                fault: faults[s],
                client: selected[s],
                malicious: false,
                weight,
                payload,
            });
        }

        // The crafted update is staged pre-transport (the adversary does
        // not know the fault schedule; per-copy Sybil noise is drawn in
        // selection order for every copy, faulted or not, so the draw
        // sequence matches the fault-free transcript).
        match crafted {
            Some((Ok(w_mal), mut arng)) => {
                for &(s, client) in &malicious_sel {
                    let mut copy = w_mal.clone();
                    if cfg.sybil_noise > 0.0 {
                        // Sec. III-A: independent per-copy noise to break
                        // Sybil-similarity detection.
                        use rand::Rng;
                        for v in &mut copy {
                            let u1: f32 = arng.gen_range(f32::EPSILON..1.0);
                            let u2: f32 = arng.gen_range(0.0..1.0);
                            let n = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
                            *v += cfg.sybil_noise * n;
                        }
                    }
                    out.submissions.push(StagedSubmission {
                        fault: faults[s],
                        client,
                        malicious: true,
                        weight: cfg.synth_set_size.max(1) as f32,
                        payload: copy,
                    });
                }
            }
            // An oracle-dependent attack cannot act in a round whose oracle
            // is empty or unusable: malicious clients stay silent.
            Some((Err(AttackError::NeedsBenignUpdates(_)), _)) => {
                out.silent += malicious_selected;
            }
            Some((Err(e), _)) => return Err(e.into()),
            // No attack configured: sampled malicious clients submit
            // nothing (the clean-baseline behaviour, now accounted).
            None => out.silent += malicious_selected,
        }
        Ok(out)
    }
}

/// The ordered, validated submission log for one round plus its
/// degradation accounting — everything [`ServerCore::close_round`] needs.
/// `updates[i]`, `weights[i]` are delivery-order aligned;
/// `malicious_indices` indexes into them (ground truth for DPR).
#[derive(Debug, Default)]
pub struct RoundInput {
    /// Accepted payloads in canonical delivery order.
    pub updates: Vec<Vec<f32>>,
    /// Aggregation weight per accepted payload.
    pub weights: Vec<f32>,
    /// Indices into `updates` that are the adversary's.
    pub malicious_indices: Vec<usize>,
    /// Recompute the defense for the delivered cohort
    /// (`DefenseKind::for_cohort`) instead of running the configured rule
    /// as-is. The batch path sets this under a live fault plan; the serve
    /// path sets it when the round deadline fired with a short cohort.
    pub degrade: bool,
    /// Stale (previous-round straggler) deliveries among `updates`.
    pub stale_delivered: usize,
    /// Clients lost to dropout (pre-compute or in transit).
    pub dropped: usize,
    /// Submissions held over to the next round as stale.
    pub straggling: usize,
    /// Submissions rejected by the server validator this round.
    pub quarantined: usize,
    /// Stale deliveries rejected by the server validator.
    pub stale_quarantined: usize,
    /// Selected clients with no local data.
    pub offline: usize,
    /// Benign clients whose local training went non-finite.
    pub diverged: usize,
    /// Selected malicious clients that submitted nothing.
    pub silent: usize,
}

/// The server side of one FL deployment: the held-out test set, the
/// configured defense, and the global model.
/// [`ServerCore::close_round`] is a pure function of the [`RoundInput`]
/// log and the core's current state, so any shell that reconstructs the
/// same log — batch transport or TCP — reaches the same next model.
pub struct ServerCore {
    cfg: FlConfig,
    test: Dataset,
    defense: Box<dyn Defense>,
    global_model: Sequential,
    global: Vec<f32>,
    prev_global: Option<Vec<f32>>,
}

impl ServerCore {
    /// Builds the server for `cfg`: test split, defense, and the seeded
    /// initial global model.
    ///
    /// # Errors
    ///
    /// Returns [`FlError`] on invalid configuration or defense
    /// construction failure.
    pub fn new(cfg: &FlConfig) -> Result<ServerCore, FlError> {
        cfg.validate().map_err(FlError::BadConfig)?;
        let spec = cfg.task.spec();
        let test = Dataset::synthesize_split(
            &spec,
            cfg.test_size,
            TASK_SEED,
            sub_seed(cfg.seed, streams::TEST_DATA, 0, 0),
        );
        let defense = cfg.defense.build()?;
        let mut init_rng = StdRng::seed_from_u64(sub_seed(cfg.seed, streams::MODEL_INIT, 0, 0));
        let mut global_model = cfg.task.build_model(&mut init_rng);
        let global = global_model.flat_params();
        Ok(ServerCore {
            cfg: cfg.clone(),
            test,
            defense,
            global_model,
            global,
            prev_global: None,
        })
    }

    /// The model dimension `d`.
    pub fn dim(&self) -> usize {
        self.global.len()
    }

    /// The current global model parameters.
    pub fn global(&self) -> &[f32] {
        &self.global
    }

    /// The previous global model, once any round has aggregated.
    pub fn prev_global(&self) -> Option<&[f32]> {
        self.prev_global.as_deref()
    }

    /// Restores checkpointed model state.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Checkpoint`] when the restored dimension does
    /// not match this config's model.
    pub fn restore(
        &mut self,
        global: Vec<f32>,
        prev_global: Option<Vec<f32>>,
    ) -> Result<(), FlError> {
        if global.len() != self.global.len() {
            return Err(FlError::Checkpoint(format!(
                "restored model has dimension {} (expected {})",
                global.len(),
                self.global.len()
            )));
        }
        self.global_model.set_flat_params(&global)?;
        self.global = global;
        self.prev_global = prev_global;
        Ok(())
    }

    /// Closes one round: aggregate the validated log under the configured
    /// [`DefenseKind`](fabflip_agg::DefenseKind) — its
    /// [`for_cohort`](fabflip_agg::DefenseKind::for_cohort) form when
    /// `input.degrade` — advance the global model, evaluate, and produce
    /// the round record. This is the only aggregation path. An empty log or
    /// an impossible quorum skips the round and carries the model forward.
    ///
    /// # Errors
    ///
    /// Propagates aggregation errors other than the tolerated
    /// too-few/no-updates quorum failures, and evaluation failures.
    pub fn close_round(&mut self, round: usize, input: RoundInput) -> Result<RoundRecord, FlError> {
        let cfg = &self.cfg;
        let updates = &input.updates;
        let weights = &input.weights;
        let mut malicious_passed = 0usize;
        let mut selection_available = false;
        let mut skipped = false;
        // Every round aggregates under the configured defense, re-derived
        // for the surviving cohort when the round closes degraded. An empty
        // log, or a cohort no form of the defense can serve, skips it.
        let effective = if updates.is_empty() {
            None
        } else if input.degrade {
            cfg.defense.for_cohort(updates.len())
        } else {
            Some(cfg.defense)
        };
        let outcome = match effective {
            None => None,
            Some(kind) if kind == cfg.defense => Some(self.defense.aggregate_with_reference(
                updates,
                weights,
                Some(&self.global),
            )),
            Some(kind) => Some(kind.build()?.aggregate_with_reference(
                updates,
                weights,
                Some(&self.global),
            )),
        };
        match outcome {
            Some(Ok(agg)) => {
                if let Selection::Chosen(ref kept) = agg.selection {
                    selection_available = true;
                    malicious_passed = kept
                        .iter()
                        .filter(|i| input.malicious_indices.contains(i))
                        .count();
                }
                self.prev_global = Some(std::mem::replace(&mut self.global, agg.model));
                self.global_model.set_flat_params(&self.global)?;
            }
            Some(Err(AggError::TooFewUpdates { .. })) | Some(Err(AggError::NoUpdates)) => {
                // No quorum this round: global model carried forward.
                skipped = true;
            }
            Some(Err(e)) => return Err(e.into()),
            None => skipped = true,
        }

        let acc = evaluate_model(&mut self.global_model, &self.test, 100)?;
        Ok(RoundRecord {
            round,
            accuracy: acc,
            // DPR denominator: malicious submissions actually delivered.
            malicious_selected: input.malicious_indices.len(),
            malicious_passed,
            selection_available,
            delivered: input.updates.len(),
            stale: input.stale_delivered,
            dropped: input.dropped,
            straggling: input.straggling,
            quarantined: input.quarantined,
            stale_quarantined: input.stale_quarantined,
            offline: input.offline,
            diverged: input.diverged,
            silent: input.silent,
            skipped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskKind;

    fn tiny_cfg() -> FlConfig {
        FlConfig::builder(TaskKind::Fashion)
            .rounds(2)
            .n_clients(8)
            .clients_per_round(4)
            .train_size(160)
            .test_size(40)
            .synth_set_size(4)
            .seed(9)
            .build()
    }

    #[test]
    fn staging_is_deterministic_and_ordered() {
        let cfg = tiny_cfg();
        let mut a = ClientFleet::new(&cfg).unwrap();
        let mut b = ClientFleet::new(&cfg).unwrap();
        let core = ServerCore::new(&cfg).unwrap();
        let ra = a.stage_round(0, core.global(), None).unwrap();
        let rb = b.stage_round(0, core.global(), None).unwrap();
        assert_eq!(ra.submissions, rb.submissions);
        assert!(!ra.submissions.is_empty());
        assert!(ra.submissions.iter().all(|s| s.fault.is_none()));
    }

    #[test]
    fn close_round_is_a_pure_function_of_the_log() {
        let cfg = tiny_cfg();
        let mut fleet = ClientFleet::new(&cfg).unwrap();
        let mut core_a = ServerCore::new(&cfg).unwrap();
        let mut core_b = ServerCore::new(&cfg).unwrap();
        let staged = fleet.stage_round(0, core_a.global(), None).unwrap();
        let mk_input = || RoundInput {
            updates: staged
                .submissions
                .iter()
                .map(|s| s.payload.clone())
                .collect(),
            weights: staged.submissions.iter().map(|s| s.weight).collect(),
            malicious_indices: staged
                .submissions
                .iter()
                .enumerate()
                .filter(|(_, s)| s.malicious)
                .map(|(i, _)| i)
                .collect(),
            ..RoundInput::default()
        };
        let ra = core_a.close_round(0, mk_input()).unwrap();
        let rb = core_b.close_round(0, mk_input()).unwrap();
        assert_eq!(ra, rb);
        let bits =
            |c: &ServerCore| -> Vec<u32> { c.global().iter().map(|w| w.to_bits()).collect() };
        assert_eq!(bits(&core_a), bits(&core_b));
    }

    /// A benign client as trained before the fleet held a template: a
    /// freshly sampled model that `set_flat_params` then overwrites.
    fn freshly_built_client(
        cfg: &FlConfig,
        train: &Dataset,
        shard: &[usize],
        global: &[f32],
        rng: &mut StdRng,
    ) -> Vec<f32> {
        let mut model = cfg.task.build_model(rng);
        model.set_flat_params(global).unwrap();
        for _ in 0..cfg.local_epochs {
            for b in train.shuffled_batches(shard, cfg.batch, rng) {
                model
                    .train_step(&b.images, cfg.lr, |logits| {
                        softmax_cross_entropy_hard(logits, &b.labels)
                    })
                    .unwrap();
            }
        }
        model.flat_params()
    }

    #[test]
    fn template_clients_match_freshly_built_ones() {
        // Fashion (one epoch) and Cifar (three epochs, eight param layers);
        // the weights each init samples fix the draw counts.
        for (task, draws) in [(TaskKind::Fashion, 9_064), (TaskKind::Cifar, 31_800)] {
            let cfg = FlConfig::builder(task)
                .n_clients(4)
                .clients_per_round(4)
                .train_size(48)
                .test_size(8)
                .batch(8)
                .seed(3)
                .build();
            let fleet = ClientFleet::new(&cfg).unwrap();
            assert_eq!(fleet.client_model.init_draws, draws, "{task:?}");
            let shard = fleet.shards.iter().max_by_key(|s| s.len()).unwrap();
            assert!(
                shard.len() > cfg.batch,
                "{task:?}: one batch never shuffles"
            );
            // A global model from another stream than the template's.
            let global = task
                .build_model(&mut StdRng::seed_from_u64(77))
                .flat_params();
            let train = |model: &ClientModel, rng: &mut StdRng| {
                train_benign_client(&cfg, model, &fleet.train, shard, &global, rng).unwrap()
            };
            let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

            let mut fresh_rng = StdRng::seed_from_u64(41);
            let fresh = freshly_built_client(&cfg, &fleet.train, shard, &global, &mut fresh_rng);
            let fresh_next = fresh_rng.next_u64();
            let mut rng = StdRng::seed_from_u64(41);
            let w = train(&fleet.client_model, &mut rng);
            assert_eq!(bits(&w), bits(&fresh), "{task:?} payload");
            assert_eq!(rng.next_u64(), fresh_next, "{task:?} stream");

            // One draw short of the init: the batches shuffle differently.
            let short = ClientModel {
                template: fleet.client_model.template.clone(),
                init_draws: draws - 1,
            };
            let mut rng = StdRng::seed_from_u64(41);
            let w = train(&short, &mut rng);
            assert_ne!(bits(&w), bits(&fresh), "{task:?} payload, count - 1");
            assert_ne!(rng.next_u64(), fresh_next, "{task:?} stream, count - 1");
        }
    }

    #[test]
    fn restore_rejects_wrong_dimension() {
        let cfg = tiny_cfg();
        let mut core = ServerCore::new(&cfg).unwrap();
        assert!(matches!(
            core.restore(vec![1.0; 3], None),
            Err(FlError::Checkpoint(_))
        ));
    }

    #[test]
    fn server_accepts_only_finite_nonzero_payloads_of_model_dimension() {
        let d = 6;
        assert!(server_accepts(&[1.0; 6], d));
        assert!(!server_accepts(&[1.0; 7], d), "wrong length");
        assert!(!server_accepts(&[f32::NAN; 6], d), "non-finite");
        assert!(!server_accepts(&[0.0; 6], d), "all-zero dead buffer");
    }
}
