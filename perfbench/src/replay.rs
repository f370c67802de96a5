//! Layer replays for the traced runs: a second call of a layer's public
//! function on inputs the round already processed, timed on its own.
//! Every replay also checks its result against what the round produced,
//! so a replay that drifts from the real call fails the run instead of
//! timing something else.

use fabflip_agg::{Aggregation, Defense, Selection};
use fabflip_attacks::{Attack, AttackContext, TaskInfo};
use fabflip_data::Dataset;
use fabflip_fl::checkpoint::{self, Checkpoint, InflightSubmission};
use fabflip_fl::faults::streams;
use fabflip_fl::round::{self, RoundInput, StagedRound, StagedSubmission};
use fabflip_fl::{FlConfig, RoundRecord};
use fabflip_nn::Sequential;
use fabflip_tensor::quant;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// The task seed `fabflip_fl` synthesizes every split from (crate
/// private there). The evaluation replay's bitwise accuracy check fails
/// if the two ever differ.
const TASK_SEED: u64 = 0xDA7A_5EED;

/// The per-stream seed derivation of `fabflip_fl::faults` (crate private
/// there). The craft replay's bitwise check fails if the two ever differ.
fn sub_seed(master: u64, stream: u64, a: u64, b: u64) -> u64 {
    let mut x = master
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ a.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ b.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Field-for-field equality of two round records, accuracy bits included.
pub fn records_eq(a: &RoundRecord, b: &RoundRecord) -> bool {
    a == b && a.accuracy.to_bits() == b.accuracy.to_bits()
}

/// The fault-free round log for `staged`, as both the batch simulator
/// and the serve engine build it: every submission in canonical order.
pub fn round_input(staged: StagedRound) -> RoundInput {
    let subs = staged.submissions;
    RoundInput {
        weights: subs.iter().map(|s| s.weight).collect(),
        malicious_indices: subs
            .iter()
            .enumerate()
            .filter(|(_, s)| s.malicious)
            .map(|(i, _)| i)
            .collect(),
        updates: subs.into_iter().map(|s| s.payload).collect(),
        dropped: staged.dropped,
        offline: staged.offline,
        diverged: staged.diverged,
        silent: staged.silent,
        ..RoundInput::default()
    }
}

/// The META words a round announces: expected, offline, diverged, silent
/// and the deadline flag.
pub fn meta_words(staged: &StagedRound) -> [u64; 5] {
    [
        staged.submissions.len() as u64,
        staged.offline as u64,
        staged.diverged as u64,
        staged.silent as u64,
        0,
    ]
}

/// The state the serve engine persists (`checkpoint::save`) after each
/// accepted submission and at each close: the model, the closed rounds'
/// records and the first `inflight.len()` submissions of the open round.
pub struct WalShape<'a> {
    pub fingerprint: &'a str,
    pub next_round: usize,
    pub global: &'a [f32],
    pub prev: Option<&'a [f32]>,
    pub rounds: &'a [RoundRecord],
    pub inflight: &'a [StagedSubmission],
    pub meta: Option<[u64; 5]>,
}

impl WalShape<'_> {
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            version: checkpoint::CHECKPOINT_VERSION,
            fingerprint: self.fingerprint.to_string(),
            next_round: self.next_round,
            global_bits: checkpoint::to_bits(self.global),
            prev_global_bits: self.prev.map(checkpoint::to_bits),
            rounds: self.rounds.to_vec(),
            pending: Vec::new(),
            attack_state: Vec::new(),
            inflight: self
                .inflight
                .iter()
                .enumerate()
                .map(|(seq, s)| InflightSubmission {
                    seq: seq as u32,
                    client: s.client,
                    malicious: s.malicious,
                    weight_bits: s.weight.to_bits(),
                    payload_bits: checkpoint::to_bits(&s.payload),
                })
                .collect(),
            inflight_meta: self.meta.map_or_else(Vec::new, |m| m.to_vec()),
            checksum: 0,
        }
        .seal()
    }
}

/// Times one `checkpoint::save` of `ckpt` into `dir`; returns seconds and
/// the bytes of the file it wrote.
pub fn timed_save(dir: &Path, ckpt: &Checkpoint) -> Result<(f64, u64), String> {
    let t = Instant::now();
    checkpoint::save(dir, ckpt).map_err(|e| format!("checkpoint replay: {e}"))?;
    let s = secs_since(t);
    let path = checkpoint::path_for(dir, &ckpt.fingerprint);
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("checkpoint replay size: {e}"))?
        .len();
    Ok((s, bytes))
}

/// Times `quant::encode` and `quant::decode` of every payload with the
/// config's codec; returns per-payload seconds and whether every decode
/// reproduced what the server would decode from the encoded bytes.
pub fn quant_roundtrip(cfg: &FlConfig, payloads: &[&[f32]]) -> (Vec<f64>, Vec<f64>, bool) {
    let (mut enc_s, mut dec_s, mut ok) = (Vec::new(), Vec::new(), true);
    for p in payloads {
        let t = Instant::now();
        let enc = quant::encode(cfg.transport, p);
        enc_s.push(secs_since(t));
        let t = Instant::now();
        let dec = quant::decode(&enc);
        dec_s.push(secs_since(t));
        let mut expect = p.to_vec();
        quant::roundtrip_in_place(cfg.transport, &mut expect);
        ok &= bits_eq(&dec, &expect);
    }
    (enc_s, dec_s, ok)
}

/// Replays of the attack, defense and evaluation layers for one config.
pub struct Replayer {
    cfg: FlConfig,
    task: TaskInfo,
    attack: Option<Box<dyn Attack>>,
    defense: Box<dyn Defense>,
    test: Dataset,
    model: Sequential,
}

impl Replayer {
    pub fn new(cfg: &FlConfig) -> Result<Replayer, String> {
        let spec = cfg.task.spec();
        let test = Dataset::synthesize_split(
            &spec,
            cfg.test_size,
            TASK_SEED,
            sub_seed(cfg.seed, streams::TEST_DATA, 0, 0),
        );
        let mut rng = StdRng::seed_from_u64(0);
        Ok(Replayer {
            cfg: cfg.clone(),
            task: TaskInfo {
                channels: spec.channels,
                height: spec.height,
                width: spec.width,
                num_classes: spec.num_classes,
                synth_set_size: cfg.synth_set_size,
                local_lr: cfg.lr,
                local_batch: cfg.batch,
                local_epochs: cfg.local_epochs,
            },
            attack: cfg.attack.build(None),
            defense: cfg.defense.build().map_err(|e| format!("defense: {e}"))?,
            test,
            model: cfg.task.build_model(&mut rng),
        })
    }

    /// Replays `Attack::craft` for `round` from the attack state the
    /// fleet held before staging it. `None` when the round staged no
    /// malicious submission; otherwise the seconds taken and whether the
    /// crafted update equals the staged one bit for bit.
    pub fn craft(
        &mut self,
        round: usize,
        state: &[u64],
        global: &[f32],
        prev: Option<&[f32]>,
        subs: &[StagedSubmission],
    ) -> Result<Option<(f64, bool)>, String> {
        let Some(first_mal) = subs.iter().find(|s| s.malicious) else {
            return Ok(None);
        };
        let Some(attack) = self.attack.as_mut() else {
            return Ok(None);
        };
        attack.restore_state(state);
        let benign: Vec<Vec<f32>> = if self.cfg.attack.uses_benign_oracle() {
            subs.iter()
                .filter(|s| !s.malicious)
                .map(|s| s.payload.clone())
                .collect()
        } else {
            Vec::new()
        };
        let task = self.cfg.task;
        let build_model = move |rng: &mut StdRng| task.build_model(rng);
        let ctx = AttackContext {
            global,
            prev_global: prev,
            benign_updates: &benign,
            n_selected: self.cfg.clients_per_round,
            n_malicious_selected: subs.iter().filter(|s| s.malicious).count(),
            task: &self.task,
            build_model: &build_model,
        };
        let mut rng =
            StdRng::seed_from_u64(sub_seed(self.cfg.seed, streams::ATTACK, round as u64, 0));
        let t = Instant::now();
        let crafted = attack
            .craft(&ctx, &mut rng)
            .map_err(|e| format!("craft replay: {e}"))?;
        let s = secs_since(t);
        Ok(Some((s, bits_eq(&crafted, &first_mal.payload))))
    }

    /// Replays the configured defense on a round's log against the model
    /// the round started from; returns seconds, the kept share of the
    /// updates, and the aggregate.
    pub fn aggregate(
        &self,
        subs: &[StagedSubmission],
        reference: &[f32],
    ) -> Result<(f64, f64, Aggregation), String> {
        let updates: Vec<Vec<f32>> = subs.iter().map(|s| s.payload.clone()).collect();
        let weights: Vec<f32> = subs.iter().map(|s| s.weight).collect();
        let t = Instant::now();
        let agg = self
            .defense
            .aggregate_with_reference(&updates, &weights, Some(reference))
            .map_err(|e| format!("aggregation replay: {e}"))?;
        let s = secs_since(t);
        let kept = match &agg.selection {
            Selection::Chosen(kept) => kept.len(),
            Selection::PerCoordinate => updates.len(),
        };
        Ok((s, kept as f64 / updates.len().max(1) as f64, agg))
    }

    /// Replays `round::evaluate_model` on `global`; returns seconds and
    /// the accuracy.
    pub fn eval(&mut self, global: &[f32]) -> Result<(f64, f32), String> {
        self.model
            .set_flat_params(global)
            .map_err(|e| format!("eval replay: {e}"))?;
        let t = Instant::now();
        let acc = round::evaluate_model(&mut self.model, &self.test, 100)
            .map_err(|e| format!("eval replay: {e}"))?;
        Ok((secs_since(t), acc))
    }
}
