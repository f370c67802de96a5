//! Thread-count invariance of the distance-family rules: Krum scores,
//! mKrum and Bulyan's dense stage 1 must give the same bits at any thread
//! budget.
//!
//! One `#[test]` in its own binary on purpose: `par::set_max_threads` is
//! process-global, so concurrent tests would race on it.

use fabflip_agg::{
    krum_scores, Aggregation, Bulyan, Defense, MultiKrum, KRUM_ROW_BLOCK, KRUM_SELECT_PAR_ENTRIES,
};
use fabflip_tensor::par;

/// Cohort size: above `KRUM_ROW_BLOCK` (two tiles) and not a multiple of
/// the 4-row kernel block, so row remainders run too. The first tile's
/// selection runs on the pool, the second one's serially.
const N: usize = 150;
/// Update length: not a multiple of 4 (lane tails run), and large enough
/// that both the Krum tile (`KRUM_ROW_BLOCK·N·D`) and the dense upper
/// triangle (`N(N−1)/2·D`) clear the 2²⁰-float parallel threshold.
const D: usize = 99;
const F: usize = 30;
const _: () = assert!(N > KRUM_ROW_BLOCK && !N.is_multiple_of(4) && !D.is_multiple_of(4));
const _: () = assert!(N * (N - 1) / 2 * D >= 1 << 20 && KRUM_ROW_BLOCK * N * D >= 1 << 20);
const _: () = assert!(
    KRUM_ROW_BLOCK * N >= KRUM_SELECT_PAR_ENTRIES
        && (N - KRUM_ROW_BLOCK) * N < KRUM_SELECT_PAR_ENTRIES
);

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn fingerprint(agg: &Aggregation) -> (Vec<u32>, String) {
    (bits(&agg.model), format!("{:?}", agg.selection))
}

#[test]
fn distance_rules_are_bitwise_equal_at_threads_1_2_7() {
    let updates: Vec<Vec<f32>> = (0..N)
        .map(|u| {
            (0..D)
                .map(|i| ((u * D + i) as f32 * 0.37).sin() * (1.0 + (u % 5) as f32))
                .collect()
        })
        .collect();
    let refs: Vec<&[f32]> = updates.iter().map(Vec::as_slice).collect();
    let weights = vec![1.0f32; N];
    let run = |threads: usize| {
        par::set_max_threads(threads);
        let scores = bits(&krum_scores(&refs, F).expect("krum geometry"));
        let mkrum = MultiKrum::with_default_m(F)
            .aggregate(&updates, &weights)
            .expect("mkrum");
        let bulyan = Bulyan::new(F)
            .aggregate(&updates, &weights)
            .expect("bulyan");
        (scores, fingerprint(&mkrum), fingerprint(&bulyan))
    };
    let serial = run(1);
    for threads in [2, 7] {
        let got = run(threads);
        assert_eq!(got.0, serial.0, "krum_scores differ at {threads} threads");
        assert_eq!(got.1, serial.1, "mKrum differs at {threads} threads");
        assert_eq!(got.2, serial.2, "Bulyan differs at {threads} threads");
    }
    par::set_max_threads(1);
}
