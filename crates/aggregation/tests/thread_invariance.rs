//! Thread-count invariance of the distance-family rules: Krum scores,
//! mKrum and Bulyan's dense stage 1 must give the same bits at any thread
//! budget, in both of the Krum scorer's tile regimes.
//!
//! One `#[test]` in its own binary on purpose: `par::set_max_threads` is
//! process-global, so concurrent tests would race on it.

use fabflip_agg::{
    krum_scores, krum_tile_rows, Aggregation, Bulyan, Defense, MultiKrum, KRUM_ROW_BLOCK,
    KRUM_SELECT_PAR_ENTRIES,
};
use fabflip_tensor::par;

/// Cohort size: above `KRUM_ROW_BLOCK` and not a multiple of the 4-row
/// kernel block, so row remainders run too.
const N: usize = 150;
/// Row-tile regime (`N > D`): two tiles. `D` is not a multiple of 4
/// (lane tails run), and large enough that both the Krum tile
/// (`KRUM_ROW_BLOCK·N·D`) and the dense upper triangle (`N(N−1)/2·D`)
/// clear the 2²⁰-float parallel threshold. The first tile's selection
/// runs on the pool, the second one's serially.
const D_TILES: usize = 99;
/// Pair-once regime (`N ≤ D`): one tile, the whole matrix, its upper
/// triangle filled in parallel and all `N` rows selected on the pool.
const D_PAIR_ONCE: usize = 1_001;
const F: usize = 30;
const _: () = assert!(N > KRUM_ROW_BLOCK && !N.is_multiple_of(4));
const _: () = assert!(N > D_TILES && !D_TILES.is_multiple_of(4));
const _: () =
    assert!(N * (N - 1) / 2 * D_TILES >= 1 << 20 && KRUM_ROW_BLOCK * N * D_TILES >= 1 << 20);
const _: () = assert!(
    KRUM_ROW_BLOCK * N >= KRUM_SELECT_PAR_ENTRIES
        && (N - KRUM_ROW_BLOCK) * N < KRUM_SELECT_PAR_ENTRIES
);
const _: () = assert!(N <= D_PAIR_ONCE && !D_PAIR_ONCE.is_multiple_of(4));
const _: () = assert!(N * (N - 1) / 2 * D_PAIR_ONCE >= 1 << 20 && N * N >= KRUM_SELECT_PAR_ENTRIES);

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn fingerprint(agg: &Aggregation) -> (Vec<u32>, String) {
    (bits(&agg.model), format!("{:?}", agg.selection))
}

/// Krum scores, mKrum and Bulyan over an `N × d` cohort at 1, 2 and 7
/// threads.
fn assert_thread_invariant(d: usize) {
    let updates: Vec<Vec<f32>> = (0..N)
        .map(|u| {
            (0..d)
                .map(|i| ((u * d + i) as f32 * 0.37).sin() * (1.0 + (u % 5) as f32))
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
        assert_eq!(
            got.0, serial.0,
            "krum_scores differ at {threads} threads, d={d}"
        );
        assert_eq!(got.1, serial.1, "mKrum differs at {threads} threads, d={d}");
        assert_eq!(
            got.2, serial.2,
            "Bulyan differs at {threads} threads, d={d}"
        );
    }
}

#[test]
fn distance_rules_are_bitwise_equal_at_threads_1_2_7() {
    assert_eq!(krum_tile_rows(N, D_TILES), KRUM_ROW_BLOCK);
    assert_thread_invariant(D_TILES);
    assert_eq!(krum_tile_rows(N, D_PAIR_ONCE), N);
    assert_thread_invariant(D_PAIR_ONCE);
    par::set_max_threads(1);
}
