//! Deliberately bad fixture: SIMD-style raw-pointer code outside the
//! blessed `crates/tensor/src/backend/` home. The backend-dir blessing
//! must not leak — `unsafe` anywhere else in product code still fails
//! `--ci`, even with a dutiful SAFETY comment.

pub fn stray_lane_load(v: &[f32]) -> f32 {
    let p: *const f32 = v.as_ptr();
    // SAFETY: `v` is non-empty in every caller, so the midpoint offset
    // stays in bounds of the borrow.
    unsafe { *p.wrapping_add(v.len() / 2) }
}
