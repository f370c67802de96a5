//! Deliberately bad fixture for the SAFETY claim grammar: one free-text
//! SAFETY comment inside a `#[target_feature]` kernel (must be a parsed
//! `bound:` claim) and one wrong-kind claim (a `feature:` claim on a
//! block that carves pointers and so needs `bound:`). Never compiled —
//! only scanned.

use super::CpuBackend;

#[target_feature(enable = "avx2")]
fn lane_dot(a: &[f32], b: &[f32]) -> f32 {
    let p = a.as_ptr();
    let q = b.as_ptr();
    // SAFETY: both pointers stay in bounds because the slices are
    // non-empty — free text, not a machine-checked claim.
    unsafe { *p.add(0) * *q.add(0) }
}

pub struct Avx2;

impl CpuBackend for Avx2 {
    fn name(&self) -> &'static str {
        "avx2"
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        // SAFETY(feature: avx2): detected by the dispatcher before this
        // backend was handed out.
        unsafe { lane_dot(a, b) }
    }

    fn axpy(&self, out: &mut [f32], alpha: f32, src: &[f32]) {
        let p = out.as_mut_ptr();
        // SAFETY(feature: avx2): wrong claim kind — this block carves raw
        // pointers, so the grammar demands a `bound:` claim.
        unsafe { *p.add(0) = alpha * *src.as_ptr().add(0) };
    }
}
