//! Clean fixture: raw pointers inside the blessed SIMD backend dir
//! (`BLESSED_SIMD_DIR`) with a per-site machine-parsed SAFETY claim —
//! silent under `unsafe-without-safety-comment` (confinement and claim
//! grammar included).

pub fn lane_sum(v: &[f32]) -> f32 {
    let p: *const f32 = v.as_ptr();
    let mut s = 0.0f32;
    for i in 0..v.len() {
        // SAFETY(bound: i < v.len()): the offset pointer stays in bounds
        // of the borrowed slice.
        s += unsafe { *p.wrapping_add(i) };
    }
    s
}
