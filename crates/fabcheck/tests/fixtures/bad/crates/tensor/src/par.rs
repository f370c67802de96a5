//! Deliberately bad fixture for `unclaimed-raw-span`: raw spans in
//! the blessed thread file, but one with no `fabcheck::claim(disjoint)`
//! annotation and one whose claim names none of the call's arguments.
//! Never compiled — only scanned.

pub fn split(data: &mut [f32], per: usize) {
    let base = data.as_mut_ptr();
    let lo = per;
    let hi = data.len();
    // SAFETY: `[lo, hi)` is in bounds and no other span aliases it.
    let tail = unsafe { std::slice::from_raw_parts_mut(base.wrapping_add(lo), hi - lo) };
    tail.fill(0.0);
    // SAFETY: the head span `[0, lo)` is disjoint from `tail` above.
    // fabcheck::claim(disjoint): the workers partition the matrix rows.
    let head = unsafe { std::slice::from_raw_parts_mut(base, lo) };
    head.fill(1.0);
}

/// A claimed-but-unverifiable carve: the offset strides by a *sum*, which
/// the partition recognizer cannot prove partitions the slice — also an
/// `unclaimed-raw-span` finding.
pub fn split_sum(data: &mut [f32], lo: usize, per: usize) {
    let base = data.as_mut_ptr();
    let off = lo + per;
    // SAFETY(bound: off + per <= data.len()): scanned, never compiled.
    // fabcheck::claim(disjoint): offsets stride by `lo + per`, a sum the
    // recognizer rejects.
    let span = unsafe { std::slice::from_raw_parts_mut(base.wrapping_add(off), per) };
    span.fill(2.0);
}
