//! Clean fixture: needle-shaped content in every position the lexer must
//! see through — comments, strings, char literals, raw strings, test
//! modules — plus a properly documented unsafe block in test code (product
//! code outside `par.rs` and `backend/` has none). fabcheck must report
//! nothing here.

/* block comment bait: HashMap /* nested: thread_rng */ Instant */

/// Doc-comment prose bait: Instantiates a HashMap via thread_rng.
pub fn lexer_bait() -> &'static str {
    let _char_with_quote = '"';
    let _raw = r#"HashMap thread_rng unsafe env::var"#;
    let _raw_hashes = r##"quote-hash "# SystemTime inside"##;
    let _byte = b"from_entropy";
    "SystemTime Instant OsRng *const bait"
}

/// Slice-based: raw pointers and `unsafe` are the worker pool's and the
/// SIMD backends' monopoly.
pub fn first(v: &[f32]) -> f32 {
    v.first().copied().unwrap_or(0.0)
}

/// `Instantiates` must not whole-ident-match `Instant`; `unwrap_or` must
/// not match `unwrap`.
pub fn instantiates(v: Option<usize>) -> usize {
    v.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn order_independent_check_may_use_hashmap() {
        let mut m: HashMap<u32, u32> = HashMap::new();
        m.insert(1, 2);
        assert_eq!(m.get(&1).copied().unwrap(), 2);
    }

    #[test]
    fn test_code_may_use_documented_unsafe() {
        let v = [1.0f32];
        // SAFETY: `v` has one element, so index 0 is in bounds.
        assert_eq!(unsafe { *v.get_unchecked(0) }, super::first(&v));
    }
}
