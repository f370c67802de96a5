//! A minimal Rust lexer: just enough to tell identifiers apart from
//! comment and literal *content*, which is all the rule engine needs.
//!
//! The full `rustc` grammar is deliberately out of scope (no `syn`, no
//! proc-macro expansion). What the lexer must get right — and what the
//! unit tests pin down — is the set of constructs that would otherwise
//! produce false positives or false negatives for identifier matching:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments
//!   (`/* /* */ */`), whose text is captured for `// SAFETY:` detection
//!   but never produces identifier tokens;
//! * string literals with escapes (`"\" HashMap \""`), raw strings with
//!   any hash arity (`r"…"`, `r##"…"##`), byte and raw byte strings;
//! * char literals (including `'\''`, `'\\'`, `'\u{…}'`, `'"'`)
//!   disambiguated from lifetimes (`'static`) and loop labels;
//! * raw identifiers (`r#mod` lexes as the identifier `mod`);
//! * numeric literals, emitted as non-identifier tokens carrying the
//!   literal text (the seed-stream and float-fold rules need the
//!   values), scanned so `0..n` still yields the ident `n`.
//!
//! Whole-identifier matching means `Instantiates` never matches the
//! `Instant` needle and `unwrap_or` never matches `unwrap`.

/// One significant token: an identifier/keyword, a numeric literal, or a
/// single punctuation character. Multi-character operators (`::`, `->`)
/// appear as consecutive punctuation tokens; rules match sequences. A
/// numeric literal is one token with `is_ident == false` and the full
/// literal text (`0xFF_u8`, `1.5e3f32`) — no punctuation string is ever
/// longer than one character, so rules matching punctuation by text are
/// unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Identifier text, or the punctuation character as a string.
    pub text: String,
    /// `true` for identifiers and keywords, `false` for punctuation.
    pub is_ident: bool,
    /// 1-based source line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
}

/// A comment's text and the lines it spans, kept separately from the token
/// stream so the `unsafe`-annotation rule can look for `// SAFETY:` without
/// comments polluting identifier matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Full comment text, delimiters included.
    pub text: String,
    /// 1-based first line.
    pub line_start: u32,
    /// 1-based last line.
    pub line_end: u32,
}

/// Lexer output: significant tokens plus the comment side channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Identifier and punctuation tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

struct Cursor<'s> {
    chars: Vec<char>,
    src: std::marker::PhantomData<&'s str>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor<'_> {
    fn new(src: &str) -> Cursor<'_> {
        Cursor {
            chars: src.chars().collect(),
            src: std::marker::PhantomData,
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.i).copied()?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes `src`, returning significant tokens and comments. Never fails:
/// unterminated literals or comments simply end at EOF (the scanner's job
/// is robust pattern extraction, not validation — `rustc` owns rejection).
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();
    // A leading shebang (`#!/usr/bin/env …`) is not an inner attribute:
    // rustc skips the whole first line, and so do we. `#![…]` stays an
    // attribute (the `[` disambiguates, exactly as in the reference lexer).
    if cur.peek(0) == Some('#') && cur.peek(1) == Some('!') && cur.peek(2) != Some('[') {
        while let Some(c) = cur.peek(0) {
            if c == '\n' {
                break;
            }
            cur.bump();
        }
    }
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        match c {
            c if c.is_whitespace() => {
                cur.bump();
            }
            '/' if cur.peek(1) == Some('/') => lex_line_comment(&mut cur, &mut out, line),
            '/' if cur.peek(1) == Some('*') => lex_block_comment(&mut cur, &mut out, line),
            '"' => {
                cur.bump();
                skip_quoted(&mut cur, '"');
            }
            '\'' => lex_quote(&mut cur),
            c if c.is_ascii_digit() => lex_number(&mut cur, &mut out, line, col),
            c if is_ident_start(c) => lex_ident_or_prefixed(&mut cur, &mut out, line, col),
            _ => {
                cur.bump();
                out.tokens.push(Token {
                    text: c.to_string(),
                    is_ident: false,
                    line,
                    col,
                });
            }
        }
    }
    out
}

/// Token index of the delimiter closing the `(`, `[`, `{` or `<` at
/// `open`, counting only that delimiter pair. `None` when `open` holds no
/// opener or the group never closes; callers pick their own fallback.
pub fn matching_close(toks: &[Token], open: usize) -> Option<usize> {
    let op = toks.get(open).filter(|t| !t.is_ident)?.text.as_str();
    let cl = match op {
        "(" => ")",
        "[" => "]",
        "{" => "}",
        "<" => ">",
        _ => return None,
    };
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_ident {
            continue;
        }
        if t.text == op {
            depth += 1;
        } else if t.text == cl {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

fn lex_line_comment(cur: &mut Cursor, out: &mut Lexed, line: u32) {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if c == '\n' {
            break;
        }
        text.push(c);
        cur.bump();
    }
    out.comments.push(Comment {
        text,
        line_start: line,
        line_end: line,
    });
}

fn lex_block_comment(cur: &mut Cursor, out: &mut Lexed, line_start: u32) {
    let mut text = String::new();
    let mut depth = 0usize;
    while let Some(c) = cur.peek(0) {
        if c == '/' && cur.peek(1) == Some('*') {
            depth += 1;
            text.push_str("/*");
            cur.bump();
            cur.bump();
        } else if c == '*' && cur.peek(1) == Some('/') {
            depth -= 1;
            text.push_str("*/");
            cur.bump();
            cur.bump();
            if depth == 0 {
                break;
            }
        } else {
            text.push(c);
            cur.bump();
        }
    }
    out.comments.push(Comment {
        text,
        line_start,
        line_end: cur.line,
    });
}

/// Consumes a `quote`-delimited literal body (opening quote already
/// consumed), honouring `\` escapes.
fn skip_quoted(cur: &mut Cursor, quote: char) {
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            c if c == quote => break,
            _ => {}
        }
    }
}

/// Consumes a raw-string body: `#` arity already counted, opening `"`
/// already consumed. Ends at `"` followed by `hashes` `#`s.
fn skip_raw_string(cur: &mut Cursor, hashes: usize) {
    while let Some(c) = cur.bump() {
        if c == '"' && (0..hashes).all(|h| cur.peek(h) == Some('#')) {
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
    }
}

/// `'` — either a char literal (skipped) or a lifetime/label (skipped; it
/// can never satisfy a whole-identifier rule needle because needles are
/// plain identifiers, and flagging `'static` as `static` would be wrong).
fn lex_quote(cur: &mut Cursor) {
    cur.bump(); // the opening '
    match (cur.peek(0), cur.peek(1)) {
        // Escape: definitely a char literal ('\'', '\\', '\u{…}').
        (Some('\\'), _) => {
            skip_quoted(cur, '\'');
        }
        // 'x' where x could open an identifier: char literal only if the
        // very next char closes it; otherwise a lifetime like 'static.
        (Some(c), Some('\'')) if is_ident_start(c) => {
            cur.bump();
            cur.bump();
        }
        (Some(c), _) if is_ident_start(c) => {
            while cur.peek(0).map(is_ident_continue) == Some(true) {
                cur.bump();
            }
        }
        // Non-identifier content: a char literal like '9', '"', '}'.
        (Some(_), _) => {
            skip_quoted(cur, '\'');
        }
        (None, _) => {}
    }
}

/// Scans a numeric literal: digits, `_`, letters (hex digits, exponent
/// markers, type suffixes), and `.` only when followed by a digit — so
/// `0..n` leaves the range dots and the identifier `n` intact. The full
/// literal text is emitted as a non-identifier token.
fn lex_number(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        let continues = c.is_ascii_alphanumeric()
            || c == '_'
            || (c == '.' && cur.peek(1).map(|d| d.is_ascii_digit()) == Some(true));
        if !continues {
            break;
        }
        text.push(c);
        cur.bump();
    }
    out.tokens.push(Token {
        text,
        is_ident: false,
        line,
        col,
    });
}

/// Identifier, or one of the prefixed literal forms that *start* like an
/// identifier: `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`, `r#ident`.
fn lex_ident_or_prefixed(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    // Raw string r"…" / r#"…"# (and br variants below).
    if cur.peek(0) == Some('r') {
        let mut h = 1;
        while cur.peek(h) == Some('#') {
            h += 1;
        }
        if cur.peek(h) == Some('"') {
            for _ in 0..=h {
                cur.bump(); // r, #s, opening "
            }
            skip_raw_string(cur, h - 1);
            return;
        }
        if h > 1 {
            // r#ident — a raw identifier: emit the bare name so rules see
            // it (it names the same item).
            cur.bump();
            cur.bump();
            let mut text = String::new();
            while let Some(c) = cur.peek(0) {
                if is_ident_continue(c) {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
            out.tokens.push(Token {
                text,
                is_ident: true,
                line,
                col,
            });
            return;
        }
    }
    if cur.peek(0) == Some('b') {
        match cur.peek(1) {
            Some('"') => {
                cur.bump();
                cur.bump();
                skip_quoted(cur, '"');
                return;
            }
            Some('\'') => {
                cur.bump();
                cur.bump();
                skip_quoted(cur, '\'');
                return;
            }
            Some('r') => {
                let mut h = 2;
                while cur.peek(h) == Some('#') {
                    h += 1;
                }
                if cur.peek(h) == Some('"') {
                    for _ in 0..=h {
                        cur.bump();
                    }
                    skip_raw_string(cur, h - 2);
                    return;
                }
            }
            _ => {}
        }
    }
    // Rust 1.77 C-string literals: c"…" and cr"…" / cr#"…"# (no bare
    // `c'…'` form exists). Without this arm, `c"thread_rng"` would lex as
    // the ident `c` followed by an ordinary string — harmless — but
    // `cr#"…"#` would lex `cr` then treat `#"…"#` as punctuation + a
    // *plain* string ending at the first interior `"`, misclassifying
    // everything after it.
    if cur.peek(0) == Some('c') {
        match cur.peek(1) {
            Some('"') => {
                cur.bump();
                cur.bump();
                skip_quoted(cur, '"');
                return;
            }
            Some('r') => {
                let mut h = 2;
                while cur.peek(h) == Some('#') {
                    h += 1;
                }
                if cur.peek(h) == Some('"') {
                    for _ in 0..=h {
                        cur.bump();
                    }
                    skip_raw_string(cur, h - 2);
                    return;
                }
            }
            _ => {}
        }
    }
    // Plain identifier / keyword.
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    out.tokens.push(Token {
        text,
        is_ident: true,
        line,
        col,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.is_ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn plain_identifiers_with_positions() {
        let l = lex("let x = foo();");
        let toks: Vec<(&str, u32, u32)> = l
            .tokens
            .iter()
            .map(|t| (t.text.as_str(), t.line, t.col))
            .collect();
        assert_eq!(
            toks,
            vec![
                ("let", 1, 1),
                ("x", 1, 5),
                ("=", 1, 7),
                ("foo", 1, 9),
                ("(", 1, 12),
                (")", 1, 13),
                (";", 1, 14),
            ]
        );
    }

    #[test]
    fn line_comments_do_not_emit_idents() {
        let l = lex("// a HashMap lives here\nreal_ident");
        assert_eq!(
            idents("// a HashMap lives here\nreal_ident"),
            ["real_ident"]
        );
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].text.contains("HashMap"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner HashMap */ still comment */ HashMap";
        assert_eq!(idents(src), ["HashMap"]);
        let l = lex(src);
        assert_eq!(l.comments.len(), 1);
        assert_eq!(l.comments[0].line_start, 1);
    }

    #[test]
    fn multiline_block_comment_spans_lines() {
        let l = lex("/* a\nb\nc */ x");
        assert_eq!(l.comments[0].line_start, 1);
        assert_eq!(l.comments[0].line_end, 3);
        assert_eq!(l.tokens[0].line, 3);
    }

    #[test]
    fn string_contents_are_invisible() {
        assert_eq!(idents(r#"let s = "thread_rng() HashMap";"#), ["let", "s"]);
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        // The \" keeps the string open across the needle.
        assert_eq!(
            idents(r#"let s = "a \" HashMap \" b"; tail"#),
            ["let", "s", "tail"]
        );
        assert_eq!(
            idents(r#"let s = "backslash \\"; HashMap"#),
            ["let", "s", "HashMap"]
        );
    }

    #[test]
    fn raw_strings_any_hash_arity() {
        assert_eq!(idents(r##"let s = r"HashMap"; t"##), ["let", "s", "t"]);
        assert_eq!(
            idents(r###"let s = r#"quote " inside HashMap"#; t"###),
            ["let", "s", "t"]
        );
        // A "# inside an r##"…"## raw string does not terminate it.
        assert_eq!(
            idents("let s = r##\"inner \"# HashMap\"##; t"),
            ["let", "s", "t"]
        );
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        assert_eq!(idents(r#"let s = b"HashMap"; t"#), ["let", "s", "t"]);
        assert_eq!(idents(r##"let s = br#"HashMap"#; t"##), ["let", "s", "t"]);
        assert_eq!(idents(r#"let c = b'x'; t"#), ["let", "c", "t"]);
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        assert_eq!(idents("let c = 'a'; x"), ["let", "c", "x"]);
        assert_eq!(idents(r"let c = '\''; x"), ["let", "c", "x"]);
        assert_eq!(idents(r"let c = '\\'; x"), ["let", "c", "x"]);
        assert_eq!(idents(r"let c = '\u{1F600}'; x"), ["let", "c", "x"]);
        // A double quote inside a char literal must not open a string.
        assert_eq!(idents("let c = '\"'; HashMap"), ["let", "c", "HashMap"]);
        // Lifetimes do not produce identifier tokens and do not consume
        // the following code.
        assert_eq!(
            idents("fn f<'a>(x: &'a str) {} y"),
            ["fn", "f", "x", "str", "y"]
        );
        assert_eq!(idents("&'static str; z"), ["str", "z"]);
    }

    #[test]
    fn raw_identifiers_lex_as_bare_name() {
        assert_eq!(idents("let r#mod = 1; r#fn"), ["let", "mod", "fn"]);
    }

    #[test]
    fn numbers_do_not_eat_range_operands() {
        assert_eq!(idents("for i in 0..n {}"), ["for", "i", "in", "n"]);
        assert_eq!(idents("let x = 1.5e3f32; y"), ["let", "x", "y"]);
        assert_eq!(idents("let x = 0xFF_u8; y"), ["let", "x", "y"]);
    }

    #[test]
    fn numeric_literals_are_tokens_with_text() {
        let l = lex("sub_seed(seed, 11, r, c)");
        let nums: Vec<(&str, u32)> = l
            .tokens
            .iter()
            .filter(|t| !t.is_ident && t.text.starts_with(|c: char| c.is_ascii_digit()))
            .map(|t| (t.text.as_str(), t.col))
            .collect();
        assert!(nums.contains(&("11", 16)), "{nums:?}");
        // Suffixed and float forms keep their full text.
        let l = lex("let x = 1.5e3f32; let y = 0xFF_u8;");
        let texts: Vec<&str> = l
            .tokens
            .iter()
            .filter(|t| !t.is_ident && t.text.len() > 1)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(texts, ["1.5e3f32", "0xFF_u8"]);
    }

    #[test]
    fn whole_ident_matching_is_possible() {
        // The lexer yields `Instantiates` as one token, never `Instant`.
        assert_eq!(
            idents("/// Instantiates the rule.\nInstantiates"),
            ["Instantiates"]
        );
        assert_eq!(idents("x.unwrap_or(0)"), ["x", "unwrap_or"]);
    }

    #[test]
    fn c_string_literals() {
        // Plain C strings hide their contents like ordinary strings.
        assert_eq!(idents(r#"let s = c"HashMap"; t"#), ["let", "s", "t"]);
        // Raw C strings at any hash arity; interior quotes stay inside.
        assert_eq!(idents(r##"let s = cr"HashMap"; t"##), ["let", "s", "t"]);
        assert_eq!(
            idents(r###"let s = cr#"quote " inside thread_rng"#; t"###),
            ["let", "s", "t"]
        );
        // Tokens after the literal are classified normally (the bug this
        // guards against: `cr#"…"#` swallowing the rest of the line).
        assert_eq!(
            idents("let s = cr#\"x\"#; let y = HashMap::new();"),
            ["let", "s", "let", "y", "HashMap", "new"]
        );
        // An identifier merely starting with c/cr is still an identifier.
        assert_eq!(
            idents("let crate_name = c; cr"),
            ["let", "crate_name", "c", "cr"]
        );
    }

    #[test]
    fn shebang_line_is_skipped() {
        assert_eq!(
            idents("#!/usr/bin/env run-cargo-script\nlet x = 1;"),
            ["let", "x"]
        );
        // Position bookkeeping survives the skip: first token is line 2.
        let l = lex("#!/usr/bin/env rust\nident");
        assert_eq!(l.tokens[0].line, 2);
        // An inner attribute is NOT a shebang.
        assert_eq!(
            idents("#![allow(dead_code)]\nx"),
            ["allow", "dead_code", "x"]
        );
        // A shebang only counts at the very start of the file.
        let mid = lex("let a = 1;\n#!/not/a/shebang");
        assert!(mid.tokens.iter().any(|t| t.text == "#"));
    }

    #[test]
    fn matching_close_counts_one_delimiter_pair() {
        let toks = lex("f(a[0], (b)) { g::<Vec<u8>>() }").tokens;
        let at = |text: &str| toks.iter().position(|t| t.text == text).expect("token");
        assert_eq!(matching_close(&toks, at("(")), Some(at("{") - 1));
        assert_eq!(matching_close(&toks, at("[")), Some(at("]")));
        assert_eq!(matching_close(&toks, at("{")), Some(toks.len() - 1));
        assert_eq!(matching_close(&toks, at("<")), Some(at("<") + 5));
        // Not an opener, out of range, or never closed: no match.
        assert_eq!(matching_close(&toks, at("f")), None);
        assert_eq!(matching_close(&toks, toks.len()), None);
        assert_eq!(matching_close(&lex("f(a").tokens, 1), None);
    }

    #[test]
    fn unterminated_constructs_end_at_eof() {
        assert_eq!(idents("let s = \"unterminated"), ["let", "s"]);
        let l = lex("/* never closed\nident_inside");
        assert!(l.tokens.is_empty());
        assert_eq!(l.comments.len(), 1);
    }
}
