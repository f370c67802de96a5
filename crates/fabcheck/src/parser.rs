//! A lightweight recursive-descent pass over the [`crate::lexer`] token
//! stream that extracts the item structure the call-graph rules need:
//! every `fn` with its module path, surrounding `impl` type, and the
//! call / method-call / macro / index-expression sites inside its body.
//!
//! This is deliberately not a full AST. The hot-path rules only need to
//! know *which function* a site belongs to and *what name* it invokes, so
//! the parser is a single forward scan with an explicit scope stack
//! (`mod` / `impl` / `fn` / plain block). Everything it cannot classify
//! it skips — unparseable constructs degrade to missed edges on cold
//! code, never to crashes (and the hot-path rules over-approximate on the
//! edges that matter; see DESIGN.md §4c).

use crate::lexer::{matching_close, Token};

/// Reserved words that can never start a call path or be an indexing
/// receiver. `self`/`Self`/`crate`/`super` are handled separately because
/// they *can* begin paths.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "dyn", "else", "enum", "extern", "false",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "true", "type", "union", "unsafe", "use", "where",
    "while", "yield",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// How a call site invokes its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `a::b::c(..)` or a bare `f(..)`; `called` is false for a path
    /// mention without parens (e.g. a function passed by value), which
    /// still creates a call-graph edge — over-approximation is safe.
    Path {
        /// Whether the path is directly followed by `(`.
        called: bool,
    },
    /// `.name(..)` — resolved by name across every impl in the workspace.
    Method,
    /// `name!(..)` / `name![..]` / `name!{..}`.
    Macro,
}

/// One call/method/macro site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Path segments (`["Vec", "new"]`), a single method or macro name.
    /// `Self` is already substituted with the surrounding impl type and
    /// leading `crate`/`self`/`super` segments are stripped.
    pub segs: Vec<String>,
    /// Call shape.
    pub kind: CallKind,
    /// 1-based line of the first segment.
    pub line: u32,
    /// 1-based column of the first segment.
    pub col: u32,
}

impl Call {
    /// Last path segment — the invoked name.
    pub fn name(&self) -> &str {
        self.segs.last().map(String::as_str).unwrap_or_default()
    }
}

/// One function item and every site of interest in its body.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Function name.
    pub name: String,
    /// Inline `mod` path inside the file (outermost first).
    pub mods: Vec<String>,
    /// Self type of the surrounding `impl`, if any.
    pub impl_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// `true` when the `fn` sits inside a `#[cfg(test)]`-gated span.
    pub is_test: bool,
    /// Call, method, and macro sites in body order.
    pub calls: Vec<Call>,
    /// `expr[..]` indexing sites (line, col of the `[`).
    pub index_sites: Vec<(u32, u32)>,
}

/// One name introduced by a `use` declaration: `alias` is the name in
/// scope inside the file, `segs` the full imported path with group braces
/// expanded, `as` renames applied, and leading `crate`/`self`/`super`
/// stripped (matching the normalization [`parse_tokens`] applies to call
/// paths).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// In-scope name (the last path segment, or the `as` rename).
    pub alias: String,
    /// Imported path segments, outermost first.
    pub segs: Vec<String>,
}

/// Extracts every `use` declaration from a token stream, expanding brace
/// groups (`use a::{b, c as d, self}`) into one [`UseDecl`] per imported
/// name. Glob imports (`use x::*`) introduce no nameable alias and are
/// skipped — the call graph's suffix-match fallback still resolves names
/// they bring in.
pub fn parse_uses(toks: &[Token]) -> Vec<UseDecl> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident && toks[i].text == "use" {
            i = parse_use_tree(toks, i + 1, &[], &mut out);
        } else {
            i += 1;
        }
    }
    out
}

/// Parses one use-tree (a path that may end in a brace group, a glob, or
/// an `as` rename) starting at `j` with `prefix` already consumed.
/// Records the names it introduces and returns the index of the token
/// after the tree (its `,`/`}`/`;` terminator is left unconsumed).
fn parse_use_tree(
    toks: &[Token],
    mut j: usize,
    prefix: &[String],
    out: &mut Vec<UseDecl>,
) -> usize {
    let is_p = |k: usize, s: &str| {
        toks.get(k)
            .is_some_and(|t: &Token| !t.is_ident && t.text == s)
    };
    let mut segs: Vec<String> = prefix.to_vec();
    loop {
        if is_p(j, "{") {
            j += 1;
            while j < toks.len() && !is_p(j, "}") {
                if is_p(j, ",") {
                    j += 1;
                } else {
                    j = parse_use_tree(toks, j, &segs, out);
                }
            }
            return j + 1;
        }
        if is_p(j, "*") {
            return j + 1;
        }
        let Some(t) = toks.get(j) else { return j };
        if !t.is_ident {
            return j;
        }
        match t.text.as_str() {
            "as" => {
                if let Some(a) = toks.get(j + 1).filter(|a| a.is_ident) {
                    record_use(out, a.text.clone(), &segs);
                    return j + 2;
                }
                return j + 1;
            }
            // `use a::b::{self, c}` — `self` imports `b` itself. When an
            // `as` rename follows, let the `as` arm record the alias.
            "self" if !segs.is_empty() => {
                if !toks
                    .get(j + 1)
                    .is_some_and(|n| n.is_ident && n.text == "as")
                {
                    record_use(out, segs[segs.len() - 1].clone(), &segs);
                }
                j += 1;
            }
            _ => {
                segs.push(t.text.clone());
                j += 1;
            }
        }
        if is_p(j, ":") && is_p(j + 1, ":") {
            j += 2;
            continue;
        }
        if toks.get(j).is_some_and(|n| n.is_ident && n.text == "as") {
            continue;
        }
        if segs.len() > prefix.len() {
            record_use(out, segs[segs.len() - 1].clone(), &segs);
        }
        return j;
    }
}

fn record_use(out: &mut Vec<UseDecl>, alias: String, segs: &[String]) {
    let mut segs = segs.to_vec();
    while segs.len() > 1 && matches!(segs[0].as_str(), "crate" | "super" | "self") {
        segs.remove(0);
    }
    out.push(UseDecl { alias, segs });
}

/// A `#[target_feature(enable = "…")]` function item: the declared ISA
/// features and the token span of the body, which the unsafe rule reads
/// to classify `unsafe` blocks as kernel-interior and to find the
/// features that enclose a call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetFeatureFn {
    /// Function name.
    pub name: String,
    /// Features named by `enable = "…"`, split on `,`.
    pub features: Vec<String>,
    /// Token indices of the body delimiters: `(index of `{`, index of the
    /// matching `}`)`. A token at index `k` is inside the body iff
    /// `body.0 < k && k < body.1`.
    pub body: (usize, usize),
}

/// Extracts every `#[target_feature(enable = "…")]` fn item.
///
/// The lexer drops string-literal contents entirely, so the attribute
/// lexes as `# [ target_feature ( enable = ) ]` — the feature list is
/// recovered from the **raw source text** of the line carrying the `=`
/// token (its first `"…"` quoted run). After the attribute, remaining
/// attributes and qualifiers (`#[inline]`, `pub(super)`, `unsafe`) are
/// skipped to reach the `fn` name and brace-matched body.
pub fn target_feature_fns(toks: &[Token], src: &str) -> Vec<TargetFeatureFn> {
    let lines: Vec<&str> = src.lines().collect();
    let is_p = |k: usize, s: &str| {
        toks.get(k)
            .is_some_and(|t: &Token| !t.is_ident && t.text == s)
    };
    let is_i = |k: usize, s: &str| {
        toks.get(k)
            .is_some_and(|t: &Token| t.is_ident && t.text == s)
    };
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(is_p(i, "#")
            && is_p(i + 1, "[")
            && is_i(i + 2, "target_feature")
            && is_p(i + 3, "(")
            && is_i(i + 4, "enable")
            && is_p(i + 5, "=")
            && is_p(i + 6, ")")
            && is_p(i + 7, "]"))
        {
            i += 1;
            continue;
        }
        let features: Vec<String> = lines
            .get(toks[i + 5].line as usize - 1)
            .and_then(|l| {
                let a = l.find('"')? + 1;
                let b = a + l[a..].find('"')?;
                Some(
                    l[a..b]
                        .split(',')
                        .map(|f| f.trim().to_string())
                        .filter(|f| !f.is_empty())
                        .collect(),
                )
            })
            .unwrap_or_default();
        // Skip any further attributes and fn qualifiers up to `fn`.
        let mut j = i + 8;
        loop {
            if is_p(j, "#") && is_p(j + 1, "[") {
                j = matching_close(toks, j + 1).map_or(toks.len(), |k| k + 1);
            } else if toks.get(j).is_some_and(|t| {
                t.is_ident && matches!(t.text.as_str(), "pub" | "unsafe" | "const" | "extern")
            }) {
                j += 1;
            } else if is_p(j, "(") {
                // `pub(crate)` / `pub(super)` visibility scope.
                j = matching_close(toks, j).map_or(toks.len(), |k| k + 1);
            } else {
                break;
            }
        }
        if !is_i(j, "fn") || !toks.get(j + 1).is_some_and(|t| t.is_ident) {
            i += 8;
            continue;
        }
        let mut open = j + 2;
        while open < toks.len() && (toks[open].is_ident || toks[open].text != "{") {
            open += 1;
        }
        let close = matching_close(toks, open).unwrap_or(toks.len().saturating_sub(1));
        out.push(TargetFeatureFn {
            name: toks[j + 1].text.clone(),
            features,
            body: (open, close),
        });
        i = close.max(i + 8);
    }
    out
}

/// What a `{` opened.
enum ScopeKind {
    Mod,
    Impl,
    Fn,
    Other,
}

/// An item header seen but whose body `{` has not arrived yet.
enum Pending {
    Mod(String),
    Impl(Option<String>),
    Fn {
        name: String,
        line: u32,
        is_test: bool,
    },
}

/// Parses a token stream (with `#[cfg(test)]` spans precomputed by
/// [`crate::rules::test_spans`]) into its function items.
pub fn parse_tokens(toks: &[Token], test_spans: &[(usize, usize)]) -> Vec<FnNode> {
    let in_test = |idx: usize| test_spans.iter().any(|&(a, b)| idx >= a && idx < b);
    let mut fns: Vec<FnNode> = Vec::new();
    let mut scopes: Vec<ScopeKind> = Vec::new();
    let mut mod_stack: Vec<String> = Vec::new();
    let mut impl_stack: Vec<Option<String>> = Vec::new();
    let mut fn_stack: Vec<usize> = Vec::new();
    let mut pending: Option<Pending> = None;
    // Global paren/bracket depth: used to tell a signature-ending `;`
    // (depth 0) from one inside `[f32; 4]`.
    let mut depth = 0i64;

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_ident {
            let next_ident = toks.get(i + 1).map(|n| (n.is_ident, n.text.as_str()));
            match t.text.as_str() {
                "mod" if pending.is_none() && matches!(next_ident, Some((true, _))) => {
                    // Only inline `mod name {` opens a module scope; the
                    // out-of-line `mod name;` form has no body here.
                    if toks
                        .get(i + 2)
                        .is_some_and(|n| !n.is_ident && n.text == "{")
                    {
                        pending = Some(Pending::Mod(toks[i + 1].text.clone()));
                    }
                    i += 2;
                    continue;
                }
                "impl" if pending.is_none() => {
                    let (ty, header_end) = impl_header(toks, i);
                    pending = Some(Pending::Impl(ty));
                    i = header_end;
                    continue;
                }
                "fn" if pending.is_none() && matches!(next_ident, Some((true, _))) => {
                    pending = Some(Pending::Fn {
                        name: toks[i + 1].text.clone(),
                        line: t.line,
                        is_test: in_test(i),
                    });
                    i += 2;
                    continue;
                }
                _ => {
                    if pending.is_none() {
                        if let Some(&fi) = fn_stack.last() {
                            i = scan_site(toks, i, &mut fns[fi], impl_stack.last());
                            continue;
                        }
                    }
                }
            }
        } else {
            match t.text.as_str() {
                "(" | "[" => {
                    if t.text == "["
                        && pending.is_none()
                        && !fn_stack.is_empty()
                        && is_index_receiver(toks, i)
                    {
                        if let Some(&fi) = fn_stack.last() {
                            fns[fi].index_sites.push((t.line, t.col));
                        }
                    }
                    depth += 1;
                }
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => {
                    // A bodyless item (`fn f();` in a trait) never opens
                    // a scope; drop the pending header.
                    pending = None;
                }
                "{" => {
                    let kind = match pending.take() {
                        Some(Pending::Mod(name)) => {
                            mod_stack.push(name);
                            ScopeKind::Mod
                        }
                        Some(Pending::Impl(ty)) => {
                            impl_stack.push(ty);
                            ScopeKind::Impl
                        }
                        Some(Pending::Fn {
                            name,
                            line,
                            is_test,
                        }) => {
                            fns.push(FnNode {
                                name,
                                mods: mod_stack.clone(),
                                impl_type: impl_stack.last().cloned().flatten(),
                                line,
                                is_test,
                                calls: Vec::new(),
                                index_sites: Vec::new(),
                            });
                            fn_stack.push(fns.len() - 1);
                            ScopeKind::Fn
                        }
                        None => ScopeKind::Other,
                    };
                    scopes.push(kind);
                }
                "}" => match scopes.pop() {
                    Some(ScopeKind::Mod) => {
                        mod_stack.pop();
                    }
                    Some(ScopeKind::Impl) => {
                        impl_stack.pop();
                    }
                    Some(ScopeKind::Fn) => {
                        fn_stack.pop();
                    }
                    _ => {}
                },
                _ => {}
            }
        }
        i += 1;
    }
    fns
}

/// Parses an `impl` header starting at the `impl` token; returns the self
/// type (best effort) and the index of the body `{` (or terminating `;`).
///
/// The self type is the first non-keyword identifier at angle-bracket
/// depth 0 — after `for` when present (`impl Trait for Type`), otherwise
/// after the generic parameter list (`impl<T> Type<T>`).
fn impl_header(toks: &[Token], start: usize) -> (Option<String>, usize) {
    let mut angle = 0i64;
    let mut ty: Option<String> = None;
    let mut stopped = false;
    let mut j = start + 1;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_ident {
            match t.text.as_str() {
                "for" if angle == 0 => {
                    ty = None;
                    stopped = false;
                }
                "where" if angle == 0 => stopped = true,
                name if angle == 0 && !stopped && ty.is_none() && !is_keyword(name) => {
                    ty = Some(name.to_string());
                }
                _ => {}
            }
        } else {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" if angle > 0 => angle -= 1,
                "{" | ";" if angle == 0 => return (ty, j),
                _ => {}
            }
        }
        j += 1;
    }
    (ty, j)
}

/// Whether the token before `[` at `open` ends an indexable expression:
/// a non-keyword identifier, `)`, or `]`. Types (`&[f32]`), array
/// literals (`= [0; 4]`), and attributes (`#[...]`) all fail this test.
fn is_index_receiver(toks: &[Token], open: usize) -> bool {
    let Some(prev) = open.checked_sub(1).and_then(|p| toks.get(p)) else {
        return false;
    };
    if prev.is_ident {
        !is_keyword(&prev.text) && prev.text != "Self"
    } else {
        prev.text == ")" || prev.text == "]"
    }
}

/// Skips a turbofish (`::<...>`) starting at `j`, returning the index one
/// past the closing `>` (or `j` unchanged when there is none).
fn skip_turbofish(toks: &[Token], j: usize) -> usize {
    let is_p = |k: usize, s: &str| toks.get(k).is_some_and(|t| !t.is_ident && t.text == s);
    if !(is_p(j, ":") && is_p(j + 1, ":") && is_p(j + 2, "<")) {
        return j;
    }
    matching_close(toks, j + 2).map_or(toks.len(), |k| k + 1)
}

/// Classifies the identifier at `i` inside fn body `node`: a method call
/// (after `.`), a macro, or a (possibly multi-segment) path. Returns the
/// index to resume scanning at.
fn scan_site(
    toks: &[Token],
    i: usize,
    node: &mut FnNode,
    impl_type: Option<&Option<String>>,
) -> usize {
    let t = &toks[i];
    let is_p = |k: usize, s: &str| toks.get(k).is_some_and(|x| !x.is_ident && x.text == s);

    // A path continuation (`a::b`) was already consumed with its head.
    if i >= 2 && is_p(i - 1, ":") && is_p(i - 2, ":") {
        return i + 1;
    }
    // Method call: `. name (` or `. name ::<..> (`.
    if i >= 1 && is_p(i - 1, ".") {
        if !is_keyword(&t.text) {
            let after = skip_turbofish(toks, i + 1);
            if is_p(after, "(") {
                node.calls.push(Call {
                    segs: vec![t.text.clone()],
                    kind: CallKind::Method,
                    line: t.line,
                    col: t.col,
                });
            }
        }
        return i + 1;
    }
    if is_keyword(&t.text) {
        return i + 1;
    }
    // Macro: `name ! (` / `name ! [` / `name ! {` (excludes `a != b`).
    if is_p(i + 1, "!")
        && toks
            .get(i + 2)
            .is_some_and(|n| !n.is_ident && matches!(n.text.as_str(), "(" | "[" | "{"))
    {
        node.calls.push(Call {
            segs: vec![t.text.clone()],
            kind: CallKind::Macro,
            line: t.line,
            col: t.col,
        });
        return i + 2;
    }
    // Path: `seg (:: seg)*`, optional turbofish, optional `(`.
    let mut segs = vec![t.text.clone()];
    let mut j = i + 1;
    while is_p(j, ":")
        && is_p(j + 1, ":")
        && toks
            .get(j + 2)
            .is_some_and(|n| n.is_ident && !is_keyword(&n.text))
    {
        segs.push(toks[j + 2].text.clone());
        j += 3;
    }
    let after = skip_turbofish(toks, j);
    let called = is_p(after, "(");
    if segs.len() >= 2 || called {
        if segs[0] == "Self" {
            if let Some(Some(ty)) = impl_type {
                segs[0] = ty.clone();
            }
        }
        while segs.len() > 1 && matches!(segs[0].as_str(), "crate" | "super" | "self") {
            segs.remove(0);
        }
        let trivial = segs.len() == 1 && matches!(segs[0].as_str(), "self" | "Self");
        if !trivial {
            node.calls.push(Call {
                segs,
                kind: CallKind::Path { called },
                line: t.line,
                col: t.col,
            });
        }
    }
    j
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnNode> {
        let lexed = lex(src);
        let spans = crate::rules::test_spans(&lexed.tokens);
        parse_tokens(&lexed.tokens, &spans)
    }

    fn call_names(f: &FnNode) -> Vec<&str> {
        f.calls.iter().map(Call::name).collect()
    }

    #[test]
    fn fn_paths_carry_mods_and_impl_type() {
        let src = "mod inner {\n  pub struct Foo;\n  impl Foo {\n    pub fn go(&self) { helper(); }\n  }\n  fn helper() {}\n}";
        let fns = parse(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "go");
        assert_eq!(fns[0].mods, ["inner"]);
        assert_eq!(fns[0].impl_type.as_deref(), Some("Foo"));
        assert_eq!(call_names(&fns[0]), ["helper"]);
        assert_eq!(fns[1].name, "helper");
        assert!(fns[1].impl_type.is_none());
    }

    #[test]
    fn trait_impl_takes_the_for_type() {
        let src = "impl Defense for Krum {\n  fn aggregate(&self) { self.score(); }\n}";
        let fns = parse(src);
        assert_eq!(fns[0].impl_type.as_deref(), Some("Krum"));
        assert_eq!(fns[0].calls[0].kind, CallKind::Method);
        assert_eq!(call_names(&fns[0]), ["score"]);
    }

    #[test]
    fn generic_impl_header_finds_the_type() {
        let src = "impl<T: Clone> Wrapper<T> {\n  fn get(&self) {}\n}";
        assert_eq!(parse(src)[0].impl_type.as_deref(), Some("Wrapper"));
    }

    #[test]
    fn paths_methods_macros_and_indexes_are_separated() {
        let src = "fn hot(a: &[f32], out: &mut Vec<f32>) {\n\
                   let v = Vec::with_capacity(4);\n\
                   let s = a.to_vec();\n\
                   let m = vec![0.0; 4];\n\
                   out[0] = a[1];\n\
                   crate::par::dispatch(1, 0, &|_| {});\n\
                   }";
        let fns = parse(src);
        let f = &fns[0];
        let paths: Vec<String> = f
            .calls
            .iter()
            .filter(|c| matches!(c.kind, CallKind::Path { .. }))
            .map(|c| c.segs.join("::"))
            .collect();
        assert!(
            paths.contains(&"Vec::with_capacity".to_string()),
            "{paths:?}"
        );
        assert!(
            paths.contains(&"par::dispatch".to_string()),
            "crate:: stripped: {paths:?}"
        );
        let methods: Vec<&str> = f
            .calls
            .iter()
            .filter(|c| c.kind == CallKind::Method)
            .map(Call::name)
            .collect();
        assert_eq!(methods, ["to_vec"]);
        let macros: Vec<&str> = f
            .calls
            .iter()
            .filter(|c| c.kind == CallKind::Macro)
            .map(Call::name)
            .collect();
        assert_eq!(macros, ["vec"]);
        assert_eq!(f.index_sites.len(), 2, "{:?}", f.index_sites);
        // `&mut Vec<f32>` and `&[f32]` in the signature are not sites.
    }

    #[test]
    fn self_prefix_resolves_to_impl_type() {
        let src = "impl Conv2d {\n  fn forward(&self) { Self::check(); }\n}";
        let fns = parse(src);
        assert_eq!(fns[0].calls[0].segs, ["Conv2d", "check"]);
    }

    #[test]
    fn turbofish_method_is_still_a_call() {
        let src = "fn f(it: I) { let v = it.collect::<Vec<f32>>(); }";
        let fns = parse(src);
        let methods: Vec<&str> = fns[0]
            .calls
            .iter()
            .filter(|c| c.kind == CallKind::Method)
            .map(Call::name)
            .collect();
        assert_eq!(methods, ["collect"]);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let src = "pub fn prod() {}\n#[cfg(test)]\nmod tests {\n  fn t() { prod(); }\n}";
        let fns = parse(src);
        assert!(!fns[0].is_test);
        assert!(fns[1].is_test, "{fns:#?}");
    }

    #[test]
    fn field_access_and_comparisons_are_not_calls() {
        let src = "fn f(s: &S) { let a = s.field; let b = a != 3; if a { } }";
        assert!(parse(src)[0].calls.is_empty(), "{:?}", parse(src)[0].calls);
    }

    #[test]
    fn trait_decl_without_body_does_not_leak_scope() {
        let src = "trait T {\n  fn sig(&self);\n  fn with_default(&self) { x.clone(); }\n}\nfn after() { y.to_vec(); }";
        let fns = parse(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "with_default");
        assert_eq!(call_names(&fns[0]), ["clone"]);
        assert_eq!(fns[1].name, "after");
        assert_eq!(call_names(&fns[1]), ["to_vec"]);
    }

    #[test]
    fn struct_literal_is_not_a_call_but_array_index_is() {
        let src = "fn f() { let p = Point { x: 1 }; let q = arr[0]; }";
        let f = &parse(src)[0];
        assert!(f.calls.is_empty(), "{:?}", f.calls);
        assert_eq!(f.index_sites.len(), 1);
    }

    #[test]
    fn target_feature_fns_recover_features_from_source() {
        let src = "#[target_feature(enable = \"avx2,fma\")]\n\
                   #[inline]\n\
                   pub(super) fn dot8(a: &[f32]) -> f32 {\n\
                       unsafe { kernel(a) }\n\
                   }\n\
                   fn plain() {}";
        let lexed = lex(src);
        let tfs = target_feature_fns(&lexed.tokens, src);
        assert_eq!(tfs.len(), 1, "{tfs:?}");
        assert_eq!(tfs[0].name, "dot8");
        assert_eq!(tfs[0].features, ["avx2", "fma"]);
        // The body span covers the `unsafe` token and nothing outside.
        let unsafe_idx = lexed
            .tokens
            .iter()
            .position(|t| t.text == "unsafe")
            .expect("unsafe token");
        let (open, close) = tfs[0].body;
        assert!(open < unsafe_idx && unsafe_idx < close, "{:?}", tfs[0].body);
        let plain_idx = lexed
            .tokens
            .iter()
            .position(|t| t.text == "plain")
            .expect("plain token");
        assert!(plain_idx > close);
    }

    #[test]
    fn target_feature_generics_and_single_feature() {
        let src = "#[target_feature(enable = \"avx512f\")]\n\
                   unsafe fn tile<const R: usize>(c: &mut [f32]) {\n\
                       c[0] = 1.0;\n\
                   }";
        let tfs = target_feature_fns(&lex(src).tokens, src);
        assert_eq!(tfs.len(), 1);
        assert_eq!(tfs[0].name, "tile");
        assert_eq!(tfs[0].features, ["avx512f"]);
    }

    #[test]
    fn non_target_feature_attrs_yield_nothing() {
        let src = "#[inline(always)]\nfn f() {}\n#[cfg(test)]\nfn g() {}";
        assert!(target_feature_fns(&lex(src).tokens, src).is_empty());
    }

    fn uses(src: &str) -> Vec<(String, String)> {
        parse_uses(&lex(src).tokens)
            .into_iter()
            .map(|u| (u.alias, u.segs.join("::")))
            .collect()
    }

    #[test]
    fn plain_use_binds_last_segment() {
        assert_eq!(
            uses("use fabflip_tensor::vecops;"),
            [("vecops".into(), "fabflip_tensor::vecops".into())]
        );
        assert_eq!(
            uses("use crate::faults::sub_seed;"),
            [("sub_seed".into(), "faults::sub_seed".into())]
        );
    }

    #[test]
    fn brace_groups_expand_with_renames_and_self() {
        assert_eq!(
            uses("use fabflip_agg::{Aggregation, krum as k, streaming::{self, StreamingAggregator}};"),
            [
                ("Aggregation".into(), "fabflip_agg::Aggregation".into()),
                ("k".into(), "fabflip_agg::krum".into()),
                ("streaming".into(), "fabflip_agg::streaming".into()),
                (
                    "StreamingAggregator".into(),
                    "fabflip_agg::streaming::StreamingAggregator".into()
                ),
            ]
        );
    }

    #[test]
    fn glob_imports_bind_nothing() {
        assert_eq!(uses("use super::*;"), []);
        assert_eq!(uses("use a::*; use b::c;"), [("c".into(), "b::c".into())]);
    }

    #[test]
    fn top_level_rename_and_nested_self_rename() {
        assert_eq!(
            uses("use fabflip_tensor::quant as q;"),
            [("q".into(), "fabflip_tensor::quant".into())]
        );
        assert_eq!(
            uses("use a::b::{self as bee};"),
            [("bee".into(), "a::b".into())]
        );
    }
}
