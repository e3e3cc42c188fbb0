//! Structural outline of one lexed source file: attributes, `#[cfg(test)]`
//! spans, `mod` spans, function bodies, and trait-impl signatures.
//!
//! This is not a Rust parser. It is a single linear walk over the token
//! stream with a brace-depth counter and a one-slot "deferred item" latch:
//! when an item header (`mod name`, `fn name`, `impl ... for Type`) or a
//! `#[cfg(test)]` attribute is seen, the walk latches it and attaches it to
//! the next `{` at the same nesting level (or cancels it at a `;`, for
//! body-less declarations). That is enough structure for every rule in this
//! crate — which tokens are test-only, which module a token lives in, which
//! types implement which traits — while staying a few hundred lines of
//! dependency-free code.

use crate::lex::{Tok, Token};

/// An attribute, `#[...]` or `#![...]`.
#[derive(Clone, Debug)]
pub struct Attr {
    /// `true` for inner attributes (`#![...]`).
    pub inner: bool,
    /// The tokens between the brackets.
    pub tokens: Vec<Token>,
    /// Line of the `#`.
    pub line: u32,
}

impl Attr {
    /// First identifier of the attribute path (`allow`, `cfg`, `test`, ...).
    pub fn head(&self) -> Option<&str> {
        self.tokens.first().and_then(|t| t.ident())
    }

    /// Whether this attribute marks test-only code: `#[cfg(test)]` (with
    /// `test` anywhere in the predicate, so `cfg(any(test, ...))` counts)
    /// or `#[test]` itself.
    pub fn is_test_marker(&self) -> bool {
        match self.head() {
            Some("test") => true,
            Some("cfg") => self.tokens.iter().any(|t| t.is_ident("test")),
            _ => false,
        }
    }

    /// For `allow`/`expect`/`deny`/`forbid` attributes: the lint paths
    /// listed between the parentheses, rendered with `::` separators.
    pub fn lint_paths(&self) -> Vec<String> {
        let mut paths = Vec::new();
        let mut current = String::new();
        for t in self.tokens.iter().skip(1) {
            match &t.tok {
                Tok::Ident(s) => {
                    if !current.is_empty() && !current.ends_with("::") {
                        // Two idents without `::` (e.g. `reason = "..."`
                        // keys): start over.
                        current.clear();
                    }
                    current.push_str(s);
                }
                Tok::Punct(':') => {
                    if !current.is_empty() {
                        current.push(':');
                    }
                }
                Tok::Punct(',') | Tok::Punct(')') => {
                    if !current.is_empty() {
                        paths.push(current.trim_matches(':').to_string());
                        current.clear();
                    }
                }
                _ => current.clear(),
            }
        }
        if !current.is_empty() {
            paths.push(current.trim_matches(':').to_string());
        }
        paths
    }
}

/// A lint-level attribute site (`allow`/`expect`/`deny`/`forbid`).
#[derive(Clone, Debug)]
pub struct LintSite {
    /// `allow`, `expect`, `deny`, or `forbid`.
    pub action: String,
    /// The lints named, e.g. `clippy::disallowed_methods`, `unsafe_code`.
    pub lints: Vec<String>,
    /// `true` for `#![...]` (crate- or module-level).
    pub inner: bool,
    pub line: u32,
    /// Whether the site sits in test-only code.
    pub in_test: bool,
}

/// A `mod name { ... }` span, by token index.
#[derive(Clone, Debug)]
pub struct ModSpan {
    pub name: String,
    /// Token range `[open_brace, close_brace]`.
    pub start: usize,
    pub end: usize,
}

/// A `fn name(...) { ... }` body span, by token index.
#[derive(Clone, Debug)]
pub struct FnSpan {
    pub name: String,
    pub start: usize,
    pub end: usize,
}

/// A `impl [<G>] TraitPath for Type { ... }` signature.
#[derive(Clone, Debug)]
pub struct ImplSig {
    /// Last segment of the trait path (`Policy` for `crate::policy::Policy`).
    pub trait_name: String,
    /// Last segment of the target type path, or `None` for impls on
    /// references, `Box`, or bare generic parameters (forwarding impls, not
    /// concrete policies).
    pub target: Option<String>,
    pub line: u32,
    /// Whether the impl sits in test-only code.
    pub in_test: bool,
}

/// The per-file structural model every rule consumes.
#[derive(Clone, Debug, Default)]
pub struct FileModel {
    pub tokens: Vec<Token>,
    /// All attributes, in source order.
    pub attrs: Vec<Attr>,
    /// Inner attributes seen before the first item (the crate/module root
    /// attribute block).
    pub root_attrs: Vec<Attr>,
    pub lint_sites: Vec<LintSite>,
    pub mods: Vec<ModSpan>,
    pub fns: Vec<FnSpan>,
    pub impls: Vec<ImplSig>,
    /// Token index ranges `[start, end]` (inclusive braces) of
    /// `#[cfg(test)]` / `#[test]` items.
    pub test_spans: Vec<(usize, usize)>,
}

impl FileModel {
    /// Whether the token at `idx` lies inside a test-only span.
    pub fn in_test(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| idx >= s && idx <= e)
    }

    /// Whether the token at `idx` lies inside a `mod` named `name`
    /// (at any nesting level).
    pub fn in_mod(&self, idx: usize, name: &str) -> bool {
        self.mods.iter().any(|m| m.name == name && idx >= m.start && idx <= m.end)
    }

    /// The span of the first `mod` with this name, if present.
    pub fn mod_span(&self, name: &str) -> Option<(usize, usize)> {
        self.mods.iter().find(|m| m.name == name).map(|m| (m.start, m.end))
    }

    /// The body span of the first `fn` with this name, if present.
    pub fn fn_span(&self, name: &str) -> Option<(usize, usize)> {
        self.fns.iter().find(|f| f.name == name).map(|f| (f.start, f.end))
    }
}

#[derive(Clone, Debug)]
enum FrameKind {
    Mod(String),
    Fn(String),
    Other,
}

struct OpenFrame {
    kind: FrameKind,
    is_test: bool,
    open_idx: usize,
    /// Brace depth *after* the opening `{`; the frame closes at the `}`
    /// that returns to `depth - 1`.
    depth: usize,
}

struct Deferred {
    kind: FrameKind,
    is_test: bool,
    /// Paren/bracket depth at latch time; a `;` at this depth cancels the
    /// deferral (body-less item), one inside `[u8; 4]` does not.
    grouping: usize,
}

/// Build the structural model for one file's tokens.
pub fn outline(tokens: Vec<Token>) -> FileModel {
    let mut model = FileModel { tokens, ..FileModel::default() };
    let tokens = std::mem::take(&mut model.tokens);
    let mut depth = 0usize;
    let mut grouping = 0usize;
    let mut open: Vec<OpenFrame> = Vec::new();
    let mut deferred: Option<Deferred> = None;
    let mut pending_test_attr = false;
    let mut seen_item = false;

    let mut i = 0usize;
    while i < tokens.len() {
        // Attributes are parsed and skipped as a unit so their contents
        // never look like item keywords to the walk below.
        if tokens[i].is_punct('#') {
            if let Some((attr, next)) = parse_attr(&tokens, i) {
                if attr.is_test_marker() && !attr.inner {
                    pending_test_attr = true;
                }
                record_attr(&mut model, &attr, &open, seen_item);
                model.attrs.push(attr);
                i = next;
                continue;
            }
        }

        match &tokens[i].tok {
            Tok::Punct('{') => {
                depth += 1;
                seen_item = true;
                if let Some(d) = deferred.take() {
                    open.push(OpenFrame { kind: d.kind, is_test: d.is_test, open_idx: i, depth });
                } else if pending_test_attr {
                    // `#[cfg(test)]` directly on a braced item with no
                    // tracked keyword (struct, static initializer, ...).
                    open.push(OpenFrame {
                        kind: FrameKind::Other,
                        is_test: true,
                        open_idx: i,
                        depth,
                    });
                    pending_test_attr = false;
                }
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                if open.last().is_some_and(|f| f.depth == depth + 1) {
                    let f = open.pop().expect("frame stack checked non-empty");
                    let span = (f.open_idx, i);
                    match f.kind {
                        FrameKind::Mod(name) => {
                            model.mods.push(ModSpan { name, start: span.0, end: span.1 });
                        }
                        FrameKind::Fn(name) => {
                            model.fns.push(FnSpan { name, start: span.0, end: span.1 });
                        }
                        FrameKind::Other => {}
                    }
                    if f.is_test {
                        model.test_spans.push(span);
                    }
                }
            }
            Tok::Punct('(') | Tok::Punct('[') => grouping += 1,
            Tok::Punct(')') | Tok::Punct(']') => grouping = grouping.saturating_sub(1),
            Tok::Punct(';') => {
                if let Some(d) = &deferred {
                    if grouping <= d.grouping {
                        deferred = None;
                    }
                }
                pending_test_attr = false;
                seen_item = true;
            }
            Tok::Ident(kw) if kw == "mod" && deferred.is_none() => {
                seen_item = true;
                if let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) {
                    deferred = Some(Deferred {
                        kind: FrameKind::Mod(name.to_string()),
                        is_test: std::mem::take(&mut pending_test_attr),
                        grouping,
                    });
                    i += 2;
                    continue;
                }
            }
            Tok::Ident(kw) if kw == "fn" && deferred.is_none() => {
                seen_item = true;
                // `fn name` is an item (or method); `fn(` is a pointer type.
                if let Some(name) = tokens.get(i + 1).and_then(|t| t.ident()) {
                    deferred = Some(Deferred {
                        kind: FrameKind::Fn(name.to_string()),
                        is_test: std::mem::take(&mut pending_test_attr),
                        grouping,
                    });
                    i += 2;
                    continue;
                }
            }
            Tok::Ident(kw) if kw == "impl" && deferred.is_none() && grouping == 0 => {
                seen_item = true;
                let is_test = std::mem::take(&mut pending_test_attr);
                if let Some(sig) = parse_impl(&tokens, i, is_test) {
                    model.impls.push(sig);
                }
                deferred = Some(Deferred { kind: FrameKind::Other, is_test, grouping });
            }
            Tok::Ident(_) => {
                seen_item = true;
            }
            _ => {}
        }
        i += 1;
    }

    // An impl or lint site recorded before its surrounding test mod closed
    // could not consult `test_spans` yet, so finalize membership now.
    model.tokens = tokens;
    let spans = model.test_spans.clone();
    for site in &mut model.lint_sites {
        if !site.in_test {
            site.in_test =
                spans.iter().any(|&(s, e)| token_line_in_span(&model.tokens, site.line, s, e));
        }
    }
    for imp in &mut model.impls {
        if !imp.in_test {
            imp.in_test =
                spans.iter().any(|&(s, e)| token_line_in_span(&model.tokens, imp.line, s, e));
        }
    }
    model
}

/// Whether any token on `line` falls inside the token-index span `[s, e]`.
fn token_line_in_span(tokens: &[Token], line: u32, s: usize, e: usize) -> bool {
    tokens.get(s).is_some_and(|a| a.line <= line) && tokens.get(e).is_some_and(|b| line <= b.line)
}

/// Parse an attribute starting at `#`; returns the attr and the index just
/// past its closing `]`.
fn parse_attr(tokens: &[Token], at: usize) -> Option<(Attr, usize)> {
    let line = tokens[at].line;
    let mut i = at + 1;
    let inner = tokens.get(i).is_some_and(|t| t.is_punct('!'));
    if inner {
        i += 1;
    }
    if !tokens.get(i).is_some_and(|t| t.is_punct('[')) {
        return None;
    }
    i += 1;
    let start = i;
    let mut brackets = 1usize;
    while i < tokens.len() {
        if tokens[i].is_punct('[') {
            brackets += 1;
        } else if tokens[i].is_punct(']') {
            brackets -= 1;
            if brackets == 0 {
                return Some((Attr { inner, tokens: tokens[start..i].to_vec(), line }, i + 1));
            }
        }
        i += 1;
    }
    None
}

/// Record lint-level attribute sites and root inner attributes.
fn record_attr(model: &mut FileModel, attr: &Attr, open: &[OpenFrame], seen_item: bool) {
    if attr.inner && !seen_item {
        model.root_attrs.push(attr.clone());
    }
    if let Some(action @ ("allow" | "expect" | "deny" | "forbid")) = attr.head() {
        model.lint_sites.push(LintSite {
            action: action.to_string(),
            lints: attr.lint_paths(),
            inner: attr.inner,
            line: attr.line,
            in_test: open.iter().any(|f| f.is_test),
        });
    }
}

/// Parse `impl [<G>] TraitPath for Target ...` at the `impl` keyword.
/// Returns `None` for inherent impls (no `for`). Forwarding impls — on
/// references, `Box`, or a bare generic parameter — yield `target: None`.
fn parse_impl(tokens: &[Token], at: usize, in_test: bool) -> Option<ImplSig> {
    let line = tokens[at].line;
    let mut i = at + 1;
    let mut generics: Vec<String> = Vec::new();

    // Optional generic parameter list.
    if tokens.get(i).is_some_and(|t| t.is_punct('<')) {
        let mut angle = 1usize;
        i += 1;
        let mut expect_param = true;
        while i < tokens.len() && angle > 0 {
            match &tokens[i].tok {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') => angle -= 1,
                Tok::Punct(',') if angle == 1 => expect_param = true,
                Tok::Punct(':') => expect_param = false,
                Tok::Ident(s) if angle == 1 && expect_param && s != "const" => {
                    generics.push(s.clone());
                    expect_param = false;
                }
                _ => {}
            }
            i += 1;
        }
    }

    // Trait path, up to a top-level `for` (or `{`/`(`, meaning inherent).
    let mut trait_name: Option<String> = None;
    let mut angle = 0usize;
    loop {
        let t = tokens.get(i)?;
        match &t.tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle = angle.saturating_sub(1),
            Tok::Punct('{') => return None,
            Tok::Ident(kw) if kw == "for" && angle == 0 => {
                i += 1;
                break;
            }
            Tok::Ident(s) if angle == 0 => trait_name = Some(s.clone()),
            _ => {}
        }
        i += 1;
    }
    let trait_name = trait_name?;

    // Target type: strip leading `&` / lifetimes / `mut` / `dyn`; a leading
    // `&` or `Box` or a bare generic parameter marks a forwarding impl.
    let mut forwarding = false;
    while let Some(t) = tokens.get(i) {
        match &t.tok {
            Tok::Punct('&') => {
                forwarding = true;
                i += 1;
            }
            Tok::Lifetime => i += 1,
            Tok::Ident(kw) if kw == "mut" || kw == "dyn" => i += 1,
            _ => break,
        }
    }
    let mut target: Option<String> = None;
    let mut angle = 0usize;
    while let Some(t) = tokens.get(i) {
        match &t.tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle = angle.saturating_sub(1),
            Tok::Punct('{') if angle == 0 => break,
            Tok::Ident(kw) if kw == "where" && angle == 0 => break,
            Tok::Ident(s) if angle == 0 => target = Some(s.clone()),
            _ => {}
        }
        i += 1;
    }
    let target = match target {
        Some(name) if name == "Box" || generics.contains(&name) || forwarding => None,
        other => other,
    };
    Some(ImplSig { trait_name, target, line, in_test })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn model(src: &str) -> FileModel {
        outline(lex(src).expect("test source must lex"))
    }

    #[test]
    fn cfg_test_mod_span_is_tracked() {
        let m =
            model("pub fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() { let x = 1; }\n}\n");
        let (s, e) = m.mod_span("tests").expect("mod tests tracked");
        assert!(m.in_test(s) && m.in_test(e));
        let live = m.fn_span("live").expect("fn live tracked");
        assert!(!m.in_test(live.0));
    }

    #[test]
    fn nested_mods_and_paths() {
        let m = model("mod outer { mod advisory { fn tick() {} } fn other() {} }");
        let (s, e) = m.mod_span("advisory").expect("nested mod tracked");
        assert!(m.in_mod(s, "outer") && m.in_mod(e, "advisory"));
        let other = m.fn_span("other").expect("fn other tracked");
        assert!(!m.in_mod(other.0, "advisory"));
    }

    #[test]
    fn impls_parse_trait_and_target() {
        let m = model(
            "impl Policy for DeltaLruEdf {}\n\
             impl<P: Policy> Policy for Distribute<P> {}\n\
             impl crate::Snapshot for Edf {}\n\
             impl<P: Policy + ?Sized> Policy for &mut P {}\n\
             impl<P: Policy + ?Sized> Policy for Box<P> {}\n\
             impl Dense { fn inherent(&self) {} }\n",
        );
        let sigs: Vec<(String, Option<String>)> =
            m.impls.iter().map(|s| (s.trait_name.clone(), s.target.clone())).collect();
        assert_eq!(
            sigs,
            vec![
                ("Policy".to_string(), Some("DeltaLruEdf".to_string())),
                ("Policy".to_string(), Some("Distribute".to_string())),
                ("Snapshot".to_string(), Some("Edf".to_string())),
                ("Policy".to_string(), None),
                ("Policy".to_string(), None),
            ]
        );
    }

    #[test]
    fn impl_inside_test_mod_is_test() {
        let m = model("#[cfg(test)]\nmod tests {\n  struct S;\n  impl Policy for S {}\n}\n");
        assert!(m.impls[0].in_test);
    }

    #[test]
    fn lint_sites_collect_paths() {
        let m = model(
            "#![forbid(unsafe_code)]\n\
             #[allow(clippy::disallowed_methods)]\nfn t() {}\n\
             #[allow(dead_code, clippy::disallowed_types)]\nfn u() {}\n",
        );
        assert_eq!(m.lint_sites.len(), 3);
        assert_eq!(m.lint_sites[0].action, "forbid");
        assert_eq!(m.lint_sites[0].lints, ["unsafe_code"]);
        assert!(m.lint_sites[0].inner);
        assert_eq!(m.lint_sites[1].lints, ["clippy::disallowed_methods"]);
        assert_eq!(m.lint_sites[2].lints, ["dead_code", "clippy::disallowed_types"]);
        assert_eq!(m.root_attrs.len(), 1);
    }

    #[test]
    fn cfg_test_on_fn_and_test_attr() {
        let m = model(
            "#[test]\nfn unit() { body(); }\n\
             #[cfg(test)]\nfn helper() { body(); }\n\
             #[cfg(test)]\nuse std::fmt;\nfn live() { body(); }\n",
        );
        let unit = m.fn_span("unit").expect("unit tracked");
        let helper = m.fn_span("helper").expect("helper tracked");
        let live = m.fn_span("live").expect("live tracked");
        assert!(m.in_test(unit.0));
        assert!(m.in_test(helper.0));
        assert!(!m.in_test(live.0), "cfg(test) on a use must not leak to the next item");
    }

    #[test]
    fn array_semicolon_does_not_cancel_deferral() {
        let m = model("fn f(x: [u8; 4]) { body(); }");
        assert!(m.fn_span("f").is_some());
    }
}
