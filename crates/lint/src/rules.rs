//! The six rules of the lint wall. Each rule reads the workspace model and
//! pushes [`Finding`]s; carve-outs go through [`Ledger::claim`], so every
//! exemption is a committed, reasoned `LINT_LEDGER.toml` entry — and an
//! entry that stops matching anything becomes a *stale* finding itself.
//!
//! The catalog (DESIGN.md §15):
//!
//! | rule | what it enforces |
//! |---|---|
//! | `waiver-ledger` | every `#[allow]` of a walled lint is ledgered; no stale entries |
//! | `float-ban` | no `f32`/`f64` in the deterministic crates |
//! | `trait-matrix` | every `Policy` type also implements `Snapshot` |
//! | `schema-sync` | sink-emitted `"ev"` names == `parse_trace` arms; obs counters documented |
//! | `unwrap-discipline` | no bare `.unwrap()` in non-test library code |
//! | `crate-root-hygiene` | every crate root carries `#![forbid(unsafe_code)]` |

use std::collections::{BTreeMap, BTreeSet};

use crate::ledger::Ledger;
use crate::lex::{is_float_literal, Tok};
use crate::report::Finding;
use crate::walk::{FileKind, SourceFile, Workspace};

/// Names of the rules, in evaluation order.
pub const RULE_NAMES: [&str; 6] = [
    "waiver-ledger",
    "float-ban",
    "trait-matrix",
    "schema-sync",
    "unwrap-discipline",
    "crate-root-hygiene",
];

/// Clippy lints from `clippy.toml` whose `#[allow]` sites must be ledgered,
/// plus the `unsafe_code` escape hatch.
const WALLED_LINTS: [&str; 3] =
    ["clippy::disallowed_methods", "clippy::disallowed_types", "unsafe_code"];

/// Run the named rules (all six when `filter` is `None`) over the
/// workspace. Stale-waiver detection only runs on a full, unfiltered pass:
/// a filtered run cannot know which entries the skipped rules would have
/// claimed.
pub fn run(ws: &Workspace, ledger: &Ledger, filter: Option<&[String]>) -> Vec<Finding> {
    let mut out = Vec::new();
    let active = |name: &str| filter.is_none_or(|f| f.iter().any(|r| r == name));

    if active("waiver-ledger") {
        waiver_ledger(ws, ledger, &mut out);
    }
    if active("float-ban") {
        float_ban(ws, ledger, &mut out);
    }
    if active("trait-matrix") {
        trait_matrix(ws, ledger, &mut out);
    }
    if active("schema-sync") {
        schema_sync(ws, ledger, &mut out);
    }
    if active("unwrap-discipline") {
        unwrap_discipline(ws, ledger, &mut out);
    }
    if active("crate-root-hygiene") {
        crate_root_hygiene(ws, ledger, &mut out);
    }
    if filter.is_none() {
        for w in ledger.stale() {
            out.push(Finding::new(
                "waiver-ledger",
                "LINT_LEDGER.toml",
                w.line,
                Some(&w.lint),
                format!(
                    "stale ledger entry: no live site matches file=\"{}\" lint=\"{}\"{}",
                    w.file,
                    w.lint,
                    w.item.as_deref().map(|i| format!(" item=\"{i}\"")).unwrap_or_default()
                ),
            ));
        }
    }
    out.sort();
    out
}

/// Rule 1: every `#[allow(...)]` (or `#[expect(...)]`) of a walled lint
/// must match a ledger entry for its file. The inverse — entries whose
/// site vanished — is reported by the stale pass in [`run`].
fn waiver_ledger(ws: &Workspace, ledger: &Ledger, out: &mut Vec<Finding>) {
    for file in &ws.files {
        for site in &file.model.lint_sites {
            if site.action != "allow" && site.action != "expect" {
                continue;
            }
            for lint in &site.lints {
                if !WALLED_LINTS.contains(&lint.as_str()) {
                    continue;
                }
                if !ledger.claim(&file.rel, lint, None) {
                    out.push(Finding::new(
                        "waiver-ledger",
                        &file.rel,
                        site.line,
                        Some(lint),
                        format!(
                            "`#[{}({lint})]` has no LINT_LEDGER.toml entry \
                             (file = \"{}\", lint = \"{lint}\")",
                            site.action, file.rel
                        ),
                    ));
                }
            }
        }
    }
}

/// Where the float ban applies inside a given file, if at all.
enum FloatScope {
    /// Whole file (minus test spans).
    Full,
    /// Everything outside the named module (minus test spans).
    OutsideMod(&'static str),
}

/// The deterministic scope: exact-rational cost accounting lives here, so a
/// float token anywhere in it can silently turn a certified ratio into an
/// approximation (DESIGN.md §9/§15).
fn float_scope(file: &SourceFile) -> Option<FloatScope> {
    if file.kind != FileKind::Lib {
        return None;
    }
    match file.crate_name.as_str() {
        "core" | "model" | "offline" | "check" => Some(FloatScope::Full),
        "engine" => match file.rel.as_str() {
            // Advisory wall-clock telemetry, documented non-deterministic.
            "crates/engine/src/sink.rs" | "crates/engine/src/par.rs" => None,
            "crates/engine/src/obs.rs" => Some(FloatScope::OutsideMod("advisory")),
            _ => Some(FloatScope::Full),
        },
        "search" if file.rel.ends_with("src/fitness.rs") => Some(FloatScope::Full),
        _ => None,
    }
}

/// Rule 2: no `f32`/`f64` type tokens and no float literals in the
/// deterministic crates.
fn float_ban(ws: &Workspace, ledger: &Ledger, out: &mut Vec<Finding>) {
    for file in &ws.files {
        let Some(scope) = float_scope(file) else { continue };
        for (idx, token) in file.model.tokens.iter().enumerate() {
            let float = match &token.tok {
                Tok::Ident(s) if s == "f32" || s == "f64" => Some(s.as_str()),
                Tok::Num(n) if is_float_literal(n) => Some(n.as_str()),
                _ => None,
            };
            let Some(text) = float else { continue };
            if file.model.in_test(idx) {
                continue;
            }
            if let FloatScope::OutsideMod(name) = scope {
                if file.model.in_mod(idx, name) {
                    continue;
                }
            }
            if ledger.claim(&file.rel, "float-ban", Some(text)) {
                continue;
            }
            out.push(Finding::new(
                "float-ban",
                &file.rel,
                token.line,
                Some(text),
                format!(
                    "float token `{text}` in deterministic crate `{}` \
                     (exact-rational accounting only; DESIGN.md §15)",
                    file.crate_name
                ),
            ));
        }
    }
}

/// Rule 3: every concrete type with a library `impl Policy` must also
/// implement `Snapshot` (checkpointing) somewhere in library code — across
/// files and crates. Telemetry needs no rule: `Policy::stats` is a method
/// every policy has.
fn trait_matrix(ws: &Workspace, ledger: &Ledger, out: &mut Vec<Finding>) {
    let mut snapshot: BTreeSet<&str> = BTreeSet::new();
    let mut policy_sites: Vec<(&SourceFile, u32, &str)> = Vec::new();
    for file in &ws.files {
        if file.kind != FileKind::Lib || file.is_compat() {
            continue;
        }
        for imp in &file.model.impls {
            if imp.in_test {
                continue;
            }
            let Some(target) = imp.target.as_deref() else { continue };
            match imp.trait_name.as_str() {
                "Policy" => policy_sites.push((file, imp.line, target)),
                "Snapshot" => {
                    snapshot.insert(target);
                }
                _ => {}
            }
        }
    }
    for (file, line, target) in policy_sites {
        if snapshot.contains(target) || ledger.claim(&file.rel, "trait-matrix", Some(target)) {
            continue;
        }
        out.push(Finding::new(
            "trait-matrix",
            &file.rel,
            line,
            Some(target),
            format!(
                "`{target}` implements `Policy` but not `Snapshot` \
                 (a policy must keep checkpointing; DESIGN.md §15)"
            ),
        ));
    }
}

const SINK_RS: &str = "crates/engine/src/sink.rs";
const OBS_RS: &str = "crates/engine/src/obs.rs";

/// Rule 4: the trace schema cannot drift apart. (a) The set of
/// `"ev":"..."` event names emitted by `rrs_engine::sink` equals the set
/// of arms in `parse_trace_line`; (b) every counter name registered in
/// `obs::names` is documented in DESIGN.md §13.
fn schema_sync(ws: &Workspace, ledger: &Ledger, out: &mut Vec<Finding>) {
    if let Some(sink) = ws.file(SINK_RS) {
        let mut emitted: BTreeMap<String, u32> = BTreeMap::new();
        for (idx, token) in sink.model.tokens.iter().enumerate() {
            if sink.model.in_test(idx) {
                continue;
            }
            let Some(value) = token.str_value() else { continue };
            let mut rest = value;
            while let Some(at) = rest.find("\"ev\":\"") {
                let name_start = &rest[at + 6..];
                let name: String =
                    name_start.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
                if !name.is_empty() {
                    emitted.entry(name).or_insert(token.line);
                }
                rest = name_start;
            }
        }
        match sink.model.fn_span("parse_trace_line") {
            Some((start, end)) => {
                let mut parsed: BTreeMap<String, u32> = BTreeMap::new();
                let toks = &sink.model.tokens;
                for idx in start..=end.min(toks.len().saturating_sub(1)) {
                    let Some(value) = toks[idx].str_value() else { continue };
                    let is_arm = toks.get(idx + 1).is_some_and(|t| t.is_punct('='))
                        && toks.get(idx + 2).is_some_and(|t| t.is_punct('>'));
                    if is_arm {
                        parsed.entry(value.to_string()).or_insert(toks[idx].line);
                    }
                }
                for (name, line) in &emitted {
                    if !parsed.contains_key(name)
                        && !ledger.claim(SINK_RS, "schema-sync", Some(name))
                    {
                        out.push(Finding::new(
                            "schema-sync",
                            SINK_RS,
                            *line,
                            Some(name),
                            format!(
                                "event \"{name}\" is emitted by sink but has no \
                                 `parse_trace_line` arm"
                            ),
                        ));
                    }
                }
                for (name, line) in &parsed {
                    if !emitted.contains_key(name)
                        && !ledger.claim(SINK_RS, "schema-sync", Some(name))
                    {
                        out.push(Finding::new(
                            "schema-sync",
                            SINK_RS,
                            *line,
                            Some(name),
                            format!(
                                "`parse_trace_line` handles \"{name}\" but sink never emits it"
                            ),
                        ));
                    }
                }
            }
            None => out.push(Finding::new(
                "schema-sync",
                SINK_RS,
                0,
                None,
                "fn `parse_trace_line` not found; the schema cross-check has lost its anchor"
                    .to_string(),
            )),
        }
    }

    if let Some(obs) = ws.file(OBS_RS) {
        let Some((start, end)) = obs.model.mod_span("names") else {
            out.push(Finding::new(
                "schema-sync",
                OBS_RS,
                0,
                None,
                "mod `names` not found; the counter-name cross-check has lost its anchor"
                    .to_string(),
            ));
            return;
        };
        let section = ws.design_md.as_deref().map(design_section_13).unwrap_or_default();
        for idx in start..=end.min(obs.model.tokens.len().saturating_sub(1)) {
            if obs.model.in_test(idx) {
                continue;
            }
            let Some(name) = obs.model.tokens[idx].str_value() else { continue };
            if section.contains(&format!("`{name}`")) {
                continue;
            }
            if ledger.claim(OBS_RS, "schema-sync", Some(name)) {
                continue;
            }
            out.push(Finding::new(
                "schema-sync",
                OBS_RS,
                obs.model.tokens[idx].line,
                Some(name),
                format!(
                    "counter `{name}` is registered in obs::names but not named in DESIGN.md §13"
                ),
            ));
        }
    }
}

/// Extract the §13 section (from `## 13` to the next `## `).
fn design_section_13(design: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in design.lines() {
        if line.starts_with("## ") {
            inside = line.starts_with("## 13");
        }
        if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Rule 5: no bare `.unwrap()` in non-test library (or binary) code; use
/// `.expect("invariant")` so the panic names what was violated.
fn unwrap_discipline(ws: &Workspace, ledger: &Ledger, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if file.is_compat() || !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
            continue;
        }
        let toks = &file.model.tokens;
        for idx in 0..toks.len() {
            let bare_unwrap = toks[idx].is_punct('.')
                && toks.get(idx + 1).is_some_and(|t| t.is_ident("unwrap"))
                && toks.get(idx + 2).is_some_and(|t| t.is_punct('('))
                && toks.get(idx + 3).is_some_and(|t| t.is_punct(')'));
            if !bare_unwrap || file.model.in_test(idx) {
                continue;
            }
            if ledger.claim(&file.rel, "unwrap-discipline", None) {
                continue;
            }
            out.push(Finding::new(
                "unwrap-discipline",
                &file.rel,
                toks[idx + 1].line,
                None,
                "bare `.unwrap()` in library code; use `.expect(\"<invariant>\")` \
                 stating what cannot happen (DESIGN.md §15)"
                    .to_string(),
            ));
        }
    }
}

/// Rule 6: every crate root opens with `#![forbid(unsafe_code)]`. A
/// crate-level `deny` (overridable, unlike `forbid`) needs a ledger entry.
fn crate_root_hygiene(ws: &Workspace, ledger: &Ledger, out: &mut Vec<Finding>) {
    for file in &ws.files {
        if !file.is_crate_root() {
            continue;
        }
        let unsafe_level = |action: &str| {
            file.model.root_attrs.iter().any(|a| {
                a.head() == Some(action) && a.lint_paths().iter().any(|l| l == "unsafe_code")
            })
        };
        if unsafe_level("forbid") {
            continue;
        }
        if unsafe_level("deny") && ledger.claim(&file.rel, "crate-root-hygiene", None) {
            continue;
        }
        out.push(Finding::new(
            "crate-root-hygiene",
            &file.rel,
            1,
            None,
            "crate root must carry `#![forbid(unsafe_code)]` (or a ledgered `deny`; \
             DESIGN.md §15)"
                .to_string(),
        ));
    }
}
