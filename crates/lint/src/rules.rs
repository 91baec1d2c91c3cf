//! The rule set: panic-freedom, determinism, error-taxonomy and hygiene.
//!
//! Each rule is a token-pattern check that applies in every crate; the
//! only exemptions are `det.thread_spawn` in `parallel` (it owns the raw
//! threads) and `hyg.print` in the CLI crates. Rules fire only on code
//! tokens outside test regions, attributes and `macro_rules!` bodies (see
//! [`crate::regions`]); comments, doc comments and string literals are
//! skipped by construction of the token stream.

use crate::lexer::{is_keyword, Token, TokenKind};
use crate::regions::Region;

/// A single reported problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (e.g. `panic.unwrap`).
    pub rule: &'static str,
    /// Path of the offending file, relative to the workspace root.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable description of the problem.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(rule: &'static str, file: &str, line: u32, message: String) -> Self {
        Finding {
            rule,
            file: file.to_string(),
            line,
            message,
        }
    }
}

/// Description of one rule, for `--rules` listings and the docs table.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable identifier cited by waivers.
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every rule this auditor knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "panic.unwrap",
        summary: "no .unwrap()/.expect() in non-test library code",
    },
    RuleInfo {
        id: "panic.macro",
        summary: "no panic!/unreachable!/todo!/unimplemented! in non-test library code",
    },
    RuleInfo {
        id: "panic.index",
        summary: "no direct slice/array indexing `x[i]` in non-test library code",
    },
    RuleInfo {
        id: "det.hash_container",
        summary: "no HashMap/HashSet — iteration order is nondeterministic",
    },
    RuleInfo {
        id: "det.wall_clock",
        summary: "no Instant::now/SystemTime — use the virtual DiskModel clock",
    },
    RuleInfo {
        id: "det.float_accum",
        summary: "no float .sum()/.product() — accumulate via kernels or a serial loop",
    },
    RuleInfo {
        id: "det.thread_spawn",
        summary: "no std::thread::spawn outside crates/parallel — use the eff2-parallel wrappers",
    },
    RuleInfo {
        id: "err.box_error",
        summary: "no Box<dyn …Error…> — use the workspace Error taxonomy",
    },
    RuleInfo {
        id: "err.string_error",
        summary: "no Result<_, String> — use the workspace Error taxonomy",
    },
    RuleInfo {
        id: "hyg.print",
        summary: "no println!/eprintln!/print!/eprint!/dbg! in library crates",
    },
    RuleInfo {
        id: "hyg.waiver",
        summary: "every lint:allow waiver cites a known rule, a non-empty reason, and suppresses something",
    },
];

/// Whether `id` names a known rule.
pub(crate) fn is_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Crates that are command-line binaries: printing to stdout/stderr is
/// their job, so `hyg.print` does not apply.
const CLI_CRATES: &[&str] = &["eval", "lint"];

/// The crate exempt from `det.thread_spawn`: eff2-parallel owns raw
/// threads — its wrappers pin worker counts and merge order so everyone
/// else stays deterministic.
const THREAD_CRATE: &str = "parallel";

/// Integer primitive names: `.sum::<usize>()` over these is deterministic
/// regardless of order, so `det.float_accum` permits it.
fn is_integer_type(s: &str) -> bool {
    matches!(
        s,
        "u8" | "u16"
            | "u32"
            | "u64"
            | "u128"
            | "usize"
            | "i8"
            | "i16"
            | "i32"
            | "i64"
            | "i128"
            | "isize"
    )
}

/// How a `.sum()`/`.product()` site is written, for message wording.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AccumShape {
    /// Bare `.sum()` — the accumulator type is hidden.
    Bare,
    /// `.sum::<f32>()` — an explicitly non-integer turbofish.
    FloatTurbofish,
}

/// A window over one file's code tokens, with one detector per site
/// shape the rules look for.
#[derive(Clone, Copy)]
struct View<'a> {
    tokens: &'a [Token],
    code: &'a [usize],
}

impl<'a> View<'a> {
    fn new(tokens: &'a [Token], code: &'a [usize]) -> Self {
        View { tokens, code }
    }

    /// The token at code position `code_pos`.
    fn tok(&self, code_pos: usize) -> Option<&'a Token> {
        self.code.get(code_pos).and_then(|&i| self.tokens.get(i))
    }

    /// The raw token-stream index backing code position `code_pos`.
    fn raw_index(&self, code_pos: usize) -> Option<usize> {
        self.code.get(code_pos).copied()
    }

    /// Whether `at`/`at+1` form a `::` path separator.
    fn path_sep(&self, at: usize) -> bool {
        self.tok(at).is_some_and(|a| a.is_punct(':'))
            && self.tok(at + 1).is_some_and(|b| b.is_punct(':'))
    }

    /// `.unwrap(` / `.expect(`: returns the method name.
    fn unwrap_site(&self, at: usize) -> Option<&'a str> {
        let t = self.tok(at)?;
        if t.kind != TokenKind::Ident || !matches!(t.text.as_str(), "unwrap" | "expect") {
            return None;
        }
        let after_dot = at > 0 && self.tok(at - 1).is_some_and(|p| p.is_punct('.'));
        let called = self.tok(at + 1).is_some_and(|n| n.is_punct('('));
        (after_dot && called).then_some(t.text.as_str())
    }

    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!`: the macro name.
    fn panic_macro_site(&self, at: usize) -> Option<&'a str> {
        let t = self.tok(at)?;
        if t.kind != TokenKind::Ident
            || !matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
        {
            return None;
        }
        self.tok(at + 1)
            .is_some_and(|n| n.is_punct('!'))
            .then_some(t.text.as_str())
    }

    /// Direct indexing `x[i]` (an opening `[` right after a value).
    fn index_site(&self, at: usize) -> bool {
        let Some(t) = self.tok(at) else { return false };
        if !t.is_punct('[') || at == 0 {
            return false;
        }
        let Some(prev) = self.tok(at - 1) else {
            return false;
        };
        match prev.kind {
            TokenKind::Ident => !is_keyword(&prev.text),
            TokenKind::Punct => matches!(prev.text.chars().next(), Some(')') | Some(']')),
            _ => false,
        }
    }

    /// `HashMap` / `HashSet` mention: returns the container name.
    fn hash_container_site(&self, at: usize) -> Option<&'a str> {
        let t = self.tok(at)?;
        (t.kind == TokenKind::Ident && matches!(t.text.as_str(), "HashMap" | "HashSet"))
            .then_some(t.text.as_str())
    }

    /// `SystemTime` mention or `Instant::now`: a short site label.
    fn wall_clock_site(&self, at: usize) -> Option<&'static str> {
        let t = self.tok(at)?;
        if t.kind != TokenKind::Ident {
            return None;
        }
        if t.text == "SystemTime" {
            return Some("SystemTime");
        }
        if t.text == "Instant"
            && self.path_sep(at + 1)
            && self.tok(at + 3).is_some_and(|c| c.is_ident("now"))
        {
            return Some("Instant::now");
        }
        None
    }

    /// `.sum()` / `.product()` with a hidden or non-integer accumulator:
    /// returns the method name and how the site is written.
    fn float_accum_site(&self, at: usize) -> Option<(&'a str, AccumShape)> {
        let t = self.tok(at)?;
        if t.kind != TokenKind::Ident || !matches!(t.text.as_str(), "sum" | "product") {
            return None;
        }
        if at == 0 || !self.tok(at - 1).is_some_and(|p| p.is_punct('.')) {
            return None;
        }
        // `.sum::<integer>()` is order-independent; anything else (bare
        // `.sum()`, or a float turbofish) is a site.
        if self.tok(at + 1).is_some_and(|n| n.is_punct('(')) {
            return Some((t.text.as_str(), AccumShape::Bare));
        }
        let turbofish = self.path_sep(at + 1) && self.tok(at + 3).is_some_and(|c| c.is_punct('<'));
        if turbofish {
            let int = self
                .tok(at + 4)
                .is_some_and(|ty| ty.kind == TokenKind::Ident && is_integer_type(&ty.text));
            if !int {
                return Some((t.text.as_str(), AccumShape::FloatTurbofish));
            }
        }
        None
    }

    /// `thread::spawn(`.
    fn thread_spawn_site(&self, at: usize) -> bool {
        let Some(t) = self.tok(at) else { return false };
        t.kind == TokenKind::Ident
            && t.text == "thread"
            && self.path_sep(at + 1)
            && self.tok(at + 3).is_some_and(|c| c.is_ident("spawn"))
            && self.tok(at + 4).is_some_and(|d| d.is_punct('('))
    }
}

struct Scan<'a> {
    crate_name: &'a str,
    rel_path: &'a str,
    view: View<'a>,
    regions: &'a [Region],
    findings: Vec<Finding>,
}

impl Scan<'_> {
    /// Whether the token at `code_pos` sits in a region rules must skip.
    fn skipped(&self, code_pos: usize) -> bool {
        self.view
            .raw_index(code_pos)
            .and_then(|i| self.regions.get(i))
            .is_none_or(|r| r.test || r.attr || r.macro_body)
    }

    fn report(&mut self, rule: &'static str, code_pos: usize, message: String) {
        let line = self.view.tok(code_pos).map_or(0, |t| t.line);
        self.findings
            .push(Finding::new(rule, self.rel_path, line, message));
    }

    // ----- panic-freedom ---------------------------------------------------

    fn panic_unwrap(&mut self, at: usize) {
        if let Some(name) = self.view.unwrap_site(at) {
            let name = name.to_string();
            self.report(
                "panic.unwrap",
                at,
                format!(".{name}() can panic — return the workspace Error instead"),
            );
        }
    }

    fn panic_macro(&mut self, at: usize) {
        if let Some(name) = self.view.panic_macro_site(at) {
            let name = name.to_string();
            self.report(
                "panic.macro",
                at,
                format!("{name}! aborts the caller — return the workspace Error instead"),
            );
        }
    }

    fn panic_index(&mut self, at: usize) {
        if self.view.index_site(at) {
            self.report(
                "panic.index",
                at,
                "direct indexing can panic — prefer .get()/iterators or a bounds-checked helper"
                    .to_string(),
            );
        }
    }

    // ----- determinism -----------------------------------------------------

    fn det_hash_container(&mut self, at: usize) {
        if let Some(name) = self.view.hash_container_site(at) {
            let name = name.to_string();
            self.report(
                "det.hash_container",
                at,
                format!("{name} iteration order is nondeterministic — use BTreeMap/BTreeSet or an index vector"),
            );
        }
    }

    fn det_wall_clock(&mut self, at: usize) {
        match self.view.wall_clock_site(at) {
            Some("SystemTime") => self.report(
                "det.wall_clock",
                at,
                "SystemTime makes output depend on the host clock — use the virtual DiskModel clock"
                    .to_string(),
            ),
            Some(_) => self.report(
                "det.wall_clock",
                at,
                "Instant::now makes output depend on the host — use the virtual DiskModel clock"
                    .to_string(),
            ),
            None => {}
        }
    }

    fn det_float_accum(&mut self, at: usize) {
        if let Some((name, shape)) = self.view.float_accum_site(at) {
            let name = name.to_string();
            let message = match shape {
                AccumShape::Bare => format!(
                    ".{name}() hides its accumulator type — use .{name}::<uN>() for integers or the kernels module for floats"
                ),
                AccumShape::FloatTurbofish => format!(
                    "float .{name}::<_>() accumulation order is a determinism hazard — use the kernels module"
                ),
            };
            self.report("det.float_accum", at, message);
        }
    }

    fn det_thread_spawn(&mut self, at: usize) {
        if self.crate_name == THREAD_CRATE {
            return;
        }
        if self.view.thread_spawn_site(at) {
            self.report(
                "det.thread_spawn",
                at,
                "std::thread::spawn forks unmanaged concurrency — use the eff2-parallel wrappers"
                    .to_string(),
            );
        }
    }

    // ----- error taxonomy --------------------------------------------------

    fn err_box_error(&mut self, at: usize) {
        let Some(t) = self.view.tok(at) else { return };
        if !t.is_ident("Box") || !self.view.tok(at + 1).is_some_and(|n| n.is_punct('<')) {
            return;
        }
        if !self.view.tok(at + 2).is_some_and(|n| n.is_ident("dyn")) {
            return;
        }
        // Scan the angle-bracketed span (bounded) for an `Error` ident.
        let mut depth = 0isize;
        for off in 1..64 {
            let Some(n) = self.view.tok(at + off) else {
                break;
            };
            if n.is_punct('<') {
                depth += 1;
            } else if n.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if n.is_ident("Error") {
                self.report(
                    "err.box_error",
                    at,
                    "Box<dyn …Error…> erases the error taxonomy — use the workspace Error enum"
                        .to_string(),
                );
                return;
            }
        }
    }

    fn err_string_error(&mut self, at: usize) {
        let Some(t) = self.view.tok(at) else { return };
        if !t.is_ident("Result") || !self.view.tok(at + 1).is_some_and(|n| n.is_punct('<')) {
            return;
        }
        // Walk to the matching `>`; remember the tokens after the last
        // top-level `,` — the error type.
        let mut depth = 0isize;
        let mut last_comma_off: Option<usize> = None;
        let mut close_off: Option<usize> = None;
        for off in 1..96 {
            let Some(n) = self.view.tok(at + off) else {
                break;
            };
            if n.is_punct('<') {
                depth += 1;
            } else if n.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    close_off = Some(off);
                    break;
                }
            } else if n.is_punct(',') && depth == 1 {
                last_comma_off = Some(off);
            } else if n.is_punct(';') || n.is_punct('{') {
                break; // ran off the type — not a generic argument list
            }
        }
        if let (Some(comma), Some(close)) = (last_comma_off, close_off) {
            if close == comma + 2
                && self
                    .view
                    .tok(at + comma + 1)
                    .is_some_and(|e| e.is_ident("String"))
            {
                self.report(
                    "err.string_error",
                    at,
                    "Result<_, String> erases the error taxonomy — use the workspace Error enum"
                        .to_string(),
                );
            }
        }
    }

    // ----- hygiene ---------------------------------------------------------

    fn hyg_print(&mut self, at: usize) {
        if CLI_CRATES.contains(&self.crate_name) {
            return;
        }
        let Some(t) = self.view.tok(at) else { return };
        if t.kind != TokenKind::Ident
            || !matches!(
                t.text.as_str(),
                "println" | "eprintln" | "print" | "eprint" | "dbg"
            )
        {
            return;
        }
        if self.view.tok(at + 1).is_some_and(|n| n.is_punct('!')) {
            let name = t.text.clone();
            self.report(
                "hyg.print",
                at,
                format!(
                    "{name}! in a library crate pollutes consumers' output — remove or gate it"
                ),
            );
        }
    }
}

/// Runs every token rule over one file, returning unsuppressed raw
/// findings (waiver handling happens in [`crate::engine`]).
pub(crate) fn apply(
    crate_name: &str,
    rel_path: &str,
    tokens: &[Token],
    regions: &[Region],
    code: &[usize],
) -> Vec<Finding> {
    let mut scan = Scan {
        crate_name,
        rel_path,
        view: View::new(tokens, code),
        regions,
        findings: Vec::new(),
    };
    for at in 0..code.len() {
        if scan.skipped(at) {
            continue;
        }
        scan.panic_unwrap(at);
        scan.panic_macro(at);
        scan.panic_index(at);
        scan.det_hash_container(at);
        scan.det_wall_clock(at);
        scan.det_float_accum(at);
        scan.det_thread_spawn(at);
        scan.err_box_error(at);
        scan.err_string_error(at);
        scan.hyg_print(at);
    }
    scan.findings
}
