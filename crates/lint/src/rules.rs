//! The token rules clippy has no lint for: float accumulation order and
//! the error taxonomy.
//!
//! Each rule is a token-pattern check that applies in every crate; the
//! only exemption is `err.box_error` in `eval`, the binary that reports
//! every crate's typed error. Rules fire only on code tokens outside test
//! regions, attributes and `macro_rules!` bodies (see [`crate::regions`]);
//! comments, doc comments and string literals are skipped by construction
//! of the token stream. The panic, determinism and hygiene rules are
//! clippy lints, denied in the workspace manifest.

use crate::lexer::{Token, TokenKind};
use crate::regions::Region;

/// A single reported problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule identifier (e.g. `det.float_accum`).
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

/// Description of one rule, for the docs table.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    /// Stable identifier, printed with every finding.
    pub id: &'static str,
    /// One-line description.
    pub summary: &'static str,
}

/// Every rule this auditor knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "det.float_accum",
        summary: "no float .sum()/.product() — accumulate via kernels or a serial loop",
    },
    RuleInfo {
        id: "err.box_error",
        summary: "no Box<dyn …Error…> — use the workspace Error taxonomy",
    },
    RuleInfo {
        id: "err.string_error",
        summary: "no Result<_, String> — use the workspace Error taxonomy",
    },
];

/// The crate exempt from `err.box_error`: the eval binary is the top-level
/// sink that reports every crate's typed `Error` on the command line.
const ERROR_SINK_CRATE: &str = "eval";

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

    // ----- determinism -----------------------------------------------------

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

    // ----- error taxonomy --------------------------------------------------

    fn err_box_error(&mut self, at: usize) {
        if self.crate_name == ERROR_SINK_CRATE {
            return;
        }
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
}

/// Runs every token rule over one file.
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
        scan.det_float_accum(at);
        scan.err_box_error(at);
        scan.err_string_error(at);
    }
    scan.findings
}
