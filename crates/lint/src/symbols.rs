//! Symbol pass: extracts every `fn` item from a file's token stream.
//!
//! Each symbol records its crate, definition site, visibility, the impl
//! context it sits in (`impl Type`, `impl Trait for Type`, `trait Trait`),
//! the *facts* found in its body (panic sites, nondeterminism sources,
//! chunk consumption, clock charges — detected by the exact same
//! [`crate::rules::View`] detectors the line rules use), and the call
//! sites its body contains. [`crate::graph`] resolves the calls into a
//! workspace call graph and [`crate::taint`] propagates the facts.
//!
//! The parser is token-level and forgiving: it only needs to find item
//! boundaries and brace-matched bodies, which is robust for code that
//! compiles. Test regions, attributes and `macro_rules!` bodies are
//! skipped exactly as the line rules skip them.

use crate::lexer::{is_keyword, Token, TokenKind};
use crate::regions::Region;
use crate::rules::{thread_spawn_exempt, wall_clock_exempt, View};

/// Index into the workspace-wide symbol table.
pub(crate) type SymbolId = usize;

/// What a call site syntactically targets, before resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum CallTarget {
    /// `foo(…)` — an unqualified call.
    Plain(String),
    /// `a::b::foo(…)` — a path-qualified call; the fn name is last.
    Path(Vec<String>),
    /// `.foo(…)` — a method call; `on_self` when the receiver is
    /// literally `self`.
    Method { name: String, on_self: bool },
}

/// One call site inside a symbol's body.
#[derive(Clone, Debug)]
pub(crate) struct Call {
    /// The syntactic target.
    pub target: CallTarget,
    /// 1-based line of the call.
    pub line: u32,
}

/// The kinds of facts the taint engine propagates.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum FactKind {
    /// `HashMap`/`HashSet` use (nondeterministic iteration order).
    HashContainer,
    /// `Instant::now` / `SystemTime` (host-clock dependence).
    WallClock,
    /// Float `.sum()`/`.product()` (order-dependent accumulation).
    FloatAccum,
    /// `thread::spawn` (unmanaged concurrency).
    ThreadSpawn,
    /// `.unwrap()`/`.expect()`.
    PanicUnwrap,
    /// `panic!`/`unreachable!`/`todo!`/`unimplemented!`.
    PanicMacro,
    /// Direct slice/array indexing.
    PanicIndex,
    /// A chunk-consuming call (`.next_chunk(`/`.fetch_through(`).
    ConsumeChunk,
    /// A modelled-time charge on a pipeline/virtual clock.
    ChargeClock,
}

impl FactKind {
    /// Whether this is a nondeterminism source (feeds `det.taint`).
    pub(crate) fn is_det(self) -> bool {
        matches!(
            self,
            FactKind::HashContainer
                | FactKind::WallClock
                | FactKind::FloatAccum
                | FactKind::ThreadSpawn
        )
    }

    /// Whether this is a panic site (feeds `panic.reach`).
    pub(crate) fn is_panic(self) -> bool {
        matches!(
            self,
            FactKind::PanicUnwrap | FactKind::PanicMacro | FactKind::PanicIndex
        )
    }

    /// The line rule that flags the same site, if any. A waiver citing
    /// either this rule or the propagating rule at the source line cuts
    /// the fact out of taint propagation.
    pub(crate) fn line_rule(self) -> Option<&'static str> {
        match self {
            FactKind::HashContainer => Some("det.hash_container"),
            FactKind::WallClock => Some("det.wall_clock"),
            FactKind::FloatAccum => Some("det.float_accum"),
            FactKind::ThreadSpawn => Some("det.thread_spawn"),
            FactKind::PanicUnwrap => Some("panic.unwrap"),
            FactKind::PanicMacro => Some("panic.macro"),
            FactKind::PanicIndex => Some("panic.index"),
            FactKind::ConsumeChunk | FactKind::ChargeClock => None,
        }
    }

    /// The interprocedural rule that propagates this fact.
    pub(crate) fn taint_rule(self) -> &'static str {
        if self.is_panic() {
            "panic.reach"
        } else if self.is_det() {
            "det.taint"
        } else {
            "clock.discipline"
        }
    }
}

/// One fact found in a symbol's body.
#[derive(Clone, Debug)]
pub(crate) struct Fact {
    /// What kind of site this is.
    pub kind: FactKind,
    /// 1-based line of the site.
    pub line: u32,
    /// Short label for chain messages (`HashMap`, `.unwrap()`, …).
    pub what: String,
}

/// One extracted `fn` item.
#[derive(Clone, Debug)]
pub(crate) struct Symbol {
    /// Crate directory name (`core`, `serve`, …).
    pub crate_name: String,
    /// File path relative to the workspace root.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// The function's bare name.
    pub name: String,
    /// `impl Type` / `impl Trait for Type` — the type name, if any.
    pub self_type: Option<String>,
    /// `impl Trait for Type` / `trait Trait` — the trait name, if any.
    pub trait_name: Option<String>,
    /// `pub` without a restriction (`pub(crate)` counts as private).
    pub is_pub: bool,
    /// Whether the fn sits inside an impl or trait block.
    pub is_method: bool,
    /// Whether the item has a `{ … }` body (trait signatures do not).
    pub has_body: bool,
    /// Call sites in the body.
    pub calls: Vec<Call>,
    /// Facts in the body.
    pub facts: Vec<Fact>,
}

impl Symbol {
    /// Display name for call chains: `crate::Type::fn` or `crate::fn`.
    pub(crate) fn display_name(&self) -> String {
        match &self.self_type {
            Some(t) => format!("{}::{}::{}", self.crate_name, t, self.name),
            None => match &self.trait_name {
                Some(t) => format!("{}::{}::{}", self.crate_name, t, self.name),
                None => format!("{}::{}", self.crate_name, self.name),
            },
        }
    }
}

/// Impl/trait context while walking nested items.
#[derive(Clone, Default)]
struct Ctx {
    self_type: Option<String>,
    trait_name: Option<String>,
}

struct Extractor<'a> {
    crate_name: &'a str,
    rel_path: &'a str,
    view: View<'a>,
    regions: &'a [Region],
    symbols: Vec<Symbol>,
}

/// Extracts every `fn` item from one file.
pub(crate) fn extract(
    crate_name: &str,
    rel_path: &str,
    tokens: &[Token],
    regions: &[Region],
    code: &[usize],
) -> Vec<Symbol> {
    let mut ex = Extractor {
        crate_name,
        rel_path,
        view: View::new(tokens, code),
        regions,
        symbols: Vec::new(),
    };
    ex.items(0, code.len(), &Ctx::default());
    ex.symbols
}

impl Extractor<'_> {
    fn tok(&self, at: usize) -> Option<&Token> {
        self.view.tok(at)
    }

    /// Whether the token at code position `at` is in a skipped region.
    fn skipped(&self, at: usize) -> bool {
        self.view
            .raw_index(at)
            .and_then(|i| self.regions.get(i))
            .is_none_or(|r| r.test || r.attr || r.macro_body)
    }

    fn is_ident(&self, at: usize, s: &str) -> bool {
        self.tok(at).is_some_and(|t| t.is_ident(s))
    }

    fn is_punct(&self, at: usize, c: char) -> bool {
        self.tok(at).is_some_and(|t| t.is_punct(c))
    }

    /// Walks items in `[at, end)`, extracting fns and recursing into
    /// `impl` / `trait` / `mod` blocks. Non-item tokens are skipped.
    fn items(&mut self, mut at: usize, end: usize, ctx: &Ctx) {
        while at < end {
            if self.skipped(at) {
                at += 1;
                continue;
            }
            if self.is_ident(at, "impl") {
                at = self.impl_block(at, end);
            } else if self.is_ident(at, "trait")
                && self.tok(at + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            {
                at = self.trait_block(at, end);
            } else if self.is_ident(at, "mod") && self.is_punct(at + 2, '{') {
                let close = self.matching_brace(at + 2, end);
                self.items(at + 3, close, ctx);
                at = close + 1;
            } else if self.is_ident(at, "fn")
                && self.tok(at + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            {
                at = self.fn_item(at, end, ctx);
            } else {
                at += 1;
            }
        }
    }

    /// Finds the code position of the `}` matching the `{` at `open`
    /// (clamped to `end` when unterminated).
    fn matching_brace(&self, open: usize, end: usize) -> usize {
        let mut depth = 0isize;
        let mut at = open;
        while at < end {
            if self.is_punct(at, '{') {
                depth += 1;
            } else if self.is_punct(at, '}') {
                depth -= 1;
                if depth == 0 {
                    return at;
                }
            }
            at += 1;
        }
        end.saturating_sub(1)
    }

    /// Skips a balanced `<…>` starting at `at` (which holds `<`),
    /// guarding against the `>` of `->`. Returns the position after the
    /// closing `>`.
    fn skip_generics(&self, mut at: usize, end: usize) -> usize {
        let mut depth = 0isize;
        let mut prev_dash = false;
        while at < end {
            if self.is_punct(at, '<') {
                depth += 1;
            } else if self.is_punct(at, '>') && !prev_dash {
                depth -= 1;
                if depth == 0 {
                    return at + 1;
                }
            }
            prev_dash = self.is_punct(at, '-');
            at += 1;
        }
        end
    }

    /// Parses the header of `impl …` at `at` and recurses into its block.
    /// Returns the position after the block.
    fn impl_block(&mut self, at: usize, end: usize) -> usize {
        let mut p = at + 1;
        if self.is_punct(p, '<') {
            p = self.skip_generics(p, end);
        }
        // Collect the path up to `for` / `{` / `where`; if a `for` shows
        // up, the first path was the trait and the second is the type.
        let mut first = self.header_type(&mut p, end);
        let mut trait_name = None;
        if self.is_ident(p, "for") {
            p += 1;
            trait_name = first.take();
            first = self.header_type(&mut p, end);
        }
        // Skip the where clause, if any.
        while p < end && !self.is_punct(p, '{') {
            p += 1;
        }
        if p >= end {
            return end;
        }
        let close = self.matching_brace(p, end);
        let ctx = Ctx {
            self_type: first,
            trait_name,
        };
        self.items(p + 1, close, &ctx);
        close + 1
    }

    /// Parses one type path in an impl header, returning its last
    /// identifier segment (the type name) and advancing past it.
    fn header_type(&mut self, p: &mut usize, end: usize) -> Option<String> {
        let mut last = None;
        // `&`, `dyn`, lifetimes before the path.
        while *p < end {
            if self.is_punct(*p, '&')
                || self.is_ident(*p, "dyn")
                || self.tok(*p).is_some_and(|t| t.kind == TokenKind::Lifetime)
                || self.is_ident(*p, "mut")
            {
                *p += 1;
            } else {
                break;
            }
        }
        while *p < end {
            let Some(t) = self.tok(*p) else { break };
            if t.kind == TokenKind::Ident && !is_keyword(&t.text) {
                last = Some(t.text.clone());
                *p += 1;
                if self.is_punct(*p, '<') {
                    *p = self.skip_generics(*p, end);
                }
                if self.is_punct(*p, ':') && self.is_punct(*p + 1, ':') {
                    *p += 2;
                    continue;
                }
                break;
            }
            break;
        }
        last
    }

    /// Parses `trait Name … { … }` at `at`; trait-default methods become
    /// symbols with `trait_name` set and no `self_type`. Returns the
    /// position after the block.
    fn trait_block(&mut self, at: usize, end: usize) -> usize {
        let name = self.tok(at + 1).map(|t| t.text.clone());
        let mut p = at + 2;
        while p < end && !self.is_punct(p, '{') {
            // A supertrait list or where clause; `;` would be odd here
            // but bail to stay safe.
            if self.is_punct(p, ';') {
                return p + 1;
            }
            p += 1;
        }
        if p >= end {
            return end;
        }
        let close = self.matching_brace(p, end);
        let ctx = Ctx {
            self_type: None,
            trait_name: name,
        };
        self.items(p + 1, close, &ctx);
        close + 1
    }

    /// Whether the `fn` at `at` is `pub` (unrestricted). Scans backwards
    /// over modifiers (`unsafe`, `const`, `async`, `extern "C"`).
    fn fn_is_pub(&self, at: usize) -> bool {
        let mut p = at;
        while p > 0 {
            p -= 1;
            let Some(t) = self.tok(p) else { return false };
            if t.kind == TokenKind::StrLit
                || t.is_ident("unsafe")
                || t.is_ident("const")
                || t.is_ident("async")
                || t.is_ident("extern")
            {
                continue;
            }
            if t.is_punct(')') {
                // `pub(crate)` / `pub(super)`: restricted, not public.
                return false;
            }
            return t.is_ident("pub");
        }
        false
    }

    /// Parses the `fn` item at `at` (which holds the `fn` keyword) and
    /// appends a symbol. Returns the position after the item.
    fn fn_item(&mut self, at: usize, end: usize, ctx: &Ctx) -> usize {
        let line = self.tok(at).map_or(0, |t| t.line);
        let name = self
            .tok(at + 1)
            .map_or_else(String::new, |t| t.text.clone());
        let is_pub = self.fn_is_pub(at);
        let mut p = at + 2;
        if self.is_punct(p, '<') {
            p = self.skip_generics(p, end);
        }
        // Parameter list.
        if self.is_punct(p, '(') {
            let mut depth = 0isize;
            while p < end {
                if self.is_punct(p, '(') {
                    depth += 1;
                } else if self.is_punct(p, ')') {
                    depth -= 1;
                    if depth == 0 {
                        p += 1;
                        break;
                    }
                }
                p += 1;
            }
        }
        // Return type / where clause, then `{` body or `;` declaration.
        let mut prev_dash = false;
        let mut angle = 0isize;
        while p < end {
            if self.is_punct(p, '<') {
                angle += 1;
            } else if self.is_punct(p, '>') && !prev_dash {
                angle -= 1;
            } else if angle <= 0 && self.is_punct(p, ';') {
                // Declaration only (trait method signature).
                self.symbols.push(Symbol {
                    crate_name: self.crate_name.to_string(),
                    file: self.rel_path.to_string(),
                    line,
                    name,
                    self_type: ctx.self_type.clone(),
                    trait_name: ctx.trait_name.clone(),
                    is_pub,
                    is_method: ctx.self_type.is_some() || ctx.trait_name.is_some(),
                    has_body: false,
                    calls: Vec::new(),
                    facts: Vec::new(),
                });
                return p + 1;
            } else if angle <= 0 && self.is_punct(p, '{') {
                break;
            }
            prev_dash = self.is_punct(p, '-');
            p += 1;
        }
        if p >= end {
            return end;
        }
        let close = self.matching_brace(p, end);
        let mut sym = Symbol {
            crate_name: self.crate_name.to_string(),
            file: self.rel_path.to_string(),
            line,
            name,
            self_type: ctx.self_type.clone(),
            trait_name: ctx.trait_name.clone(),
            is_pub,
            is_method: ctx.self_type.is_some() || ctx.trait_name.is_some(),
            has_body: true,
            calls: Vec::new(),
            facts: Vec::new(),
        };
        self.body_scan(p + 1, close, &mut sym, ctx);
        self.symbols.push(sym);
        close + 1
    }

    /// Scans a fn body for facts and call sites; nested items become
    /// their own symbols and are excluded from the parent's scan.
    fn body_scan(&mut self, mut at: usize, end: usize, sym: &mut Symbol, ctx: &Ctx) {
        while at < end {
            if self.skipped(at) {
                at += 1;
                continue;
            }
            // Nested items get their own symbols.
            if self.is_ident(at, "fn")
                && self.tok(at + 1).is_some_and(|t| t.kind == TokenKind::Ident)
            {
                at = self.fn_item(at, end, &Ctx::default());
                continue;
            }
            if self.is_ident(at, "impl") && !self.is_punct(at.wrapping_sub(1), ':') {
                // `impl Trait` in type position (`-> impl Iterator`) has no
                // block; impl_block bails to `end` only when no `{` exists,
                // which would swallow the rest of the body — so only treat
                // it as an item when a `{` opens before the body ends.
                // The heuristic: item-position `impl` directly follows `;`,
                // `{`, `}` or starts the body.
                let item_pos = at == 0
                    || self
                        .tok(at - 1)
                        .is_some_and(|t| matches!(t.text.chars().next(), Some(';' | '{' | '}')));
                if item_pos {
                    at = self.impl_block(at, end);
                    continue;
                }
            }
            self.collect_fact(at, sym);
            self.collect_call(at, sym, ctx);
            at += 1;
        }
    }

    /// Records a fact at `at`, applying the same ownership exemptions as
    /// the line rules (diskmodel wall clock, parallel threads).
    fn collect_fact(&self, at: usize, sym: &mut Symbol) {
        let line = self.tok(at).map_or(0, |t| t.line);
        let mut push = |kind: FactKind, what: String| {
            sym.facts.push(Fact { kind, line, what });
        };
        if let Some(name) = self.view.hash_container_site(at) {
            push(FactKind::HashContainer, name.to_string());
        }
        if !wall_clock_exempt(self.crate_name, self.rel_path) {
            if let Some(label) = self.view.wall_clock_site(at) {
                push(FactKind::WallClock, label.to_string());
            }
        }
        if let Some((name, _)) = self.view.float_accum_site(at) {
            push(FactKind::FloatAccum, format!("float .{name}()"));
        }
        if !thread_spawn_exempt(self.crate_name) && self.view.thread_spawn_site(at) {
            push(FactKind::ThreadSpawn, "thread::spawn".to_string());
        }
        if let Some(name) = self.view.unwrap_site(at) {
            push(FactKind::PanicUnwrap, format!(".{name}()"));
        }
        if let Some(name) = self.view.panic_macro_site(at) {
            push(FactKind::PanicMacro, format!("{name}!"));
        }
        if self.view.index_site(at) {
            push(FactKind::PanicIndex, "direct indexing".to_string());
        }
        if let Some(name) = self.view.chunk_consume_site(at) {
            push(FactKind::ConsumeChunk, format!(".{name}()"));
        }
        if let Some(name) = self.view.clock_charge_site(at) {
            push(FactKind::ChargeClock, format!(".{name}()"));
        }
    }

    /// Records a call site at `at`: `name(…)`, `a::b::name(…)` or
    /// `.name(…)`, each with an optional `::<…>` turbofish.
    fn collect_call(&self, at: usize, sym: &mut Symbol, _ctx: &Ctx) {
        let Some(t) = self.tok(at) else { return };
        if t.kind != TokenKind::Ident || is_keyword(&t.text) {
            return;
        }
        // The call's argument list must open right after the name or
        // after a turbofish.
        let mut after = at + 1;
        if self.is_punct(after, ':')
            && self.is_punct(after + 1, ':')
            && self.is_punct(after + 2, '<')
        {
            after = self.skip_generics(after + 2, self.view.len());
        }
        if !self.is_punct(after, '(') {
            return;
        }
        let line = t.line;
        let name = t.text.clone();
        // `.name(` — a method call.
        if at > 0 && self.is_punct(at - 1, '.') {
            let on_self = at >= 2
                && self.is_ident(at - 2, "self")
                && !(at >= 3 && self.is_punct(at - 3, '.'));
            sym.calls.push(Call {
                target: CallTarget::Method { name, on_self },
                line,
            });
            return;
        }
        // `seg::…::name(` — walk the path backwards.
        if at >= 2 && self.is_punct(at - 1, ':') && self.is_punct(at - 2, ':') {
            let mut segs = vec![name];
            let mut p = at;
            while p >= 3 && self.is_punct(p - 1, ':') && self.is_punct(p - 2, ':') {
                let Some(prev) = self.tok(p - 3) else { break };
                if prev.kind == TokenKind::Ident {
                    segs.push(prev.text.clone());
                    p -= 3;
                } else {
                    // `<T as Trait>::f(…)` and friends: keep what we have.
                    break;
                }
            }
            segs.reverse();
            sym.calls.push(Call {
                target: CallTarget::Path(segs),
                line,
            });
            return;
        }
        // `name(` — a plain call (macros have `!` before `(`, so they
        // never reach here).
        sym.calls.push(Call {
            target: CallTarget::Plain(name),
            line,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::regions::{classify, code_indices};

    fn symbols_of(crate_name: &str, src: &str) -> Vec<Symbol> {
        let tokens = lex(src);
        let regions = classify(&tokens);
        let code = code_indices(&tokens);
        extract(crate_name, "crates/x/src/lib.rs", &tokens, &regions, &code)
    }

    #[test]
    fn extracts_free_fns_with_visibility() {
        let syms = symbols_of(
            "core",
            "pub fn api() {}\nfn helper() {}\npub(crate) fn semi() {}\n",
        );
        let names: Vec<(&str, bool)> = syms.iter().map(|s| (s.name.as_str(), s.is_pub)).collect();
        assert_eq!(
            names,
            vec![("api", true), ("helper", false), ("semi", false)]
        );
    }

    #[test]
    fn impl_context_and_trait_impls() {
        let src = "struct S;\nimpl S { pub fn new() -> S { S } }\nimpl Clone for S { fn clone(&self) -> S { S::new() } }\n";
        let syms = symbols_of("core", src);
        let new = syms.iter().find(|s| s.name == "new").expect("new");
        assert_eq!(new.self_type.as_deref(), Some("S"));
        assert_eq!(new.trait_name, None);
        assert!(new.is_method);
        let clone = syms.iter().find(|s| s.name == "clone").expect("clone");
        assert_eq!(clone.self_type.as_deref(), Some("S"));
        assert_eq!(clone.trait_name.as_deref(), Some("Clone"));
        assert_eq!(
            clone.calls.first().map(|c| &c.target),
            Some(&CallTarget::Path(vec!["S".into(), "new".into()]))
        );
    }

    #[test]
    fn body_facts_and_calls() {
        let src = "pub fn f(m: &std::collections::HashMap<u8, u8>) {\n    helper();\n    self_less();\n}\nfn helper() {}\n";
        let syms = symbols_of("core", src);
        let f = syms.iter().find(|s| s.name == "f").expect("f");
        // The HashMap in the signature is not in the body; no facts.
        assert!(f.facts.is_empty());
        assert_eq!(f.calls.len(), 2);
    }

    #[test]
    fn facts_detected_in_bodies() {
        let src = "pub fn f() {\n    let m = HashMap::new();\n    let x: Option<u8> = None;\n    let _ = x.unwrap();\n}\n";
        let syms = symbols_of("srtree", src);
        let f = syms.iter().find(|s| s.name == "f").expect("f");
        let kinds: Vec<FactKind> = f.facts.iter().map(|x| x.kind).collect();
        assert!(kinds.contains(&FactKind::HashContainer));
        assert!(kinds.contains(&FactKind::PanicUnwrap));
    }

    #[test]
    fn nested_fns_do_not_leak_into_parent() {
        let src = "pub fn outer() {\n    fn inner() { danger.unwrap(); }\n    inner();\n}\n";
        let syms = symbols_of("core", src);
        let outer = syms.iter().find(|s| s.name == "outer").expect("outer");
        assert!(outer.facts.is_empty());
        assert_eq!(
            outer.calls.first().map(|c| &c.target),
            Some(&CallTarget::Plain("inner".into()))
        );
        let inner = syms.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.facts.len(), 1);
    }

    #[test]
    fn test_regions_produce_no_symbols() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { x.unwrap(); }\n}\npub fn live() {}\n";
        let syms = symbols_of("core", src);
        assert_eq!(syms.len(), 1);
        assert_eq!(syms.first().map(|s| s.name.as_str()), Some("live"));
    }

    #[test]
    fn method_calls_record_self_receiver() {
        let src = "struct S;\nimpl S {\n    fn a(&self) { self.b(); other.b(); }\n    fn b(&self) {}\n}\n";
        let syms = symbols_of("core", src);
        let a = syms.iter().find(|s| s.name == "a").expect("a");
        let targets: Vec<&CallTarget> = a.calls.iter().map(|c| &c.target).collect();
        assert_eq!(
            targets,
            vec![
                &CallTarget::Method {
                    name: "b".into(),
                    on_self: true
                },
                &CallTarget::Method {
                    name: "b".into(),
                    on_self: false
                },
            ]
        );
    }

    #[test]
    fn trait_signatures_have_no_body() {
        let src =
            "pub trait T {\n    fn sig(&self) -> u8;\n    fn dflt(&self) -> u8 { self.sig() }\n}\n";
        let syms = symbols_of("storage", src);
        let sig = syms.iter().find(|s| s.name == "sig").expect("sig");
        assert!(!sig.has_body);
        assert_eq!(sig.trait_name.as_deref(), Some("T"));
        let dflt = syms.iter().find(|s| s.name == "dflt").expect("dflt");
        assert!(dflt.has_body);
        assert_eq!(dflt.calls.len(), 1);
    }

    #[test]
    fn generic_fn_headers_parse() {
        let src = "pub fn f<F: Fn(u8) -> u8>(g: F) -> Vec<u8> where F: Copy { g(1); Vec::new() }\n";
        let syms = symbols_of("core", src);
        assert_eq!(syms.len(), 1);
        let f = syms.first().expect("f");
        assert_eq!(f.name, "f");
        assert!(f.has_body);
        // `g(1)` is a plain call; `Vec::new()` is a path call.
        assert_eq!(f.calls.len(), 2);
    }

    #[test]
    fn turbofish_calls_are_calls() {
        let src = "pub fn f() { helper::<u8>(); }\nfn helper<T>() {}\n";
        let syms = symbols_of("core", src);
        let f = syms.iter().find(|s| s.name == "f").expect("f");
        assert_eq!(
            f.calls.first().map(|c| &c.target),
            Some(&CallTarget::Plain("helper".into()))
        );
    }

    #[test]
    fn chunk_and_clock_facts() {
        let src = "pub fn step(s: &mut St) {\n    let c = s.stream.next_chunk();\n    s.clock.chunk_overlapped(1, 2);\n}\n";
        let syms = symbols_of("serve", src);
        let f = syms.iter().find(|s| s.name == "step").expect("step");
        let kinds: Vec<FactKind> = f.facts.iter().map(|x| x.kind).collect();
        assert!(kinds.contains(&FactKind::ConsumeChunk));
        assert!(kinds.contains(&FactKind::ChargeClock));
    }
}
