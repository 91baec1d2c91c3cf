//! A minimal Rust lexer: just enough tokenisation for line-accurate lints.
//!
//! The build environment has no crates.io access, so this is written from
//! scratch against the subset of Rust's lexical grammar the workspace uses:
//! line and block comments (nested, doc and plain), string literals
//! (regular, raw `r#"…"#`, byte `b"…"` and raw-byte `br#"…"#`), character
//! literals vs. lifetimes, numeric literals with suffixes and exponents,
//! raw identifiers (`r#type`), and single-character punctuation. Every
//! token carries the 1-based line it starts on, which is all the rule
//! engine needs to report `file:line` findings.
//!
//! The lexer never fails: unterminated literals simply run to end of file.
//! That is the right behaviour for a linter — `rustc` owns rejecting the
//! file; we only need spans that are correct for code that compiles.

/// What a token is, at the granularity the rules care about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword.
    Ident,
    /// A lifetime such as `'a` (or a loop label).
    Lifetime,
    /// A character or byte-character literal, `'x'` / `b'x'`.
    CharLit,
    /// Any string literal form: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    StrLit,
    /// A numeric literal (integers, floats, suffixes, exponents).
    NumLit,
    /// A single punctuation character (`.`, `[`, `#`, `!`, …).
    Punct,
    /// `// …` (plain, non-doc).
    LineComment,
    /// `/// …` or `//! …`.
    DocComment,
    /// `/* … */` (nested; `/** … */` and `/*! … */` count as doc).
    BlockComment,
    /// `/** … */` or `/*! … */`.
    DocBlockComment,
}

/// One lexed token: kind, verbatim text and the 1-based line it starts on.
#[derive(Clone, Debug)]
pub struct Token {
    /// Classification of the token.
    pub kind: TokenKind,
    /// The token's text, verbatim from the source.
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

impl Token {
    /// Whether this token is any kind of comment.
    pub(crate) fn is_comment(&self) -> bool {
        matches!(
            self.kind,
            TokenKind::LineComment
                | TokenKind::DocComment
                | TokenKind::BlockComment
                | TokenKind::DocBlockComment
        )
    }

    /// Whether this token is a given punctuation character.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.starts_with(c)
    }

    /// Whether this token is a given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Consumes `n` characters, appending them to `out`.
    fn take(&mut self, n: usize, out: &mut String) {
        for _ in 0..n {
            if let Some(c) = self.bump() {
                out.push(c);
            }
        }
    }

    fn ident_start(c: char) -> bool {
        c.is_alphabetic() || c == '_'
    }

    fn ident_continue(c: char) -> bool {
        c.is_alphanumeric() || c == '_'
    }

    fn take_while(&mut self, out: &mut String, pred: impl Fn(char) -> bool) {
        while self.peek(0).is_some_and(&pred) {
            self.take(1, out);
        }
    }

    /// Consumes the body of a quoted literal after its opening `"`,
    /// honouring backslash escapes; stops after the closing `"`.
    fn quoted_body(&mut self, out: &mut String) {
        while let Some(c) = self.peek(0) {
            self.take(1, out);
            match c {
                '\\' => self.take(1, out), // escaped char, never a terminator
                '"' => return,
                _ => {}
            }
        }
    }

    /// Consumes a raw-string body after `r`/`br`: `#…#"…"#…#`. Returns
    /// whether the prefix really was a raw string (otherwise nothing is
    /// consumed and the caller falls back to identifier lexing).
    fn raw_string_body(&mut self, out: &mut String) -> bool {
        let mut hashes = 0;
        while self.peek(hashes) == Some('#') {
            hashes += 1;
        }
        if self.peek(hashes) != Some('"') {
            return false;
        }
        self.take(hashes + 1, out); // hashes + opening quote
        loop {
            match self.peek(0) {
                None => return true, // unterminated: run to EOF
                Some('"') => {
                    let closed = (1..=hashes).all(|i| self.peek(i) == Some('#'));
                    self.take(1, out);
                    if closed {
                        self.take(hashes, out);
                        return true;
                    }
                }
                Some(_) => self.take(1, out),
            }
        }
    }

    /// Lexes the token starting at the current position; the position is
    /// known to hold a non-whitespace character.
    fn token(&mut self) -> Option<Token> {
        let line = self.line;
        let c = self.peek(0)?;
        let mut text = String::new();
        let kind = match c {
            '/' if self.peek(1) == Some('/') => {
                let doc = matches!(self.peek(2), Some('/') | Some('!'))
                    // `////…` dividers are plain comments, not doc.
                    && !(self.peek(2) == Some('/') && self.peek(3) == Some('/'));
                while self.peek(0).is_some_and(|c| c != '\n') {
                    self.take(1, &mut text);
                }
                if doc {
                    TokenKind::DocComment
                } else {
                    TokenKind::LineComment
                }
            }
            '/' if self.peek(1) == Some('*') => {
                let doc =
                    matches!(self.peek(2), Some('*') | Some('!')) && self.peek(3) != Some('/'); // `/**/` is plain and empty
                self.take(2, &mut text);
                let mut depth = 1usize;
                while depth > 0 {
                    match (self.peek(0), self.peek(1)) {
                        (None, _) => break, // unterminated: run to EOF
                        (Some('/'), Some('*')) => {
                            depth += 1;
                            self.take(2, &mut text);
                        }
                        (Some('*'), Some('/')) => {
                            depth -= 1;
                            self.take(2, &mut text);
                        }
                        _ => self.take(1, &mut text),
                    }
                }
                if doc {
                    TokenKind::DocBlockComment
                } else {
                    TokenKind::BlockComment
                }
            }
            '"' => {
                self.take(1, &mut text);
                self.quoted_body(&mut text);
                TokenKind::StrLit
            }
            'r' if self.is_raw_identifier() => {
                // `r#fn`, `r#match`, …: a single identifier token whose text
                // keeps the `r#` prefix (so it can never collide with a
                // keyword check). Lexing it as `r` + `#` + `fn` would desync
                // the region classifier and the symbol extractor.
                self.take(2, &mut text);
                self.take_while(&mut text, Lexer::ident_continue);
                TokenKind::Ident
            }
            'r' | 'b' if self.is_literal_prefix() => {
                // One of r"…", r#"…"#, b"…", b'…', br"…", br#"…"#.
                let after_b = c == 'b' && self.peek(1) == Some('\'');
                if after_b {
                    self.take(1, &mut text); // the `b`
                    self.char_or_lifetime(&mut text);
                    TokenKind::CharLit
                } else {
                    // Raw forms (`r…`/`br…`) have no escapes at all: a `\`
                    // before the closing quote is payload, so they must go
                    // through the delimiter-matching body, never the
                    // escape-honouring one.
                    let raw = c == 'r' || self.peek(1) == Some('r');
                    if c == 'b' && matches!(self.peek(1), Some('r')) {
                        self.take(2, &mut text);
                    } else {
                        self.take(1, &mut text);
                    }
                    if raw {
                        self.raw_string_body(&mut text);
                    } else {
                        self.take(1, &mut text); // the opening quote
                        self.quoted_body(&mut text);
                    }
                    TokenKind::StrLit
                }
            }
            '\'' => {
                if self.char_or_lifetime(&mut text) {
                    TokenKind::CharLit
                } else {
                    TokenKind::Lifetime
                }
            }
            _ if c.is_ascii_digit() => {
                self.take_while(&mut text, Lexer::ident_continue);
                // A fraction part: `1.5`, but not `1..n` or `1.max(…)`.
                if self.peek(0) == Some('.') && self.peek(1).is_some_and(|d| d.is_ascii_digit()) {
                    self.take(1, &mut text);
                    self.take_while(&mut text, Lexer::ident_continue);
                }
                // An exponent sign: `1e-3` lexes `1e` above, then `-3` here.
                if text.ends_with(['e', 'E'])
                    && matches!(self.peek(0), Some('+') | Some('-'))
                    && self.peek(1).is_some_and(|d| d.is_ascii_digit())
                {
                    self.take(1, &mut text);
                    self.take_while(&mut text, Lexer::ident_continue);
                }
                TokenKind::NumLit
            }
            _ if Lexer::ident_start(c) => {
                self.take_while(&mut text, Lexer::ident_continue);
                TokenKind::Ident
            }
            _ => {
                self.take(1, &mut text);
                TokenKind::Punct
            }
        };
        Some(Token { kind, text, line })
    }

    /// Whether the `r` at the current position starts a raw identifier
    /// (`r#` followed by an identifier start, e.g. `r#fn`). Raw strings
    /// (`r#"…"#`) have a `"` after the hashes instead.
    fn is_raw_identifier(&self) -> bool {
        self.peek(1) == Some('#') && self.peek(2).is_some_and(Lexer::ident_start)
    }

    /// Whether the `r`/`b` at the current position starts a literal rather
    /// than an identifier (`r"`, `r#"`, `b"`, `b'`, `br"`, `br#"` — but not
    /// the raw identifier `r#type`).
    fn is_literal_prefix(&self) -> bool {
        let mut at = 1;
        if self.peek(0) == Some('b') {
            if self.peek(1) == Some('\'') {
                return true;
            }
            if self.peek(1) == Some('r') {
                at = 2;
            }
        }
        let mut hashes = 0;
        while self.peek(at + hashes) == Some('#') {
            hashes += 1;
        }
        match self.peek(at + hashes) {
            Some('"') => true,
            // `r#type`: exactly `r` + `#` + ident-start is a raw identifier.
            _ => false,
        }
    }

    /// Consumes either a char literal (`'x'`, `'\n'`, `'\u{…}'`) or a
    /// lifetime (`'a`, `'_`); returns `true` for a char literal. The
    /// current position holds the opening `'`.
    fn char_or_lifetime(&mut self, text: &mut String) -> bool {
        self.take(1, text); // the quote
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume escape then to closing quote.
                self.take(2, text);
                while self.peek(0).is_some_and(|c| c != '\'') {
                    self.take(1, text);
                }
                self.take(1, text);
                true
            }
            Some(c) if Lexer::ident_continue(c) => {
                // `'a'` is a char literal; `'abc` / `'a` is a lifetime.
                self.take_while(text, Lexer::ident_continue);
                if self.peek(0) == Some('\'') {
                    self.take(1, text);
                    true
                } else {
                    false
                }
            }
            Some(_) => {
                // `'('` and friends: one char then the closing quote.
                self.take(2, text);
                true
            }
            None => false,
        }
    }
}

/// Lexes `source` into a token stream (comments included).
pub fn lex(source: &str) -> Vec<Token> {
    let mut lx = Lexer {
        chars: source.chars().collect(),
        pos: 0,
        line: 1,
    };
    let mut tokens = Vec::new();
    loop {
        while lx.peek(0).is_some_and(char::is_whitespace) {
            lx.bump();
        }
        if lx.peek(0).is_none() {
            return tokens;
        }
        match lx.token() {
            Some(t) => tokens.push(t),
            None => return tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        let toks = kinds(r#"let s = "x.unwrap()";"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::StrLit && t.contains("unwrap")));
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = kinds(r###"let s = r#"quote " inside"#; done"###);
        assert!(toks.iter().any(|(k, _)| *k == TokenKind::StrLit));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "done"));
    }

    #[test]
    fn raw_identifier_is_a_single_ident() {
        for kw in ["type", "fn", "match"] {
            let toks = kinds(&format!("let r#{kw} = 1;"));
            // One token, keeping the `r#` prefix so it can never be
            // mistaken for the keyword by downstream passes.
            assert!(
                toks.iter()
                    .any(|(k, t)| *k == TokenKind::Ident && t == &format!("r#{kw}")),
                "{toks:?}"
            );
            assert!(!toks.iter().any(|(k, t)| *k == TokenKind::Ident && t == kw));
            assert!(!toks.iter().any(|(k, _)| *k == TokenKind::StrLit));
        }
    }

    #[test]
    fn raw_identifier_does_not_swallow_raw_strings() {
        // `r#"…"#` must still be a string, and `r#e` in expression
        // position must not consume a following literal.
        let toks = kinds(r###"let s = r#"raw"#; let r#e = 9;"###);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::StrLit && t.contains("raw")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "r#e"));
    }

    #[test]
    fn raw_strings_with_multi_hash_delimiters() {
        let toks = kinds(r####"let s = r##"inner "# quote"##; done"####);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::StrLit && t.contains("inner")));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "done"));
        // The `"#` inside must not close the literal early.
        assert!(!toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "quote"));
    }

    #[test]
    fn raw_strings_treat_backslash_as_payload() {
        // In `r"a\"` the backslash is a plain character, so the literal
        // closes at the quote; the escape-honouring path would swallow the
        // terminator and desync everything after it.
        let toks = kinds("let s = r\"a\\\"; s.unwrap();");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::StrLit && t == "r\"a\\\""));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
        let toks = kinds("let s = br\"b\\\"; s.unwrap();");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::StrLit && t == "br\"b\\\""));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "unwrap"));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) -> char { 'x' }");
        assert_eq!(
            toks.iter()
                .filter(|(k, _)| *k == TokenKind::Lifetime)
                .count(),
            2
        );
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::CharLit && t == "'x'"));
    }

    #[test]
    fn escaped_char_literals() {
        for src in ["'\\n'", "'\\''", "'\\u{1F600}'", "'['"] {
            let toks = kinds(src);
            assert_eq!(toks.len(), 1, "{src}");
            assert_eq!(
                toks.first().map(|(k, _)| *k),
                Some(TokenKind::CharLit),
                "{src}"
            );
        }
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("/* outer /* inner */ still outer */ after");
        assert_eq!(toks.len(), 2);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "after"));
    }

    #[test]
    fn doc_comments_are_distinguished() {
        let toks = kinds("/// doc\n//! inner\n// plain\n//// divider");
        let ks: Vec<TokenKind> = toks.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            ks,
            vec![
                TokenKind::DocComment,
                TokenKind::DocComment,
                TokenKind::LineComment,
                TokenKind::LineComment,
            ]
        );
    }

    #[test]
    fn lines_are_one_based_and_accurate() {
        let toks = lex("a\n  b\n\n    c");
        let lines: Vec<(String, u32)> = toks.into_iter().map(|t| (t.text, t.line)).collect();
        assert_eq!(
            lines,
            vec![("a".into(), 1), ("b".into(), 2), ("c".into(), 4)]
        );
    }

    #[test]
    fn byte_strings_and_raw_byte_strings() {
        let toks = kinds(r#"let a = b"magic"; let b = br"raw"; let c = b'x';"#);
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokenKind::StrLit).count(),
            2
        );
        assert_eq!(
            toks.iter()
                .filter(|(k, _)| *k == TokenKind::CharLit)
                .count(),
            1
        );
    }

    #[test]
    fn numbers_with_suffixes_ranges_and_exponents() {
        let toks = kinds("0..10 1.5f32 1e-3 0xff_u32 1.max(2)");
        let nums: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::NumLit)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(
            nums,
            vec!["0", "10", "1.5f32", "1e-3", "0xff_u32", "1", "2"]
        );
    }
}
