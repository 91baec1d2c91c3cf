//! Region classification over a token stream.
//!
//! Rules must not fire inside test code, attribute syntax, or
//! `macro_rules!` bodies (where tokens are patterns, not expressions).
//! This module walks the lexed tokens once and computes, for every token,
//! which of those regions it belongs to. Doc comments and string literals
//! need no classification — the lexer already isolates them as single
//! tokens that the rules skip.

use crate::lexer::Token;

/// Per-token region flags, parallel to the token stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct Region {
    /// Inside an item annotated `#[cfg(test)]` / `#[test]` (or the
    /// attribute itself).
    pub test: bool,
    /// Inside an attribute's `#[…]` brackets.
    pub attr: bool,
    /// Inside a `macro_rules! name { … }` body.
    pub macro_body: bool,
}

/// Indices of non-comment tokens, in order — the stream the rules scan.
pub fn code_indices(tokens: &[Token]) -> Vec<usize> {
    tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .map(|(i, _)| i)
        .collect()
}

/// Classifies every token of `tokens` (see [`Region`]).
pub fn classify(tokens: &[Token]) -> Vec<Region> {
    let mut regions = vec![Region::default(); tokens.len()];
    let code = code_indices(tokens);

    // Pass 1: attribute spans, and which of them mark test items.
    // An attribute is `#` `[` … `]` (outer) or `#` `!` `[` … `]` (inner).
    let mut test_attr_ends: Vec<usize> = Vec::new(); // code-pos after a test attr
    let mut inner_test_file = false;
    let mut ci = 0;
    while ci < code.len() {
        let Some(&ti) = code.get(ci) else { break };
        let is_hash = tokens.get(ti).is_some_and(|t| t.is_punct('#'));
        if !is_hash {
            ci += 1;
            continue;
        }
        let mut open = ci + 1;
        let inner = code
            .get(open)
            .and_then(|&i| tokens.get(i))
            .is_some_and(|t| t.is_punct('!'));
        if inner {
            open += 1;
        }
        let opens_bracket = code
            .get(open)
            .and_then(|&i| tokens.get(i))
            .is_some_and(|t| t.is_punct('['));
        if !opens_bracket {
            ci += 1;
            continue;
        }
        // Find the matching `]`, tracking bracket depth, and record
        // whether the attribute mentions `test` outside a `not(…)`.
        let mut depth = 0usize;
        let mut mentions_test = false;
        let mut mentions_not = false;
        let mut end = open;
        for (at, &i) in code.iter().enumerate().skip(open) {
            let Some(t) = tokens.get(i) else { break };
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    end = at;
                    break;
                }
            } else if t.is_ident("test") {
                mentions_test = true;
            } else if t.is_ident("not") {
                mentions_not = true;
            }
            end = at;
        }
        for &i in code.get(ci..=end).into_iter().flatten() {
            if let Some(r) = regions.get_mut(i) {
                r.attr = true;
            }
        }
        if mentions_test && !mentions_not {
            if inner {
                // `#![cfg(test)]`: the whole file is a test region.
                inner_test_file = true;
            } else {
                test_attr_ends.push(end + 1);
            }
        }
        ci = end + 1;
    }

    if inner_test_file {
        for r in &mut regions {
            r.test = true;
        }
        return regions;
    }

    // Pass 2: expand each test attribute to the item it annotates — up to
    // the first `;` or the matching `}` of the first `{` at item level
    // (skipping over any further attributes and balanced `(…)` / `[…]`).
    for &start in &test_attr_ends {
        let mut paren = 0isize;
        let mut brace = 0isize;
        let mut last = start;
        for (at, &i) in code.iter().enumerate().skip(start) {
            let Some(t) = tokens.get(i) else { break };
            last = at;
            match t.text.chars().next() {
                Some('(') | Some('[') => paren += 1,
                Some(')') | Some(']') => paren -= 1,
                Some('{') if t.kind == crate::lexer::TokenKind::Punct => brace += 1,
                Some('}') if t.kind == crate::lexer::TokenKind::Punct => {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                Some(';') if paren == 0 && brace == 0 => break,
                _ => {}
            }
        }
        for &i in code.get(start..=last).into_iter().flatten() {
            if let Some(r) = regions.get_mut(i) {
                r.test = true;
            }
        }
    }

    // Pass 3: `macro_rules! name <delim> … <matching delim>` bodies.
    let mut ci = 0;
    while ci < code.len() {
        let at_macro = code
            .get(ci)
            .and_then(|&i| tokens.get(i))
            .is_some_and(|t| t.is_ident("macro_rules"));
        if !at_macro {
            ci += 1;
            continue;
        }
        // macro_rules `!` name <open>
        let open = ci + 3;
        let opener = code
            .get(open)
            .and_then(|&i| tokens.get(i))
            .and_then(|t| t.text.chars().next());
        let (o, c) = match opener {
            Some('{') => ('{', '}'),
            Some('(') => ('(', ')'),
            Some('[') => ('[', ']'),
            _ => {
                ci += 1;
                continue;
            }
        };
        let mut depth = 0isize;
        let mut last = open;
        for (at, &i) in code.iter().enumerate().skip(open) {
            let Some(t) = tokens.get(i) else { break };
            last = at;
            if t.is_punct(o) {
                depth += 1;
            } else if t.is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
        }
        for &i in code.get(ci..=last).into_iter().flatten() {
            if let Some(r) = regions.get_mut(i) {
                r.macro_body = true;
            }
        }
        ci = last + 1;
    }

    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn test_flag_of(src: &str, ident: &str) -> bool {
        let tokens = lex(src);
        let regions = classify(&tokens);
        tokens
            .iter()
            .zip(regions.iter())
            .find(|(t, _)| t.is_ident(ident))
            .map(|(_, r)| r.test)
            .unwrap_or_else(|| panic!("ident {ident} not found in {src}"))
    }

    #[test]
    fn cfg_test_module_is_a_test_region() {
        let src = "fn lib() {} #[cfg(test)] mod tests { fn inner() { target(); } } fn after() {}";
        assert!(test_flag_of(src, "target"));
        assert!(!test_flag_of(src, "lib"));
        assert!(!test_flag_of(src, "after"));
    }

    #[test]
    fn test_attribute_on_fn() {
        let src = "#[test] fn t() { target(); } fn lib() {}";
        assert!(test_flag_of(src, "target"));
        assert!(!test_flag_of(src, "lib"));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let src = "#[cfg(not(test))] fn lib() { target(); }";
        assert!(!test_flag_of(src, "target"));
    }

    #[test]
    fn stacked_attributes_are_skipped() {
        let src = "#[cfg(test)]\n#[allow(unused)]\nmod t { fn inner() { target(); } }";
        assert!(test_flag_of(src, "target"));
    }

    #[test]
    fn semicolon_item_ends_the_region() {
        let src = "#[cfg(test)] use helper::target; fn lib() {}";
        assert!(test_flag_of(src, "target"));
        assert!(!test_flag_of(src, "lib"));
    }

    #[test]
    fn nested_cfg_test_inside_library_mod() {
        let src = "mod outer { fn lib() {} #[cfg(test)] mod t { fn inner() { target(); } } } fn tail() {}";
        assert!(test_flag_of(src, "target"));
        assert!(!test_flag_of(src, "lib"));
        assert!(!test_flag_of(src, "tail"));
    }

    #[test]
    fn signature_brackets_do_not_end_the_scan() {
        // The `[u8; 4]` in the signature must not terminate the item scan
        // before the body's `{`.
        let src = "#[cfg(test)] fn t(x: [u8; 4]) { target(); } fn lib() {}";
        assert!(test_flag_of(src, "target"));
        assert!(!test_flag_of(src, "lib"));
    }

    #[test]
    fn macro_rules_bodies_are_flagged() {
        let src = "macro_rules! m { () => { target!() }; } fn lib() {}";
        let tokens = lex(src);
        let regions = classify(&tokens);
        let idx = tokens
            .iter()
            .position(|t| t.is_ident("target"))
            .expect("target present");
        assert!(regions.get(idx).is_some_and(|r| r.macro_body));
        let lib = tokens
            .iter()
            .position(|t| t.is_ident("lib"))
            .expect("lib present");
        assert!(!regions.get(lib).is_some_and(|r| r.macro_body));
    }

    #[test]
    fn attribute_spans_are_marked() {
        let src = "#[derive(Clone)] struct S;";
        let tokens = lex(src);
        let regions = classify(&tokens);
        let idx = tokens
            .iter()
            .position(|t| t.is_ident("Clone"))
            .expect("Clone present");
        assert!(regions.get(idx).is_some_and(|r| r.attr));
    }
}
