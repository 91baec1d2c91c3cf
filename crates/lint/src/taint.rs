//! Taint/reachability propagation over the call graph.
//!
//! Three interprocedural rule families run here:
//!
//! * `det.taint` — a nondeterminism source (hash-container use, wall
//!   clock, float accumulation, thread spawn) anywhere in the workspace
//!   must not be transitively reachable from a public API of a
//!   deterministic crate. The line rules only police direct use *inside*
//!   those crates; this closes the hole where the source hides two calls
//!   deep in a helper crate.
//! * `panic.reach` — an unwaived panic site must not be transitively
//!   reachable from a public API of a panic-free crate.
//! * `clock.discipline` — a public API of a clocked crate must not
//!   consume chunks on a path that never charges the pipeline/virtual
//!   clock. (What a delivery cost travels inside the delivered chunk, so
//!   a stream decorator has nothing it could forget to forward.)
//!
//! Reachability is a per-entry BFS with parent pointers, so every finding
//! carries its full `entry -> … -> source @ file:line` chain. The
//! clock-charge analysis is a monotone fixed point over the (possibly
//! cyclic) graph — cycles terminate it, they do not recurse.

use crate::graph::Graph;
use crate::rules::{Finding, Hop, DETERMINISTIC_CRATES};
use crate::symbols::{Fact, FactKind, Symbol, SymbolId};
use std::collections::BTreeMap;

/// Crates whose public APIs must be transitively panic-free: every
/// library crate (the `eval`/`lint` binaries own their process and may
/// abort it).
pub(crate) const PANIC_FREE_CRATES: &[&str] = &[
    "bag",
    "chaos",
    "core",
    "descriptor",
    "json",
    "medrank",
    "metrics",
    "parallel",
    "serve",
    "shard",
    "srtree",
    "storage",
    "workload",
];

/// Crates whose public APIs drive the two-clock model: chunk consumption
/// reachable from them must charge modelled time somewhere on the path.
pub(crate) const CLOCKED_CRATES: &[&str] = &["core", "serve"];

/// Whether `sym` is an analysis entry point: a public fn, or a
/// trait-impl method (reachable through the trait object regardless of
/// its own visibility).
fn is_entry(sym: &Symbol) -> bool {
    sym.has_body && (sym.is_pub || (sym.trait_name.is_some() && sym.self_type.is_some()))
}

/// BFS from `entry` over callees satisfying `admit`, returning a parent
/// map `symbol -> (parent, line)` for every reachable symbol.
fn reach_from(
    graph: &Graph,
    entry: SymbolId,
    admit: impl Fn(SymbolId) -> bool,
) -> BTreeMap<SymbolId, (SymbolId, u32)> {
    let mut parents: BTreeMap<SymbolId, (SymbolId, u32)> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::new();
    parents.insert(entry, (entry, 0));
    queue.push_back(entry);
    while let Some(at) = queue.pop_front() {
        for e in graph.edges.get(at).into_iter().flatten() {
            if !admit(e.callee) {
                continue;
            }
            if let std::collections::btree_map::Entry::Vacant(v) = parents.entry(e.callee) {
                v.insert((at, e.line));
                queue.push_back(e.callee);
            }
        }
    }
    parents
}

/// Reconstructs the entry→target hop list from a parent map.
fn chain_to(
    graph: &Graph,
    parents: &BTreeMap<SymbolId, (SymbolId, u32)>,
    entry: SymbolId,
    target: SymbolId,
) -> Vec<Hop> {
    let mut ids = vec![target];
    let mut at = target;
    // The parent map is acyclic by construction (BFS tree), but bound the
    // walk anyway so a logic bug cannot loop forever.
    for _ in 0..graph.symbols.len() {
        if at == entry {
            break;
        }
        let Some(&(parent, _)) = parents.get(&at) else {
            break;
        };
        ids.push(parent);
        at = parent;
    }
    ids.reverse();
    ids.iter()
        .filter_map(|&id| graph.symbols.get(id))
        .map(|s| Hop {
            name: s.display_name(),
            file: s.file.clone(),
            line: s.line,
        })
        .collect()
}

/// Renders `entry -> f -> g -> <what> @ file:line` chain evidence.
fn render_chain(chain: &[Hop], fact: &Fact, source_file: &str) -> String {
    let mut out = String::new();
    for hop in chain {
        out.push_str(&format!("{} ({}:{}) -> ", hop.name, hop.file, hop.line));
    }
    out.push_str(&format!("{} @ {}:{}", fact.what, source_file, fact.line));
    out
}

/// Runs all three interprocedural rule families over the graph.
pub(crate) fn analyze(graph: &Graph) -> Vec<Finding> {
    let mut findings = Vec::new();
    reachability_rules(graph, &mut findings);
    clock_path_rule(graph, &mut findings);
    findings
}

/// `det.taint` + `panic.reach`: per-entry BFS over the graph.
fn reachability_rules(graph: &Graph, findings: &mut Vec<Finding>) {
    for (entry_id, entry) in graph.symbols.iter().enumerate() {
        if !is_entry(entry) {
            continue;
        }
        let det_entry = DETERMINISTIC_CRATES.contains(&entry.crate_name.as_str());
        let panic_entry = PANIC_FREE_CRATES.contains(&entry.crate_name.as_str());
        if !det_entry && !panic_entry {
            continue;
        }
        let parents = reach_from(graph, entry_id, |_| true);
        // One finding per (source symbol, fact kind); the first fact of
        // each kind stands in for the rest. `source == entry` is the line
        // rules' territory — depth-0 sites are already reported there.
        let mut seen: Vec<(SymbolId, FactKind)> = Vec::new();
        for &sym_id in parents.keys() {
            if sym_id == entry_id {
                continue;
            }
            let Some(sym) = graph.symbols.get(sym_id) else {
                continue;
            };
            for fact in &sym.facts {
                let (rule, wanted) = if fact.kind.is_det() {
                    ("det.taint", det_entry)
                } else if fact.kind.is_panic() {
                    ("panic.reach", panic_entry)
                } else {
                    continue;
                };
                if !wanted || seen.contains(&(sym_id, fact.kind)) {
                    continue;
                }
                seen.push((sym_id, fact.kind));
                let chain = chain_to(graph, &parents, entry_id, sym_id);
                let evidence = render_chain(&chain, fact, &sym.file);
                let noun = if fact.kind.is_det() {
                    "a nondeterminism source"
                } else {
                    "a panic site"
                };
                findings.push(Finding {
                    rule,
                    file: entry.file.clone(),
                    line: entry.line,
                    message: format!(
                        "public API `{}` can reach {noun}: {evidence}",
                        entry.display_name()
                    ),
                    chain,
                });
            }
        }
    }
}

/// `clock.discipline`: from a public API of a clocked crate, no path
/// may consume chunks without a modelled-time charge somewhere on it.
fn clock_path_rule(graph: &Graph, findings: &mut Vec<Finding>) {
    let n = graph.symbols.len();
    let consumes: Vec<bool> = graph
        .symbols
        .iter()
        .map(|s| s.facts.iter().any(|f| f.kind == FactKind::ConsumeChunk))
        .collect();
    // charges(F): F itself charges, or some callee (transitively) does.
    // Monotone fixed point; cycles just stop changing.
    let mut charges: Vec<bool> = graph
        .symbols
        .iter()
        .map(|s| s.facts.iter().any(|f| f.kind == FactKind::ChargeClock))
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            if charges.get(id).copied().unwrap_or(false) {
                continue;
            }
            let any = graph
                .edges
                .get(id)
                .into_iter()
                .flatten()
                .any(|e| charges.get(e.callee).copied().unwrap_or(false));
            if any {
                if let Some(slot) = charges.get_mut(id) {
                    *slot = true;
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // unclocked(F): F does not charge, and either consumes itself or
    // calls an unclocked fn. Also a monotone fixed point.
    let mut unclocked: Vec<bool> = (0..n)
        .map(|id| {
            !charges.get(id).copied().unwrap_or(false) && consumes.get(id).copied().unwrap_or(false)
        })
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            if unclocked.get(id).copied().unwrap_or(false)
                || charges.get(id).copied().unwrap_or(false)
            {
                continue;
            }
            let any = graph
                .edges
                .get(id)
                .into_iter()
                .flatten()
                .any(|e| unclocked.get(e.callee).copied().unwrap_or(false));
            if any {
                if let Some(slot) = unclocked.get_mut(id) {
                    *slot = true;
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (entry_id, entry) in graph.symbols.iter().enumerate() {
        if !is_entry(entry)
            || !CLOCKED_CRATES.contains(&entry.crate_name.as_str())
            || !unclocked.get(entry_id).copied().unwrap_or(false)
        {
            continue;
        }
        // Walk the unclocked region (only) to the first consuming symbol,
        // so every hop on the evidence chain really lacks a charge.
        let parents = reach_from(graph, entry_id, |id| {
            unclocked.get(id).copied().unwrap_or(false)
        });
        let target = parents
            .keys()
            .copied()
            .find(|&id| consumes.get(id).copied().unwrap_or(false));
        let Some(target) = target else { continue };
        let Some(target_sym) = graph.symbols.get(target) else {
            continue;
        };
        let Some(fact) = target_sym
            .facts
            .iter()
            .find(|f| f.kind == FactKind::ConsumeChunk)
        else {
            continue;
        };
        let chain = chain_to(graph, &parents, entry_id, target);
        let evidence = render_chain(&chain, fact, &target_sym.file);
        findings.push(Finding {
            rule: "clock.discipline",
            file: entry.file.clone(),
            line: entry.line,
            message: format!(
                "public API `{}` consumes chunks on a path that never charges the pipeline clock: {evidence}",
                entry.display_name()
            ),
            chain,
        });
    }
}
