//! `perl` (SPEC CINT95 134.perl analogue): text scanning with a real
//! backtracking regex-lite engine, hash-based word counting, and
//! sorting — the scripting-language branch mix.
//!
//! Branch profile: the matcher's per-character compare branches are
//! data-dependent with partial-match backtracking (weakly biased), the
//! hash-probe and sort branches are moderately biased, and the scan
//! loops are strongly taken.

// BTreeMap rather than HashMap: word iteration order feeds the traced
// top-list insertion, so it must be deterministic across runs.
use std::collections::BTreeMap;

use bpred_trace::RecordSink;

use crate::kernels::textgen;
use crate::registry::Scale;
use crate::rng::Rng;
use crate::site;
use crate::tracer::Tracer;

/// One element of a compiled pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Atom {
    /// A literal byte.
    Lit(u8),
    /// Any single byte (`.`).
    Any,
    /// One byte from a class.
    Class(Vec<u8>),
    /// Zero or more of the previous atom.
    Star(Box<Atom>),
}

/// Compiles a tiny regex supporting literals, `.`, `[abc]`, and
/// postfix `*`.
fn compile(t: &mut Tracer, pattern: &str) -> Vec<Atom> {
    let bytes = pattern.as_bytes();
    let mut atoms: Vec<Atom> = Vec::new();
    let mut i = 0;
    while t.branch(site!(), i < bytes.len()) {
        let atom = if t.branch(site!(), bytes[i] == b'[') {
            let mut class = Vec::new();
            i += 1;
            while t.branch(site!(), bytes[i] != b']') {
                class.push(bytes[i]);
                i += 1;
            }
            i += 1;
            Atom::Class(class)
        } else if t.branch(site!(), bytes[i] == b'.') {
            i += 1;
            Atom::Any
        } else {
            let b = bytes[i];
            i += 1;
            Atom::Lit(b)
        };
        if t.branch(site!(), i < bytes.len() && bytes[i] == b'*') {
            i += 1;
            atoms.push(Atom::Star(Box::new(atom)));
        } else {
            atoms.push(atom);
        }
    }
    atoms
}

fn atom_matches(t: &mut Tracer, atom: &Atom, b: u8) -> bool {
    match atom {
        // Literal compares are fanned out by character class, modelling
        // the generated-code spread of a real regex engine.
        Atom::Lit(l) => t.branch(site!().with_index(u32::from(*l) % 16), *l == b),
        // `.` matches unconditionally: no branch in generated matchers.
        Atom::Any => true,
        Atom::Class(set) => {
            let mut found = false;
            let mut i = 0;
            while t.branch(site!(), i < set.len()) {
                if t.branch(site!(), set[i] == b) {
                    found = true;
                    break;
                }
                i += 1;
            }
            found
        }
        Atom::Star(_) => unreachable!("nested star"),
    }
}

/// Backtracking match of the full pattern against the full text
/// (anchored at both ends; the workload driver uses the unanchored
/// [`search`], this entry point serves API users and tests).
#[cfg_attr(not(test), allow(dead_code))]
fn match_here(t: &mut Tracer, atoms: &[Atom], text: &[u8]) -> bool {
    let Some((first, rest)) = atoms.split_first() else {
        return t.branch(site!(), text.is_empty());
    };
    if let Atom::Star(inner) = first {
        // Greedy star with backtracking: try the longest extent first.
        let mut extent = 0;
        loop {
            let can_extend = extent < text.len() && atom_matches(t, inner, text[extent]);
            if !t.branch(site!(), can_extend) {
                break;
            }
            extent += 1;
        }
        loop {
            let rest_matches = match_here(t, rest, &text[extent..]);
            if t.branch(site!(), rest_matches) {
                return true;
            }
            if t.branch(site!(), extent == 0) {
                return false;
            }
            extent -= 1;
        }
    }
    if t.branch(site!(), text.is_empty()) {
        return false;
    }
    let head_matches = atom_matches(t, first, text[0]);
    if t.branch(site!(), head_matches) {
        match_here(t, rest, &text[1..])
    } else {
        false
    }
}

/// Substring (unanchored) search.
fn search(t: &mut Tracer, atoms: &[Atom], text: &[u8]) -> bool {
    let mut start = 0;
    loop {
        // Anchored prefix attempt at each start offset: an unanchored
        // match succeeds if the pattern matches a prefix of some suffix.
        let hit = match_prefix(t, atoms, &text[start..]);
        if t.branch(site!(), hit) {
            return true;
        }
        if t.branch(site!(), start >= text.len()) {
            return false;
        }
        start += 1;
    }
}

/// Matches the pattern against a prefix of `text`.
fn match_prefix(t: &mut Tracer, atoms: &[Atom], text: &[u8]) -> bool {
    let Some((first, rest)) = atoms.split_first() else {
        return true;
    };
    if let Atom::Star(inner) = first {
        let mut extent = 0;
        loop {
            let can_extend = extent < text.len() && atom_matches(t, inner, text[extent]);
            if !t.branch(site!(), can_extend) {
                break;
            }
            extent += 1;
        }
        loop {
            let rest_matches = match_prefix(t, rest, &text[extent..]);
            if t.branch(site!(), rest_matches) {
                return true;
            }
            if t.branch(site!(), extent == 0) {
                return false;
            }
            extent -= 1;
        }
    }
    if t.branch(site!(), text.is_empty()) {
        return false;
    }
    let head_matches = atom_matches(t, first, text[0]);
    if t.branch(site!(), head_matches) {
        match_prefix(t, rest, &text[1..])
    } else {
        false
    }
}

/// The word-frequency phase: split, count, sort (insertion sort over the
/// top list, as scripting code would).
fn word_frequencies(t: &mut Tracer, text: &str) -> Vec<(String, u32)> {
    let mut counts: BTreeMap<String, u32> = BTreeMap::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if t.branch(site!(), ch.is_ascii_alphanumeric()) {
            cur.push(ch.to_ascii_lowercase());
        } else if t.branch(site!(), !cur.is_empty()) {
            *counts.entry(std::mem::take(&mut cur)).or_insert(0) += 1;
        }
    }
    if !cur.is_empty() {
        *counts.entry(cur).or_insert(0) += 1;
    }
    // Keep a top-32 list by insertion, like a report script.
    let mut top: Vec<(String, u32)> = Vec::new();
    for (w, c) in counts {
        let mut pos = top.len();
        while t.branch(site!(), pos > 0 && top[pos - 1].1 < c) {
            pos -= 1;
        }
        if t.branch(site!(), pos < 32) {
            top.insert(pos, (w, c));
            if t.branch(site!(), top.len() > 32) {
                top.pop();
            }
        }
    }
    top
}

/// Runs the workload at the given scale, pushing each branch record
/// into `sink` as it happens.
pub fn trace(scale: Scale, sink: &mut dyn RecordSink) {
    let mut t = Tracer::new(sink);
    let mut rng = Rng::new(0x9E71);
    let patterns = [
        "ka[rv]o*",
        "so*l",
        "t.n",
        "qua.*m",
        "[aeiou][aeiou]",
        "pre.*ex",
        "dak*",
    ];
    for _ in 0..scale.factor() {
        let text = textgen::generate(&mut rng, 7_000);
        let mut matches = 0u32;
        for pat in &patterns {
            let atoms = compile(&mut t, pat);
            for word in text.split_whitespace() {
                if search(&mut t, &atoms, word.as_bytes()) {
                    matches += 1;
                }
            }
        }
        let top = word_frequencies(&mut t, &text);
        std::hint::black_box((matches, top));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::traced;
    use bpred_trace::Trace;

    fn matches(pattern: &str, text: &str) -> bool {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let atoms = compile(&mut t, pattern);
        search(&mut t, &atoms, text.as_bytes())
    }

    #[test]
    fn literal_matching() {
        assert!(matches("abc", "xxabcyy"));
        assert!(!matches("abc", "ab"));
        assert!(matches("a", "a"));
        assert!(!matches("z", "abc"));
    }

    #[test]
    fn dot_matches_any_single_byte() {
        assert!(matches("a.c", "abc"));
        assert!(matches("a.c", "azc"));
        assert!(!matches("a.c", "ac"));
    }

    #[test]
    fn star_is_greedy_with_backtracking() {
        assert!(matches("ab*c", "ac"));
        assert!(matches("ab*c", "abbbbc"));
        assert!(matches("a.*c", "axyzc"));
        // Backtracking required: .* must give back the final 'c'.
        assert!(matches("a.*cd", "axxcdcd"));
        assert!(!matches("ab*c", "ad"));
    }

    #[test]
    fn character_classes() {
        assert!(matches("[abc]x", "bx"));
        assert!(!matches("[abc]x", "dx"));
        assert!(matches("x[0123456789]*y", "x2024y"));
    }

    #[test]
    fn anchored_full_match_helper() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let atoms = compile(&mut t, "abc");
        assert!(match_here(&mut t, &atoms, b"abc"));
        assert!(
            !match_here(&mut t, &atoms, b"abcd"),
            "match_here is fully anchored"
        );
    }

    #[test]
    fn word_frequency_ranking() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let top = word_frequencies(&mut t, "b a a c a b, a; c");
        assert_eq!(top[0], ("a".to_owned(), 4));
        assert_eq!(top[1], ("b".to_owned(), 2));
    }

    #[test]
    fn workload_shape() {
        let trace = traced(trace, Scale::Smoke);
        let stats = trace.stats();
        assert!(stats.dynamic_conditional > 50_000);
        assert!(stats.static_conditional < 120);
        assert_eq!(trace, traced(super::trace, Scale::Smoke));
    }
}
