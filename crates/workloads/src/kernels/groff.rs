//! `groff` (IBS-Ultrix analogue): a text formatter with line filling,
//! full justification, hyphenation, and embedded formatting requests.
//!
//! Branch profile: per-character classification loops, a
//! fits-on-this-line test whose bias tracks word-length statistics, a
//! justification space-distribution loop, and request dispatch — the
//! medium-static-count, moderately-biased mix of the IBS text tools.

use bpred_trace::RecordSink;

use crate::kernels::textgen;
use crate::registry::Scale;
use crate::rng::Rng;
use crate::site;
use crate::tracer::Tracer;

/// Formatter state driven by embedded requests.
#[derive(Debug, Clone)]
struct State {
    width: usize,
    indent: usize,
    justify: bool,
}

/// Splits a long word at syllable-ish boundaries (after a vowel that is
/// followed by a consonant), returning the split point if any.
fn hyphenation_point(t: &mut Tracer, word: &str, max: usize) -> Option<usize> {
    let bytes = word.as_bytes();
    let is_vowel = |b: u8| matches!(b, b'a' | b'e' | b'i' | b'o' | b'u');
    let mut best = None;
    let mut i = 1;
    while t.branch(site!(), i + 1 < bytes.len() && i < max) {
        if t.branch(site!(), is_vowel(bytes[i]) && !is_vowel(bytes[i + 1])) {
            best = Some(i + 1);
        }
        i += 1;
    }
    // Require at least two characters on each side.
    best.filter(|&p| t.branch(site!(), p >= 2 && word.len() - p >= 2))
}

/// Distributes `extra` spaces across `gaps` gaps, left-biased — the
/// justification inner loop.
fn justify_line(t: &mut Tracer, words: &[String], width: usize) -> String {
    if t.branch(site!(), words.len() <= 1) {
        return words.first().cloned().unwrap_or_default();
    }
    let content: usize = words.iter().map(String::len).sum();
    let gaps = words.len() - 1;
    let total_space = width.saturating_sub(content).max(gaps);
    let base = total_space / gaps;
    let mut remainder = total_space % gaps;
    let mut line = String::with_capacity(width);
    for (i, w) in words.iter().enumerate() {
        line.push_str(w);
        if t.branch(site!(), i < gaps) {
            let mut n = base;
            if t.branch(site!(), remainder > 0) {
                n += 1;
                remainder -= 1;
            }
            for _ in 0..n {
                line.push(' ');
            }
        }
    }
    line
}

/// Formats the document, returning the output lines.
fn format(t: &mut Tracer, input: &str) -> Vec<String> {
    let mut state = State {
        width: 64,
        indent: 0,
        justify: true,
    };
    let mut out = Vec::new();
    let mut line_words: Vec<String> = Vec::new();
    let mut line_len = 0usize;

    let flush = |t: &mut Tracer,
                 out: &mut Vec<String>,
                 words: &mut Vec<String>,
                 len: &mut usize,
                 state: &State,
                 justify: bool| {
        if t.branch(site!(), words.is_empty()) {
            return;
        }
        let body = if t.branch(site!(), justify && state.justify) {
            justify_line(t, words, state.width - state.indent)
        } else {
            words.join(" ")
        };
        let mut line = " ".repeat(state.indent);
        line.push_str(&body);
        out.push(line);
        words.clear();
        *len = 0;
    };

    for raw_line in input.lines() {
        // Request lines start with '.'
        if t.branch(site!(), raw_line.starts_with('.')) {
            let mut parts = raw_line[1..].split_whitespace();
            let req = parts.next().unwrap_or("");
            let arg: Option<usize> = parts.next().and_then(|a| a.parse().ok());
            // Request dispatch: one biased site per request kind.
            if t.branch(site!(), req == "br") {
                flush(t, &mut out, &mut line_words, &mut line_len, &state, false);
            } else if t.branch(site!(), req == "sp") {
                flush(t, &mut out, &mut line_words, &mut line_len, &state, false);
                for _ in 0..arg.unwrap_or(1) {
                    out.push(String::new());
                }
            } else if t.branch(site!(), req == "in") {
                state.indent = arg.unwrap_or(0).min(state.width / 2);
            } else if t.branch(site!(), req == "ll") {
                state.width = arg.unwrap_or(64).clamp(16, 120);
            } else if t.branch(site!(), req == "ad") {
                state.justify = true;
            } else if t.branch(site!(), req == "na") {
                state.justify = false;
            }
            continue;
        }
        for word in raw_line.split_whitespace() {
            let mut word = word.to_owned();
            let avail = state.width - state.indent;
            loop {
                let needed = line_len + usize::from(line_len > 0) + word.len();
                if t.branch(site!(), needed <= avail) {
                    line_len += usize::from(line_len > 0) + word.len();
                    line_words.push(std::mem::take(&mut word));
                    break;
                }
                // Word does not fit: try hyphenating into the gap.
                let gap = avail.saturating_sub(line_len + usize::from(line_len > 0) + 1);
                if let Some(split) = hyphenation_point(t, &word, gap) {
                    let (head, tail) = word.split_at(split);
                    line_words.push(format!("{head}-"));
                    flush(t, &mut out, &mut line_words, &mut line_len, &state, true);
                    word = tail.to_owned();
                } else {
                    flush(t, &mut out, &mut line_words, &mut line_len, &state, true);
                    // A word longer than the whole line is force-broken.
                    if t.branch(site!(), word.len() > avail) {
                        let head: String = word.chars().take(avail).collect();
                        out.push(" ".repeat(state.indent) + &head);
                        word = word.chars().skip(avail).collect();
                    }
                }
                if t.branch(site!(), word.is_empty()) {
                    break;
                }
            }
        }
    }
    flush(t, &mut out, &mut line_words, &mut line_len, &state, false);
    out
}

/// Builds a document with interleaved formatting requests.
fn build_document(rng: &mut Rng, bytes: usize) -> String {
    let body = textgen::generate(rng, bytes);
    let mut doc = String::with_capacity(bytes + bytes / 20);
    for (i, sentence) in body.split_inclusive(". ").enumerate() {
        if rng.chance(0.06) {
            doc.push_str("\n.br\n");
        }
        if rng.chance(0.03) {
            doc.push_str(&format!("\n.in {}\n", rng.below(9)));
        }
        if rng.chance(0.02) {
            doc.push_str(&format!("\n.ll {}\n", 40 + rng.below(50)));
        }
        if rng.chance(0.02) {
            doc.push_str(if i % 2 == 0 { "\n.na\n" } else { "\n.ad\n" });
        }
        if rng.chance(0.02) {
            doc.push_str(&format!("\n.sp {}\n", 1 + rng.below(2)));
        }
        doc.push_str(sentence);
    }
    doc
}

/// Runs the workload at the given scale, pushing each branch record
/// into `sink` as it happens.
pub fn trace(scale: Scale, sink: &mut dyn RecordSink) {
    let mut t = Tracer::new(sink);
    let mut rng = Rng::new(0x6077);
    for _ in 0..4 * scale.factor() {
        let doc = build_document(&mut rng, 12_000);
        let lines = format(&mut t, &doc);
        std::hint::black_box(lines.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::traced;
    use bpred_trace::Trace;

    fn fmt(input: &str) -> Vec<String> {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        format(&mut t, input)
    }

    #[test]
    fn fills_lines_to_width() {
        let lines = fmt(".na\nalpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi omicron pi rho sigma tau");
        assert!(lines.len() > 1);
        for l in &lines {
            assert!(l.len() <= 64, "line too long: {l:?} ({})", l.len());
        }
    }

    #[test]
    fn break_request_forces_new_line() {
        let lines = fmt("one two\n.br\nthree");
        assert_eq!(lines, vec!["one two".to_owned(), "three".to_owned()]);
    }

    #[test]
    fn spacing_request_emits_blank_lines() {
        let lines = fmt("a\n.sp 2\nb");
        assert_eq!(
            lines,
            vec!["a".to_owned(), String::new(), String::new(), "b".to_owned()]
        );
    }

    #[test]
    fn indent_request_indents() {
        let lines = fmt(".in 4\nhello");
        assert_eq!(lines, vec!["    hello".to_owned()]);
    }

    #[test]
    fn justification_pads_interior_lines_to_width() {
        let text = "alpha beta gamma delta epsilon zeta eta theta iota kappa lambda mu nu xi omicron pi rho sigma tau upsilon phi chi psi omega";
        let lines = fmt(text);
        // Every line except the last must be exactly the line width.
        for l in &lines[..lines.len() - 1] {
            assert_eq!(l.len(), 64, "justified line has wrong width: {l:?}");
        }
    }

    #[test]
    fn words_survive_formatting() {
        let input = "the quick brown fox jumps over the lazy dog";
        let lines = fmt(input);
        let output = lines.join(" ");
        for w in input.split_whitespace() {
            assert!(output.contains(w), "lost word {w}");
        }
    }

    #[test]
    fn hyphenation_splits_long_words() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        // "tenrokamiro" has vowel-consonant boundaries.
        let p = hyphenation_point(&mut t, "tenrokamiro", 8);
        assert!(p.is_some());
        let p = p.unwrap();
        assert!((2..=9).contains(&p));
        // Too-short words are not hyphenated.
        assert_eq!(hyphenation_point(&mut t, "abc", 8), None);
    }

    #[test]
    fn oversized_unhyphenatable_word_is_force_broken() {
        let lines = fmt(&format!(".na\n{}", "x".repeat(100)));
        assert!(lines.iter().all(|l| l.len() <= 64));
        let total: usize = lines.iter().map(|l| l.trim().len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn workload_shape() {
        let trace = traced(trace, Scale::Smoke);
        let stats = trace.stats();
        assert!(stats.dynamic_conditional > 20_000);
        assert_eq!(trace, traced(super::trace, Scale::Smoke));
    }
}
