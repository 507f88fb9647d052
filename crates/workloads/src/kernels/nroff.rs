//! `nroff` (IBS-Ultrix analogue): the terminal-oriented formatter —
//! ragged-right filling, tab expansion, centering, underlining, and
//! pagination with headers.
//!
//! Deliberately a separate implementation from [`super::groff`]: the two
//! IBS benchmarks are different programs with overlapping jobs, and the
//! paper's per-benchmark curves (Figure 4) treat them independently.

use bpred_trace::RecordSink;

use crate::kernels::textgen;
use crate::registry::Scale;
use crate::rng::Rng;
use crate::site;
use crate::tracer::Tracer;

const PAGE_LINES: usize = 60;

#[derive(Debug)]
struct Output {
    lines: Vec<String>,
    line_on_page: usize,
    page: usize,
}

impl Output {
    fn new() -> Self {
        Self {
            lines: Vec::new(),
            line_on_page: 0,
            page: 1,
        }
    }

    fn emit(&mut self, t: &mut Tracer, line: String) {
        if t.branch(site!(), self.line_on_page == 0) {
            self.lines.push(format!("-- page {} --", self.page));
        }
        self.lines.push(line);
        self.line_on_page += 1;
        if t.branch(site!(), self.line_on_page >= PAGE_LINES) {
            self.line_on_page = 0;
            self.page += 1;
        }
    }
}

/// Expands tabs to the next multiple-of-8 column.
fn expand_tabs(t: &mut Tracer, line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut col = 0usize;
    for ch in line.chars() {
        if t.branch(site!(), ch == '\t') {
            let next = (col / 8 + 1) * 8;
            while t.branch(site!(), col < next) {
                out.push(' ');
                col += 1;
            }
        } else {
            out.push(ch);
            col += 1;
        }
    }
    out
}

/// Underlines a text by emitting a dash line of matching width.
fn underline(line: &str) -> String {
    line.chars()
        .map(|c| if c.is_whitespace() { ' ' } else { '-' })
        .collect()
}

fn format(t: &mut Tracer, input: &str, width: usize) -> Vec<String> {
    let mut out = Output::new();
    let mut words: Vec<String> = Vec::new();
    let mut len = 0usize;
    let mut center_next = 0usize;
    let mut underline_next = 0usize;

    let flush = |t: &mut Tracer,
                 out: &mut Output,
                 words: &mut Vec<String>,
                 len: &mut usize,
                 center: &mut usize,
                 ul: &mut usize| {
        if t.branch(site!(), words.is_empty()) {
            return;
        }
        let mut body = words.join(" ");
        words.clear();
        *len = 0;
        if t.branch(site!(), *center > 0) {
            *center -= 1;
            let pad = width.saturating_sub(body.len()) / 2;
            body = format!("{}{}", " ".repeat(pad), body);
        }
        let ul_line = if t.branch(site!(), *ul > 0) {
            *ul -= 1;
            Some(underline(&body))
        } else {
            None
        };
        out.emit(t, body);
        if let Some(u) = ul_line {
            out.emit(t, u);
        }
    };

    for raw in input.lines() {
        let raw = expand_tabs(t, raw);
        if t.branch(site!(), raw.starts_with('.')) {
            let mut parts = raw[1..].split_whitespace();
            let req = parts.next().unwrap_or("").to_owned();
            let arg: usize = parts.next().and_then(|a| a.parse().ok()).unwrap_or(1);
            if t.branch(site!(), req == "ce") {
                flush(
                    t,
                    &mut out,
                    &mut words,
                    &mut len,
                    &mut center_next,
                    &mut underline_next,
                );
                center_next = arg;
            } else if t.branch(site!(), req == "ul") {
                underline_next = arg;
            } else if t.branch(site!(), req == "br") {
                flush(
                    t,
                    &mut out,
                    &mut words,
                    &mut len,
                    &mut center_next,
                    &mut underline_next,
                );
            } else if t.branch(site!(), req == "bp") {
                flush(
                    t,
                    &mut out,
                    &mut words,
                    &mut len,
                    &mut center_next,
                    &mut underline_next,
                );
                while t.branch(site!(), out.line_on_page != 0) {
                    out.emit(t, String::new());
                }
            }
            continue;
        }
        for word in raw.split_whitespace() {
            let needed = len + usize::from(len > 0) + word.len();
            // Centered lines break eagerly at 2/3 width for shape.
            let limit = if t.branch(site!(), center_next > 0) {
                width * 2 / 3
            } else {
                width
            };
            if t.branch(site!(), needed > limit) {
                flush(
                    t,
                    &mut out,
                    &mut words,
                    &mut len,
                    &mut center_next,
                    &mut underline_next,
                );
            }
            len += usize::from(len > 0) + word.len();
            words.push(word.to_owned());
        }
    }
    flush(
        t,
        &mut out,
        &mut words,
        &mut len,
        &mut center_next,
        &mut underline_next,
    );
    out.lines
}

fn build_document(rng: &mut Rng, bytes: usize) -> String {
    let body = textgen::generate(rng, bytes);
    let mut doc = String::with_capacity(bytes + bytes / 16);
    for sentence in body.split_inclusive(". ") {
        if rng.chance(0.05) {
            doc.push_str("\n.br\n");
        }
        if rng.chance(0.03) {
            doc.push_str(&format!("\n.ce {}\n", 1 + rng.below(2)));
        }
        if rng.chance(0.03) {
            doc.push_str("\n.ul 1\n");
        }
        if rng.chance(0.01) {
            doc.push_str("\n.bp\n");
        }
        if rng.chance(0.1) {
            doc.push('\t');
        }
        doc.push_str(sentence);
    }
    doc
}

/// Runs the workload at the given scale, pushing each branch record
/// into `sink` as it happens.
pub fn trace(scale: Scale, sink: &mut dyn RecordSink) {
    let mut t = Tracer::new(sink);
    let mut rng = Rng::new(0x4206F);
    for _ in 0..3 * scale.factor() {
        let doc = build_document(&mut rng, 9_000);
        let lines = format(&mut t, &doc, 72);
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
        format(&mut t, input, 30)
    }

    #[test]
    fn pages_carry_headers() {
        let lines = fmt("word\n.br\nword");
        assert_eq!(lines[0], "-- page 1 --");
        assert_eq!(lines[1], "word");
        assert_eq!(lines[2], "word");
    }

    #[test]
    fn centering_pads_left() {
        let lines = fmt(".ce 1\nhi");
        assert_eq!(lines[1], format!("{}hi", " ".repeat(14)));
    }

    #[test]
    fn underline_matches_word_shape() {
        let lines = fmt(".ul 1\nab cd");
        assert_eq!(lines[1], "ab cd");
        assert_eq!(lines[2], "-- --");
    }

    #[test]
    fn page_break_fills_page() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let lines = format(&mut t, "a\n.bp\nb", 30);
        // After .bp, "b" must start on page 2.
        let page2 = lines
            .iter()
            .position(|l| l == "-- page 2 --")
            .expect("page 2 exists");
        assert_eq!(lines[page2 + 1], "b");
        assert_eq!(lines[page2 - 1], "");
    }

    #[test]
    fn tab_expansion_aligns_to_eights() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        assert_eq!(expand_tabs(&mut t, "a\tb"), "a       b");
        assert_eq!(expand_tabs(&mut t, "\tx"), "        x");
        assert_eq!(expand_tabs(&mut t, "12345678\ty"), "12345678        y");
    }

    #[test]
    fn ragged_right_never_exceeds_width() {
        let long = "alpha beta gamma delta epsilon zeta eta theta iota kappa";
        for l in fmt(long).iter().filter(|l| !l.starts_with("--")) {
            assert!(l.len() <= 30, "{l:?}");
        }
    }

    #[test]
    fn workload_is_deterministic_and_nontrivial() {
        let a = traced(trace, Scale::Smoke);
        assert_eq!(a, traced(trace, Scale::Smoke));
        assert!(a.stats().dynamic_conditional > 20_000);
    }
}
