//! `compress` (SPEC CINT95 129.compress analogue): a real LZW
//! compressor/decompressor pair over Zipf-structured text.
//!
//! Branch structure mirrors the original: a small number of static
//! branches (the paper counts 482) dominated by the dictionary-probe
//! hit/miss branch — strongly biased towards hits once the dictionary
//! warms up — plus code-width growth checks and the table-reset branch.
//! In the paper this benchmark is so small that even a single-PHT gshare
//! avoids aliasing; the reproduction keeps that character.

use std::collections::HashMap;

use bpred_trace::RecordSink;

use crate::kernels::textgen;
use crate::registry::Scale;
use crate::rng::Rng;
use crate::site;
use crate::tracer::Tracer;

const DICT_LIMIT: usize = 4096; // 12-bit codes, as in classic compress
const ALPHABET: usize = 256;

fn compress(t: &mut Tracer, input: &[u8], output: &mut Vec<u32>) {
    let mut dict: HashMap<(u32, u8), u32> = HashMap::new();
    let mut next_code: u32 = ALPHABET as u32;
    let mut width_threshold: u32 = 512;
    let mut prefix: Option<u32> = None;

    let mut i = 0;
    while t.branch(site!(), i < input.len()) {
        let ch = input[i];
        i += 1;
        let code = match prefix {
            None => {
                // Only at stream start / after reset.
                prefix = Some(u32::from(ch));
                continue;
            }
            Some(p) => p,
        };
        // The hot dictionary probe: hit keeps extending the match.
        let probe = dict.get(&(code, ch)).copied();
        if t.branch(site!(), probe.is_some()) {
            prefix = probe;
        } else {
            output.push(code);
            // Code-width growth check (biased not-taken).
            if t.branch(site!(), next_code >= width_threshold) {
                width_threshold = (width_threshold * 2).min(DICT_LIMIT as u32);
            }
            // Table full? Reset, like compress(1)'s block mode.
            if t.branch(site!(), next_code as usize >= DICT_LIMIT) {
                dict.clear();
                next_code = ALPHABET as u32;
                width_threshold = 512;
            } else {
                dict.insert((code, ch), next_code);
                next_code += 1;
            }
            prefix = Some(u32::from(ch));
        }
    }
    // Flush check: taken whenever any input was consumed.
    if t.branch(site!(), prefix.is_some()) {
        output.push(prefix.expect("checked via branch")); // panic-audited: the traced branch condition is prefix.is_some()
    }
}

fn decompress(t: &mut Tracer, codes: &[u32]) -> Vec<u8> {
    let mut entries: Vec<Vec<u8>> = (0..ALPHABET).map(|b| vec![b as u8]).collect();
    let mut out = Vec::new();
    let mut prev: Option<u32> = None;

    let mut i = 0;
    while t.branch(site!(), i < codes.len()) {
        let code = codes[i] as usize;
        i += 1;
        let entry: Vec<u8> = if t.branch(site!(), code < entries.len()) {
            entries[code].clone()
        } else {
            // The KwKwK special case.
            let mut e = entries[prev.expect("KwKwK cannot be first") as usize].clone(); // panic-audited: first iteration always hits the known-code arm, setting prev
            e.push(e[0]);
            e
        };
        out.extend_from_slice(&entry);
        if let Some(p) = prev {
            if t.branch(site!(), entries.len() < DICT_LIMIT) {
                let mut new_entry = entries[p as usize].clone();
                new_entry.push(entry[0]);
                entries.push(new_entry);
            } else {
                // Mirror the compressor's reset.
                entries.truncate(ALPHABET);
                prev = None;
                // Re-seed prev from the current code after reset.
                if t.branch(site!(), code < entries.len()) {
                    prev = Some(code as u32);
                }
                continue;
            }
        }
        prev = Some(code as u32);
    }
    out
}

/// Runs the workload at the given scale, pushing each branch record
/// into `sink` as it happens.
///
/// # Panics
///
/// Panics if compression round-trip verification fails (an internal
/// correctness bug, not an input condition).
pub fn trace(scale: Scale, sink: &mut dyn RecordSink) {
    let mut t = Tracer::new(sink);
    let mut rng = Rng::new(0xC0_4959);
    // Several independent buffers, like compress running over a file set.
    let buffers = 2 * scale.factor();
    for _ in 0..buffers {
        // Inject character noise (~4%) so dictionary matches stay
        // short, as they do on compress's real mixed input; perfectly
        // repetitive text would make the probe branch trivially biased.
        let mut text = textgen::generate(&mut rng, 9_000).into_bytes();
        for b in &mut text {
            if rng.chance(0.04) {
                *b = 33 + (rng.below(94)) as u8;
            }
        }
        let input = &text[..];
        let mut codes = Vec::new();
        compress(&mut t, input, &mut codes);
        // Compression must actually compress structured text.
        assert!(
            codes.len() < input.len(),
            "LZW failed to compress structured text"
        );
        let roundtrip = decompress(&mut t, &codes);
        assert_eq!(roundtrip, input, "LZW round-trip mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::traced;
    use bpred_trace::Trace;

    #[test]
    fn roundtrip_small_inputs() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        for input in [&b"abababababab"[..], b"x", b"", b"to be or not to be to be"] {
            let mut codes = Vec::new();
            compress(&mut t, input, &mut codes);
            assert_eq!(decompress(&mut t, &codes), input);
        }
    }

    #[test]
    fn kwkwk_case_roundtrips() {
        // "aaaa..." triggers the code-not-yet-defined path.
        let input = vec![b'a'; 50];
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut codes = Vec::new();
        compress(&mut t, &input, &mut codes);
        assert_eq!(decompress(&mut t, &codes), input);
    }

    #[test]
    fn dictionary_reset_roundtrips() {
        // Enough distinct digrams to overflow 4096 codes.
        let mut rng = Rng::new(5);
        let input: Vec<u8> = (0..60_000).map(|_| rng.below(251) as u8).collect();
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut codes = Vec::new();
        compress(&mut t, &input, &mut codes);
        assert_eq!(decompress(&mut t, &codes), input);
    }

    #[test]
    fn workload_is_deterministic_and_biased() {
        let a = traced(trace, Scale::Smoke);
        let b = traced(trace, Scale::Smoke);
        assert_eq!(a, b);
        let stats = a.stats();
        // Few static branches, like the original's 482.
        assert!(
            stats.static_conditional < 60,
            "{}",
            stats.static_conditional
        );
        assert!(stats.dynamic_conditional > 10_000);
        // The dictionary-probe branch dominates and is biased.
        assert!(stats.strongly_biased_fraction() > 0.3);
    }
}
