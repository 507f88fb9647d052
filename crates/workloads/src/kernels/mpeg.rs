//! `mpeg_play` and `video_play` (IBS-Ultrix analogues): block-based
//! video decoding — run-length entropy decoding, dequantisation, a real
//! 8x8 separable inverse DCT, motion compensation with edge clamping,
//! and pixel saturation.
//!
//! Branch profile: the IDCT butterfly loops are fixed-trip and highly
//! predictable (these are the easiest IBS benchmarks in Figure 4), the
//! run-length decoder's zero-run branch is biased by coefficient
//! sparsity, and the clamp/saturation branches are data-dependent but
//! skewed. `video_play` is a distinct mix (more skipped/inter blocks,
//! different GOP pattern), as in IBS.

use bpred_trace::RecordSink;

use crate::registry::Scale;
use crate::rng::Rng;
use crate::site;
use crate::tracer::Tracer;

const BLOCK: usize = 8;
const COEFFS: usize = BLOCK * BLOCK;

/// The JPEG/MPEG zigzag scan order.
fn zigzag_order() -> [usize; COEFFS] {
    let mut order = [0usize; COEFFS];
    let mut idx = 0;
    for s in 0..(2 * BLOCK - 1) {
        let range: Vec<usize> = (0..=s.min(BLOCK - 1)).rev().collect();
        let coords: Vec<(usize, usize)> = range
            .into_iter()
            .filter_map(|i| {
                let j = s - i;
                (j < BLOCK).then_some((i, j))
            })
            .collect();
        let flip = s % 2 == 1;
        for &(i, j) in coords.iter() {
            let (r, c) = if flip { (j, i) } else { (i, j) };
            order[idx] = r * BLOCK + c;
            idx += 1;
        }
    }
    order
}

/// A run-length coded coefficient stream: (zero-run, level) pairs with
/// an end-of-block marker.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RleBlock {
    pairs: Vec<(u8, i16)>,
}

/// Entropy-decodes one block into zigzag coefficient positions.
fn rle_decode(t: &mut Tracer, rle: &RleBlock, zigzag: &[usize; COEFFS]) -> [i32; COEFFS] {
    let mut coeffs = [0i32; COEFFS];
    let mut pos = 0usize;
    let mut i = 0;
    while t.branch(site!(), i < rle.pairs.len()) {
        let (run, level) = rle.pairs[i];
        i += 1;
        pos += run as usize;
        // Overflow guard: corrupted streams are truncated, not UB.
        if t.branch(site!(), pos >= COEFFS) {
            break;
        }
        coeffs[zigzag[pos]] = i32::from(level);
        pos += 1;
    }
    coeffs
}

/// Dequantisation with a quality-scaled flat matrix and deadzone test.
fn dequantise(t: &mut Tracer, coeffs: &mut [i32; COEFFS], quant: i32) {
    for c in coeffs.iter_mut() {
        if t.branch(site!(), *c != 0) {
            *c *= quant;
            // Saturation to 12-bit dynamic range.
            if t.branch(site!(), *c > 2047) {
                *c = 2047;
            } else if t.branch(site!(), *c < -2048) {
                *c = -2048;
            }
        }
    }
}

/// Integer 1-D IDCT (separable, applied to rows then columns). A real
/// even/odd butterfly structure with fixed-point constants.
fn idct_1d(t: &mut Tracer, v: &mut [i32; BLOCK]) {
    // Fast path: all-AC-zero vectors decode to a flat line (the common
    // sparse-block case, a strongly biased branch).
    let ac_zero = v[1..].iter().all(|x| *x == 0);
    if t.branch(site!(), ac_zero) {
        let dc = v[0] >> 3;
        v.fill(dc);
        return;
    }
    // Fixed-point cosine constants, 8 fractional bits.
    const C: [i64; 8] = [256, 251, 237, 213, 181, 142, 98, 50];
    let input = v.map(i64::from);
    for (x, slot) in v.iter_mut().enumerate() {
        let mut acc: i64 = input[0] * C[0] / 2;
        for (u, &coef) in input.iter().enumerate().skip(1) {
            // cos((2x+1) u pi / 16) via the folded constant table.
            let angle_index = ((2 * x + 1) * u) % 32;
            let (idx, sign) = match angle_index {
                0..=7 => (angle_index, 1i64),
                8..=15 => (15 - angle_index + 1, -1), // 16-angle mirrored
                16..=23 => (angle_index - 16, -1),
                _ => (31 - angle_index + 1, 1),
            };
            let c = if idx == 8 { 0 } else { C[idx] };
            acc += coef * c * sign;
        }
        *slot = (acc >> 11) as i32;
    }
}

/// Full 2-D IDCT.
fn idct_2d(t: &mut Tracer, coeffs: &[i32; COEFFS]) -> [i32; COEFFS] {
    let mut tmp = *coeffs;
    for r in 0..BLOCK {
        let mut row = [0i32; BLOCK];
        row.copy_from_slice(&tmp[r * BLOCK..(r + 1) * BLOCK]);
        idct_1d(t, &mut row);
        tmp[r * BLOCK..(r + 1) * BLOCK].copy_from_slice(&row);
    }
    for c in 0..BLOCK {
        let mut col = [0i32; BLOCK];
        for r in 0..BLOCK {
            col[r] = tmp[r * BLOCK + c];
        }
        idct_1d(t, &mut col);
        for r in 0..BLOCK {
            tmp[r * BLOCK + c] = col[r];
        }
    }
    tmp
}

/// A reference frame for motion compensation.
#[derive(Debug)]
struct Frame {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl Frame {
    fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            pixels: vec![128; width * height],
        }
    }

    /// Clamped fetch: the edge-handling branch pair of every decoder.
    fn fetch(&self, t: &mut Tracer, x: i64, y: i64) -> u8 {
        let cx = if t.branch(site!(), x < 0) {
            0
        } else if t.branch(site!(), x >= self.width as i64) {
            self.width - 1
        } else {
            x as usize
        };
        let cy = if t.branch(site!(), y < 0) {
            0
        } else if t.branch(site!(), y >= self.height as i64) {
            self.height - 1
        } else {
            y as usize
        };
        self.pixels[cy * self.width + cx]
    }
}

fn saturate(t: &mut Tracer, v: i32) -> u8 {
    if t.branch(site!(), v < 0) {
        0
    } else if t.branch(site!(), v > 255) {
        255
    } else {
        v as u8
    }
}

/// Generates a sparse RLE block: mostly low-frequency coefficients.
fn random_block(rng: &mut Rng, density: f64) -> RleBlock {
    let mut pairs = Vec::new();
    let mut pos = 0usize;
    while pos < COEFFS {
        if !rng.chance(density) {
            break;
        }
        let run = rng.below(6) as u8;
        pos += run as usize + 1;
        let level = (rng.range(1, 60) as i16) * if rng.chance(0.5) { 1 } else { -1 };
        pairs.push((run, level));
    }
    RleBlock { pairs }
}

#[derive(Debug, Clone, Copy)]
struct StreamConfig {
    /// Seed of the stream's content: block types and coefficients.
    seed: u64,
    /// Fraction of blocks that are skipped entirely (inter prediction
    /// with zero residual).
    skip_rate: f64,
    /// Fraction of coded blocks that are motion-compensated.
    inter_rate: f64,
    /// Coefficient density of coded blocks.
    density: f64,
    frames_per_unit: u64,
}

fn decode_stream(config: StreamConfig, scale: Scale, sink: &mut dyn RecordSink) {
    let mut t = Tracer::new(sink);
    let mut rng = Rng::new(config.seed);
    let zigzag = zigzag_order();
    let (w, h) = (128usize, 96usize);
    let mut reference = Frame::new(w, h);
    let frames = config.frames_per_unit * scale.factor();
    for _ in 0..frames {
        let mut current = Frame::new(w, h);
        for by in (0..h).step_by(BLOCK) {
            // Skipped macroblocks cluster spatially (static background
            // regions), modelled as a sticky per-row state rather than
            // independent coin flips.
            let mut skipping = rng.chance(config.skip_rate);
            for bx in (0..w).step_by(BLOCK) {
                if rng.chance(0.25) {
                    skipping = rng.chance(config.skip_rate);
                }
                // Skipped block: copy-through, one biased branch.
                if t.branch(site!(), skipping) {
                    for dy in 0..BLOCK {
                        for dx in 0..BLOCK {
                            let p = reference.fetch(&mut t, (bx + dx) as i64, (by + dy) as i64);
                            current.pixels[(by + dy) * w + bx + dx] = p;
                        }
                    }
                    continue;
                }
                let rle = random_block(&mut rng, config.density);
                let mut coeffs = rle_decode(&mut t, &rle, &zigzag);
                // DC offset so output is plausible video.
                coeffs[0] += 1024;
                dequantise(&mut t, &mut coeffs, 3);
                let spatial = idct_2d(&mut t, &coeffs);
                let inter = t.branch(site!(), rng.chance(config.inter_rate));
                let (mvx, mvy) = if inter {
                    (rng.range(0, 15) as i64 - 7, rng.range(0, 15) as i64 - 7)
                } else {
                    (0, 0)
                };
                for dy in 0..BLOCK {
                    for dx in 0..BLOCK {
                        let residual = spatial[dy * BLOCK + dx] >> 3;
                        let base = if inter {
                            i32::from(reference.fetch(
                                &mut t,
                                (bx + dx) as i64 + mvx,
                                (by + dy) as i64 + mvy,
                            ))
                        } else {
                            0
                        };
                        let v = saturate(&mut t, base + residual);
                        current.pixels[(by + dy) * w + bx + dx] = v;
                    }
                }
            }
        }
        reference = current;
    }
}

/// Runs the `mpeg_play` workload into `sink`.
pub fn trace_mpeg_play(scale: Scale, sink: &mut dyn RecordSink) {
    decode_stream(
        StreamConfig {
            seed: 0x4956_3141,
            skip_rate: 0.25,
            inter_rate: 0.6,
            density: 0.75,
            frames_per_unit: 2,
        },
        scale,
        sink,
    );
}

/// Runs the `video_play` workload: a lighter-weight player with more
/// skipped macroblocks and sparser residuals.
pub fn trace_video_play(scale: Scale, sink: &mut dyn RecordSink) {
    decode_stream(
        StreamConfig {
            seed: 0x7677_2024,
            skip_rate: 0.45,
            inter_rate: 0.8,
            density: 0.55,
            frames_per_unit: 3,
        },
        scale,
        sink,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::traced;
    use bpred_trace::Trace;

    #[test]
    fn zigzag_is_a_permutation_starting_at_dc() {
        let z = zigzag_order();
        assert_eq!(z[0], 0);
        assert_eq!(z[1], 1, "second entry is (0,1)");
        assert_eq!(z[2], 8, "third entry is (1,0)");
        let mut sorted = z.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..COEFFS).collect::<Vec<_>>());
    }

    #[test]
    fn rle_roundtrip_places_levels() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let z = zigzag_order();
        let block = RleBlock {
            pairs: vec![(0, 100), (1, -7)],
        };
        let c = rle_decode(&mut t, &block, &z);
        assert_eq!(c[z[0]], 100);
        assert_eq!(c[z[2]], -7);
        assert_eq!(c.iter().filter(|v| **v != 0).count(), 2);
    }

    #[test]
    fn corrupted_rle_is_truncated_safely() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let z = zigzag_order();
        let block = RleBlock {
            pairs: vec![(5, 1); 30],
        };
        let _ = rle_decode(&mut t, &block, &z); // must not panic
    }

    #[test]
    fn dc_only_block_decodes_flat() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut coeffs = [0i32; COEFFS];
        coeffs[0] = 800;
        let out = idct_2d(&mut t, &coeffs);
        let first = out[0];
        assert!(first > 0);
        assert!(
            out.iter().all(|v| *v == first),
            "DC-only must be flat: {out:?}"
        );
    }

    #[test]
    fn idct_responds_to_ac_energy() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut coeffs = [0i32; COEFFS];
        coeffs[0] = 800;
        coeffs[1] = 400; // horizontal frequency
        let out = idct_2d(&mut t, &coeffs);
        assert_ne!(out[0], out[7], "AC energy must create horizontal variation");
        // Rows should all look the same (no vertical frequency).
        assert_eq!(out[0], out[7 * BLOCK]);
    }

    #[test]
    fn frame_fetch_clamps_at_edges() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut f = Frame::new(8, 8);
        f.pixels[0] = 7;
        f.pixels[63] = 9;
        assert_eq!(f.fetch(&mut t, -3, -3), 7);
        assert_eq!(f.fetch(&mut t, 100, 100), 9);
        assert_eq!(f.fetch(&mut t, 0, 0), 7);
    }

    #[test]
    fn saturation_clamps_both_ends() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        assert_eq!(saturate(&mut t, -5), 0);
        assert_eq!(saturate(&mut t, 300), 255);
        assert_eq!(saturate(&mut t, 128), 128);
    }

    #[test]
    fn players_are_deterministic_and_distinct() {
        let a = traced(trace_mpeg_play, Scale::Smoke);
        assert_eq!(a, traced(trace_mpeg_play, Scale::Smoke));
        let b = traced(trace_video_play, Scale::Smoke);
        assert_ne!(a, b);
        assert!(a.stats().dynamic_conditional > 30_000);
        assert!(b.stats().dynamic_conditional > 30_000);
    }

    #[test]
    fn decoders_are_predictable_workloads() {
        // Figure 4: mpeg_play is among the easiest IBS benchmarks; most
        // of its branches are strongly biased.
        let stats = traced(trace_mpeg_play, Scale::Smoke).stats();
        assert!(
            stats.strongly_biased_fraction() > 0.5,
            "got {:.2}",
            stats.strongly_biased_fraction()
        );
    }
}
