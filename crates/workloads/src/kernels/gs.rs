//! `gs` (IBS-Ultrix Ghostscript analogue): a software rasteriser —
//! scanline polygon fill with an active-edge table, Bresenham line
//! drawing, and rectangle clipping over generated vector scenes.
//!
//! Branch profile: edge-crossing and clip tests are data-dependent on
//! scene geometry (mixed bias), span loops are strongly taken, and the
//! Bresenham error-accumulator branch is the classic ~slope-biased
//! branch.

use bpred_trace::RecordSink;

use crate::registry::Scale;
use crate::rng::Rng;
use crate::site;
use crate::tracer::Tracer;

const WIDTH: i32 = 160;
const HEIGHT: i32 = 120;

#[derive(Debug)]
struct Canvas {
    pixels: Vec<u8>,
}

impl Canvas {
    fn new() -> Self {
        Self {
            pixels: vec![0; (WIDTH * HEIGHT) as usize],
        }
    }

    fn plot(&mut self, t: &mut Tracer, x: i32, y: i32, colour: u8) {
        // Clip test: biased taken for mostly-on-screen scenes.
        if t.branch(site!(), (0..WIDTH).contains(&x) && (0..HEIGHT).contains(&y)) {
            self.pixels[(y * WIDTH + x) as usize] = colour;
        }
    }

    fn ink(&self) -> usize {
        self.pixels.iter().filter(|p| **p != 0).count()
    }
}

/// Bresenham line rasterisation.
fn draw_line(
    t: &mut Tracer,
    c: &mut Canvas,
    mut x0: i32,
    mut y0: i32,
    x1: i32,
    y1: i32,
    colour: u8,
) {
    let dx = (x1 - x0).abs();
    let dy = -(y1 - y0).abs();
    let sx = if x0 < x1 { 1 } else { -1 };
    let sy = if y0 < y1 { 1 } else { -1 };
    let mut err = dx + dy;
    loop {
        c.plot(t, x0, y0, colour);
        if t.branch(site!(), x0 == x1 && y0 == y1) {
            break;
        }
        let e2 = 2 * err;
        // The two error-threshold branches: bias follows the slope.
        if t.branch(site!(), e2 >= dy) {
            err += dy;
            x0 += sx;
        }
        if t.branch(site!(), e2 <= dx) {
            err += dx;
            y0 += sy;
        }
    }
}

/// One polygon edge for the scanline fill.
#[derive(Debug, Clone, Copy)]
struct Edge {
    y_min: i32,
    y_max: i32,
    x_at_y_min: f64,
    inv_slope: f64,
}

/// Scanline polygon fill with an active edge table.
fn fill_polygon(t: &mut Tracer, c: &mut Canvas, points: &[(i32, i32)], colour: u8) {
    if t.branch(site!(), points.len() < 3) {
        return;
    }
    let mut edges = Vec::new();
    for i in 0..points.len() {
        let (x0, y0) = points[i];
        let (x1, y1) = points[(i + 1) % points.len()];
        // Horizontal edges contribute nothing to scanline crossings.
        if t.branch(site!(), y0 == y1) {
            continue;
        }
        let (top, bottom) = if t.branch(site!(), y0 < y1) {
            ((x0, y0), (x1, y1))
        } else {
            ((x1, y1), (x0, y0))
        };
        edges.push(Edge {
            y_min: top.1,
            y_max: bottom.1,
            x_at_y_min: f64::from(top.0),
            inv_slope: f64::from(bottom.0 - top.0) / f64::from(bottom.1 - top.1),
        });
    }
    let y_lo = edges.iter().map(|e| e.y_min).min().unwrap_or(0).max(0);
    let y_hi = edges
        .iter()
        .map(|e| e.y_max)
        .max()
        .unwrap_or(0)
        .min(HEIGHT - 1);

    let mut y = y_lo;
    while t.branch(site!(), y <= y_hi) {
        // Gather crossings of this scanline. The active test is fanned
        // out by scanline band, modelling the specialised span code of a
        // real rasteriser (a wide static footprint, same dynamic count).
        let active_site = site!();
        let mut xs: Vec<f64> = Vec::new();
        for e in &edges {
            // Active test: y_min <= y < y_max (half-open avoids double
            // counting shared vertices).
            if t.branch(
                active_site.with_index((y % 24) as u32),
                e.y_min <= y && y < e.y_max,
            ) {
                xs.push(e.x_at_y_min + e.inv_slope * f64::from(y - e.y_min));
            }
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("crossings are finite")); // panic-audited: edge crossings are finite coordinate arithmetic, never NaN
                                                                            // Fill between crossing pairs.
        let mut i = 0;
        while t.branch(site!(), i + 1 < xs.len()) {
            let start = xs[i].ceil() as i32;
            let end = xs[i + 1].floor() as i32;
            let mut x = start;
            while t.branch(site!(), x <= end) {
                c.plot(t, x, y, colour);
                x += 1;
            }
            i += 2;
        }
        y += 1;
    }
}

/// Cohen–Sutherland style rectangle pre-clip decision for lines.
fn trivially_rejected(t: &mut Tracer, x0: i32, y0: i32, x1: i32, y1: i32) -> bool {
    let code = |x: i32, y: i32| -> u8 {
        let mut c = 0;
        if x < 0 {
            c |= 1;
        }
        if x >= WIDTH {
            c |= 2;
        }
        if y < 0 {
            c |= 4;
        }
        if y >= HEIGHT {
            c |= 8;
        }
        c
    };
    t.branch(site!(), code(x0, y0) & code(x1, y1) != 0)
}

fn random_polygon(rng: &mut Rng, vertices: usize) -> Vec<(i32, i32)> {
    let cx = rng.range(10, (WIDTH - 10) as u64) as i32;
    let cy = rng.range(10, (HEIGHT - 10) as u64) as i32;
    let r = rng.range(4, 40) as i32;
    (0..vertices)
        .map(|i| {
            let angle = (i as f64 / vertices as f64) * std::f64::consts::TAU;
            let jitter = rng.range(0, 8) as i32;
            (
                cx + ((r + jitter) as f64 * angle.cos()) as i32,
                cy + ((r + jitter) as f64 * angle.sin()) as i32,
            )
        })
        .collect()
}

/// Runs the workload at the given scale, pushing each branch record
/// into `sink` as it happens.
pub fn trace(scale: Scale, sink: &mut dyn RecordSink) {
    let mut t = Tracer::new(sink);
    let mut rng = Rng::new(0x6057);
    let pages = 2 * scale.factor();
    for _ in 0..pages {
        let mut canvas = Canvas::new();
        for _ in 0..70 {
            if t.branch(site!(), rng.chance(0.55)) {
                let vertices = 3 + rng.below(6) as usize;
                let poly = random_polygon(&mut rng, vertices);
                fill_polygon(&mut t, &mut canvas, &poly, 1 + rng.below(254) as u8);
            } else {
                // Lines, deliberately sometimes off-screen to exercise
                // clipping.
                let (x0, y0) = (rng.range(0, 220) as i32 - 30, rng.range(0, 180) as i32 - 30);
                let (x1, y1) = (rng.range(0, 220) as i32 - 30, rng.range(0, 180) as i32 - 30);
                if !trivially_rejected(&mut t, x0, y0, x1, y1) {
                    draw_line(&mut t, &mut canvas, x0, y0, x1, y1, 255);
                }
            }
        }
        std::hint::black_box(canvas.ink());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::traced;
    use bpred_trace::Trace;

    #[test]
    fn horizontal_line_is_contiguous() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut c = Canvas::new();
        draw_line(&mut t, &mut c, 10, 5, 20, 5, 9);
        for x in 10..=20 {
            assert_eq!(c.pixels[(5 * WIDTH + x) as usize], 9);
        }
        assert_eq!(c.ink(), 11);
    }

    #[test]
    fn diagonal_line_has_expected_extent() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut c = Canvas::new();
        draw_line(&mut t, &mut c, 0, 0, 10, 10, 7);
        assert_eq!(c.pixels[0], 7);
        assert_eq!(c.pixels[(10 * WIDTH + 10) as usize], 7);
        assert_eq!(c.ink(), 11);
    }

    #[test]
    fn offscreen_plots_are_clipped() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut c = Canvas::new();
        draw_line(&mut t, &mut c, -5, -5, 3, 3, 7);
        assert!(c.ink() <= 4);
    }

    #[test]
    fn rectangle_fill_covers_interior() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut c = Canvas::new();
        fill_polygon(&mut t, &mut c, &[(10, 10), (30, 10), (30, 20), (10, 20)], 5);
        // Interior point.
        assert_eq!(c.pixels[(15 * WIDTH + 20) as usize], 5);
        // Outside point.
        assert_eq!(c.pixels[(15 * WIDTH + 40) as usize], 0);
        // Roughly 21x10 pixels.
        let ink = c.ink();
        assert!((180..=240).contains(&ink), "got {ink}");
    }

    #[test]
    fn triangle_fill_respects_edges() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut c = Canvas::new();
        fill_polygon(&mut t, &mut c, &[(10, 10), (50, 10), (10, 50)], 3);
        assert_eq!(
            c.pixels[(12 * WIDTH + 12) as usize],
            3,
            "near the right angle"
        );
        assert_eq!(
            c.pixels[(45 * WIDTH + 45) as usize],
            0,
            "beyond the hypotenuse"
        );
    }

    #[test]
    fn degenerate_polygon_is_ignored() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut c = Canvas::new();
        fill_polygon(&mut t, &mut c, &[(1, 1), (2, 2)], 9);
        assert_eq!(c.ink(), 0);
    }

    #[test]
    fn trivial_rejection_matches_geometry() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        assert!(trivially_rejected(&mut t, -10, 5, -2, 8), "fully left");
        assert!(
            !trivially_rejected(&mut t, -10, 5, 10, 8),
            "crosses the boundary"
        );
        assert!(!trivially_rejected(&mut t, 5, 5, 20, 20), "fully inside");
    }

    #[test]
    fn workload_shape() {
        let trace = traced(trace, Scale::Smoke);
        assert!(trace.stats().dynamic_conditional > 30_000);
        assert_eq!(trace, traced(super::trace, Scale::Smoke));
    }
}
