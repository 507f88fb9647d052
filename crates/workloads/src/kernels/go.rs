//! `go` (SPEC CINT95 099.go analogue): Monte-Carlo self-play on a real
//! 9x9 Go board with capture logic.
//!
//! The original go benchmark is the paper's hard case: roughly half its
//! dynamic branches are weakly biased (Section 4.4, Figure 8), because
//! position-evaluation branches depend on board data with no stable
//! bias. This kernel reproduces that: stone-colour tests during random
//! playouts are intrinsically close to 50/50, so the weakly-biased class
//! dominates and no de-aliasing scheme can fix it — only longer history
//! helps, which is exactly the paper's conclusion.

use bpred_trace::RecordSink;

use crate::registry::Scale;
use crate::rng::Rng;
use crate::site;
use crate::tracer::Tracer;

const SIZE: usize = 9;
const POINTS: usize = SIZE * SIZE;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Point {
    Empty,
    Black,
    White,
}

#[derive(Debug, Clone)]
struct Board {
    points: [Point; POINTS],
}

impl Board {
    fn new() -> Self {
        Self {
            points: [Point::Empty; POINTS],
        }
    }

    fn neighbours(idx: usize) -> impl Iterator<Item = usize> {
        let (r, c) = (idx / SIZE, idx % SIZE);
        [
            (r > 0).then(|| idx - SIZE),
            (r + 1 < SIZE).then(|| idx + SIZE),
            (c > 0).then(|| idx - 1),
            (c + 1 < SIZE).then(|| idx + 1),
        ]
        .into_iter()
        .flatten()
    }

    /// Flood-fills the group containing `start`, returning its stones
    /// and whether it has at least one liberty. Branch-heavy and
    /// data-dependent: the go workload's signature code path.
    fn group_and_liberty(&self, t: &mut Tracer, start: usize) -> (Vec<usize>, bool) {
        let colour = self.points[start];
        let mut stack = vec![start];
        let mut seen = [false; POINTS];
        seen[start] = true;
        let mut group = Vec::new();
        let mut has_liberty = false;
        while t.branch(site!(), !stack.is_empty()) {
            let p = stack.pop().expect("loop guard ensures non-empty"); // panic-audited: the traced loop guard is !stack.is_empty()
            group.push(p);
            for n in Self::neighbours(p) {
                if t.branch(site!(), self.points[n] == Point::Empty) {
                    has_liberty = true;
                } else if t.branch(site!(), self.points[n] == colour && !seen[n]) {
                    seen[n] = true;
                    stack.push(n);
                }
            }
        }
        (group, has_liberty)
    }

    /// Plays a stone if legal (not suicide); removes captured enemy
    /// groups. Returns whether the move stood.
    fn play(&mut self, t: &mut Tracer, idx: usize, colour: Point) -> bool {
        if t.branch(site!(), self.points[idx] != Point::Empty) {
            return false;
        }
        self.points[idx] = colour;
        let enemy = if colour == Point::Black {
            Point::White
        } else {
            Point::Black
        };
        // Capture adjacent enemy groups with no liberties.
        let mut captured_any = false;
        for n in Self::neighbours(idx) {
            if t.branch(site!(), self.points[n] == enemy) {
                let (group, liberty) = self.group_and_liberty(t, n);
                if t.branch(site!(), !liberty) {
                    captured_any = true;
                    for g in group {
                        self.points[g] = Point::Empty;
                    }
                }
            }
        }
        // Suicide check for our own stone.
        let (own_group, own_liberty) = self.group_and_liberty(t, idx);
        if t.branch(site!(), !own_liberty && !captured_any) {
            for g in own_group {
                self.points[g] = Point::Empty;
            }
            self.points[idx] = Point::Empty;
            return false;
        }
        true
    }

    /// Rough area score for black (stones plus empty points whose
    /// neighbours are all black).
    fn score_black(&self, t: &mut Tracer) -> i32 {
        let mut score = 0;
        for idx in 0..POINTS {
            match self.points[idx] {
                Point::Black => score += 1,
                Point::White => score -= 1,
                Point::Empty => {
                    let mut all_black = true;
                    let mut all_white = true;
                    for n in Self::neighbours(idx) {
                        if t.branch(site!(), self.points[n] != Point::Black) {
                            all_black = false;
                        }
                        if t.branch(site!(), self.points[n] != Point::White) {
                            all_white = false;
                        }
                    }
                    if t.branch(site!(), all_black) {
                        score += 1;
                    } else if t.branch(site!(), all_white) {
                        score -= 1;
                    }
                }
            }
        }
        score
    }
}

/// Matches a library of 3x3 patterns around a just-played point — the
/// pattern-matching code that gives real go engines (and the go
/// benchmark) their thousands of static, data-dependent branches. Each
/// pattern is one fanned-out site whose outcome depends on board data.
const PATTERNS: u32 = 384;
const PATTERNS_PER_BUCKET: u32 = 8;

fn match_patterns(t: &mut Tracer, board: &Board, idx: usize) -> u32 {
    let site = site!();
    // Encode the 8-neighbourhood as 2 bits per point (off-board = 3).
    let (r, c) = (idx / SIZE, idx % SIZE);
    let mut code: u32 = 0;
    for dr in -1i32..=1 {
        for dc in -1i32..=1 {
            if dr == 0 && dc == 0 {
                continue;
            }
            let (nr, nc) = (r as i32 + dr, c as i32 + dc);
            let v = if (0..SIZE as i32).contains(&nr) && (0..SIZE as i32).contains(&nc) {
                match board.points[(nr * SIZE as i32 + nc) as usize] {
                    Point::Empty => 0u32,
                    Point::Black => 1,
                    Point::White => 2,
                }
            } else {
                3
            };
            code = (code << 2) | v;
        }
    }
    // The matcher is bucketed by the neighbourhood code, so only one
    // bucket's patterns execute per move — a large *static* footprint
    // (384 sites, like a real engine's pattern tables) with a small
    // dynamic cost, exactly how generated pattern code behaves.
    let bucket = code % (PATTERNS / PATTERNS_PER_BUCKET);
    let mut hits = 0;
    for j in 0..PATTERNS_PER_BUCKET {
        let k = bucket * PATTERNS_PER_BUCKET + j;
        // Deterministic pseudo-random pattern k: a masked template.
        let h = (u64::from(k) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let template = (h >> 13) as u32 & 0xFFFF;
        let mask = ((h >> 37) as u32 & 0xFFFF) | 0x0003;
        let matched = (code & mask) == (template & mask);
        if t.branch(site.with_index(k), matched) {
            hits += 1;
        }
    }
    hits
}

fn run_playout(t: &mut Tracer, rng: &mut Rng, max_moves: usize) -> i32 {
    let mut board = Board::new();
    let mut colour = Point::Black;
    let mut played = 0usize;
    let mut attempts = 0usize;
    while t.branch(site!(), played < max_moves && attempts < max_moves * 4) {
        attempts += 1;
        let idx = rng.below(POINTS as u64) as usize;
        let stood = board.play(t, idx, colour);
        if t.branch(site!(), stood) {
            played += 1;
            std::hint::black_box(match_patterns(t, &board, idx));
            colour = if colour == Point::Black {
                Point::White
            } else {
                Point::Black
            };
        }
    }
    board.score_black(t)
}

/// Runs the workload at the given scale, pushing each branch record
/// into `sink` as it happens.
pub fn trace(scale: Scale, sink: &mut dyn RecordSink) {
    let mut t = Tracer::new(sink);
    let mut rng = Rng::new(0x60_60);
    let games = 10 * scale.factor();
    let mut total = 0i64;
    for _ in 0..games {
        total += i64::from(run_playout(&mut t, &mut rng, 90));
    }
    // Keep the aggregate alive so the computation cannot be elided.
    std::hint::black_box(total);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::traced;
    use bpred_trace::Trace;

    #[test]
    fn single_stone_capture() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut b = Board::new();
        // Surround the white stone at (1,1) with black.
        assert!(b.play(&mut t, SIZE + 1, Point::White));
        for idx in [1, SIZE, SIZE + 2, 2 * SIZE + 1] {
            assert!(b.play(&mut t, idx, Point::Black));
        }
        assert_eq!(
            b.points[SIZE + 1],
            Point::Empty,
            "white stone must be captured"
        );
    }

    #[test]
    fn suicide_is_rejected() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut b = Board::new();
        // Black surrounds (0,0)'s liberties: (0,1) and (1,0).
        assert!(b.play(&mut t, 1, Point::Black));
        assert!(b.play(&mut t, SIZE, Point::Black));
        // White playing (0,0) is suicide.
        assert!(!b.play(&mut t, 0, Point::White));
        assert_eq!(b.points[0], Point::Empty);
    }

    #[test]
    fn capture_beats_suicide() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut b = Board::new();
        // White at (0,1); black at (0,2),(1,1) leaves white one liberty
        // at (0,0). Black playing (0,0) would itself have no liberties
        // but captures white first, so it stands.
        assert!(b.play(&mut t, 1, Point::White));
        assert!(b.play(&mut t, 2, Point::Black));
        assert!(b.play(&mut t, SIZE + 1, Point::Black));
        assert!(b.play(&mut t, SIZE, Point::Black));
        assert!(b.play(&mut t, 0, Point::Black));
        assert_eq!(b.points[1], Point::Empty, "white must be captured");
        assert_eq!(b.points[0], Point::Black);
    }

    #[test]
    fn occupied_point_is_illegal() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut b = Board::new();
        assert!(b.play(&mut t, 40, Point::Black));
        assert!(!b.play(&mut t, 40, Point::White));
    }

    #[test]
    fn scoring_counts_stones_and_territory() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut b = Board::new();
        b.points[1] = Point::Black;
        b.points[SIZE] = Point::Black;
        // (0,0) is empty with all-black neighbours: black territory.
        assert_eq!(b.score_black(&mut t), 3);
    }

    #[test]
    fn workload_is_weakly_biased_like_the_original() {
        let trace = traced(trace, Scale::Smoke);
        let stats = trace.stats();
        assert!(stats.dynamic_conditional > 20_000);
        // Section 4.4: about half of go's dynamic branches are weakly
        // biased. Require a substantially higher WB share than the
        // loop-dominated workloads exhibit.
        let wb = stats.from_weakly_biased as f64 / stats.dynamic_conditional as f64;
        assert!(
            wb > 0.3,
            "go must be weakly biased, got WB fraction {wb:.2}"
        );
    }

    #[test]
    fn workload_is_deterministic() {
        assert_eq!(traced(trace, Scale::Smoke), traced(trace, Scale::Smoke));
    }
}
