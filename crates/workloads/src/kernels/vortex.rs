//! `vortex` (SPEC CINT95 147.vortex analogue): an in-memory object
//! database — hash index, sorted secondary index with binary search,
//! and a skewed transaction mix.
//!
//! vortex is the paper's most predictable benchmark (1–6% misprediction
//! in Figure 3): its branches are dominated by strongly biased
//! validity/hit checks on a database where lookups overwhelmingly hit.
//! The kernel reproduces that with a Zipf-skewed, hit-heavy operation
//! mix.

use bpred_trace::RecordSink;

use crate::registry::Scale;
use crate::rng::Rng;
use crate::site;
use crate::tracer::Tracer;

/// A stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Object {
    id: u64,
    kind: u8,
    payload: [u32; 4],
    live: bool,
}

/// Open-addressing hash index plus a sorted id list as secondary index.
#[derive(Debug)]
struct Database {
    slots: Vec<Option<Object>>,
    sorted_ids: Vec<u64>,
    live: usize,
}

const KINDS: u8 = 7;

impl Database {
    fn new(capacity_log2: u32) -> Self {
        Self {
            slots: vec![None; 1 << capacity_log2],
            sorted_ids: Vec::new(),
            live: 0,
        }
    }

    fn mask(&self) -> u64 {
        self.slots.len() as u64 - 1
    }

    fn hash(id: u64) -> u64 {
        id.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_right(17)
    }

    /// Linear-probe lookup. The probe-collision branch is biased
    /// not-taken at a sane load factor — vortex's hot path.
    fn find_slot(&self, t: &mut Tracer, id: u64) -> (usize, bool) {
        let mut idx = (Self::hash(id) & self.mask()) as usize;
        loop {
            let empty = self.slots[idx].is_none();
            if t.branch(site!(), empty) {
                return (idx, false);
            }
            let obj = self.slots[idx].as_ref().expect("checked via branch"); // panic-audited: the traced branch above returned on empty slots
            if t.branch(site!(), obj.id == id) {
                return (idx, obj.live);
            }
            idx = (idx + 1) & self.mask() as usize;
        }
    }

    /// Per-kind schema validation: vortex's wide static footprint comes
    /// from object-schema code expanded per type; one site family per
    /// kind models it.
    fn validate_schema(t: &mut Tracer, obj: &Object) {
        // Only the object's own kind's validation block executes — the
        // per-type expanded schema code that gives vortex its wide
        // static footprint without inflating the dynamic count.
        let field_check = site!();
        for (f, v) in obj.payload.iter().enumerate() {
            // Field-range checks, biased taken.
            t.branch(
                field_check.with_index(u32::from(obj.kind) * 4 + f as u32),
                *v != u32::MAX,
            );
        }
    }

    /// Per-relation access check on a lookup hit: models the expanded
    /// accessor code of each of vortex's many object relations.
    fn relation_check(t: &mut Tracer, obj: &Object) {
        let relation = site!();
        t.branch(relation.with_index((obj.id % 97) as u32), obj.live);
    }

    fn insert(&mut self, t: &mut Tracer, obj: Object) -> bool {
        assert!(self.live * 2 < self.slots.len(), "load factor exceeded");
        Self::validate_schema(t, &obj);
        let (idx, exists) = self.find_slot(t, obj.id);
        if t.branch(site!(), exists) {
            return false; // duplicate id
        }
        let id = obj.id;
        // Tombstone reuse vs fresh slot.
        if t.branch(site!(), self.slots[idx].is_some()) {
            self.slots[idx] = Some(obj);
        } else {
            self.slots[idx] = Some(obj);
            // Maintain the sorted secondary index by insertion point.
            let pos = self.lower_bound(t, id);
            self.sorted_ids.insert(pos, id);
        }
        self.live += 1;
        true
    }

    /// Traced binary search in the secondary index.
    fn lower_bound(&self, t: &mut Tracer, id: u64) -> usize {
        let mut lo = 0;
        let mut hi = self.sorted_ids.len();
        while t.branch(site!(), lo < hi) {
            let mid = (lo + hi) / 2;
            if t.branch(site!(), self.sorted_ids[mid] < id) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn lookup(&self, t: &mut Tracer, id: u64) -> Option<&Object> {
        let (idx, live) = self.find_slot(t, id);
        if t.branch(site!(), live) {
            let obj = self.slots[idx].as_ref();
            if let Some(o) = obj {
                Self::relation_check(t, o);
            }
            obj
        } else {
            None
        }
    }

    fn update(&mut self, t: &mut Tracer, id: u64, field: usize, value: u32) -> bool {
        let (idx, live) = self.find_slot(t, id);
        if t.branch(site!(), live) {
            let obj = self.slots[idx].as_mut().expect("live slot is occupied"); // panic-audited: find_slot returned live, so the slot is occupied
                                                                                // Field-validity check, biased taken.
            if t.branch(site!(), field < obj.payload.len()) {
                obj.payload[field] = value;
                return true;
            }
        }
        false
    }

    fn delete(&mut self, t: &mut Tracer, id: u64) -> bool {
        let (idx, live) = self.find_slot(t, id);
        if t.branch(site!(), live) {
            // Tombstone: keep the chain intact for probing.
            self.slots[idx]
                .as_mut()
                .expect("live slot is occupied") // panic-audited: find_slot returned live, so the slot is occupied
                .live = false;
            self.live -= 1;
            true
        } else {
            false
        }
    }

    /// Range scan over the secondary index, validating against the hash
    /// index (vortex's integrity-check style).
    fn range_scan(&self, t: &mut Tracer, from: u64, limit: usize) -> u32 {
        let mut pos = self.lower_bound(t, from);
        let mut checked = 0u32;
        let mut visited = 0;
        while t.branch(site!(), pos < self.sorted_ids.len() && visited < limit) {
            let id = self.sorted_ids[pos];
            if t.branch(site!(), self.lookup_quiet(id)) {
                checked += 1;
            }
            pos += 1;
            visited += 1;
        }
        checked
    }

    /// Untraced existence check used inside scans (the scan loop itself
    /// carries the interesting branches).
    fn lookup_quiet(&self, id: u64) -> bool {
        let mut idx = (Self::hash(id) & self.mask()) as usize;
        loop {
            match &self.slots[idx] {
                None => return false,
                Some(o) if o.id == id => return o.live,
                Some(_) => idx = (idx + 1) & self.mask() as usize,
            }
        }
    }
}

/// Runs the workload at the given scale, pushing each branch record
/// into `sink` as it happens.
pub fn trace(scale: Scale, sink: &mut dyn RecordSink) {
    let mut t = Tracer::new(sink);
    let mut rng = Rng::new(0x0043_EE75);
    // Sized so the live-set stays below a 50% load factor even at
    // Scale::Full's insert volume.
    let mut db = Database::new(18);
    let mut next_id: u64 = 1;
    let mut issued: Vec<u64> = Vec::new();

    // Warm the database.
    for _ in 0..2000 {
        let obj = Object {
            id: next_id,
            kind: (next_id % u64::from(KINDS)) as u8,
            payload: [rng.next_u64() as u32; 4],
            live: true,
        };
        issued.push(next_id);
        next_id += 1;
        db.insert(&mut t, obj);
    }

    // Transactions follow a scripted, repeating schedule (as the real
    // benchmark's driver does): 70% lookup, 15% update, 8% insert, 5%
    // delete, 2% range scan, interleaved in a fixed cycle. The schedule
    // itself is therefore predictable; the data dependence stays in the
    // per-operation branches.
    const SCHEDULE: [u8; 100] = {
        let mut s = [0u8; 100];
        let mut i = 0;
        while i < 100 {
            // 0 = lookup, 1 = update, 2 = insert, 3 = delete, 4 = scan.
            s[i] = match i % 20 {
                3 | 8 | 13 => 1,
                6 | 16 => 2,
                11 => 3,
                19 if i == 99 => 4,
                _ => 0,
            };
            i += 1;
        }
        s[39] = 3; // second delete per 100
        s[59] = 4; // second scan per 100
        s[79] = 2; // extra inserts to reach 8%
        s[89] = 2;
        s[93] = 2;
        s[97] = 2;
        s
    };
    // The dispatch itself is driver/harness control flow, not benchmark
    // code, so it is not traced; only the operations' own branches are.
    let transactions = 9_000 * scale.factor();
    for txn in 0..transactions {
        let op = SCHEDULE[(txn % 100) as usize];
        if op == 0 {
            // Zipf over issued ids: hot objects dominate, mostly hits.
            let id = issued[rng.zipf(issued.len())];
            let hit = db.lookup(&mut t, id).is_some();
            std::hint::black_box(hit);
        } else if op == 1 {
            let id = issued[rng.zipf(issued.len())];
            // Field references are occasionally (3%) out of schema.
            let field = if rng.chance(0.03) {
                4
            } else {
                rng.below(4) as usize
            };
            db.update(&mut t, id, field, rng.next_u64() as u32);
        } else if op == 2 {
            let obj = Object {
                id: next_id,
                kind: (next_id % u64::from(KINDS)) as u8,
                payload: [rng.next_u64() as u32; 4],
                live: true,
            };
            issued.push(next_id);
            next_id += 1;
            db.insert(&mut t, obj);
        } else if op == 3 {
            let id = issued[rng.zipf(issued.len())];
            db.delete(&mut t, id);
        } else {
            let from = rng.below(next_id);
            db.range_scan(&mut t, from, 24);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::traced;
    use bpred_trace::Trace;

    fn obj(id: u64) -> Object {
        Object {
            id,
            kind: (id % 7) as u8,
            payload: [id as u32; 4],
            live: true,
        }
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut db = Database::new(8);
        assert!(db.insert(&mut t, obj(42)));
        assert_eq!(db.lookup(&mut t, 42).map(|o| o.id), Some(42));
        assert!(db.lookup(&mut t, 43).is_none());
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut db = Database::new(8);
        assert!(db.insert(&mut t, obj(1)));
        assert!(!db.insert(&mut t, obj(1)));
        assert_eq!(db.live, 1);
    }

    #[test]
    fn delete_leaves_probing_intact() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut db = Database::new(4);
        // Force a probe chain by inserting many ids into 16 slots.
        for id in 1..=7 {
            assert!(db.insert(&mut t, obj(id)));
        }
        assert!(db.delete(&mut t, 3));
        assert!(db.lookup(&mut t, 3).is_none());
        // All others still reachable through any tombstones.
        for id in [1, 2, 4, 5, 6, 7] {
            assert!(db.lookup(&mut t, id).is_some(), "id {id} lost after delete");
        }
    }

    #[test]
    fn update_changes_fields_and_validates() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut db = Database::new(8);
        db.insert(&mut t, obj(5));
        assert!(db.update(&mut t, 5, 2, 999));
        assert_eq!(db.lookup(&mut t, 5).unwrap().payload[2], 999);
        assert!(!db.update(&mut t, 5, 4, 1), "out-of-range field");
        assert!(!db.update(&mut t, 6, 0, 1), "missing object");
    }

    #[test]
    fn secondary_index_stays_sorted() {
        let mut sink = Trace::default();
        let mut t = Tracer::new(&mut sink);
        let mut db = Database::new(8);
        for id in [5u64, 1, 9, 3, 7] {
            db.insert(&mut t, obj(id));
        }
        assert_eq!(db.sorted_ids, vec![1, 3, 5, 7, 9]);
        assert_eq!(db.range_scan(&mut t, 3, 10), 4);
        db.delete(&mut t, 5);
        assert_eq!(db.range_scan(&mut t, 0, 10), 4, "scan validates liveness");
    }

    #[test]
    fn workload_is_strongly_biased_like_vortex() {
        let trace = traced(trace, Scale::Smoke);
        let stats = trace.stats();
        assert!(stats.dynamic_conditional > 30_000);
        assert!(
            stats.strongly_biased_fraction() > 0.5,
            "vortex should be dominated by biased branches, got {:.2}",
            stats.strongly_biased_fraction()
        );
        assert_eq!(trace, traced(super::trace, Scale::Smoke));
    }
}
