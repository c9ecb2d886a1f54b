//! The Section 3.2 phase schedule for Bellman–Ford on `G⁺`.
//!
//! Theorem 3.1's proof shows every distance is realized in `G⁺` by a path
//! of the form
//!
//! ```text
//! entry: ≤ l arcs of E │ bitonic-level section │ exit: ≤ l arcs of E
//! ```
//!
//! where the levels of the middle section first do not increase and then
//! do not decrease, with at most two consecutive equal levels. The entry
//! part ends at the path's first vertex of defined level, so each of its
//! arcs leaves a level-∞ vertex; the exit part starts at the last such
//! vertex, so each of its arcs enters a level-∞ vertex; the middle never
//! touches a level-∞ vertex (the confinement lemma, DESIGN.md §5). It
//! therefore suffices to run `2l + 4·d_G + 1` Bellman–Ford phases that
//! each scan only the edge class the structure can use next:
//!
//! * `l` phases over the *entry* bucket: arcs of `E` whose source has
//!   level ∞;
//! * descending phases `i = 1 … 2d_G+1`: odd `i` scans *same-level* edges
//!   at level `d_G − (i−1)/2`, even `i` scans *down* edges leaving level
//!   `d_G − i/2 + 1`;
//! * ascending phases `i = 1 … 2d_G`: odd `i` scans *up* edges leaving
//!   level `(i−1)/2`, even `i` scans same-level edges at level `i/2`;
//! * `l` phases over the *exit* bucket: arcs of `E` whose target has
//!   level ∞.
//!
//! (The published text's even-descending formula is OCR-garbled; we use
//! the mirror image of the ascending rule — see DESIGN.md §5 — and tests
//! verify equivalence with exhaustive Bellman–Ford on `G⁺`.)
//!
//! Each phase is organized for exclusive-read/exclusive-write execution:
//! a bucket stores its arcs grouped by target, plus the distinct source
//! list; a phase gathers source distances into a scratch vector and then
//! reduces each target group independently. Work per source is
//! `O(l·|E_∞| + |E ∪ E⁺|)`, where `E_∞ ⊆ E` are the arcs with a level-∞
//! endpoint — at most the `O(l·|E| + |E ∪ E⁺|)` bound of Section 3.2.

use rayon::prelude::*;
use spsep_graph::slab::Pod;
use spsep_graph::{Edge, Semiring, Store};
use spsep_pram::{Counter, Metrics};
use spsep_separator::UNDEFINED_LEVEL;

/// One per-target reduction group: arcs
/// `arcs[start..end]` all enter `target`.
///
/// `#[repr(C)]` with three `u32` fields (size 12, no padding) so a
/// bucket's group array can be borrowed straight out of a
/// `spsep-oracle/v2` snapshot slab.
#[repr(C)]
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Group {
    /// Target vertex of every arc in the group.
    pub target: u32,
    /// First arc index (into the bucket's arc array).
    pub start: u32,
    /// One past the last arc index.
    pub end: u32,
}

// SAFETY: #[repr(C)] { u32, u32, u32 } — size 12, align 4, no padding;
// any bit pattern is a valid (if semantically wrong) value. Semantic
// validation happens in `crate::iov2`.
unsafe impl Pod for Group {}

/// One relaxation arc: `source_slot` indexes the bucket's source list,
/// `edge_id` the augmented edge list (for parent tracking), `w` the
/// weight.
///
/// `#[repr(C)]`: for `W = f64` the layout is offsets 0/4/8, size 16,
/// align 8, no padding — snapshot-borrowable like [`Group`].
#[repr(C)]
#[derive(Copy, Clone, Debug)]
pub struct ArcRec<W> {
    /// Index into the bucket's distinct-source list.
    pub slot: u32,
    /// Augmented edge id (`E` then `E⁺`).
    pub id: u32,
    /// Arc weight.
    pub w: W,
}

// SAFETY: #[repr(C)] { u32, u32, f64 } — offsets 0, 4, 8; size 16,
// align 8, no padding; all bit patterns valid (NaN weights are caught
// by semantic validation, not layout).
unsafe impl Pod for ArcRec<f64> {}

/// One scannable edge class, grouped by target vertex.
///
/// Storage is [`Store`]-backed: owned when compiled in-process, a
/// borrowed snapshot slab when reconstituted from `spsep-oracle/v2`.
#[derive(Clone, Debug)]
pub struct Bucket<W: Copy> {
    /// Distinct source vertices of this bucket's arcs (sorted).
    pub(crate) sources: Store<u32>,
    /// Arcs grouped per target, targets in separator-rank order.
    pub(crate) groups: Store<Group>,
    /// The arcs; `groups` partitions this array.
    pub(crate) arcs: Store<ArcRec<W>>,
}

impl<W: Copy> Bucket<W> {
    /// Build a bucket from `(from, to, edge_id, w)` arcs.
    ///
    /// `rank` is the separator-locality [`spsep_graph::NodeOrder`] rank
    /// array: target groups are laid out (and hence processed) in rank
    /// order, so one phase walks memory in separator-tree order instead
    /// of input-id order. The combine order *within* a target group is
    /// `(from, edge id)` — independent of `rank` — so per-target
    /// candidate sequences, and therefore answers and parent pointers,
    /// are identical for every choice of order (the order is purely a
    /// layout decision).
    ///
    /// Linear passes: a dense vertex → slot map for the source list, a
    /// counting sort by target rank, and a short sort by `(from, edge
    /// id)` within each target.
    fn build(raw: Vec<(u32, u32, u32, W)>, rank: &[u32]) -> Bucket<W> {
        let n = rank.len();
        let Some(&(_, _, _, w0)) = raw.first() else {
            return Bucket {
                sources: Vec::new().into(),
                groups: Vec::new().into(),
                arcs: Vec::new().into(),
            };
        };
        // Distinct sources in id order, and each one's slot. Slots follow
        // source ids, so ordering arcs by `(slot, id)` orders them by
        // `(from, id)`.
        const ABSENT: u32 = u32::MAX;
        let mut slot_of = vec![ABSENT; n];
        for &(f, _, _, _) in &raw {
            slot_of[f as usize] = 0;
        }
        let mut sources: Vec<u32> = Vec::new();
        for (v, slot) in slot_of.iter_mut().enumerate() {
            if *slot != ABSENT {
                *slot = sources.len() as u32;
                sources.push(v as u32);
            }
        }

        // Counting sort by target rank: start[r]..start[r + 1] receives
        // the arcs entering target_at[r], the vertex of rank r.
        let mut start = vec![0usize; n + 1];
        let mut target_at = vec![ABSENT; n];
        for &(_, t, _, _) in &raw {
            let r = rank[t as usize] as usize;
            start[r + 1] += 1;
            target_at[r] = t;
        }
        for r in 0..n {
            start[r + 1] += start[r];
        }
        let fill = ArcRec {
            slot: 0,
            id: 0,
            w: w0,
        };
        let mut arcs = vec![fill; raw.len()];
        let mut next = start[..n].to_vec();
        for &(f, t, id, w) in &raw {
            let at = &mut next[rank[t as usize] as usize];
            arcs[*at] = ArcRec {
                slot: slot_of[f as usize],
                id,
                w,
            };
            *at += 1;
        }

        let mut groups = Vec::new();
        for r in 0..n {
            let (lo, hi) = (start[r], start[r + 1]);
            if lo < hi {
                arcs[lo..hi].sort_unstable_by_key(|a| (a.slot, a.id));
                groups.push(Group {
                    target: target_at[r],
                    start: lo as u32,
                    end: hi as u32,
                });
            }
        }
        Bucket {
            sources: sources.into(),
            groups: groups.into(),
            arcs: arcs.into(),
        }
    }

    /// Number of arcs in this bucket.
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// `true` if the bucket has no arcs.
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }

    /// The distinct source vertices (sorted by id).
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// The per-target groups, in separator-rank order.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// The arc array partitioned by [`Bucket::groups`].
    pub fn arcs(&self) -> &[ArcRec<W>] {
        &self.arcs
    }
}

/// The compiled phase schedule over `G⁺`.
#[derive(Clone, Debug)]
pub struct Schedule<S: Semiring> {
    pub(crate) n: usize,
    pub(crate) buckets: Vec<Bucket<S::W>>,
    /// Bucket index per phase, in execution order.
    pub(crate) sequence: Store<u32>,
    pub(crate) max_sources: usize,
    pub(crate) total_phases: usize,
}

/// Classify an augmented edge by the level relation of its endpoints.
fn classify(l1: u32, l2: u32, d_g: u32) -> Option<usize> {
    // Bucket layout: for λ in 0..=d_g — Same(λ)=3λ, Down(λ)=3λ+1, Up(λ)=3λ+2.
    if l1 == UNDEFINED_LEVEL || l2 == UNDEFINED_LEVEL {
        return None; // only reachable through the entry/exit phases
    }
    debug_assert!(l1 <= d_g && l2 <= d_g);
    let slot = match l1.cmp(&l2) {
        std::cmp::Ordering::Equal => 3 * l1,
        std::cmp::Ordering::Greater => 3 * l1 + 1, // down edge, leaves level l1
        std::cmp::Ordering::Less => 3 * l1 + 2,    // up edge, leaves level l1
    };
    Some(slot as usize)
}

impl<S: Semiring> Schedule<S> {
    /// Compile the schedule from the original edges, the shortcut set, the
    /// per-vertex levels, the tree height `d_g`, the leaf bound `l`, and a
    /// vertex rank array (`rank[v]` = memory-locality position of `v`,
    /// typically `spsep_separator::separator_locality_order`; pass the
    /// identity to keep input order). The rank only affects bucket
    /// layout, never answers — see [`Bucket`].
    pub fn compile(
        n: usize,
        base: &[Edge<S::W>],
        eplus: &[Edge<S::W>],
        levels: &[u32],
        d_g: u32,
        l: usize,
        rank: &[u32],
    ) -> Schedule<S> {
        debug_assert_eq!(rank.len(), n);
        // Raw arcs per level bucket (3 per level), then the entry and
        // exit buckets. Edge ids: base edges are 0..|E|, shortcuts follow.
        // An arc of `E` with a level-∞ endpoint lands in the entry and/or
        // exit bucket; shortcut endpoints always have defined levels.
        debug_assert!(eplus.iter().all(|e| {
            levels[e.from as usize] != UNDEFINED_LEVEL && levels[e.to as usize] != UNDEFINED_LEVEL
        }));
        let level_buckets = 3 * (d_g as usize + 1);
        let (entry, exit) = (level_buckets, level_buckets + 1);
        let route = |e: &Edge<S::W>| {
            let (lf, lt) = (levels[e.from as usize], levels[e.to as usize]);
            [
                (lf == UNDEFINED_LEVEL).then_some(entry),
                (lt == UNDEFINED_LEVEL).then_some(exit),
                classify(lf, lt, d_g),
            ]
            .into_iter()
            .flatten()
        };
        let mut sizes = vec![0usize; level_buckets + 2];
        for e in base.iter().chain(eplus) {
            for b in route(e) {
                sizes[b] += 1;
            }
        }
        type RawArcs<W> = Vec<Vec<(u32, u32, u32, W)>>;
        let mut raw: RawArcs<S::W> = sizes.iter().map(|&len| Vec::with_capacity(len)).collect();
        for (id, e) in base.iter().chain(eplus).enumerate() {
            for b in route(e) {
                raw[b].push((e.from, e.to, id as u32, e.w));
            }
        }
        let buckets: Vec<Bucket<S::W>> = raw
            .par_iter_mut()
            .map(|r| Bucket::build(std::mem::take(r), rank))
            .collect();

        // Phase sequence.
        let mut sequence: Vec<u32> = Vec::new();
        let push = |b: usize, seq: &mut Vec<u32>| {
            if !buckets[b].is_empty() {
                seq.push(b as u32);
            }
        };
        for _ in 0..l {
            push(entry, &mut sequence);
        }
        // Descending: i = 1..=2d_g+1.
        for i in 1..=(2 * d_g as usize + 1) {
            if i % 2 == 1 {
                let lam = d_g as usize - (i - 1) / 2;
                push(3 * lam, &mut sequence); // Same(λ)
            } else {
                let lam = d_g as usize - i / 2 + 1;
                push(3 * lam + 1, &mut sequence); // Down(λ)
            }
        }
        // Ascending: i = 1..=2d_g.
        for i in 1..=(2 * d_g as usize) {
            if i % 2 == 1 {
                let lam = (i - 1) / 2;
                push(3 * lam + 2, &mut sequence); // Up(λ)
            } else {
                let lam = i / 2;
                push(3 * lam, &mut sequence); // Same(λ)
            }
        }
        for _ in 0..l {
            push(exit, &mut sequence);
        }
        let max_sources = buckets.iter().map(|b| b.sources.len()).max().unwrap_or(0);
        let total_phases = 2 * l + 4 * d_g as usize + 1;
        Schedule {
            n,
            buckets,
            sequence: sequence.into(),
            max_sources,
            total_phases,
        }
    }

    /// The compiled buckets (level classes, then the entry and exit
    /// buckets), exposed for serialization and inspection.
    pub fn buckets(&self) -> &[Bucket<S::W>] {
        &self.buckets
    }

    /// The phase sequence (bucket index per phase, empty buckets
    /// elided).
    pub fn sequence(&self) -> &[u32] {
        &self.sequence
    }

    /// Largest distinct-source count over all buckets (the scratch
    /// gather width).
    pub fn max_sources(&self) -> usize {
        self.max_sources
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Nominal phase count `2l + 4·d_G + 1` (empty phases are elided from
    /// the compiled sequence).
    pub fn total_phases(&self) -> usize {
        self.total_phases
    }

    /// Arcs scanned over one full schedule execution (the per-source work
    /// bound, up to the `O(1)` gather overhead).
    pub fn arcs_per_run(&self) -> u64 {
        self.sequence
            .iter()
            .map(|&b| self.buckets[b as usize].len() as u64)
            .sum()
    }

    /// Run the schedule from `source`, sequentially. Returns the distance
    /// vector and the number of relaxations performed.
    pub fn run_seq(&self, source: usize) -> (Vec<S::W>, u64) {
        let mut init = vec![S::zero(); self.n];
        init[source] = S::one();
        self.run_seq_init(init)
    }

    /// Run the schedule from an arbitrary initial label vector
    /// (multi-source shortest paths: the result at `v` is the
    /// `combine` over all `u` of `init[u] ⊗ dist(u, v)`; min-plus
    /// linearity makes the single-source phase argument apply per
    /// source).
    pub fn run_seq_init(&self, mut dist: Vec<S::W>) -> (Vec<S::W>, u64) {
        assert_eq!(dist.len(), self.n);
        let mut scratch: Vec<S::W> = vec![S::zero(); self.max_sources];
        let mut relaxations = 0u64;
        for &bi in self.sequence.iter() {
            let bucket = &self.buckets[bi as usize];
            for (slot, &src) in bucket.sources.iter().enumerate() {
                scratch[slot] = dist[src as usize];
            }
            for &Group { target, start, end } in bucket.groups.iter() {
                let mut best = dist[target as usize];
                for a in &bucket.arcs[start as usize..end as usize] {
                    let sv = scratch[a.slot as usize];
                    if S::is_zero(sv) {
                        continue;
                    }
                    best = S::combine(best, S::extend(sv, a.w));
                }
                dist[target as usize] = best;
            }
            relaxations += bucket.len() as u64;
        }
        (dist, relaxations)
    }

    /// Run the schedule from `source` tracking, for every vertex, the
    /// **augmented edge** (id into `E` followed by `E⁺`) that last
    /// improved it — parent pointers over `G⁺`, from which
    /// [`crate::explain`] reconstructs the Theorem 3.1 path shape.
    pub fn run_seq_parents(&self, source: usize) -> (Vec<S::W>, Vec<u32>) {
        let mut dist = vec![S::zero(); self.n];
        let mut parent = vec![u32::MAX; self.n];
        dist[source] = S::one();
        let mut scratch: Vec<S::W> = vec![S::zero(); self.max_sources];
        for &bi in self.sequence.iter() {
            let bucket = &self.buckets[bi as usize];
            for (slot, &src) in bucket.sources.iter().enumerate() {
                scratch[slot] = dist[src as usize];
            }
            for &Group { target, start, end } in bucket.groups.iter() {
                let mut best = dist[target as usize];
                let mut best_edge = u32::MAX;
                for a in &bucket.arcs[start as usize..end as usize] {
                    let sv = scratch[a.slot as usize];
                    if S::is_zero(sv) {
                        continue;
                    }
                    let cand = S::extend(sv, a.w);
                    let merged = S::combine(best, cand);
                    if merged != best {
                        best = merged;
                        best_edge = a.id;
                    }
                }
                if best_edge != u32::MAX {
                    dist[target as usize] = best;
                    parent[target as usize] = best_edge;
                }
            }
        }
        (dist, parent)
    }

    /// Run the schedule from `source` with phase-parallel execution
    /// (rayon), charging work and depth to `metrics`.
    pub fn run_parallel(&self, source: usize, metrics: &Metrics) -> Vec<S::W> {
        use rayon::prelude::*;
        let mut dist = vec![S::zero(); self.n];
        dist[source] = S::one();
        let mut scratch: Vec<S::W> = vec![S::zero(); self.max_sources];
        for &bi in self.sequence.iter() {
            let bucket = &self.buckets[bi as usize];
            metrics.phase(bucket.groups.len().max(1));
            metrics.work(Counter::Relaxation, bucket.len() as u64);
            // Gather (exclusive-read: each slot reads one dist entry).
            scratch[..bucket.sources.len()]
                .par_iter_mut()
                .enumerate()
                .for_each(|(slot, s)| {
                    *s = dist[bucket.sources[slot] as usize];
                });
            // Reduce per target (exclusive-write: targets are distinct).
            let updates: Vec<(u32, S::W)> = bucket
                .groups
                .as_slice()
                .par_iter()
                .filter_map(|&Group { target, start, end }| {
                    let mut best = dist[target as usize];
                    let mut any = false;
                    for a in &bucket.arcs[start as usize..end as usize] {
                        let sv = scratch[a.slot as usize];
                        if S::is_zero(sv) {
                            continue;
                        }
                        let cand = S::extend(sv, a.w);
                        let merged = S::combine(best, cand);
                        if merged != best {
                            best = merged;
                            any = true;
                        }
                    }
                    any.then_some((target, best))
                })
                .collect();
            for (target, best) in updates {
                dist[target as usize] = best;
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsep_graph::semiring::Tropical;

    fn idrank(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    /// The comparator form of [`Bucket::build`]: one sort by
    /// `(rank[to], from, id)` and a binary search per arc for its slot.
    fn build_by_sorting(mut raw: Vec<(u32, u32, u32, f64)>, rank: &[u32]) -> Bucket<f64> {
        raw.sort_unstable_by_key(|&(f, t, id, _)| (rank[t as usize], f, id));
        let mut sources: Vec<u32> = raw.iter().map(|a| a.0).collect();
        sources.sort_unstable();
        sources.dedup();
        let mut groups: Vec<Group> = Vec::new();
        let mut arcs = Vec::new();
        for (i, &(f, t, id, w)) in raw.iter().enumerate() {
            match groups.last_mut() {
                Some(g) if g.target == t => g.end += 1,
                _ => groups.push(Group {
                    target: t,
                    start: i as u32,
                    end: i as u32 + 1,
                }),
            }
            let slot = sources.binary_search(&f).unwrap() as u32;
            arcs.push(ArcRec { slot, id, w });
        }
        Bucket {
            sources: sources.into(),
            groups: groups.into(),
            arcs: arcs.into(),
        }
    }

    #[test]
    fn bucket_build_equals_comparator_sort() {
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        for seed in 0..40u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.gen_range(1..25usize);
            let mut rank: Vec<u32> = (0..n as u32).collect();
            rank.shuffle(&mut rng);
            // Unique ids, repeated (from, to) pairs, input not in id order.
            let mut raw: Vec<(u32, u32, u32, f64)> = (0..rng.gen_range(0..80u32))
                .map(|id| {
                    let f = rng.gen_range(0..n as u32);
                    let t = rng.gen_range(0..n as u32);
                    (f, t, id, rng.gen_range(0..4) as f64)
                })
                .collect();
            raw.shuffle(&mut rng);
            let want = build_by_sorting(raw.clone(), &rank);
            let got = Bucket::build(raw, &rank);
            assert_eq!(got.sources(), want.sources(), "seed {seed}");
            assert_eq!(got.groups(), want.groups(), "seed {seed}");
            let key = |a: &ArcRec<f64>| (a.slot, a.id, a.w.to_bits());
            let got_arcs: Vec<_> = got.arcs().iter().map(key).collect();
            let want_arcs: Vec<_> = want.arcs().iter().map(key).collect();
            assert_eq!(got_arcs, want_arcs, "seed {seed}");
        }
    }

    #[test]
    fn bucket_groups_by_target() {
        let b = Bucket::build(
            vec![
                (0u32, 2u32, 0u32, 1.0f64),
                (1, 2, 1, 2.0),
                (0, 3, 2, 4.0),
                (1, 3, 3, 0.5),
            ],
            &idrank(4),
        );
        assert_eq!(b.sources(), &[0, 1]);
        assert_eq!(b.groups().len(), 2);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn bucket_rank_reorders_groups_but_not_answers() {
        let raw = vec![(0u32, 1u32, 0u32, 1.0f64), (0, 2, 1, 2.0), (1, 2, 2, 0.5)];
        // Identity rank: targets in id order 1, 2.
        let a = Bucket::build(raw.clone(), &idrank(3));
        let ta: Vec<u32> = a.groups().iter().map(|g| g.target).collect();
        assert_eq!(ta, vec![1, 2]);
        // Reversed rank: target 2 first.
        let b = Bucket::build(raw, &[2, 1, 0]);
        let tb: Vec<u32> = b.groups().iter().map(|g| g.target).collect();
        assert_eq!(tb, vec![2, 1]);
        // Per-target arc order (by from, then id) is identical.
        for g in a.groups() {
            let gb = b
                .groups()
                .iter()
                .find(|h| h.target == g.target)
                .expect("same targets");
            let arcs_a: Vec<(u32, u32)> = a.arcs()[g.start as usize..g.end as usize]
                .iter()
                .map(|r| (a.sources()[r.slot as usize], r.id))
                .collect();
            let arcs_b: Vec<(u32, u32)> = b.arcs()[gb.start as usize..gb.end as usize]
                .iter()
                .map(|r| (b.sources()[r.slot as usize], r.id))
                .collect();
            assert_eq!(arcs_a, arcs_b);
        }
    }

    #[test]
    fn classify_levels() {
        let d_g = 3;
        assert_eq!(classify(2, 2, d_g), Some(6));
        assert_eq!(classify(2, 1, d_g), Some(7));
        assert_eq!(classify(2, 3, d_g), Some(8));
        assert_eq!(classify(u32::MAX, 1, d_g), None);
        assert_eq!(classify(0, u32::MAX, d_g), None);
    }

    #[test]
    fn trivial_schedule_runs() {
        // Path 0→1→2 inside a single leaf: every vertex has level ∞, so
        // the entry and exit buckets are all of E and the schedule
        // reduces to 2l rounds of plain Bellman–Ford.
        let base = vec![Edge::new(0usize, 1usize, 1.0f64), Edge::new(1, 2, 2.0)];
        let levels = vec![UNDEFINED_LEVEL; 3];
        let sched = Schedule::<Tropical>::compile(3, &base, &[], &levels, 0, 2, &idrank(3));
        let (dist, relax) = sched.run_seq(0);
        assert_eq!(dist, vec![0.0, 1.0, 3.0]);
        assert!(relax > 0);
    }

    #[test]
    fn parents_agree_with_plain_run() {
        let base = vec![
            Edge::new(0usize, 1usize, 1.0f64),
            Edge::new(1, 2, 2.0),
            Edge::new(0, 2, 10.0),
        ];
        let levels = vec![UNDEFINED_LEVEL; 3];
        let sched = Schedule::<Tropical>::compile(3, &base, &[], &levels, 0, 3, &idrank(3));
        let (d0, _) = sched.run_seq(0);
        let (d1, parents) = sched.run_seq_parents(0);
        assert_eq!(d0, d1);
        // Vertex 2's best parent is edge id 1 (1→2, total 3 < 10).
        assert_eq!(parents[2], 1);
        assert_eq!(parents[1], 0);
        assert_eq!(parents[0], u32::MAX);
    }

    #[test]
    fn schedule_sequence_order_is_bitonic() {
        // With d_g = 1 and l = 1 the nominal sequence is:
        // Entry | Same(1) Down(1) Same(0) | Up(0) Same(1) | Exit.
        // Vertex 2 has level ∞: 2→0 is an entry arc, 1→2 an exit arc.
        let base = vec![
            Edge::new(0usize, 1usize, 1.0f64), // levels 1→0: Down(1)
            Edge::new(2, 0, 1.0),
            Edge::new(1, 2, 1.0),
        ];
        let eplus = vec![
            Edge::new(0usize, 1usize, 5.0f64), // levels 1→0: Down(1)
            Edge::new(1, 0, 5.0),              // 0→1: Up(0)
        ];
        let levels = vec![1u32, 0, UNDEFINED_LEVEL];
        let sched = Schedule::<Tropical>::compile(3, &base, &eplus, &levels, 1, 1, &idrank(3));
        assert_eq!(sched.total_phases(), 2 + 4 + 1);
        // Compiled sequence drops empty buckets; check relative order:
        // Entry(=6), Down(1)(=4), Up(0)(=2), Exit(=7).
        assert_eq!(sched.sequence(), &[6, 4, 2, 7]);
    }

    /// Edge ids held by a bucket, sorted.
    fn bucket_ids(b: &Bucket<f64>) -> Vec<u32> {
        let mut ids: Vec<u32> = b.arcs().iter().map(|a| a.id).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn entry_and_exit_buckets_hold_exactly_the_level_infinity_arcs() {
        use rand::SeedableRng;
        use spsep_separator::{builders, RecursionLimits};
        let dims = [9usize, 11];
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        let (g, _) = spsep_graph::generators::grid(&dims, &mut rng);
        let limits = RecursionLimits {
            leaf_size: 12,
            ..RecursionLimits::default()
        };
        let tree = builders::grid_tree(&dims, limits);
        let pre = crate::preprocess::<Tropical>(
            &g,
            &tree,
            crate::Algorithm::LeavesUp,
            &spsep_pram::Metrics::new(),
        )
        .unwrap();
        let sched = pre.schedule();
        let levels = pre.levels();
        let d_g = pre.stats().d_g as usize;
        let l = pre.stats().leaf_bound as u64;
        let level_buckets = 3 * (d_g + 1);
        assert_eq!(sched.buckets().len(), level_buckets + 2);

        let edges = g.edges();
        let ids_where = |keep: &dyn Fn(&Edge<f64>) -> bool| -> Vec<u32> {
            (0..edges.len() as u32)
                .filter(|&id| keep(&edges[id as usize]))
                .collect()
        };
        let entry = ids_where(&|e| levels[e.from as usize] == UNDEFINED_LEVEL);
        let exit = ids_where(&|e| levels[e.to as usize] == UNDEFINED_LEVEL);
        assert!(!entry.is_empty() && entry.len() < edges.len());
        assert!(!exit.is_empty() && exit.len() < edges.len());
        assert_eq!(bucket_ids(&sched.buckets()[level_buckets]), entry);
        assert_eq!(bucket_ids(&sched.buckets()[level_buckets + 1]), exit);
        // No level bucket holds an arc touching a level-∞ vertex.
        for b in &sched.buckets()[..level_buckets] {
            for &id in &bucket_ids(b) {
                let e = &pre.augmented_edges()[id as usize];
                assert!(
                    levels[e.from as usize] != UNDEFINED_LEVEL
                        && levels[e.to as usize] != UNDEFINED_LEVEL
                );
            }
        }

        // Never more work than the all-of-E entry/exit schedule:
        // 2l·|E| plus the arcs of the level phases.
        let level_arcs: u64 = sched
            .sequence()
            .iter()
            .filter(|&&b| (b as usize) < level_buckets)
            .map(|&b| sched.buckets()[b as usize].len() as u64)
            .sum();
        let all_of_e = 2 * l * edges.len() as u64 + level_arcs;
        assert!(sched.arcs_per_run() <= all_of_e);
        assert_eq!(
            sched.arcs_per_run(),
            l * (entry.len() + exit.len()) as u64 + level_arcs
        );
    }
}
