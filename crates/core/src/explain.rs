//! Explanations: exhibit the Theorem 3.1 path that realizes a distance.
//!
//! For a pair `(u, v)`, the scheduled Bellman–Ford with parent tracking
//! yields a path **in `G⁺`** from `u` to `v` of the promised shape:
//!
//! ```text
//! entry: ≤ l original edges │ bitonic shortcut section │ exit: ≤ l original edges
//! ```
//!
//! The entry hops leave level-∞ vertices and the exit hops enter them;
//! the middle section touches none (the schedule's entry and exit
//! buckets hold exactly those arcs — DESIGN.md §5). So the middle
//! section is the witness's run of defined-level vertices.
//!
//! [`Explanation`] carries the hop sequence with each hop's kind
//! (original edge vs `E⁺` shortcut) and level, reports bitonicity of
//! the defined-level middle section, and the size bound
//! `4·d_G + 2l + 1`. Useful for debugging decompositions, teaching the
//! algorithm, and as an executable witness of the theorem.
//!
//! # Exactness caveat
//!
//! Under an **exact** semiring (e.g. [`spsep_graph::semiring::TropicalInt`])
//! the witness provably has ≤ one hop per phase, hence ≤ `4·d_G + 2l + 1`
//! hops with a bitonic middle — the test suite asserts this on random
//! integer-weight graphs. Under floating point, ulp-sized
//! "improvements" from re-associated sums can update a vertex in a late
//! phase and scramble the *recorded* phase timeline, so the path is
//! still optimal and tight but its shape flags are reported, not
//! guaranteed.

use crate::query::Preprocessed;
use crate::shortcuts;
use spsep_graph::Semiring;

/// One hop of an explanation.
#[derive(Clone, Debug)]
pub struct Hop<W> {
    /// Source vertex of the hop.
    pub from: u32,
    /// Target vertex of the hop.
    pub to: u32,
    /// Hop weight.
    pub w: W,
    /// `true` if the hop is an `E⁺` shortcut (vs an original edge).
    pub shortcut: bool,
    /// `level(to)` (`u32::MAX` = undefined).
    pub level_to: u32,
}

/// A distance witness: the `G⁺` path found by the scheduled engine.
#[derive(Clone, Debug)]
pub struct Explanation<W> {
    /// The realized distance.
    pub weight: W,
    /// Hops from source to target.
    pub hops: Vec<Hop<W>>,
    /// Whether the defined-level section of the hop sequence is bitonic
    /// (nonincreasing then nondecreasing).
    pub bitonic: bool,
    /// The Theorem 3.1 size bound `4·d_G + 2l + 1` for this instance.
    pub size_bound: usize,
}

impl<W: Copy + std::fmt::Debug> Explanation<W> {
    /// Vertex sequence of the witness path.
    pub fn vertices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.hops.len() + 1);
        if let Some(first) = self.hops.first() {
            out.push(first.from);
        }
        out.extend(self.hops.iter().map(|h| h.to));
        out
    }

    /// Render a human-readable trace.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        // Writes into a String are infallible.
        let _ = writeln!(
            out,
            "weight {:?} via {} hops (bound {}), bitonic section: {}",
            self.weight,
            self.hops.len(),
            self.size_bound,
            self.bitonic
        );
        for h in &self.hops {
            let _ = writeln!(
                out,
                "  {} →{} {}  w={:?}  level(to)={}",
                h.from,
                if h.shortcut { "⁺" } else { " " },
                h.to,
                h.w,
                if h.level_to == u32::MAX {
                    "∞".to_string()
                } else {
                    h.level_to.to_string()
                }
            );
        }
        out
    }
}

/// Produce the Theorem 3.1 witness path for `(source, target)` — `None`
/// if the target is unreachable.
pub fn explain<S: Semiring>(
    pre: &Preprocessed<S>,
    source: usize,
    target: usize,
) -> Option<Explanation<S::W>> {
    let (dist, parent) = pre.schedule().run_seq_parents(source);
    if S::is_zero(dist[target]) && source != target {
        return None;
    }
    // Walk parents back from the target.
    let edges = pre.augmented_edges();
    let base_m = pre.base_edge_count();
    let mut hops_rev: Vec<Hop<S::W>> = Vec::new();
    let mut cur = target;
    let mut guard = 0usize;
    while cur != source {
        let eid = parent[cur];
        if eid == u32::MAX {
            return None; // target got its value only from the init
        }
        let e = &edges[eid as usize];
        hops_rev.push(Hop {
            from: e.from,
            to: e.to,
            w: e.w,
            shortcut: eid as usize >= base_m,
            level_to: pre.levels()[e.to as usize],
        });
        cur = e.from as usize;
        guard += 1;
        if guard > edges.len() {
            return None; // defensive: corrupted parents
        }
    }
    hops_rev.reverse();
    let hops = hops_rev;
    let stats = pre.stats();
    // Bitonicity of the *middle* section: its vertices are exactly the
    // defined-level ones, since entry hops leave level-∞ vertices and
    // exit hops enter them. Vertex levels = source level followed by
    // each hop's to-level.
    let middle: Vec<u32> = std::iter::once(pre.levels()[source])
        .chain(hops.iter().map(|h| h.level_to))
        .filter(|&x| x != u32::MAX)
        .collect();
    Some(Explanation {
        weight: dist[target],
        bitonic: shortcuts::is_bitonic_relaxed(&middle),
        size_bound: 4 * stats.d_g as usize + 2 * stats.leaf_bound + 1,
        hops,
    })
}
