//! Label-setting (Dijkstra-style) single- and multi-source search over an
//! arbitrary **selective** [`Semiring`], on a caller-provided CSR.
//!
//! This is the sparse-leaf engine of the augmentation (`spsep-core` calls
//! it when a leaf subgraph has `m = O(k)` edges, where dense
//! Floyd–Warshall would pay `k³` for `O(|iface| · m log k)` worth of
//! information). It is deliberately allocation-light: callers hand in the
//! CSR arrays *and* the `dist`/`heap` scratch, so a workspace can run
//! thousands of leaves with zero steady-state allocation.
//!
//! ## Validity
//!
//! Label-setting is only correct when settled labels are final, which
//! needs two properties the caller must guarantee (`spsep-core` gates on
//! them before choosing this path):
//!
//! * the semiring is *selective* ([`Semiring::is_selective`]) — `combine`
//!   picks one operand under a total preorder, so "best label first" is
//!   meaningful;
//! * every edge weight is **non-improving**: `extend`ing a path by the
//!   edge never beats the path itself (`!better(extend(d, w), d)`, e.g.
//!   `w ≥ 0` under the tropical semiring, `p ≤ 1` under reliability).
//!
//! ## Determinism
//!
//! The heap breaks weight ties by vertex id, and equal-weight label
//! updates keep the incumbent (`better`, not `combine`, guards the
//! relaxation), so the result — already unique as a value — is computed
//! through an identical comparison sequence regardless of edge order
//! perturbations upstream, and contains no thread-count dependence at
//! all (each source is scanned sequentially).

use spsep_graph::semiring::Semiring;

/// Reusable scratch for [`sssp_semiring_csr`]: the distance labels and
/// the binary heap. `dist` doubles as the output.
#[derive(Debug)]
pub struct SemiringSsspScratch<S: Semiring> {
    /// Labels; after a run, `dist[v]` is the best path weight source → `v`
    /// (`0̄` if unreachable).
    pub dist: Vec<S::W>,
    heap: Vec<(S::W, u32)>,
}

impl<S: Semiring> Default for SemiringSsspScratch<S> {
    fn default() -> Self {
        SemiringSsspScratch {
            dist: Vec::new(),
            heap: Vec::new(),
        }
    }
}

impl<S: Semiring> SemiringSsspScratch<S> {
    /// Fresh scratch; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes held by the scratch buffers (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.dist.capacity() * std::mem::size_of::<S::W>()
            + self.heap.capacity() * std::mem::size_of::<(S::W, u32)>()
    }
}

/// `a` strictly precedes `b` in the heap order: better weight first,
/// vertex id as the deterministic tie-break.
#[inline]
fn heap_before<S: Semiring>(a: &(S::W, u32), b: &(S::W, u32)) -> bool {
    S::better(a.0, b.0) || (!S::better(b.0, a.0) && a.1 < b.1)
}

fn heap_push<S: Semiring>(heap: &mut Vec<(S::W, u32)>, item: (S::W, u32)) {
    heap.push(item);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap_before::<S>(&heap[i], &heap[parent]) {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn heap_pop<S: Semiring>(heap: &mut Vec<(S::W, u32)>) -> Option<(S::W, u32)> {
    let last = heap.len().checked_sub(1)?;
    heap.swap(0, last);
    let top = heap.pop();
    let mut i = 0;
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut best = i;
        if l < heap.len() && heap_before::<S>(&heap[l], &heap[best]) {
            best = l;
        }
        if r < heap.len() && heap_before::<S>(&heap[r], &heap[best]) {
            best = r;
        }
        if best == i {
            break;
        }
        heap.swap(i, best);
        i = best;
    }
    top
}

/// Dijkstra from `source` over the CSR `(offsets, targets, weights)` with
/// `offsets.len() - 1` vertices. Labels land in `scratch.dist`; returns
/// the number of label operations (pops + edge relaxations) for the PRAM
/// cost model. See the module docs for the validity preconditions.
pub fn sssp_semiring_csr<S: Semiring>(
    offsets: &[u32],
    targets: &[u32],
    weights: &[S::W],
    source: u32,
    scratch: &mut SemiringSsspScratch<S>,
) -> u64 {
    let n = offsets.len().saturating_sub(1);
    scratch.dist.clear();
    scratch.dist.resize(n, S::zero());
    scratch.heap.clear();
    if n == 0 {
        return 0;
    }
    let mut ops = 0u64;
    scratch.dist[source as usize] = S::one();
    heap_push::<S>(&mut scratch.heap, (S::one(), source));
    while let Some((d, v)) = heap_pop::<S>(&mut scratch.heap) {
        ops += 1;
        // Stale entry: the label improved after this push.
        if S::better(scratch.dist[v as usize], d) {
            continue;
        }
        let (lo, hi) = (
            offsets[v as usize] as usize,
            offsets[v as usize + 1] as usize,
        );
        for (&u, &w) in targets[lo..hi].iter().zip(&weights[lo..hi]) {
            ops += 1;
            let cand = S::extend(d, w);
            if S::better(cand, scratch.dist[u as usize]) {
                scratch.dist[u as usize] = cand;
                heap_push::<S>(&mut scratch.heap, (cand, u));
            }
        }
    }
    ops
}

/// Multi-source convenience wrapper: one sequential Dijkstra per source,
/// rows concatenated in source order into `out` (`|sources| × n`,
/// row-major). Returns total label operations.
pub fn sssp_semiring_multi<S: Semiring>(
    offsets: &[u32],
    targets: &[u32],
    weights: &[S::W],
    sources: &[u32],
    out: &mut Vec<S::W>,
    scratch: &mut SemiringSsspScratch<S>,
) -> u64 {
    let n = offsets.len().saturating_sub(1);
    out.clear();
    out.reserve(sources.len() * n);
    let mut ops = 0;
    for &s in sources {
        ops += sssp_semiring_csr::<S>(offsets, targets, weights, s, scratch);
        out.extend_from_slice(&scratch.dist);
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsep_graph::semiring::{Boolean, Reliability, Tropical};

    /// CSR of: 0→1 (1.0), 0→2 (4.0), 1→2 (2.0), 2→3 (1.0), 3→1 (7.0).
    fn csr_f64() -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        (
            vec![0, 2, 3, 4, 5],
            vec![1, 2, 2, 3, 1],
            vec![1.0, 4.0, 2.0, 1.0, 7.0],
        )
    }

    #[test]
    fn tropical_matches_hand_computed() {
        let (off, to, w) = csr_f64();
        let mut scratch = SemiringSsspScratch::<Tropical>::new();
        let ops = sssp_semiring_csr::<Tropical>(&off, &to, &w, 0, &mut scratch);
        assert_eq!(scratch.dist, vec![0.0, 1.0, 3.0, 4.0]);
        assert!(ops > 0);
    }

    #[test]
    fn unreachable_is_zero() {
        let off = vec![0, 1, 1, 1];
        let to = vec![1];
        let w = vec![2.0];
        let mut scratch = SemiringSsspScratch::<Tropical>::new();
        sssp_semiring_csr::<Tropical>(&off, &to, &w, 0, &mut scratch);
        assert_eq!(scratch.dist, vec![0.0, 2.0, f64::INFINITY]);
    }

    #[test]
    fn boolean_reachability() {
        let (off, to, w) = csr_f64();
        let wb: Vec<bool> = w.iter().map(|_| true).collect();
        let mut scratch = SemiringSsspScratch::<Boolean>::new();
        sssp_semiring_csr::<Boolean>(&off, &to, &wb, 1, &mut scratch);
        assert_eq!(scratch.dist, vec![false, true, true, true]);
    }

    #[test]
    fn reliability_prefers_products() {
        // 0→1 direct p=.5; 0→2 p=.9, 2→1 p=.9 ⇒ .81 beats .5.
        let off = vec![0, 2, 2, 3];
        let to = vec![1, 2, 1];
        let w = vec![0.5, 0.9, 0.9];
        let mut scratch = SemiringSsspScratch::<Reliability>::new();
        sssp_semiring_csr::<Reliability>(&off, &to, &w, 0, &mut scratch);
        assert!((scratch.dist[1] - 0.81).abs() < 1e-12);
    }

    #[test]
    fn multi_source_rows_in_order() {
        let (off, to, w) = csr_f64();
        let mut scratch = SemiringSsspScratch::<Tropical>::new();
        let mut out = Vec::new();
        sssp_semiring_multi::<Tropical>(&off, &to, &w, &[2, 0], &mut out, &mut scratch);
        assert_eq!(out.len(), 8);
        assert_eq!(&out[..4], &[f64::INFINITY, 8.0, 0.0, 1.0]);
        assert_eq!(&out[4..], &[0.0, 1.0, 3.0, 4.0]);
    }

    #[test]
    fn matches_f64_dijkstra_on_a_digraph() {
        // Cross-check against the concrete f64 baseline on a small graph.
        use spsep_graph::{DiGraph, Edge};
        let g = DiGraph::from_edges(
            5,
            vec![
                Edge::new(0, 1, 2.0),
                Edge::new(1, 2, 2.5),
                Edge::new(2, 0, 1.0),
                Edge::new(0, 3, 9.0),
                Edge::new(2, 3, 0.5),
                Edge::new(3, 4, 1.0),
                Edge::new(4, 1, 0.25),
            ],
        );
        // Build CSR in the same edge order the DiGraph exposes.
        let mut off = vec![0u32];
        let mut to = Vec::new();
        let mut w = Vec::new();
        for v in 0..5usize {
            for e in g.out_edges(v) {
                to.push(e.to);
                w.push(e.w);
            }
            off.push(to.len() as u32);
        }
        let mut scratch = SemiringSsspScratch::<Tropical>::new();
        for s in 0..5 {
            sssp_semiring_csr::<Tropical>(&off, &to, &w, s, &mut scratch);
            let oracle = crate::dijkstra(&g, s as usize).dist;
            for (v, &want) in oracle.iter().enumerate().take(5) {
                assert_eq!(
                    scratch.dist[v].to_bits(),
                    want.to_bits(),
                    "source {s} vertex {v}"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_leaves_no_state_behind() {
        let (off, to, w) = csr_f64();
        let mut scratch = SemiringSsspScratch::<Tropical>::new();
        sssp_semiring_csr::<Tropical>(&off, &to, &w, 3, &mut scratch);
        let first = scratch.dist.clone();
        // Dirty the scratch with a different graph, then rerun.
        sssp_semiring_csr::<Tropical>(&[0, 1, 1], &[1], &[5.0], 0, &mut scratch);
        sssp_semiring_csr::<Tropical>(&off, &to, &w, 3, &mut scratch);
        assert_eq!(first, scratch.dist);
    }
}
