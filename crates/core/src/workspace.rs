//! Reusable per-node scratch for the augmentation drivers.
//!
//! Processing one tree node (Algorithms 4.1/4.3/4.4) needs a handful of
//! transient buffers: the leaf CSR and its dense closure matrix, the
//! separator/boundary vertex lists, the rectangular blocks of the
//! 3-limited product, and the Dijkstra scratch of the sparse-leaf path.
//! The seed allocated all of these fresh at every node; a tree has
//! `O(n / leaf)` nodes, so the allocator sat squarely on the hot path.
//!
//! [`NodeWorkspace`] owns one set of those buffers, and [`WorkspacePool`]
//! recycles workspaces across nodes: a worker takes one off the free
//! list, processes a node (every buffer is reset-on-use, so a dirty
//! workspace is indistinguishable from a fresh one — tested), and puts it
//! back. In steady state a level of the tree allocates nothing but its
//! *outputs* (the interface matrices and `E_t` edge lists).
//!
//! Determinism: buffers never carry information between nodes (reset
//! before use), so which worker gets which workspace cannot affect any
//! result bit. The pool's `Mutex` only orders the free list.

use spsep_baselines::SemiringSsspScratch;
use spsep_graph::dense::SemiMatrix;
use spsep_graph::Semiring;
use std::sync::Mutex;

/// Scratch buffers for processing one tree node. All buffers are
/// reset-on-use; contents between uses are meaningless.
#[derive(Debug)]
pub struct NodeWorkspace<S: Semiring> {
    /// Dense matrix: the leaf closure (`G(t)` for leaves) or `H_S` (for
    /// internal nodes). Owns its own kernel scratch, so repeated
    /// Floyd–Warshall calls are allocation-free too.
    pub(crate) dense: SemiMatrix<S>,
    /// Global ids of the node's separator vertices.
    pub(crate) sep_verts: Vec<u32>,
    /// Global ids of the node's boundary vertices.
    pub(crate) bnd_verts: Vec<u32>,
    /// `R[b][s]` block of the 3-limited product (`B → S`).
    pub(crate) r: Vec<S::W>,
    /// `C[s][b]` block (`S → B`).
    pub(crate) c: Vec<S::W>,
    /// `T = R ⊗ H_S*` intermediate.
    pub(crate) t: Vec<S::W>,
    /// `direct[b][b']` block, accumulated into the `B×B` result.
    pub(crate) direct: Vec<S::W>,
    /// Leaf CSR offsets (`k + 1` entries).
    pub(crate) leaf_off: Vec<u32>,
    /// Leaf CSR targets (local vertex ids).
    pub(crate) leaf_to: Vec<u32>,
    /// Leaf CSR weights.
    pub(crate) leaf_w: Vec<S::W>,
    /// Interface vertices as local leaf indices (the Dijkstra sources).
    pub(crate) sources: Vec<u32>,
    /// Multi-source Dijkstra output rows (`|iface| × k`).
    pub(crate) dist_rows: Vec<S::W>,
    /// Dijkstra labels + heap.
    pub(crate) sssp: SemiringSsspScratch<S>,
}

impl<S: Semiring> Default for NodeWorkspace<S> {
    fn default() -> Self {
        NodeWorkspace {
            dense: SemiMatrix::empty(0),
            sep_verts: Vec::new(),
            bnd_verts: Vec::new(),
            r: Vec::new(),
            c: Vec::new(),
            t: Vec::new(),
            direct: Vec::new(),
            leaf_off: Vec::new(),
            leaf_to: Vec::new(),
            leaf_w: Vec::new(),
            sources: Vec::new(),
            dist_rows: Vec::new(),
            sssp: SemiringSsspScratch::new(),
        }
    }
}

impl<S: Semiring> NodeWorkspace<S> {
    /// Fresh workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes held by all buffers (capacities) — feeds the per-phase
    /// peak-memory accounting.
    pub fn heap_bytes(&self) -> u64 {
        let w = std::mem::size_of::<S::W>();
        let u = std::mem::size_of::<u32>();
        (self.dense.heap_bytes()
            + w * (self.r.capacity()
                + self.c.capacity()
                + self.t.capacity()
                + self.direct.capacity()
                + self.leaf_w.capacity()
                + self.dist_rows.capacity())
            + u * (self.sep_verts.capacity()
                + self.bnd_verts.capacity()
                + self.leaf_off.capacity()
                + self.leaf_to.capacity()
                + self.sources.capacity())
            + self.sssp.heap_bytes()) as u64
    }
}

/// A free list of [`NodeWorkspace`]s shared by the workers of one
/// augmentation run.
#[derive(Debug)]
pub struct WorkspacePool<S: Semiring> {
    free: Mutex<Vec<NodeWorkspace<S>>>,
}

impl<S: Semiring> Default for WorkspacePool<S> {
    fn default() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
        }
    }
}

impl<S: Semiring> WorkspacePool<S> {
    /// Empty pool; workspaces are created on demand and retained on
    /// release.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a workspace off the free list (or create one).
    pub fn acquire(&self) -> NodeWorkspace<S> {
        self.free
            .lock()
            .ok()
            .and_then(|mut f| f.pop())
            .unwrap_or_default()
    }

    /// Return a workspace for reuse.
    pub fn release(&self, ws: NodeWorkspace<S>) {
        if let Ok(mut f) = self.free.lock() {
            f.push(ws);
        }
    }

    /// Total bytes currently parked on the free list. Between levels all
    /// workspaces are released, so this is the pool's real footprint.
    pub fn heap_bytes(&self) -> u64 {
        self.free
            .lock()
            .map(|f| f.iter().map(NodeWorkspace::heap_bytes).sum())
            .unwrap_or(0)
    }

    /// Number of workspaces parked on the free list.
    pub fn idle(&self) -> usize {
        self.free.lock().map(|f| f.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsep_graph::semiring::Tropical;

    #[test]
    fn pool_recycles_workspaces() {
        let pool = WorkspacePool::<Tropical>::new();
        assert_eq!(pool.idle(), 0);
        let mut ws = pool.acquire();
        ws.r.resize(128, 0.0);
        ws.leaf_to.resize(64, 0);
        let bytes = ws.heap_bytes();
        assert!(bytes >= 128 * 8 + 64 * 4);
        pool.release(ws);
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.heap_bytes(), bytes);
        let again = pool.acquire();
        assert!(again.r.capacity() >= 128, "buffers must be recycled");
        assert_eq!(pool.idle(), 0);
    }
}
