//! Planar separator decompositions and the planar instance generators.
//!
//! The paper's planar results (Section 6) assume a `k^{1/2}`-separator
//! decomposition computed by Gazit–Miller; the classical mechanism behind
//! all such algorithms is Lipton–Tarjan's: BFS levels around the median
//! level are thin, and where a band between two levels stays large, some
//! non-tree edge of a spanning tree `T` closes a cycle `C` (tree path +
//! the edge) of length `|C| ≤ 2·height(T) + 1` that splits it.
//!
//! * [`planar_level_tree`] — that mechanism without an embedding: two thin
//!   BFS levels bracket the median level, and when the middle band stays
//!   too large, a balance-optimal fundamental cycle of a BFS spanning tree
//!   splits it (sides computed by connected components, so no face list
//!   is needed and imported graphs qualify);
//! * [`certify_near_planar`] — the necessary-condition certificate
//!   (`m ≤ 3n − 6` and 5-degeneracy) that lets the CLI auto-select the
//!   planar builder for road-network inputs;
//! * [`separator_quality`] — the one shared implementation of the
//!   separator-tree quality numbers (max `|S|`, the measured `c` in
//!   `|S(t)| ≤ c·√|V(t)|`, balance, height) used by both the CLI and
//!   the E23 bench, so the c·√n claim is checked by exactly one piece
//!   of math.
//!
//! Two generators produce planar instances together with their embedding
//! as a face list ([`Triangulation`]): [`triangulated_grid`], a mesh
//! family (grid + diagonals) with `Θ(√n)` BFS height, and
//! [`road_network`], the committed road-style instance (a jittered
//! triangulated lattice with travel-time weights).

use crate::engine::{decompose, RecursionLimits, Separation, SubProblem};
use crate::tree::SepTree;
use rand::Rng;
use spsep_graph::generators::Coords;
use spsep_graph::{DiGraph, Edge};
use std::collections::HashMap;

/// A planar triangulation given by its internal faces (CCW triples of
/// vertex ids). The outer face is implicit.
#[derive(Clone, Debug)]
pub struct Triangulation {
    /// Number of vertices.
    pub n: usize,
    /// Internal faces.
    pub faces: Vec<[u32; 3]>,
}

impl Triangulation {
    /// Undirected adjacency derived from the faces.
    pub fn adjacency(&self) -> Vec<Vec<u32>> {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); self.n];
        for f in &self.faces {
            for i in 0..3 {
                let (a, b) = (f[i], f[(i + 1) % 3]);
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        adj
    }

    /// Sanity check: every face references valid vertices; every edge is
    /// shared by at most two faces.
    pub fn validate(&self) -> Result<(), String> {
        let mut edge_count: HashMap<(u32, u32), usize> = HashMap::new();
        for (fi, f) in self.faces.iter().enumerate() {
            if f[0] == f[1] || f[1] == f[2] || f[0] == f[2] {
                return Err(format!("face {fi} is degenerate"));
            }
            for &v in f {
                if v as usize >= self.n {
                    return Err(format!("face {fi}: vertex {v} out of range"));
                }
            }
            for i in 0..3 {
                let (a, b) = (f[i].min(f[(i + 1) % 3]), f[i].max(f[(i + 1) % 3]));
                *edge_count.entry((a, b)).or_insert(0) += 1;
            }
        }
        for ((a, b), c) in edge_count {
            if c > 2 {
                return Err(format!("edge {a}–{b} in {c} faces"));
            }
        }
        Ok(())
    }
}

/// A `w × h` grid with one diagonal per cell: a planar triangulation
/// family with `Θ(√n)` BFS height. Directed edge weights uniform in
/// `[1, 2)`; the diagonal orientation alternates to avoid degenerate
/// long chords.
pub fn triangulated_grid(w: usize, h: usize, rng: &mut impl Rng) -> (DiGraph<f64>, Triangulation) {
    assert!(w >= 2 && h >= 2);
    let n = w * h;
    let id = |r: usize, c: usize| (r * w + c) as u32;
    let mut faces = Vec::with_capacity(2 * (w - 1) * (h - 1));
    for r in 0..h - 1 {
        for c in 0..w - 1 {
            let (a, b, d, e) = (id(r, c), id(r, c + 1), id(r + 1, c), id(r + 1, c + 1));
            if (r + c) % 2 == 0 {
                faces.push([a, b, e]);
                faces.push([a, e, d]);
            } else {
                faces.push([a, b, d]);
                faces.push([b, e, d]);
            }
        }
    }
    let tri = Triangulation { n, faces };
    let adj = tri.adjacency();
    let mut edges = Vec::new();
    for (v, neigh) in adj.iter().enumerate() {
        for &u in neigh {
            if (u as usize) > v {
                edges.push(Edge::new(v, u as usize, rng.gen_range(1.0..2.0)));
                edges.push(Edge::new(u as usize, v, rng.gen_range(1.0..2.0)));
            }
        }
    }
    (DiGraph::from_edges(n, edges), tri)
}

/// Tree path `a → lca → b` as a vertex list (local ids), i.e. the
/// fundamental cycle of non-tree edge `(a, b)` minus the closing edge.
fn fundamental_cycle(a: u32, b: u32, parent: &[u32], depth: &[u32]) -> Vec<u32> {
    let (mut x, mut y) = (a, b);
    let mut left = vec![x];
    let mut right = vec![y];
    while depth[x as usize] > depth[y as usize] {
        x = parent[x as usize];
        left.push(x);
    }
    while depth[y as usize] > depth[x as usize] {
        y = parent[y as usize];
        right.push(y);
    }
    while x != y {
        x = parent[x as usize];
        y = parent[y as usize];
        left.push(x);
        right.push(y);
    }
    right.pop(); // lca counted once
    left.extend(right.into_iter().rev());
    left
}

/// One xorshift64 step: the deterministic stream behind [`road_network`].
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

// ---------------------------------------------------------------------------
// Road-style instance generator (graph + coordinates + embedding)
// ---------------------------------------------------------------------------

/// Spacing of the arterial (fast) rows/columns in [`road_network`].
const ARTERIAL_EVERY: usize = 8;

/// Deterministic road-style test instance: a jittered `w × h` lattice
/// (cell pitch 100 m) in which every cell is closed by one
/// pseudo-randomly oriented diagonal — a triangulated irregular network.
/// Every undirected edge becomes two arcs with independent travel-time
/// weights derived from Euclidean length, a road-class speed profile
/// (every `ARTERIAL_EVERY`-th row/column is an arterial at ~1.8× the
/// residential speed), and per-direction congestion jitter; weights are
/// rounded to 0.1 so the DIMACS text form stays compact while still
/// round-tripping bit-exactly.
///
/// Returns the digraph, the vertex coordinates (meters), and the face
/// list of the (planar by construction) embedding. Everything is a pure
/// function of `(w, h, seed)`, so the committed `data/` instance can be
/// regenerated and diffed byte-for-byte.
pub fn road_network(w: usize, h: usize, seed: u64) -> (DiGraph<f64>, Coords, Triangulation) {
    assert!(
        w >= 2 && h >= 2,
        "road_network needs at least a 2×2 lattice"
    );
    let n = w * h;
    let mut state = seed ^ 0x9e3779b97f4a7c15;
    // Warm the xorshift state so small seeds decorrelate.
    for _ in 0..4 {
        xorshift(&mut state);
    }
    let unit = |state: &mut u64| (xorshift(state) >> 11) as f64 / (1u64 << 53) as f64;
    // Jittered embedding: grid point (r, c) at ~100 m pitch, ±30 m noise.
    let mut coords = Vec::with_capacity(n * 2);
    for r in 0..h {
        for c in 0..w {
            coords.push(c as f64 * 100.0 + (unit(&mut state) - 0.5) * 60.0);
            coords.push(r as f64 * 100.0 + (unit(&mut state) - 0.5) * 60.0);
        }
    }
    let coords = Coords::new(2, coords);
    let id = |r: usize, c: usize| (r * w + c) as u32;
    let mut faces = Vec::with_capacity(2 * (w - 1) * (h - 1));
    for r in 0..h - 1 {
        for c in 0..w - 1 {
            let (a, b, d, e) = (id(r, c), id(r, c + 1), id(r + 1, c), id(r + 1, c + 1));
            if xorshift(&mut state) & 1 == 0 {
                faces.push([a, b, e]);
                faces.push([a, e, d]);
            } else {
                faces.push([a, b, d]);
                faces.push([b, e, d]);
            }
        }
    }
    let tri = Triangulation { n, faces };
    let adj = tri.adjacency();
    let arterial = |v: u32| {
        let (r, c) = (v as usize / w, v as usize % w);
        r % ARTERIAL_EVERY == 0 || c % ARTERIAL_EVERY == 0
    };
    let mut edges = Vec::new();
    for (v, neigh) in adj.iter().enumerate() {
        let p = coords.point(v);
        for &u in neigh {
            if (u as usize) <= v {
                continue;
            }
            let q = coords.point(u as usize);
            let len = ((p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2)).sqrt();
            // Both endpoints on an arterial line ⇒ a fast road segment.
            let class = if arterial(v as u32) && arterial(u) {
                0.55
            } else {
                1.0
            };
            let dir = |state: &mut u64| {
                let t = len * class * (1.0 + 0.3 * unit(state));
                (t * 10.0).round() / 10.0
            };
            let wf = dir(&mut state);
            let wb = dir(&mut state);
            edges.push(Edge::new(v, u as usize, wf));
            edges.push(Edge::new(u as usize, v, wb));
        }
    }
    (DiGraph::from_edges(n, edges), coords, tri)
}

// ---------------------------------------------------------------------------
// Embedding-free Lipton–Tarjan-shaped separator (BFS levels + cycle)
// ---------------------------------------------------------------------------

/// How many non-tree edges the middle-band refinement scores per region.
const LEVEL_CYCLE_CANDIDATES: usize = 64;

/// Build a separator decomposition with the embedding-free BFS-level +
/// fundamental-cycle finder. This is the Lipton–Tarjan shape without the
/// face list: per region, two thin BFS levels bracket the median level;
/// if the middle band still holds more than ⅔ of the vertices, the best
/// of `LEVEL_CYCLE_CANDIDATES` fundamental cycles of a BFS spanning
/// tree splits it (sides by connected components — no embedding needed).
/// A greedy pass then returns separator vertices touching only one side.
///
/// On planar/near-planar inputs (the [`certify_near_planar`] families:
/// road networks, meshes, grids) the levels are `O(√k)` and the cycle is
/// at most `2·height + 1`, giving `c·√k` separators per node; on
/// arbitrary graphs the output is still an exact separation and the
/// engine's progress guard bounds the recursion.
pub fn planar_level_tree(adj: &[Vec<u32>], limits: RecursionLimits) -> SepTree {
    decompose(adj, &[], 0, limits, &level_cycle_finder)
}

/// Component id per active vertex (`u32::MAX` for inactive), plus the
/// component count, over the masked undirected adjacency.
fn masked_components(adj: &[Vec<u32>], active: &[bool]) -> (Vec<u32>, usize) {
    let n = adj.len();
    let mut comp = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut stack = Vec::new();
    for s in 0..n {
        if !active[s] || comp[s] != u32::MAX {
            continue;
        }
        comp[s] = next;
        stack.push(s);
        while let Some(v) = stack.pop() {
            for &u in &adj[v] {
                let u = u as usize;
                if active[u] && comp[u] == u32::MAX {
                    comp[u] = next;
                    stack.push(u);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// Pack the components of `G − separator` into two balanced sides
/// (greedy largest-first, deterministic by component id on ties).
fn pack_components(comp: &[u32], k: usize, sep: &[bool]) -> (Vec<u32>, Vec<u32>) {
    let mut sizes = vec![0usize; k];
    for (v, &c) in comp.iter().enumerate() {
        if !sep[v] && c != u32::MAX {
            sizes[c as usize] += 1;
        }
    }
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&c| (std::cmp::Reverse(sizes[c]), c));
    let mut side_of = vec![0u8; k];
    let (mut w1, mut w2) = (0usize, 0usize);
    for &c in &order {
        if w1 <= w2 {
            side_of[c] = 1;
            w1 += sizes[c];
        } else {
            side_of[c] = 2;
            w2 += sizes[c];
        }
    }
    let mut side1 = Vec::with_capacity(w1);
    let mut side2 = Vec::with_capacity(w2);
    for (v, &c) in comp.iter().enumerate() {
        if sep[v] || c == u32::MAX {
            continue;
        }
        if side_of[c as usize] == 1 {
            side1.push(v as u32);
        } else {
            side2.push(v as u32);
        }
    }
    (side1, side2)
}

/// Median cut in BFS order — the shared last-resort split (cf.
/// `builders::bfs_finder`'s shallow-level fallback).
fn median_cut(adj: &[Vec<u32>], dist: &[u32]) -> Separation {
    let n = adj.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| (dist[v as usize], v));
    let mut in_a = vec![false; n];
    for &v in &order[..n / 2] {
        in_a[v as usize] = true;
    }
    crate::builders::cut_from_partition(adj, &in_a)
}

fn level_cycle_finder(sub: &SubProblem) -> Separation {
    let n = sub.len();
    let adj = &sub.adj;
    let active = vec![true; n];
    // Pseudo-peripheral start: farthest vertex from 0 (ties → largest id,
    // fixed by max_by_key's last-wins rule — deterministic).
    let d0 = spsep_graph::traversal::bfs_undirected_masked(adj, 0, &active);
    let start = (0..n).max_by_key(|&v| d0[v]).unwrap_or(0);
    let dist = spsep_graph::traversal::bfs_undirected_masked(adj, start, &active);
    let max_level = dist.iter().copied().max().unwrap_or(0) as usize;
    if max_level < 2 {
        return median_cut(adj, &dist);
    }
    let mut level_sizes = vec![0usize; max_level + 1];
    for &d in &dist {
        level_sizes[d as usize] += 1;
    }
    // Median level: the level containing the ⌈n/2⌉-th vertex.
    let mut cum = 0usize;
    let mut median = 0usize;
    for (l, &s) in level_sizes.iter().enumerate() {
        cum += s;
        if cum * 2 >= n {
            median = l;
            break;
        }
    }
    // Thin bracketing levels: |L(t)| ≤ 2√n + 1 (level 0 always
    // qualifies, so t1 exists; t2 may not when the median sits at the
    // BFS frontier).
    let budget = (2.0 * (n as f64).sqrt()).ceil() as usize + 1;
    let t1 = (0..=median)
        .rev()
        .find(|&t| level_sizes[t] <= budget)
        .unwrap_or(0);
    let t2 = (median + 1..=max_level)
        .find(|&t| level_sizes[t] <= budget)
        .or_else(|| {
            // Every level above the median is fat: take the thinnest one.
            (median + 1..=max_level).min_by_key(|&t| (level_sizes[t], t))
        });
    let Some(t2) = t2 else {
        // The median level is the last level; fall back to the best
        // interior level (both sides nonempty by construction).
        return best_single_level(adj, &dist, &level_sizes, max_level, n);
    };
    let mut sep = vec![false; n];
    for (v, &d) in dist.iter().enumerate() {
        if d as usize == t1 || d as usize == t2 {
            sep[v] = true;
        }
    }
    let not_sep: Vec<bool> = sep.iter().map(|&s| !s).collect();
    let (mut comp, mut k) = masked_components(adj, &not_sep);
    // Middle-band refinement: if one component still exceeds ⅔ of the
    // region, split it with the balance-best fundamental cycle of its
    // BFS spanning tree.
    let mut sizes = vec![0usize; k];
    for (v, &c) in comp.iter().enumerate() {
        if !sep[v] {
            sizes[c as usize] += 1;
        }
    }
    if let Some(giant) = (0..k).find(|&c| 3 * sizes[c] > 2 * n) {
        if let Some(cycle) = best_band_cycle(adj, &comp, giant as u32, n) {
            for &v in &cycle {
                sep[v as usize] = true;
            }
            let not_sep: Vec<bool> = sep.iter().map(|&s| !s).collect();
            let (c2, k2) = masked_components(adj, &not_sep);
            comp = c2;
            k = k2;
        }
    }
    let (side1, side2) = pack_components(&comp, k, &sep);
    // Greedy separator minimization: whole BFS levels entered the
    // separator above, but only the stretch actually between the two
    // sides must stay. Sequentially slide any separator vertex touching
    // at most one side into that side (ties → the smaller side),
    // updating membership immediately — an edge between the sides can
    // never appear because every move checks *current* membership, so
    // the no-crossing invariant is preserved move by move. Iterate to
    // fixpoint (a move can free its separator neighbours).
    let mut in1 = vec![false; n];
    let mut in2 = vec![false; n];
    let mut w1 = side1.len();
    let mut w2 = side2.len();
    for &v in &side1 {
        in1[v as usize] = true;
    }
    for &v in &side2 {
        in2[v as usize] = true;
    }
    loop {
        let mut changed = false;
        for v in 0..n {
            if !sep[v] {
                continue;
            }
            let (mut t1n, mut t2n) = (false, false);
            for &u in &adj[v] {
                let u = u as usize;
                t1n |= in1[u];
                t2n |= in2[u];
            }
            if t1n && t2n {
                continue;
            }
            let to_side1 = if t1n {
                true
            } else if t2n {
                false
            } else {
                w1 <= w2
            };
            sep[v] = false;
            if to_side1 {
                in1[v] = true;
                w1 += 1;
            } else {
                in2[v] = true;
                w2 += 1;
            }
            changed = true;
        }
        if !changed {
            break;
        }
    }
    let side1: Vec<u32> = (0..n as u32).filter(|&v| in1[v as usize]).collect();
    let side2: Vec<u32> = (0..n as u32).filter(|&v| in2[v as usize]).collect();
    let separator: Vec<u32> = (0..n as u32).filter(|&v| sep[v as usize]).collect();
    if side1.is_empty() && side2.is_empty() {
        return median_cut(adj, &dist);
    }
    Separation {
        separator,
        side1,
        side2,
    }
}

/// Single best interior BFS level (minimize the bigger side, ties to the
/// thinner separator) — used when no level exists above the median.
fn best_single_level(
    adj: &[Vec<u32>],
    dist: &[u32],
    level_sizes: &[usize],
    max_level: usize,
    n: usize,
) -> Separation {
    let mut below = level_sizes[0];
    let mut best: Option<(usize, usize, usize)> = None;
    for (l, &s) in level_sizes.iter().enumerate().take(max_level).skip(1) {
        let above = n - below - s;
        let score = below.max(above);
        if best.is_none_or(|(sc, sp, _)| score < sc || (score == sc && s < sp)) {
            best = Some((score, s, l));
        }
        below += s;
    }
    let Some((_, _, l)) = best else {
        return median_cut(adj, dist);
    };
    let mut separator = Vec::new();
    let mut side1 = Vec::new();
    let mut side2 = Vec::new();
    for (v, &d) in dist.iter().enumerate() {
        match (d as usize).cmp(&l) {
            std::cmp::Ordering::Less => side1.push(v as u32),
            std::cmp::Ordering::Equal => separator.push(v as u32),
            std::cmp::Ordering::Greater => side2.push(v as u32),
        }
    }
    Separation {
        separator,
        side1,
        side2,
    }
}

/// Best fundamental cycle of a BFS spanning tree of component `giant`:
/// the one minimizing the largest remaining piece of the band after the
/// cycle's removal (ties → shorter cycle). Candidates are a
/// deterministic even-stride sample of the non-tree edges. Returns the
/// cycle's vertices, or `None` when the band is a tree (no cycle).
fn best_band_cycle(adj: &[Vec<u32>], comp: &[u32], giant: u32, n: usize) -> Option<Vec<u32>> {
    let members: Vec<u32> = (0..n as u32)
        .filter(|&v| comp[v as usize] == giant)
        .collect();
    // Root the BFS tree at the member with the lowest id (deterministic).
    let root = *members.first()?;
    let mut parent = vec![u32::MAX; n];
    let mut depth = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    depth[root as usize] = 0;
    queue.push_back(root);
    while let Some(v) = queue.pop_front() {
        for &u in &adj[v as usize] {
            if comp[u as usize] == giant && depth[u as usize] == u32::MAX {
                depth[u as usize] = depth[v as usize] + 1;
                parent[u as usize] = v;
                queue.push_back(u);
            }
        }
    }
    let mut cands: Vec<(u32, u32)> = Vec::new();
    for &v in &members {
        for &u in &adj[v as usize] {
            if u > v
                && comp[u as usize] == giant
                && parent[u as usize] != v
                && parent[v as usize] != u
            {
                cands.push((v, u));
            }
        }
    }
    if cands.is_empty() {
        return None;
    }
    let sample: Vec<(u32, u32)> = if cands.len() <= LEVEL_CYCLE_CANDIDATES {
        cands
    } else {
        (0..LEVEL_CYCLE_CANDIDATES)
            .map(|i| cands[i * cands.len() / LEVEL_CYCLE_CANDIDATES])
            .collect()
    };
    let band_size = members.len();
    let mut on_cycle = vec![false; n];
    let mut best: Option<(usize, usize, Vec<u32>)> = None; // (max piece, |C|, C)
    for &(a, b) in &sample {
        let cycle = fundamental_cycle(a, b, &parent, &depth);
        for &v in &cycle {
            on_cycle[v as usize] = true;
        }
        // Largest remaining piece of the band after removing the cycle.
        let mut seen = vec![false; n];
        let mut largest = 0usize;
        let mut stack = Vec::new();
        for &s in &members {
            if seen[s as usize] || on_cycle[s as usize] {
                continue;
            }
            let mut size = 0usize;
            seen[s as usize] = true;
            stack.push(s);
            while let Some(v) = stack.pop() {
                size += 1;
                for &u in &adj[v as usize] {
                    if comp[u as usize] == giant && !on_cycle[u as usize] && !seen[u as usize] {
                        seen[u as usize] = true;
                        stack.push(u);
                    }
                }
            }
            largest = largest.max(size);
        }
        for &v in &cycle {
            on_cycle[v as usize] = false;
        }
        // A cycle that removes nothing (covers the whole band) is useless.
        if cycle.len() >= band_size {
            continue;
        }
        let key = (largest, cycle.len());
        if best.as_ref().is_none_or(|(l, c, _)| key < (*l, *c)) {
            best = Some((largest, cycle.len(), cycle));
        }
    }
    best.map(|(_, _, c)| c)
}

// ---------------------------------------------------------------------------
// Near-planarity certificate
// ---------------------------------------------------------------------------

/// Outcome of [`certify_near_planar`]: the two *necessary* conditions
/// for planarity that are checkable in `O(n + m)`. A graph passing both
/// is "near-planar" for builder selection; this is a certificate of
/// plausibility, **not** a planarity proof (e.g. small K₅ subdivisions
/// inside a sparse graph pass) — the separator sizes E23 measures are
/// the ground truth.
#[derive(Clone, Copy, Debug)]
pub struct NearPlanarCheck {
    /// Vertex count.
    pub n: usize,
    /// Undirected skeleton edge count.
    pub undirected_edges: usize,
    /// Euler bound `m ≤ 3n − 6` (trivially true for `n < 3`).
    pub edge_bound_ok: bool,
    /// Degeneracy (max min-degree over the peeling order); every planar
    /// graph is 5-degenerate.
    pub degeneracy: usize,
    /// Both conditions hold.
    pub near_planar: bool,
}

/// Check the `O(n + m)` necessary conditions for (near-)planarity on an
/// undirected skeleton adjacency: the Euler edge bound `m ≤ 3n − 6` and
/// 5-degeneracy (computed exactly by min-degree peeling). Road networks,
/// grids, and meshes pass; dense or expander-like inputs fail and should
/// use the general BFS builder instead.
pub fn certify_near_planar(adj: &[Vec<u32>]) -> NearPlanarCheck {
    let n = adj.len();
    let m: usize = adj.iter().map(Vec::len).sum::<usize>() / 2;
    let edge_bound_ok = n < 3 || m <= 3 * n - 6;
    // Exact degeneracy via bucketed min-degree peeling.
    let mut degree: Vec<usize> = adj.iter().map(Vec::len).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_deg + 1];
    for (v, &d) in degree.iter().enumerate() {
        buckets[d].push(v as u32);
    }
    let mut removed = vec![false; n];
    let mut degeneracy = 0usize;
    let mut cursor = 0usize;
    for _ in 0..n {
        // Find the lowest non-empty bucket (entries may be stale; skip
        // vertices whose degree no longer matches or already removed).
        cursor = cursor.min(degeneracy);
        let v = loop {
            if cursor > max_deg {
                break None;
            }
            match buckets[cursor].pop() {
                Some(v) if !removed[v as usize] && degree[v as usize] == cursor => break Some(v),
                Some(_) => continue,
                None => cursor += 1,
            }
        };
        let Some(v) = v else { break };
        degeneracy = degeneracy.max(cursor);
        removed[v as usize] = true;
        for &u in &adj[v as usize] {
            let u = u as usize;
            if !removed[u] && degree[u] > 0 {
                degree[u] -= 1;
                buckets[degree[u]].push(u as u32);
                if degree[u] < cursor {
                    cursor = degree[u];
                }
            }
        }
    }
    NearPlanarCheck {
        n,
        undirected_edges: m,
        edge_bound_ok,
        degeneracy,
        near_planar: edge_bound_ok && degeneracy <= 5,
    }
}

// ---------------------------------------------------------------------------
// Separator quality (shared by the CLI and the E23 bench)
// ---------------------------------------------------------------------------

/// Quality numbers of a separator decomposition tree, measured against
/// the paper's `c·√k` balanced-separator target. Computed by
/// [`separator_quality`] — the single implementation behind both the
/// CLI's `info` report and the E23 artifact, so the bound can't drift
/// between the two.
#[derive(Clone, Copy, Debug)]
pub struct QualityReport {
    /// Vertices of the decomposed graph.
    pub n: usize,
    /// Tree node count.
    pub nodes: usize,
    /// Tree height `d_G`.
    pub height: u32,
    /// Max `|V(leaf)|`.
    pub max_leaf: usize,
    /// Max `|S(t)|` over all nodes.
    pub max_separator: usize,
    /// `|S(root)|`.
    pub root_separator: usize,
    /// `Σ_t |S(t)|`.
    pub total_separator: usize,
    /// Measured `c`: max over internal nodes of `|S(t)| / √|V(t)|` —
    /// the decomposition is a `c·√k` separator tree for exactly this
    /// `c`.
    pub sqrt_coefficient: f64,
    /// Max over internal nodes of `max(|V(c₁)|, |V(c₂)|) / |V(t)|`
    /// (children include the separator, so 1.0 means no progress;
    /// balanced trees sit near `⅔ + |S|/|V|`).
    pub balance: f64,
    /// `Σ_t (|S(t)|² + |B(t)|²)` — the Theorem 5.1(iii) candidate bound
    /// driving `E⁺` size and preprocessing memory.
    pub eplus_candidates: usize,
}

impl QualityReport {
    /// `true` when every internal node's separator is within
    /// `c_bound·√|V(t)|` — the balanced-separator claim E23 checks.
    pub fn meets_sqrt_bound(&self, c_bound: f64) -> bool {
        self.sqrt_coefficient <= c_bound
    }
}

/// Measure `tree` against the `c·√k` balanced-separator target; see
/// [`QualityReport`] for the individual numbers.
pub fn separator_quality(tree: &SepTree) -> QualityReport {
    let mut max_separator = 0usize;
    let mut sqrt_coefficient = 0.0f64;
    let mut balance = 0.0f64;
    for t in tree.nodes() {
        max_separator = max_separator.max(t.separator.len());
        if let Some((c1, c2)) = t.children {
            let k = t.vertices.len() as f64;
            if !t.separator.is_empty() {
                sqrt_coefficient = sqrt_coefficient.max(t.separator.len() as f64 / k.sqrt());
            }
            let big = tree
                .node(c1)
                .vertices
                .len()
                .max(tree.node(c2).vertices.len()) as f64;
            balance = balance.max(big / k);
        }
    }
    QualityReport {
        n: tree.n(),
        nodes: tree.nodes().len(),
        height: tree.height(),
        max_leaf: tree.max_leaf_size(),
        max_separator,
        root_separator: tree.node(0).separator.len(),
        total_separator: tree.total_separator_size(),
        sqrt_coefficient,
        balance,
        eplus_candidates: tree.eplus_candidate_size(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn triangulated_grid_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let (g, tri) = triangulated_grid(5, 4, &mut rng);
        tri.validate().unwrap();
        assert_eq!(g.n(), 20);
        assert_eq!(tri.faces.len(), 2 * 4 * 3);
        // m = grid edges + diagonals, both directions.
        let grid_pairs = 4 * 4 + 5 * 3; // horizontal + vertical
        let diagonals = 4 * 3;
        assert_eq!(g.m(), 2 * (grid_pairs + diagonals));
    }

    #[test]
    fn level_separators_are_sqrt_sized_on_meshes() {
        let mut rng = StdRng::seed_from_u64(5);
        let (g, _) = triangulated_grid(16, 16, &mut rng);
        let adj = g.undirected_skeleton();
        let tree = planar_level_tree(&adj, RecursionLimits::default());
        tree.validate(&adj).unwrap();
        for t in tree.nodes() {
            let bound = 6.0 * (t.vertices.len() as f64).sqrt() + 8.0;
            assert!(
                (t.separator.len() as f64) <= bound,
                "|S| = {} for |V| = {}",
                t.separator.len(),
                t.vertices.len()
            );
        }
    }

    #[test]
    fn fundamental_cycle_is_simple() {
        // Path tree 0-1-2-3-4 plus edge (0,4).
        let parent = vec![u32::MAX, 0, 1, 2, 3];
        let depth = vec![0, 1, 2, 3, 4];
        let cyc = fundamental_cycle(4, 0, &parent, &depth);
        assert_eq!(cyc.len(), 5);
        let set: std::collections::HashSet<u32> = cyc.iter().copied().collect();
        assert_eq!(set.len(), 5, "cycle vertices must be distinct");
    }

    #[test]
    fn road_network_is_deterministic_and_planar() {
        let (g1, c1, t1) = road_network(12, 9, 42);
        let (g2, c2, t2) = road_network(12, 9, 42);
        assert_eq!(g1.n(), 12 * 9);
        assert_eq!(c1.len(), g1.n());
        assert_eq!(t1.faces, t2.faces);
        assert_eq!(c1.as_flat(), c2.as_flat());
        assert_eq!(g1.n(), g2.n());
        assert_eq!(g1.m(), g2.m());
        for v in 0..g1.n() {
            let e1: Vec<_> = g1.out_edges(v).collect();
            let e2: Vec<_> = g2.out_edges(v).collect();
            assert_eq!(e1, e2);
        }
        t1.validate().unwrap();
        // Different seed ⇒ different instance (jitter and/or diagonals).
        let (g3, c3, _) = road_network(12, 9, 43);
        assert!(c1.as_flat() != c3.as_flat() || g1.m() != g3.m());
        // Weights positive, finite, 0.1-granular.
        for v in 0..g1.n() {
            for e in g1.out_edges(v) {
                let w = e.w;
                assert!(w.is_finite() && w > 0.0);
                assert!(((w * 10.0).round() - w * 10.0).abs() < 1e-9);
            }
        }
        // The skeleton certifies near-planar (it IS planar).
        let check = certify_near_planar(&g1.undirected_skeleton());
        assert!(check.near_planar, "{check:?}");
    }

    #[test]
    fn level_tree_validates_on_meshes_and_roads() {
        for (w, h, seed) in [(8usize, 8usize, 2u64), (12, 7, 3), (5, 20, 4)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, _) = triangulated_grid(w, h, &mut rng);
            let adj = g.undirected_skeleton();
            let tree = planar_level_tree(&adj, RecursionLimits::default());
            tree.validate(&adj)
                .unwrap_or_else(|e| panic!("{w}x{h}: {e}"));
        }
        let (g, _, _) = road_network(20, 16, 7);
        let adj = g.undirected_skeleton();
        let tree = planar_level_tree(&adj, RecursionLimits::default());
        tree.validate(&adj).unwrap();
    }

    #[test]
    fn level_tree_separators_are_sqrt_sized() {
        let (g, _, _) = road_network(24, 24, 11);
        let adj = g.undirected_skeleton();
        let tree = planar_level_tree(&adj, RecursionLimits::default());
        tree.validate(&adj).unwrap();
        let q = separator_quality(&tree);
        assert!(
            q.sqrt_coefficient <= 4.0,
            "measured c = {} exceeds 4.0",
            q.sqrt_coefficient
        );
        assert!(q.balance < 1.0, "no internal node may stall");
    }

    #[test]
    fn level_tree_handles_degenerate_graphs() {
        // Path (max_level ≥ 2, thin levels everywhere).
        let path: Vec<Vec<u32>> = (0..12)
            .map(|v: u32| {
                let mut a = Vec::new();
                if v > 0 {
                    a.push(v - 1);
                }
                if v < 11 {
                    a.push(v + 1);
                }
                a
            })
            .collect();
        let tree = planar_level_tree(&path, RecursionLimits::default());
        tree.validate(&path).unwrap();
        // Star (max_level = 1 ⇒ median cut path).
        let mut star: Vec<Vec<u32>> = vec![(1..9).collect()];
        for _ in 1..9 {
            star.push(vec![0]);
        }
        let tree = planar_level_tree(&star, RecursionLimits::default());
        tree.validate(&star).unwrap();
        // Complete graph (certainly not planar; still must separate).
        let k6: Vec<Vec<u32>> = (0..6u32)
            .map(|v| (0..6u32).filter(|&u| u != v).collect())
            .collect();
        let tree = planar_level_tree(&k6, RecursionLimits::default());
        tree.validate(&k6).unwrap();
        // Disconnected input is the engine's job, not the finder's.
        let two: Vec<Vec<u32>> = vec![vec![1], vec![0], vec![3], vec![2]];
        let tree = planar_level_tree(
            &two,
            RecursionLimits {
                leaf_size: 1,
                ..Default::default()
            },
        );
        tree.validate(&two).unwrap();
    }

    #[test]
    fn level_tree_is_deterministic() {
        let (g, _, _) = road_network(16, 12, 9);
        let adj = g.undirected_skeleton();
        let t1 = planar_level_tree(&adj, RecursionLimits::default());
        let t2 = planar_level_tree(&adj, RecursionLimits::default());
        assert_eq!(t1.nodes().len(), t2.nodes().len());
        for (a, b) in t1.nodes().iter().zip(t2.nodes()) {
            assert_eq!(a.vertices, b.vertices);
            assert_eq!(a.separator, b.separator);
        }
    }

    #[test]
    fn near_planar_certificate_discriminates() {
        let mut rng = StdRng::seed_from_u64(6);
        let (g, _) = triangulated_grid(10, 10, &mut rng);
        let c = certify_near_planar(&g.undirected_skeleton());
        assert!(c.near_planar);
        assert!(c.degeneracy <= 5);
        // K7 fails the Euler bound (21 > 15) and is 6-degenerate.
        let k7: Vec<Vec<u32>> = (0..7u32)
            .map(|v| (0..7u32).filter(|&u| u != v).collect())
            .collect();
        let c = certify_near_planar(&k7);
        assert!(!c.near_planar);
        assert!(!c.edge_bound_ok);
        assert_eq!(c.degeneracy, 6);
        // Empty and tiny graphs are fine.
        assert!(certify_near_planar(&[]).near_planar);
        assert!(certify_near_planar(&[vec![], vec![]]).near_planar);
    }

    #[test]
    fn quality_report_matches_tree_accessors() {
        let (g, _, _) = road_network(10, 10, 3);
        let adj = g.undirected_skeleton();
        let tree = planar_level_tree(&adj, RecursionLimits::default());
        let q = separator_quality(&tree);
        assert_eq!(q.n, tree.n());
        assert_eq!(q.nodes, tree.nodes().len());
        assert_eq!(q.height, tree.height());
        assert_eq!(q.max_leaf, tree.max_leaf_size());
        assert_eq!(q.total_separator, tree.total_separator_size());
        assert_eq!(q.eplus_candidates, tree.eplus_candidate_size());
        assert_eq!(q.root_separator, tree.node(0).separator.len());
        assert!(q.max_separator >= q.root_separator);
        assert!(q.balance > 0.0 && q.balance < 1.0);
        assert!(q.meets_sqrt_bound(q.sqrt_coefficient + 1e-12));
        assert!(!q.meets_sqrt_bound(q.sqrt_coefficient - 1e-9));
    }
}
