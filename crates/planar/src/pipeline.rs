//! The Section 6 solve pipeline: per-hammock tables → `G′` → main
//! algorithm on `G′` → query composition.

use crate::generator::HammockGraph;
use rayon::prelude::*;
use spsep_core::{preprocess, Algorithm, Preprocessed};
use spsep_graph::semiring::Tropical;
use spsep_graph::{DiGraph, Edge};
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits};

/// Per-hammock distance tables.
struct HammockTables {
    /// `from_att[i][k]` = distance from attachment `i` to the `k`-th
    /// hammock vertex, *within the hammock*.
    from_att: Vec<Vec<f64>>,
    /// `to_att[i][k]` = distance from the `k`-th hammock vertex to
    /// attachment `i`, within the hammock.
    to_att: Vec<Vec<f64>>,
}

/// Preprocessed few-faces planar graph: answers `s`-source shortest paths
/// in `O(n + q log q)`-style work per source (the paper's Section 6
/// bound), after `O(n + q^{1.5})`-style preprocessing.
pub struct HammockSP<'a> {
    hg: &'a HammockGraph,
    tables: Vec<HammockTables>,
    /// The main algorithm of Sections 3–5 applied to `G′` (the graph on
    /// the `O(q)` attachment vertices).
    gprime: Preprocessed<Tropical>,
    /// The `G′` graph itself; edge `i` came from hammock
    /// `gprime_edge_hammock[i]` (needed to expand `G′` paths into real
    /// paths — the "compact routing table" role of Section 6).
    gprime_graph: DiGraph<f64>,
    gprime_edge_hammock: Vec<u32>,
    /// Hammock indices containing each vertex (attachments: several).
    hammocks_of: Vec<Vec<u32>>,
}

impl<'a> HammockSP<'a> {
    /// Run the preprocessing pipeline. Work/depth charged to `metrics`.
    pub fn preprocess(hg: &'a HammockGraph, metrics: &Metrics) -> HammockSP<'a> {
        // 1. Per-hammock tables, all hammocks in parallel. Each hammock is
        //    processed with the core separator machinery (ladders have
        //    O(1)-size BFS separators).
        metrics.phase(hg.hammocks.len());
        let tables: Vec<HammockTables> = hg
            .hammocks
            .par_iter()
            .map(|h| {
                let (sub, _map) = hg
                    .graph
                    .induced_subgraph(&h.vertices.iter().map(|&v| v as usize).collect::<Vec<_>>());
                let adj = sub.undirected_skeleton();
                let tree = builders::bfs_tree(&adj, RecursionLimits::default());
                let local_metrics = Metrics::new();
                let pre = preprocess::<Tropical>(&sub, &tree, Algorithm::LeavesUp, &local_metrics)
                    .expect("hammock weights are positive");
                let rev = sub.reversed();
                let rtree =
                    builders::bfs_tree(&rev.undirected_skeleton(), RecursionLimits::default());
                let rpre =
                    preprocess::<Tropical>(&rev, &rtree, Algorithm::LeavesUp, &local_metrics)
                        .expect("hammock weights are positive");
                let att_local: Vec<usize> = h
                    .attachments
                    .iter()
                    .map(|&a| h.vertices.binary_search(&a).expect("attachment ∈ hammock"))
                    .collect();
                let from_att: Vec<Vec<f64>> =
                    att_local.iter().map(|&a| pre.distances_seq(a).0).collect();
                let to_att: Vec<Vec<f64>> =
                    att_local.iter().map(|&a| rpre.distances_seq(a).0).collect();
                HammockTables { from_att, to_att }
            })
            .collect();

        // 2. Assemble G′ on the skeleton vertices, remembering which
        //    hammock realizes each edge.
        let mut gp_edges: Vec<Edge<f64>> = Vec::new();
        let mut gprime_edge_hammock: Vec<u32> = Vec::new();
        for (hi, h) in hg.hammocks.iter().enumerate() {
            let t = &tables[hi];
            for (i, &ai) in h.attachments.iter().enumerate() {
                for (j, &aj) in h.attachments.iter().enumerate() {
                    if i == j {
                        continue;
                    }
                    let aj_local = h.vertices.binary_search(&aj).unwrap();
                    let w = t.from_att[i][aj_local];
                    if w.is_finite() {
                        gp_edges.push(Edge::new(ai as usize, aj as usize, w));
                        gprime_edge_hammock.push(hi as u32);
                    }
                }
            }
        }
        let gprime_graph = DiGraph::from_edges(hg.q_vertices, gp_edges);

        // 3. Main algorithm on G′ with the skeleton's exact grid tree.
        let gp_tree = builders::grid_tree(&[hg.side, hg.side], RecursionLimits::default());
        let gprime = preprocess::<Tropical>(&gprime_graph, &gp_tree, Algorithm::LeavesUp, metrics)
            .expect("G′ inherits positive weights");

        // 4. Vertex → hammocks map (attachments belong to several).
        let mut hammocks_of: Vec<Vec<u32>> = vec![Vec::new(); hg.graph.n()];
        for (hi, h) in hg.hammocks.iter().enumerate() {
            for &v in &h.vertices {
                hammocks_of[v as usize].push(hi as u32);
            }
        }

        HammockSP {
            hg,
            tables,
            gprime,
            gprime_graph,
            gprime_edge_hammock,
            hammocks_of,
        }
    }

    /// `|E(G′)|` + `E⁺(G′)` diagnostics.
    pub fn gprime_stats(&self) -> spsep_core::AugmentStats {
        self.gprime.stats()
    }

    /// Single-source distances to all vertices of `G`.
    ///
    /// Composition: `d(s,x) = min( d_h(s,x) [same hammock],
    /// min_{a,a′} d_h(s→a) + d_{G′}(a→a′) + d_{h′}(a′→x) )`.
    pub fn distances(&self, source: usize) -> Vec<f64> {
        let n = self.hg.graph.n();
        let mut dist = vec![f64::INFINITY; n];
        dist[source] = 0.0;

        // Distances from `source` to the attachments of its hammock(s),
        // within those hammocks.
        let mut att_seed: Vec<(u32, f64)> = Vec::new(); // (attachment global id, d(s→a))
        for &hi in &self.hammocks_of[source] {
            let h = &self.hg.hammocks[hi as usize];
            let s_local = h.vertices.binary_search(&(source as u32)).unwrap();
            // Within-hammock distances from the source need one dedicated
            // small SSSP (the precomputed tables are attachment-rooted).
            let (sub, map) = self
                .hg
                .graph
                .induced_subgraph(&h.vertices.iter().map(|&v| v as usize).collect::<Vec<_>>());
            let local = spsep_baselines::dijkstra(&sub, s_local);
            for (k, &g_id) in map.iter().enumerate() {
                if local.dist[k] < dist[g_id] {
                    dist[g_id] = local.dist[k];
                }
            }
            for &a in &h.attachments {
                let a_local = h.vertices.binary_search(&a).unwrap();
                let d = local.dist[a_local];
                if d.is_finite() {
                    att_seed.push((a, d));
                }
            }
        }

        // G′ distances from each seeding attachment (≤ 4 of them, ≤ 2 per
        // hammock here), combined.
        let q = self.hg.q_vertices;
        let mut att_dist = vec![f64::INFINITY; q];
        for &(a, d) in &att_seed {
            let row = self.gprime.distances_seq(a as usize).0;
            for x in 0..q {
                let cand = d + row[x];
                if cand < att_dist[x] {
                    att_dist[x] = cand;
                }
            }
        }
        // Attachment ids are exactly 0..q in the generator.
        for x in 0..q {
            if att_dist[x] < dist[x] {
                dist[x] = att_dist[x];
            }
        }

        // Push attachment distances into every hammock.
        for (hi, h) in self.hg.hammocks.iter().enumerate() {
            let t = &self.tables[hi];
            for (i, &a) in h.attachments.iter().enumerate() {
                let base = att_dist[a as usize];
                if !base.is_finite() {
                    continue;
                }
                for (k, &v) in h.vertices.iter().enumerate() {
                    let cand = base + t.from_att[i][k];
                    if cand < dist[v as usize] {
                        dist[v as usize] = cand;
                    }
                }
            }
        }
        dist
    }

    /// Distances from many sources (parallel over sources).
    pub fn distances_multi(&self, sources: &[usize]) -> Vec<Vec<f64>> {
        sources.par_iter().map(|&s| self.distances(s)).collect()
    }

    /// Distance between one pair, using the within-hammock `to_att`
    /// tables so that only `O(att²)` `G′` lookups are needed.
    pub fn distance(&self, u: usize, v: usize, gprime_rows: &mut GPrimeCache<'_>) -> f64 {
        if u == v {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        // Same-hammock direct term.
        for &hi in &self.hammocks_of[u] {
            if self.hammocks_of[v].contains(&hi) {
                let h = &self.hg.hammocks[hi as usize];
                let (sub, _) = self
                    .hg
                    .graph
                    .induced_subgraph(&h.vertices.iter().map(|&x| x as usize).collect::<Vec<_>>());
                let ul = h.vertices.binary_search(&(u as u32)).unwrap();
                let vl = h.vertices.binary_search(&(v as u32)).unwrap();
                best = best.min(spsep_baselines::dijkstra(&sub, ul).dist[vl]);
            }
        }
        // Through-attachment term: d_h(u→a) + d_G'(a→a') + d_h'(a'→v).
        for &hu in &self.hammocks_of[u] {
            let h = &self.hg.hammocks[hu as usize];
            let t = &self.tables[hu as usize];
            let ul = h.vertices.binary_search(&(u as u32)).unwrap();
            for (i, &a) in h.attachments.iter().enumerate() {
                let d_ua = t.to_att[i][ul];
                if !d_ua.is_finite() {
                    continue;
                }
                let row = gprime_rows.row(a as usize);
                for &hv in &self.hammocks_of[v] {
                    let h2 = &self.hg.hammocks[hv as usize];
                    let t2 = &self.tables[hv as usize];
                    let vl = h2.vertices.binary_search(&(v as u32)).unwrap();
                    for (j, &a2) in h2.attachments.iter().enumerate() {
                        let cand = d_ua + row[a2 as usize] + t2.from_att[j][vl];
                        best = best.min(cand);
                    }
                }
            }
        }
        best
    }

    /// Make a `G′`-row cache for repeated [`HammockSP::distance`] calls.
    pub fn gprime_cache(&self) -> GPrimeCache<'_> {
        GPrimeCache {
            pre: &self.gprime,
            rows: std::collections::HashMap::new(),
        }
    }

    /// Shortest path within one hammock (by index), as global vertex ids.
    fn hammock_path(&self, hi: usize, u: usize, v: usize) -> Option<Vec<u32>> {
        let h = &self.hg.hammocks[hi];
        let (sub, map) = self
            .hg
            .graph
            .induced_subgraph(&h.vertices.iter().map(|&x| x as usize).collect::<Vec<_>>());
        let ul = h.vertices.binary_search(&(u as u32)).ok()?;
        let vl = h.vertices.binary_search(&(v as u32)).ok()?;
        let r = spsep_baselines::dijkstra(&sub, ul);
        let local = r.path_to(&sub, vl)?;
        Some(local.into_iter().map(|l| map[l as usize] as u32).collect())
    }

    /// Explicit shortest `u → v` path over the original graph — the
    /// routing realization of Section 6's "compact routing table"
    /// representation: within-hammock segments glued along a `G′` path,
    /// each `G′` edge expanded through the hammock that realized it.
    pub fn route(&self, u: usize, v: usize) -> Option<Vec<u32>> {
        if u == v {
            return Some(vec![u as u32]);
        }
        // Option 1: best same-hammock path.
        let mut best: Option<(f64, Vec<u32>)> = None;
        for &hi in &self.hammocks_of[u] {
            if !self.hammocks_of[v].contains(&hi) {
                continue;
            }
            if let Some(path) = self.hammock_path(hi as usize, u, v) {
                let w = self.path_weight(&path);
                if best.as_ref().is_none_or(|(bw, _)| w < *bw) {
                    best = Some((w, path));
                }
            }
        }
        // Option 2: through attachments a → a′ with a G′ middle.
        // Pick the argmin (a, a′) using the tables, then expand.
        let mut cache = self.gprime_cache();
        let mut choice: Option<(f64, usize, u32, u32, u32)> = None; // (w, hu, a, a2, hv)
        for &hu in &self.hammocks_of[u] {
            let h = &self.hg.hammocks[hu as usize];
            let t = &self.tables[hu as usize];
            let ul = h.vertices.binary_search(&(u as u32)).unwrap();
            for (i, &a) in h.attachments.iter().enumerate() {
                let d_ua = t.to_att[i][ul];
                if !d_ua.is_finite() {
                    continue;
                }
                let row = cache.row(a as usize).clone();
                for &hv in &self.hammocks_of[v] {
                    let h2 = &self.hg.hammocks[hv as usize];
                    let t2 = &self.tables[hv as usize];
                    let vl = h2.vertices.binary_search(&(v as u32)).unwrap();
                    for (j, &a2) in h2.attachments.iter().enumerate() {
                        let w = d_ua + row[a2 as usize] + t2.from_att[j][vl];
                        if w.is_finite() && choice.as_ref().is_none_or(|(cw, ..)| w < *cw) {
                            choice = Some((w, hu as usize, a, a2, hv));
                        }
                    }
                }
            }
        }
        if let Some((w, hu, a, a2, hv_tail)) = choice {
            if best.as_ref().is_none_or(|(bw, _)| w < *bw - 1e-12) {
                // Expand: u → a within hammock hu, then the G′ path
                // a → a2 edge by edge, then a2 → v within some hammock of v.
                let mut path = self.hammock_path(hu, u, a as usize)?;
                // G′ tight-edge tree from a.
                let (gdist, _) = self.gprime.distances_seq(a as usize);
                let parent = spsep_core::query::shortest_path_tree::<Tropical>(
                    &self.gprime_graph,
                    a as usize,
                    &gdist,
                );
                let gpath = spsep_core::query::path_from_tree(
                    &self.gprime_graph,
                    &parent,
                    a as usize,
                    a2 as usize,
                )?;
                // Expand each G′ tree edge through its hammock.
                let mut cur = a as usize;
                for hop in gpath.windows(2) {
                    let eid = {
                        // The parent table stores edge ids; rewalk to get it.
                        parent[hop[1] as usize]
                    };
                    let hi = self.gprime_edge_hammock[eid as usize] as usize;
                    let seg = self.hammock_path(hi, hop[0] as usize, hop[1] as usize)?;
                    path.extend_from_slice(&seg[1..]);
                    cur = hop[1] as usize;
                }
                // Tail: a2 → v within the argmin hammock.
                let seg = self.hammock_path(hv_tail as usize, cur, v)?;
                path.extend_from_slice(&seg[1..]);
                let pw = self.path_weight(&path);
                if best.as_ref().is_none_or(|(bw, _)| pw < *bw) {
                    best = Some((pw, path));
                }
            }
        }
        best.map(|(_, p)| p)
    }

    /// Total weight of a vertex path (best parallel edge per hop).
    fn path_weight(&self, path: &[u32]) -> f64 {
        let mut total = 0.0;
        for pair in path.windows(2) {
            let w = self
                .hg
                .graph
                .out_edges(pair[0] as usize)
                .filter(|e| e.to == pair[1])
                .map(|e| e.w)
                .fold(f64::INFINITY, f64::min);
            total += w;
        }
        total
    }
}

/// Memoized single-source rows of `G′` (each row costs one scheduled
/// query of the core engine; `k` pair queries touch ≤ `4k` rows).
pub struct GPrimeCache<'a> {
    pre: &'a Preprocessed<Tropical>,
    rows: std::collections::HashMap<usize, Vec<f64>>,
}

impl GPrimeCache<'_> {
    fn row(&mut self, a: usize) -> &Vec<f64> {
        self.rows
            .entry(a)
            .or_insert_with(|| self.pre.distances_seq(a).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_hammock_graph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn distances_match_dijkstra_on_full_graph() {
        let mut rng = StdRng::seed_from_u64(21);
        let hg = generate_hammock_graph(3, 3, &mut rng);
        let metrics = Metrics::new();
        let sp = HammockSP::preprocess(&hg, &metrics);
        for s in [0usize, 8, 15, hg.graph.n() - 1] {
            let got = sp.distances(s);
            let want = spsep_baselines::dijkstra(&hg.graph, s).dist;
            for v in 0..hg.graph.n() {
                assert!(
                    (got[v] - want[v]).abs() < 1e-6 * (1.0 + want[v].abs()),
                    "source {s} vertex {v}: {} vs {}",
                    got[v],
                    want[v]
                );
            }
        }
    }

    #[test]
    fn pair_queries_match() {
        let mut rng = StdRng::seed_from_u64(22);
        let hg = generate_hammock_graph(3, 2, &mut rng);
        let metrics = Metrics::new();
        let sp = HammockSP::preprocess(&hg, &metrics);
        let mut cache = sp.gprime_cache();
        let truth0 = spsep_baselines::dijkstra(&hg.graph, 5).dist;
        for v in [0usize, 3, 10, 20, hg.graph.n() - 1] {
            let got = sp.distance(5, v, &mut cache);
            assert!(
                (got - truth0[v]).abs() < 1e-6 * (1.0 + truth0[v].abs()),
                "pair (5,{v}): {} vs {}",
                got,
                truth0[v]
            );
        }
    }

    #[test]
    fn multi_source_parallel() {
        let mut rng = StdRng::seed_from_u64(23);
        let hg = generate_hammock_graph(2, 2, &mut rng);
        let metrics = Metrics::new();
        let sp = HammockSP::preprocess(&hg, &metrics);
        let multi = sp.distances_multi(&[0, 1, 2]);
        for (i, &s) in [0usize, 1, 2].iter().enumerate() {
            assert_eq!(multi[i], sp.distances(s));
        }
    }

    #[test]
    fn gprime_is_small() {
        let mut rng = StdRng::seed_from_u64(24);
        let hg = generate_hammock_graph(4, 6, &mut rng);
        let metrics = Metrics::new();
        let sp = HammockSP::preprocess(&hg, &metrics);
        // G′ lives on q = 16 vertices regardless of n = 16 + 24·12.
        assert!(sp.gprime_stats().eplus_edges <= 16 * 16);
    }
}
