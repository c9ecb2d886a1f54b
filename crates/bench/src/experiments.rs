//! One function per reproduced table/figure (DESIGN.md §4 index).
//!
//! Each returns a plain-text report; the `tables` binary prints them and
//! `EXPERIMENTS.md` archives the output next to the paper's claims.

use crate::families::Family;
use crate::{fmt_f, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spsep_core::{alg41, alg43, analysis, preprocess, reach, Algorithm};
use spsep_graph::semiring::Tropical;
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits};
use std::time::Instant;

/// Problem sizes for the Table 1 sweeps.
const SWEEP_NS: [usize; 5] = [1_000, 2_000, 4_000, 8_000, 16_000];

/// One measured point of the Table 1 sweep.
pub struct SweepPoint {
    /// Family measured.
    pub family: Family,
    /// Actual vertex count of the instance.
    pub n: usize,
    /// `|E|`.
    pub m: usize,
    /// Total preprocessing work (op count) of Algorithm 4.1.
    pub work41: u64,
    /// `|E⁺|`.
    pub eplus: usize,
    /// Scheduled relaxations for one source.
    pub per_source: u64,
    /// Relaxations a naive Bellman–Ford on `G⁺` would use
    /// (`rounds · |E ∪ E⁺|`).
    pub naive_per_source: u64,
    /// Tree height `d_G`.
    pub d_g: u32,
}

/// Run the shared sweep behind experiments E1–E3 (cached by the caller).
pub fn run_sweep() -> Vec<SweepPoint> {
    let mut points = Vec::new();
    for family in Family::all() {
        for (i, &n_target) in SWEEP_NS.iter().enumerate() {
            let (g, tree) = family.instance(n_target, 42 + i as u64);
            let metrics = Metrics::new();
            let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics)
                .expect("positive weights");
            let (_, qstats) = pre.distances_seq(0);
            // Idealized naive parallel Bellman–Ford on G⁺ (Section 2.2):
            // it must scan every augmented edge for ecc_hops(source) + 1
            // rounds. (Measuring the fixpoint directly over-counts: float
            // re-association keeps the strict `<` test firing with
            // ulp-sized "improvements" long after true convergence.)
            let aug = spsep_graph::DiGraph::from_edges(g.n(), pre.augmented_edges().to_vec());
            let ecc = analysis::min_hops_at_optimum::<Tropical>(&aug, 0)
                .expect("no neg cycles")
                .into_iter()
                .filter(|&h| h != usize::MAX)
                .max()
                .unwrap_or(0);
            let rounds = ecc + 1;
            points.push(SweepPoint {
                family,
                n: g.n(),
                m: g.m(),
                work41: metrics.total_work(),
                eplus: pre.stats().eplus_edges,
                per_source: qstats.relaxations,
                naive_per_source: (rounds as u64) * pre.augmented_edges().len() as u64,
                d_g: tree.height(),
            });
        }
    }
    points
}

fn fit_for(points: &[SweepPoint], family: Family, f: impl Fn(&SweepPoint) -> f64) -> f64 {
    let xs: Vec<f64> = points
        .iter()
        .filter(|p| p.family == family)
        .map(|p| p.n as f64)
        .collect();
    let ys: Vec<f64> = points
        .iter()
        .filter(|p| p.family == family)
        .map(f)
        .collect();
    analysis::fit_exponent(&xs, &ys)
}

/// E1 — Table 1, preprocessing-work rows.
pub fn e1_preprocessing_work(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "E1 — Table 1 preprocessing work: paper predicts Θ(n + n^{3μ}) \
         (n^1.5 for μ=1/2, n^2 for μ=2/3, ~n for trees; log factors elided)\n\n",
    );
    let mut t = Table::new(&["family", "n", "m", "work(Alg4.1)", "d_G"]);
    for p in points {
        t.row(vec![
            p.family.label().into(),
            p.n.to_string(),
            p.m.to_string(),
            p.work41.to_string(),
            p.d_g.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    for fam in Family::all() {
        let slope = fit_for(points, fam, |p| p.work41 as f64);
        let predicted = (3.0 * fam.mu()).max(1.0);
        out.push_str(&format!(
            "{}: fitted work exponent {:.2} (paper: n^{:.2} up to logs)\n",
            fam.label(),
            slope,
            predicted
        ));
    }
    out
}

/// E2 — Table 1, work-per-source rows.
pub fn e2_per_source_work(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "E2 — Table 1 work per source: paper predicts O(n + n^{2μ}) \
         (n log n at μ=1/2, n^{4/3} at μ=2/3, ~n for trees); the scheduled\n\
         scan must also beat naive Bellman–Ford on G⁺ (rounds·|E∪E⁺|).\n\n",
    );
    let mut t = Table::new(&["family", "n", "scheduled", "naive-BF(G+)", "ratio"]);
    for p in points {
        t.row(vec![
            p.family.label().into(),
            p.n.to_string(),
            p.per_source.to_string(),
            p.naive_per_source.to_string(),
            fmt_f(p.naive_per_source as f64 / p.per_source.max(1) as f64),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    for fam in Family::all() {
        let slope = fit_for(points, fam, |p| p.per_source as f64);
        let predicted = (2.0 * fam.mu()).max(1.0);
        out.push_str(&format!(
            "{}: fitted per-source exponent {:.2} (paper: n^{:.2} up to logs)\n",
            fam.label(),
            slope,
            predicted
        ));
    }
    out
}

/// E3 — Theorem 5.1(iii): `|E⁺| = O(n + n^{2μ})`.
pub fn e3_eplus_size(points: &[SweepPoint]) -> String {
    let mut out = String::from(
        "E3 — Theorem 5.1(iii): |E⁺| = O(n + n^{2μ}) (n log n at μ=1/2).\n\n",
    );
    let mut t = Table::new(&["family", "n", "|E|", "|E+|", "|E+|/n"]);
    for p in points {
        t.row(vec![
            p.family.label().into(),
            p.n.to_string(),
            p.m.to_string(),
            p.eplus.to_string(),
            fmt_f(p.eplus as f64 / p.n as f64),
        ]);
    }
    out.push_str(&t.render());
    out.push('\n');
    for fam in Family::all() {
        let slope = fit_for(points, fam, |p| p.eplus as f64);
        let predicted = (2.0 * fam.mu()).max(1.0);
        out.push_str(&format!(
            "{}: fitted |E+| exponent {:.2} (paper: n^{:.2} up to logs)\n",
            fam.label(),
            slope,
            predicted
        ));
    }
    out
}

/// E4 — Theorem 3.1: `diam(G⁺) ≤ 4 d_G + 2l + 1`.
pub fn e4_diameter() -> String {
    let mut out = String::from(
        "E4 — Theorem 3.1: measured min-weight diameter of G⁺ vs the bound \
         4·d_G + 2l + 1 (diam(G) shown for contrast; 16 sampled sources).\n\n",
    );
    let mut t = Table::new(&["family", "n", "diam(G)", "diam(G+)", "bound", "d_G"]);
    for family in Family::all() {
        for n_target in [256usize, 1024, 4096] {
            let (g, tree) = family.instance(n_target, 7);
            let metrics = Metrics::new();
            let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
            let stats = pre.stats();
            let bound = 4 * stats.d_g as usize + 2 * stats.leaf_bound + 1;
            let mut rng = StdRng::seed_from_u64(3);
            let sources: Vec<usize> = (0..16).map(|_| rng.gen_range(0..g.n())).collect();
            let diam_plus = analysis::min_weight_diameter_sampled::<Tropical>(
                g.n(),
                pre.augmented_edges(),
                &sources,
            )
            .unwrap();
            let diam_g =
                analysis::min_weight_diameter_sampled::<Tropical>(g.n(), g.edges(), &sources)
                    .unwrap();
            assert!(diam_plus <= bound, "bound violated");
            t.row(vec![
                family.label().into(),
                g.n().to_string(),
                diam_g.to_string(),
                diam_plus.to_string(),
                bound.to_string(),
                stats.d_g.to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    out
}

/// E5 — Algorithm 4.1 vs Algorithm 4.3 (Table 1's two preprocessing
/// variants: time vs work trade-off).
pub fn e5_alg41_vs_alg43() -> String {
    let mut out = String::from(
        "E5 — Alg 4.1 (leaves-up) vs Alg 4.3 (path doubling): the paper \
         trades O(log n) depth for O(log n) extra work.\n\n",
    );
    let mut t = Table::new(&[
        "family", "n", "alg", "wall_ms", "work", "depth", "phases",
    ]);
    for family in Family::all() {
        let (g, tree) = family.instance(8_000, 9);
        // Estimated shared pairing-table size for Remark 4.4:
        // Σ_t (|S(t)| + |B(t)|)³ triples before dedup. Above ~1.5e8 the
        // materialized table does not fit comfortably in this host's RAM.
        let triple_estimate: u64 = tree
            .nodes()
            .iter()
            .map(|t| {
                let i = (t.separator.len() + t.boundary.len()) as u64;
                i * i * i
            })
            .sum();
        for (name, algo) in [
            ("4.1", Algorithm::LeavesUp),
            ("4.3", Algorithm::PathDoubling),
            ("4.4", Algorithm::SharedDoubling),
        ] {
            if algo == Algorithm::SharedDoubling && triple_estimate > 150_000_000 {
                t.row(vec![
                    family.label().into(),
                    g.n().to_string(),
                    name.into(),
                    "-".into(),
                    format!("(table ~{triple_estimate} triples: skipped)"),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            }
            let metrics = Metrics::new();
            let t0 = Instant::now();
            let pre = preprocess::<Tropical>(&g, &tree, algo, &metrics).unwrap();
            let wall = t0.elapsed().as_secs_f64() * 1e3;
            let _ = pre;
            t.row(vec![
                family.label().into(),
                g.n().to_string(),
                name.into(),
                fmt_f(wall),
                metrics.total_work().to_string(),
                metrics.depth().to_string(),
                metrics.phases().to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    out.push_str(
        "\nExpected shape: 4.3 does more total work (doubling repeats full \
         squaring steps) but needs fewer, wider phases (lower depth per \
         useful step at scale).\n",
    );
    out
}

/// Figure 1 — the separator decomposition tree of the 9×9 grid.
pub fn fig1() -> String {
    let tree = builders::grid_tree(&[9, 9], RecursionLimits::default());
    let mut out = String::from(
        "Figure 1 — separator decomposition tree of the 9×9 grid \
         (top levels; root separator is the middle grid line):\n\n",
    );
    out.push_str(&tree.render(2));
    out.push_str(&format!(
        "\n… ({} nodes total, height {}, max leaf size {})\n",
        tree.nodes().len(),
        tree.height(),
        tree.max_leaf_size()
    ));
    out
}

/// Figure 2 — right shortcuts along an actual shortest path of the 9×9
/// grid.
pub fn fig2() -> String {
    let tree = builders::grid_tree(&[9, 9], RecursionLimits::default());
    let mut rng = StdRng::seed_from_u64(1);
    let (g, _) = spsep_graph::generators::grid(&[9, 9], &mut rng);
    // A corner-to-corner shortest path.
    let truth = spsep_baselines::dijkstra(&g, 0);
    let path = truth
        .path_to(&g, g.n() - 1)
        .expect("grid connected");
    let levels: Vec<u32> = path.iter().map(|&v| tree.vertex_level(v as usize)).collect();
    // Restrict to the maximal defined-level section (the proof's i1..i2).
    let i1 = levels.iter().position(|&l| l != u32::MAX);
    let i2 = levels.iter().rposition(|&l| l != u32::MAX);
    let mut out = String::from(
        "Figure 2 — level labels and right shortcuts along a shortest \
         0 → 80 path of the 9×9 grid:\n\n",
    );
    out.push_str(&format!("path vertices: {path:?}\n"));
    match (i1, i2) {
        (Some(i1), Some(i2)) if i1 < i2 => {
            let section = &levels[i1..=i2];
            if section.iter().all(|&l| l != u32::MAX) {
                out.push_str(&spsep_core::shortcuts::render_figure2(section));
            } else {
                out.push_str("interior undefined levels; see unit tests for synthetic demo\n");
            }
        }
        _ => out.push_str("path has no defined-level section\n"),
    }
    out
}

/// E8 — reachability: bit-matrix pipeline vs per-source BFS vs dense
/// transitive closure (the `M(n^μ)` claim of Sections 4–5).
pub fn e8_reachability() -> String {
    let mut out = String::from(
        "E8 — reachability work: paper predicts Õ(M(n^μ)) preprocessing + \
         cheap per-source queries, vs Õ(M(n)) dense closure, vs O(m) BFS \
         per source.\n\n",
    );
    let mut t = Table::new(&[
        "n",
        "prep_ms(sep)",
        "query_us(sep)",
        "bfs_us",
        "dense_ms",
        "sep_depth",
        "bfs_depth",
    ]);
    for side in [40usize, 64, 90] {
        let mut rng = StdRng::seed_from_u64(11);
        let (base, _) = spsep_graph::generators::grid(&[side, side], &mut rng);
        // Sparse directed version: drop every 4th arc.
        let edges: Vec<spsep_graph::Edge<bool>> = base
            .edges()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 != 0)
            .map(|(_, e)| spsep_graph::Edge::new(e.from as usize, e.to as usize, true))
            .collect();
        let g = spsep_graph::DiGraph::from_edges(base.n(), edges);
        let tree = builders::grid_tree(&[side, side], RecursionLimits::default());
        let metrics = Metrics::new();
        let t0 = Instant::now();
        let pre = reach::preprocess_reach(&g, &tree, &metrics);
        let prep = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        for s in 0..32 {
            std::hint::black_box(pre.distances_seq(s * g.n() / 32).0);
        }
        let query = t1.elapsed().as_secs_f64() * 1e6 / 32.0;
        let t2 = Instant::now();
        for s in 0..32 {
            std::hint::black_box(spsep_baselines::reachable_from(&g, s * g.n() / 32));
        }
        let bfs = t2.elapsed().as_secs_f64() * 1e6 / 32.0;
        let t3 = Instant::now();
        std::hint::black_box(spsep_baselines::transitive_closure_dense(&g));
        let dense = t3.elapsed().as_secs_f64() * 1e3;
        // Depth comparison (the NC claim): scheduled query needs
        // O((l + d_G) log n) depth; BFS depth is the hop diameter.
        let qm = Metrics::new();
        std::hint::black_box(pre.distances(0, &qm));
        let sep_depth = qm.depth();
        let bfs_depth = spsep_graph::traversal::bfs_directed(&g, 0)
            .into_iter()
            .filter(|&d| d != u32::MAX)
            .max()
            .unwrap_or(0);
        t.row(vec![
            g.n().to_string(),
            fmt_f(prep),
            fmt_f(query),
            fmt_f(bfs),
            fmt_f(dense),
            sep_depth.to_string(),
            bfs_depth.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nExpected shape: dense closure explodes with n; the separator \
         preprocessing stays near-linear and amortizes over sources. Raw \
         per-source wall time favours BFS (tiny constants); the NC claim \
         lives in the depth columns — scheduled depth grows ~log²n while \
         BFS depth grows with the hop diameter (~√n here).\n",
    );
    out
}

/// E9 — parallel scalability (the "NC algorithm" claim, realized as
/// multicore speedup under the PRAM cost model).
pub fn e9_thread_scaling() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut out = format!(
        "E9 — wall-clock of Alg 4.1 preprocessing vs rayon threads \
         (grid2d, n = 16384). This host exposes {cores} core(s): the \
         expected speedup ceiling is {cores}x; with 1 core the sweep \
         measures pure threading overhead and the machine-independent \
         parallelism evidence is the PRAM depth counter (phases ≈ d_G, \
         depth ≈ d_G·log n — see E5).\n\n",
    );
    let mut t = Table::new(&["threads", "wall_ms", "speedup"]);
    let (g, tree) = Family::Grid2D.instance(16_384, 3);
    let mut base = None;
    for threads in [1usize, 2, 4, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        let metrics = Metrics::new();
        let t0 = Instant::now();
        pool.install(|| {
            std::hint::black_box(
                preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap(),
            );
        });
        let wall = t0.elapsed().as_secs_f64() * 1e3;
        let speedup = base.get_or_insert(wall).max(1e-9) / wall;
        t.row(vec![
            threads.to_string(),
            fmt_f(wall),
            format!("{speedup:.2}x"),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// E15 — executor speedup per family: Alg 4.1 preprocessing wall-clock
/// at 1/2/4/8 threads for every generator family, plus a bit-identity
/// check that the executor's determinism contract holds at bench sizes.
pub fn e15_family_speedup() -> String {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let mut out = format!(
        "E15 — Alg 4.1 preprocessing wall-clock vs worker threads, per \
         family (n ≈ 4096, median of 3 runs). This host exposes {cores} \
         core(s), so the expected speedup ceiling is {cores}x; on a \
         single core the t>1 columns measure scheduling overhead only \
         (see E9 for the machine-independent depth evidence). The \
         `bitident` column asserts the determinism contract: distances \
         from n/2 are byte-for-byte equal at every thread count.\n\n",
    );
    let mut t = Table::new(&[
        "family", "t1_ms", "t2_ms", "t4_ms", "t8_ms", "speedup@4", "bitident",
    ]);
    for family in Family::all() {
        let (g, tree) = family.instance(4096, 3);
        let mut walls = Vec::new();
        let mut reference: Option<Vec<u64>> = None;
        let mut identical = true;
        for threads in [1usize, 2, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let mut runs = Vec::new();
            for _ in 0..3 {
                let metrics = Metrics::new();
                let t0 = Instant::now();
                let pre = pool.install(|| {
                    preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap()
                });
                runs.push(t0.elapsed().as_secs_f64() * 1e3);
                let bits: Vec<u64> = pool
                    .install(|| pre.distances_seq(g.n() / 2).0)
                    .iter()
                    .map(|d| d.to_bits())
                    .collect();
                identical &= *reference.get_or_insert(bits.clone()) == bits;
            }
            runs.sort_by(f64::total_cmp);
            walls.push(runs[1]);
        }
        let speedup = walls[0] / walls[2].max(1e-9);
        t.row(vec![
            family.label().into(),
            fmt_f(walls[0]),
            fmt_f(walls[1]),
            fmt_f(walls[2]),
            fmt_f(walls[3]),
            format!("{speedup:.2}x"),
            if identical { "yes" } else { "NO" }.into(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// E10 — Section 6: hammock pipeline vs running the main algorithm on all
/// of `G`, as `q` varies at (roughly) fixed `n`.
pub fn e10_qfaces() -> String {
    let mut out = String::from(
        "E10 — Section 6 few-faces pipeline: preprocessing + 8-source \
         query cost vs q at n ≈ 20k. Paper predicts per-source work \
         O(n + q log q) for the G′ reduction vs O(n + n^{2μ}·polylog) \
         direct — the win shows in the query columns and widens as \
         sources accumulate; preprocessing is ~linear either way at \
         these q.\n\n",
    );
    let mut t = Table::new(&[
        "q", "n", "ham_prep_ms", "ham_q_ms", "dir_prep_ms", "dir_q_ms",
    ]);
    for side in [3usize, 5, 8, 12] {
        let q = side * side;
        let skeleton_edges = 2 * side * (side - 1);
        let ladder = ((20_000usize.saturating_sub(q)) / (2 * skeleton_edges)).max(1);
        let mut rng = StdRng::seed_from_u64(13);
        let hg = spsep_planar::generate_hammock_graph(side, ladder, &mut rng);
        let sources: Vec<usize> = (0..8).map(|i| i * hg.graph.n() / 8).collect();

        let metrics = Metrics::new();
        let t0 = Instant::now();
        let sp = spsep_planar::HammockSP::preprocess(&hg, &metrics);
        let ham_prep = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        std::hint::black_box(sp.distances_multi(&sources));
        let ham_q = t1.elapsed().as_secs_f64() * 1e3;

        let metrics = Metrics::new();
        let t2 = Instant::now();
        let adj = hg.graph.undirected_skeleton();
        let tree = builders::bfs_tree(&adj, RecursionLimits::default());
        let pre =
            preprocess::<Tropical>(&hg.graph, &tree, Algorithm::LeavesUp, &metrics).unwrap();
        let dir_prep = t2.elapsed().as_secs_f64() * 1e3;
        let t3 = Instant::now();
        std::hint::black_box(pre.distances_multi(&sources));
        let dir_q = t3.elapsed().as_secs_f64() * 1e3;

        t.row(vec![
            q.to_string(),
            hg.graph.n().to_string(),
            fmt_f(ham_prep),
            fmt_f(ham_q),
            fmt_f(dir_prep),
            fmt_f(dir_q),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// E11 — sequential crossover vs Johnson's algorithm as the number of
/// sources `s` grows (the intro's O(mn + n² log n) comparison).
pub fn e11_crossover() -> String {
    let mut out = String::from(
        "E11 — s-source crossover on a 96×96 grid with negative edges: \
         separator = one preprocessing + s scheduled queries; Johnson = \
         one Bellman–Ford + s Dijkstras.\n\n",
    );
    let mut rng = StdRng::seed_from_u64(17);
    let (g0, _) = spsep_graph::generators::grid(&[96, 96], &mut rng);
    let g = spsep_graph::generators::skew_by_potentials(&g0, 3.0, &mut rng);
    let tree = builders::grid_tree(&[96, 96], RecursionLimits::default());

    let metrics = Metrics::new();
    let t0 = Instant::now();
    let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
    let prep = t0.elapsed().as_secs_f64() * 1e3;
    // Per-query cost, averaged.
    let t1 = Instant::now();
    for s in 0..64 {
        std::hint::black_box(pre.distances_seq(s * g.n() / 64).0);
    }
    let per_query = t1.elapsed().as_secs_f64() * 1e3 / 64.0;
    // Johnson cost model: potentials once + per-source Dijkstra.
    let t2 = Instant::now();
    let aug = spsep_baselines::johnson(&g, &[0]).unwrap();
    let johnson_fixed = t2.elapsed().as_secs_f64() * 1e3;
    drop(aug);
    let t3 = Instant::now();
    let sources: Vec<usize> = (0..64).map(|s| s * g.n() / 64).collect();
    std::hint::black_box(spsep_baselines::johnson(&g, &sources).unwrap());
    let johnson_64 = t3.elapsed().as_secs_f64() * 1e3;
    let johnson_per = (johnson_64 - johnson_fixed).max(0.0) / 63.0;

    // Depth per query (the parallel claim): scheduled phases vs the
    // inherently sequential heap of Dijkstra (depth ≈ #pops ≈ n).
    let qm = Metrics::new();
    std::hint::black_box(pre.distances(0, &qm));
    let sep_depth = qm.depth();
    let dijkstra_depth = g.n(); // one heap pop per settled vertex

    let mut t = Table::new(&["s", "separator_ms", "johnson_ms", "wall_winner"]);
    for s in [1usize, 4, 16, 64, 256, 1024] {
        let sep = prep + per_query * s as f64;
        let joh = johnson_fixed + johnson_per * (s.saturating_sub(1)) as f64;
        t.row(vec![
            s.to_string(),
            fmt_f(sep),
            fmt_f(joh),
            if sep < joh { "separator" } else { "johnson" }.into(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(&format!(
        "\n(preprocessing {prep:.1} ms, per scheduled query {per_query:.2} ms, \
         Johnson fixed {johnson_fixed:.1} ms, per Dijkstra {johnson_per:.2} ms)\n\
         Per-query PRAM depth: scheduled = {sep_depth} vs Dijkstra ≈ {dijkstra_depth} \
         (sequential heap) — the paper's actual claim is this depth gap, \
         which no sequential wall-clock can show.\n",
    ));
    out
}

/// E12 — the two-variable-inequality application: separator solve vs the
/// Bellman–Ford engine on grid-structured systems.
pub fn e12_tvpi() -> String {
    let mut out = String::from(
        "E12 — difference-constraint systems on grid constraint graphs: \
         the paper replaces the Õ(n³) path-computation term of \
         Cohen–Megiddo by the separator bound.\n\n",
    );
    let mut t = Table::new(&["vars", "constraints", "sep_ms", "sep_work", "bf_ms"]);
    for side in [20usize, 40, 80] {
        let mut rng = StdRng::seed_from_u64(19);
        let sys = spsep_tvpi::grid_schedule_system(side, side, 5.0, 2.0, &mut rng);
        let metrics = Metrics::new();
        let t0 = Instant::now();
        let a = sys.solve(&metrics);
        let sep_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        let b = sys.solve_bellman_ford();
        let bf_ms = t1.elapsed().as_secs_f64() * 1e3;
        assert!(matches!(a, spsep_tvpi::Solution::Feasible(_)));
        assert!(matches!(b, spsep_tvpi::Solution::Feasible(_)));
        t.row(vec![
            sys.num_vars().to_string(),
            sys.len().to_string(),
            fmt_f(sep_ms),
            metrics.total_work().to_string(),
            fmt_f(bf_ms),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n(One feasibility solve is a single multi-source query: Bellman–Ford \
         wins on raw wall-clock; the separator engine's value is the reusable \
         E⁺ — incremental re-solves and the parallel depth bound.)\n",
    );
    out
}

/// E13 (ablation) — leaf-size knob: smaller leaves shrink `l` (fewer
/// entry/exit E-phases per query) but add tree nodes (more `E⁺`
/// candidates and preprocessing phases). DESIGN.md calls this out as the
/// main tunable of the implementation.
pub fn e13_leaf_ablation() -> String {
    let mut out = String::from(
        "E13 — ablation: leaf_size vs preprocessing work, |E+|, and \
         per-source relaxations (grid2d, n = 4096). Per-source work is \
         O(l·|E| + |E∪E+|) with l = leaf_size − 1.\n\n",
    );
    let mut t = Table::new(&[
        "leaf_size",
        "tree_nodes",
        "d_G",
        "prep_work",
        "|E+|",
        "per_source",
    ]);
    let mut rng = StdRng::seed_from_u64(29);
    let (g, _) = spsep_graph::generators::grid(&[64, 64], &mut rng);
    for leaf in [4usize, 8, 16, 32, 64] {
        let tree = builders::grid_tree(
            &[64, 64],
            RecursionLimits {
                leaf_size: leaf,
                ..Default::default()
            },
        );
        let metrics = Metrics::new();
        let pre = preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics).unwrap();
        let (_, q) = pre.distances_seq(0);
        t.row(vec![
            leaf.to_string(),
            tree.nodes().len().to_string(),
            tree.height().to_string(),
            metrics.total_work().to_string(),
            pre.stats().eplus_edges.to_string(),
            q.relaxations.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

/// E14 (ablation) — separator-builder comparison on one planar graph:
/// the same triangulated mesh decomposed by (a) BFS levels, (b)
/// geometric median cuts on the lattice coordinates, (c) the
/// embedding-free Lipton–Tarjan-shaped level builder (`planar_level_tree`).
/// Tree quality drives every downstream bound.
pub fn e14_builder_comparison() -> String {
    let mut out = String::from(
        "E14 — ablation: decomposition builders on the same 64×64 \
         triangulated planar mesh. Smaller/balanced separators ⇒ shallower \
         trees, smaller E⁺, cheaper queries.\n\n",
    );
    let side = 64usize;
    let mut rng = StdRng::seed_from_u64(31);
    let (g, _) = spsep_separator::planar::triangulated_grid(side, side, &mut rng);
    let adj = g.undirected_skeleton();
    // Lattice coordinates for the geometric builder.
    let coords = {
        let mut data = Vec::with_capacity(g.n() * 2);
        for v in 0..g.n() {
            data.push((v / side) as f64);
            data.push((v % side) as f64);
        }
        spsep_graph::generators::Coords::new(2, data)
    };
    let trees: Vec<(&str, spsep_separator::SepTree)> = vec![
        (
            "bfs-levels",
            builders::bfs_tree(&adj, RecursionLimits::default()),
        ),
        (
            "geometric",
            builders::geometric_tree(&adj, &coords, RecursionLimits::default()),
        ),
        (
            "lt-levels",
            spsep_separator::planar_level_tree(&adj, RecursionLimits::default()),
        ),
    ];
    let mut t = Table::new(&[
        "builder",
        "height",
        "root|S|",
        "sum|S|",
        "prep_work",
        "|E+|",
        "per_src",
    ]);
    for (name, tree) in &trees {
        tree.validate(&adj).expect("builder must be exact");
        let metrics = Metrics::new();
        let pre = preprocess::<Tropical>(&g, tree, Algorithm::LeavesUp, &metrics).unwrap();
        let (_, q) = pre.distances_seq(0);
        t.row(vec![
            (*name).into(),
            tree.height().to_string(),
            tree.node(0).separator.len().to_string(),
            tree.total_separator_size().to_string(),
            metrics.total_work().to_string(),
            pre.stats().eplus_edges.to_string(),
            q.relaxations.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\n(Reference point: E1's grid2d family uses exact hyperplane \
         separators on the undiagonalized grid — the quality ceiling the \
         general builders approach.)\n",
    );
    out
}

/// Sanity check used by `tables --exp check`: the two augmentation
/// algorithms agree on a midsize instance of every family.
pub fn consistency_check() -> String {
    let mut out = String::new();
    for family in Family::all() {
        let (g, tree) = family.instance(2_000, 23);
        let m = Metrics::new();
        let a = alg41::augment_leaves_up::<Tropical>(&g, &tree, &m).unwrap();
        let b = alg43::augment_path_doubling::<Tropical>(&g, &tree, &m).unwrap();
        assert_eq!(a.eplus.len(), b.eplus.len(), "{family:?}");
        out.push_str(&format!(
            "{}: |E+| = {} identical across Alg 4.1 / Alg 4.3\n",
            family.label(),
            a.eplus.len()
        ));
    }
    out
}
