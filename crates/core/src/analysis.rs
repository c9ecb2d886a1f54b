//! Measurement utilities for verifying the paper's structural claims:
//! minimum-weight diameter (Theorem 3.1), growth-exponent fitting for
//! the Table 1 experiments, and the [`WorkLedger`] that checks measured
//! work/depth against the predicted envelopes of Theorems 4.1/5.1 after
//! every preprocessing run.

use crate::AbsorbingCycle;
use crate::Algorithm;
use rayon::prelude::*;
use spsep_graph::{DiGraph, Edge, Semiring, SpsepError};
use spsep_pram::Report;
use spsep_separator::SepTree;

/// Minimum size (hop count) of a minimum-weight path from `source` to
/// every vertex of the graph formed by `edges` over `0..n`. `0̄` marks
/// unreachable vertices; entry `usize::MAX` in the result marks them.
///
/// Two passes: Bellman–Ford to a fixpoint for exact weights, then BFS
/// across *tight* edges (`dist(u) ⊗ w ≈ dist(v)`) for hop counts — every
/// tight path's weight telescopes to the exact distance, and every
/// hop-minimal optimal path is all-tight.
pub fn min_hops_at_optimum<S: Semiring>(
    g: &DiGraph<S::W>,
    source: usize,
) -> Result<Vec<usize>, AbsorbingCycle> {
    let n = g.n();
    let mut dist = vec![S::zero(); n];
    dist[source] = S::one();
    let mut settled = false;
    for _round in 0..=n {
        let mut changed = false;
        for e in g.edges() {
            let du = dist[e.from as usize];
            if S::is_zero(du) {
                continue;
            }
            let cand = S::extend(du, e.w);
            let cur = dist[e.to as usize];
            let merged = S::combine(cur, cand);
            if merged != cur {
                dist[e.to as usize] = merged;
                changed = true;
            }
        }
        if !changed {
            settled = true;
            break;
        }
    }
    if !settled {
        return Err(AbsorbingCycle);
    }
    // BFS over tight edges.
    let mut hops = vec![usize::MAX; n];
    hops[source] = 0;
    let mut queue = std::collections::VecDeque::new();
    queue.push_back(source as u32);
    while let Some(v) = queue.pop_front() {
        let hv = hops[v as usize];
        for e in g.out_edges(v as usize) {
            let u = e.to as usize;
            if hops[u] != usize::MAX || S::is_zero(dist[u]) {
                continue;
            }
            if S::approx_eq(S::extend(dist[v as usize], e.w), dist[u]) {
                hops[u] = hv + 1;
                queue.push_back(e.to);
            }
        }
    }
    Ok(hops)
}

/// The minimum-weight diameter (Section 2.2) of the graph formed by
/// `edges` over `0..n`: the max over all ordered reachable pairs of the
/// minimum size of an optimal path. Exact but `O(n·m)` — use on
/// experiment-sized graphs.
pub fn min_weight_diameter<S: Semiring>(
    n: usize,
    edges: &[Edge<S::W>],
) -> Result<usize, AbsorbingCycle> {
    let sources: Vec<usize> = (0..n).collect();
    min_weight_diameter_sampled::<S>(n, edges, &sources)
}

/// Like [`min_weight_diameter`] but restricted to paths *from* the given
/// sample of sources — an `O(|sources|·m)` lower bound on the true
/// diameter, used by the larger-scale experiments.
pub fn min_weight_diameter_sampled<S: Semiring>(
    n: usize,
    edges: &[Edge<S::W>],
    sources: &[usize],
) -> Result<usize, AbsorbingCycle> {
    let g = DiGraph::from_edges(n, edges.to_vec());
    sources
        .par_iter()
        .map(|&s| {
            min_hops_at_optimum::<S>(&g, s).map(|hops| {
                hops.into_iter()
                    .filter(|&h| h != usize::MAX)
                    .max()
                    .unwrap_or(0)
            })
        })
        .try_reduce(|| 0, |a, b| Ok(a.max(b)))
}

/// Minimum-weight diameter of the augmented graph `G⁺ = (V, E ∪ E⁺)` —
/// the measured side of the Theorem 3.1 entry of [`work_ledger`]. Exact
/// (`O(n·m⁺)`): use on experiment-sized instances.
pub fn augmented_diameter<S: Semiring>(
    pre: &crate::query::Preprocessed<S>,
) -> Result<usize, AbsorbingCycle> {
    min_weight_diameter::<S>(pre.n(), pre.augmented_edges())
}

/// Least-squares slope of `log(y)` against `log(x)` — the measured growth
/// exponent reported next to Table 1's predicted exponents.
pub fn fit_exponent(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points to fit");
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.max(1e-12).ln()).collect();
    let n = lx.len() as f64;
    let mx = lx.iter().sum::<f64>() / n;
    let my = ly.iter().sum::<f64>() / n;
    let cov: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let var: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    cov / var
}

// ---------------------------------------------------------------------
// Work/depth ledger (Theorems 3.1, 4.1, 5.1)
// ---------------------------------------------------------------------

/// One measured-vs-predicted comparison of the [`WorkLedger`].
#[derive(Clone, Debug)]
pub struct LedgerEntry {
    /// What is being compared (`"augment work"`, `"depth"`, `"diameter"`).
    pub label: String,
    /// The measured quantity (counter total, model depth, or hop count).
    pub measured: u64,
    /// The envelope predicted from the decomposition's shape.
    pub predicted: u64,
    /// `measured / predicted` (0 when `predicted` is 0).
    pub ratio: f64,
    /// Slack multiplier of the one-sided check.
    pub slack: f64,
    /// `measured ≤ slack × predicted` — the paper's bounds are upper
    /// bounds, so only this direction is a violation.
    pub within: bool,
}

/// The predicted-vs-measured work/depth check run after `preprocess`.
///
/// Predictions are computed from the decomposition's *shape* only — leaf
/// sizes, interface sizes `k_t = |S(t) ∪ B(t)|`, tree height `d_G`, the
/// round bound `2⌈log₂ n⌉ + 2·d_G + 2` — mirroring how Theorems 4.1/5.1
/// charge each algorithm:
///
/// * **Alg 4.1**: `Σ_leaf k³` (per-leaf closure) plus
///   `Σ_internal (|S|³ + |B||S|² + |B|²|S|)` (steps ii + iv);
/// * **Alg 4.3**: leaf init plus `rounds × Σ_t k_t³` squaring steps
///   (plus one merge op per node per round);
/// * **Remark 4.4**: leaf init plus `rounds × Σ_t k_t³` pairings — the
///   shared table holds at most `Σ_t k_t(k_t−1)(k_t−2)` triples;
/// * **depth**: one `⌈log₂ width⌉ + 1` charge per parallel phase, with
///   the per-algorithm phase count;
/// * **diameter** (optional): Theorem 3.1's `4·d_G + 2·l + 1` bound on
///   the augmented min-weight diameter, exact — no slack.
///
/// Measured sides come from a [`Report`] snapshot taken right after
/// preprocessing (later queries would add unrelated relaxation work).
/// All kernel `ops` counters undercount their nominal loop bounds (they
/// skip `0̄` entries), so the checks are one-sided: `measured ≤ slack ×
/// predicted`.
#[derive(Clone, Debug)]
pub struct WorkLedger {
    /// Which construction the prediction models.
    pub algo: Algorithm,
    /// The individual comparisons.
    pub entries: Vec<LedgerEntry>,
}

impl WorkLedger {
    /// `true` when every entry is within its predicted envelope.
    pub fn all_within(&self) -> bool {
        self.entries.iter().all(|e| e.within)
    }
}

impl std::fmt::Display for WorkLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "work ledger ({:?})", self.algo)?;
        for e in &self.entries {
            writeln!(
                f,
                "  {:<14} measured={:<14} predicted={:<14} ratio={:.4} [{}]",
                e.label,
                e.measured,
                e.predicted,
                e.ratio,
                if e.within { "ok" } else { "OVER BUDGET" },
            )?;
        }
        Ok(())
    }
}

/// Slack multiplier for the work/depth entries: the predictions are exact
/// loop bounds, but merge bookkeeping and `Counter::Other` attribution
/// leave a small measured overhang on tiny instances.
const LEDGER_SLACK: f64 = 1.25;

fn ledger_entry(label: &str, measured: u64, predicted: u64, slack: f64) -> LedgerEntry {
    let ratio = if predicted == 0 {
        0.0
    } else {
        measured as f64 / predicted as f64
    };
    LedgerEntry {
        label: label.to_owned(),
        measured,
        predicted,
        ratio,
        slack,
        within: (measured as f64) <= slack * (predicted as f64),
    }
}

/// Build the [`WorkLedger`] for one finished preprocessing run.
///
/// `report` must be a [`spsep_pram::Metrics::report`] snapshot taken
/// *after `preprocess` and before any queries*. `measured_diameter`, when
/// given (it costs `O(n·m)` to compute — see [`min_weight_diameter`]),
/// adds the Theorem 3.1 diameter entry.
pub fn work_ledger(
    tree: &SepTree,
    algo: Algorithm,
    report: &Report,
    measured_diameter: Option<usize>,
) -> WorkLedger {
    let cube = |k: usize| (k as u64).pow(3);
    let mut sum_leaf_cube = 0u64; // Σ_leaf |V(leaf)|³
    let mut sum_iface_cube = 0u64; // Σ_t k_t³
    let mut sum_iface_sq = 0u64; // Σ_t k_t²
    let mut sum_internal = 0u64; // Σ_internal |S|³ + |B||S|² + |B|²|S|
    for node in tree.nodes() {
        let iface = crate::augment::Interface::of(node);
        let k = iface.len() as u64;
        sum_iface_cube += k * k * k;
        sum_iface_sq += k * k;
        if node.is_leaf() {
            sum_leaf_cube += cube(node.vertices.len());
        } else {
            let ns = iface.sep_pos.len() as u64;
            let nb = iface.bnd_pos.len() as u64;
            sum_internal += ns * ns * ns + nb * ns * ns + nb * nb * ns;
        }
    }
    let n = tree.n().max(2);
    let d_g = tree.height() as u64;
    let num_nodes = tree.nodes().len() as u64;
    let rounds_bound = 2 * (usize::BITS - n.leading_zeros()) as u64 + 2 * d_g + 2;
    // Depth of one parallel phase over `w` items: ⌈log₂ w⌉ + 1.
    let phase_depth = |w: u64| (u64::BITS - w.max(1).leading_zeros()) as u64 + 1;

    let (work_measured, work_predicted, phases_predicted) = match algo {
        Algorithm::LeavesUp => (
            report.floyd_warshall + report.dijkstra + report.limited,
            sum_leaf_cube + sum_internal,
            (d_g + 1) * phase_depth(num_nodes),
        ),
        Algorithm::PathDoubling => (
            report.floyd_warshall + report.dijkstra + report.doubling,
            sum_leaf_cube + rounds_bound * (sum_iface_cube + num_nodes),
            // init + per round: one squaring phase + one merge sub-phase
            // per tree level.
            (1 + rounds_bound * (d_g + 2)) * phase_depth(num_nodes),
        ),
        Algorithm::SharedDoubling => (
            report.floyd_warshall + report.dijkstra + report.doubling,
            sum_leaf_cube + rounds_bound * sum_iface_cube,
            // init + one pairing phase per round over ≤ Σ k² groups.
            (1 + rounds_bound) * phase_depth(sum_iface_sq),
        ),
    };

    let mut entries = vec![
        ledger_entry("augment work", work_measured, work_predicted, LEDGER_SLACK),
        ledger_entry("depth", report.depth, phases_predicted, LEDGER_SLACK),
    ];
    if let Some(diam) = measured_diameter {
        let l = tree.max_leaf_size().saturating_sub(1) as u64;
        // Theorem 3.1: diam(G⁺) ≤ 4·d_G + 2·l + 1, exact — no slack.
        entries.push(ledger_entry(
            "diameter",
            diam as u64,
            4 * d_g + 2 * l + 1,
            1.0,
        ));
    }
    WorkLedger { algo, entries }
}

// ---------------------------------------------------------------------
// Ledger sidecar (spsep-ledger/v1)
// ---------------------------------------------------------------------

fn algo_label(algo: Algorithm) -> u32 {
    match algo {
        Algorithm::LeavesUp => 41,
        Algorithm::PathDoubling => 43,
        Algorithm::SharedDoubling => 44,
    }
}

fn algo_from_label(label: u32) -> Result<Algorithm, SpsepError> {
    match label {
        41 => Ok(Algorithm::LeavesUp),
        43 => Ok(Algorithm::PathDoubling),
        44 => Ok(Algorithm::SharedDoubling),
        other => Err(SpsepError::parse(format!(
            "unknown algorithm label {other}"
        ))),
    }
}

/// Serialize a ledger as the `spsep-ledger/v1` sidecar text the CLI
/// writes next to a prepared snapshot: one header line, then one
/// tab-separated line per entry. The measured side of the envelope
/// check exists only in the preparing process, so this is how a later
/// `serve --listen` of the snapshot learns the verdict it should
/// export on `/metrics`.
pub fn ledger_to_text(ledger: &WorkLedger) -> String {
    let mut out = format!("spsep-ledger/v1 algo={}\n", algo_label(ledger.algo));
    for e in &ledger.entries {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\t{}\n",
            e.label,
            e.measured,
            e.predicted,
            e.slack,
            if e.within { 1 } else { 0 }
        ));
    }
    out
}

/// Parse an `spsep-ledger/v1` sidecar produced by [`ledger_to_text`].
/// The `ratio` field is recomputed from `measured`/`predicted`.
///
/// # Errors
///
/// [`SpsepError::Parse`] on any header, field-count, or numeric
/// violation.
pub fn ledger_from_text(text: &str) -> Result<WorkLedger, SpsepError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| SpsepError::parse("empty ledger sidecar"))?;
    let algo = header
        .strip_prefix("spsep-ledger/v1 algo=")
        .ok_or_else(|| SpsepError::parse_at(1, format!("bad ledger header {header:?}")))?
        .trim()
        .parse::<u32>()
        .map_err(|_| SpsepError::parse_at(1, "bad algorithm label"))
        .and_then(algo_from_label)?;
    let mut entries = Vec::new();
    for (i, line) in lines.enumerate() {
        let lineno = i + 2;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        if fields.len() != 5 {
            return Err(SpsepError::parse_at(
                lineno,
                format!("expected 5 tab-separated fields, got {}", fields.len()),
            ));
        }
        let measured: u64 = fields[1]
            .parse()
            .map_err(|_| SpsepError::parse_at(lineno, "bad measured"))?;
        let predicted: u64 = fields[2]
            .parse()
            .map_err(|_| SpsepError::parse_at(lineno, "bad predicted"))?;
        let slack: f64 = fields[3]
            .parse()
            .map_err(|_| SpsepError::parse_at(lineno, "bad slack"))?;
        if !slack.is_finite() || slack <= 0.0 {
            return Err(SpsepError::parse_at(
                lineno,
                "slack must be finite and positive",
            ));
        }
        let within = match fields[4] {
            "1" => true,
            "0" => false,
            other => {
                return Err(SpsepError::parse_at(
                    lineno,
                    format!("bad within flag {other:?}"),
                ))
            }
        };
        let ratio = if predicted == 0 {
            0.0
        } else {
            measured as f64 / predicted as f64
        };
        entries.push(LedgerEntry {
            label: fields[0].to_string(),
            measured,
            predicted,
            ratio,
            slack,
            within,
        });
    }
    if entries.is_empty() {
        return Err(SpsepError::parse("ledger sidecar has no entries"));
    }
    Ok(WorkLedger { algo, entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spsep_graph::semiring::Tropical;

    #[test]
    fn hops_prefer_fewer_edges_among_equal_weight() {
        // 0→1→2 with weights 1,1 and a direct 0→2 of weight 2:
        // distance 2 is achieved with 1 hop.
        let g = DiGraph::from_edges(
            3,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 1.0),
                Edge::new(0, 2, 2.0),
            ],
        );
        let hops = min_hops_at_optimum::<Tropical>(&g, 0).unwrap();
        assert_eq!(hops, vec![0, 1, 1]);
    }

    #[test]
    fn diameter_of_path() {
        let edges: Vec<Edge<f64>> = (0..4).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        assert_eq!(min_weight_diameter::<Tropical>(5, &edges).unwrap(), 4);
    }

    #[test]
    fn diameter_shrinks_with_shortcuts() {
        let mut edges: Vec<Edge<f64>> = (0..4).map(|i| Edge::new(i, i + 1, 1.0)).collect();
        edges.push(Edge::new(0, 4, 4.0)); // exact shortcut
        assert_eq!(min_weight_diameter::<Tropical>(5, &edges).unwrap(), 3);
    }

    #[test]
    fn absorbing_cycle_detected() {
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 0, -2.0)];
        assert!(min_weight_diameter::<Tropical>(2, &edges).is_err());
    }

    #[test]
    fn unreachable_ignored() {
        let edges = vec![Edge::new(0, 1, 1.0)];
        assert_eq!(min_weight_diameter::<Tropical>(3, &edges).unwrap(), 1);
    }

    #[test]
    fn exponent_fit_recovers_power_law() {
        let xs: Vec<f64> = vec![100.0, 200.0, 400.0, 800.0];
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(1.5)).collect();
        let slope = fit_exponent(&xs, &ys);
        assert!((slope - 1.5).abs() < 1e-9, "slope {slope}");
    }

    fn grid_instance(dims: [usize; 2], seed: u64) -> (DiGraph<f64>, spsep_separator::SepTree) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (g, _) = spsep_graph::generators::grid(&dims, &mut rng);
        let tree = spsep_separator::builders::grid_tree(
            &dims,
            spsep_separator::RecursionLimits::default(),
        );
        (g, tree)
    }

    #[test]
    fn ledger_within_envelope_for_all_algorithms() {
        let (g, tree) = grid_instance([9, 8], 21);
        for algo in [
            Algorithm::LeavesUp,
            Algorithm::PathDoubling,
            Algorithm::SharedDoubling,
        ] {
            let metrics = spsep_pram::Metrics::new();
            let pre = crate::preprocess::<Tropical>(&g, &tree, algo, &metrics)
                .unwrap_or_else(|e| panic!("{e}"));
            let report = metrics.report();
            let diam = augmented_diameter::<Tropical>(&pre).unwrap();
            let ledger = work_ledger(&tree, algo, &report, Some(diam));
            assert_eq!(ledger.entries.len(), 3);
            assert!(
                ledger.all_within(),
                "{algo:?} ledger over budget:\n{ledger}"
            );
            for e in &ledger.entries {
                assert!(e.predicted > 0, "{algo:?} {}: zero prediction", e.label);
                assert!(e.ratio > 0.0, "{algo:?} {}: nothing measured", e.label);
            }
        }
    }

    #[test]
    fn ledger_flags_fabricated_overrun() {
        let (g, tree) = grid_instance([6, 6], 22);
        let metrics = spsep_pram::Metrics::new();
        crate::preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics)
            .unwrap_or_else(|e| panic!("{e}"));
        let mut report = metrics.report();
        // An instrumentation bug that inflated the measured work 100×
        // must trip the one-sided check.
        report.floyd_warshall *= 100;
        let ledger = work_ledger(&tree, Algorithm::LeavesUp, &report, None);
        assert!(!ledger.all_within(), "overrun not flagged:\n{ledger}");
        let display = ledger.to_string();
        assert!(display.contains("OVER BUDGET"), "{display}");
        assert!(display.contains("augment work"), "{display}");
    }

    #[test]
    fn ledger_diameter_entry_is_exact_bound() {
        let (g, tree) = grid_instance([7, 7], 23);
        let metrics = spsep_pram::Metrics::new();
        let pre = crate::preprocess::<Tropical>(&g, &tree, Algorithm::LeavesUp, &metrics)
            .unwrap_or_else(|e| panic!("{e}"));
        let report = metrics.report();
        let diam = augmented_diameter::<Tropical>(&pre).unwrap();
        let ledger = work_ledger(&tree, Algorithm::LeavesUp, &report, Some(diam));
        let entry = ledger
            .entries
            .iter()
            .find(|e| e.label == "diameter")
            .expect("diameter entry present");
        // Theorem 3.1 is an unconditional bound: no slack tolerated.
        assert_eq!(entry.slack, 1.0);
        assert!(entry.within, "Theorem 3.1 violated: {entry:?}");
        let d_g = tree.height() as u64;
        let l = tree.max_leaf_size().saturating_sub(1) as u64;
        assert_eq!(entry.predicted, 4 * d_g + 2 * l + 1);
    }

    #[test]
    fn ledger_sidecar_roundtrips() {
        let (g, tree) = grid_instance([6, 6], 9);
        let metrics = spsep_pram::Metrics::new();
        crate::preprocess::<Tropical>(&g, &tree, Algorithm::PathDoubling, &metrics)
            .unwrap_or_else(|e| panic!("{e}"));
        let ledger = work_ledger(&tree, Algorithm::PathDoubling, &metrics.report(), None);
        let text = ledger_to_text(&ledger);
        assert!(text.starts_with("spsep-ledger/v1 algo=43\n"));
        let back = ledger_from_text(&text).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(back.algo, ledger.algo);
        assert_eq!(back.entries.len(), ledger.entries.len());
        for (a, b) in back.entries.iter().zip(ledger.entries.iter()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.measured, b.measured);
            assert_eq!(a.predicted, b.predicted);
            assert_eq!(a.within, b.within);
            assert!((a.ratio - b.ratio).abs() < 1e-12);
        }
    }

    #[test]
    fn ledger_sidecar_rejects_corruption() {
        assert!(ledger_from_text("").is_err());
        assert!(ledger_from_text("spsep-ledger/v2 algo=41\nx\t1\t1\t1\t1\n").is_err());
        assert!(ledger_from_text("spsep-ledger/v1 algo=99\nx\t1\t1\t1\t1\n").is_err());
        assert!(ledger_from_text("spsep-ledger/v1 algo=41\n").is_err());
        assert!(ledger_from_text("spsep-ledger/v1 algo=41\nx\t1\t1\t1\n").is_err());
        assert!(ledger_from_text("spsep-ledger/v1 algo=41\nx\tbad\t1\t1\t1\n").is_err());
        assert!(ledger_from_text("spsep-ledger/v1 algo=41\nx\t1\t1\t-2\t1\n").is_err());
        assert!(ledger_from_text("spsep-ledger/v1 algo=41\nx\t1\t1\t1\t2\n").is_err());
    }
}
