//! Set-up: raw input → servable, memory-mapped oracle. This is what
//! `setup_s` times, repeated several times per run; each repetition is
//! checked afterwards, outside its timer.

use crate::gen::{stream, UniformPairs};
use crate::sut::{self, Alg, Graph, PrepareFacts, Queries, Res, Shape, TreeShape};
use crate::trace;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The raw input of a workload.
#[derive(Clone, Debug)]
pub enum Input {
    /// A road instance file, prepared with Alg 4.1 on the planar level
    /// tree.
    Road(PathBuf),
    /// The seeded `side³` grid, prepared with Alg 4.3 on the grid tree.
    Grid {
        /// Vertices per axis.
        side: usize,
        /// Weight seed.
        seed: u64,
    },
}

/// A prepared, loaded oracle and what its preparation reported.
pub struct Ready {
    /// Queries over the memory-mapped snapshot.
    pub queries: Queries,
    /// The imported graph: the reference Dijkstra runs on.
    pub graph: Graph,
    /// The snapshot file.
    pub snapshot: PathBuf,
    /// Its size.
    pub snapshot_bytes: u64,
    /// Separator tree counts.
    pub tree: TreeShape,
    /// Preparation counters and ledger.
    pub facts: PrepareFacts,
    /// Sizes of the loaded oracle.
    pub shape: Shape,
}

/// Set-up repeated `reps` times; the last result and every duration.
pub struct Repeated {
    /// The oracle of the last repetition.
    pub ready: Ready,
    /// Seconds of each repetition.
    pub seconds: Vec<f64>,
    /// Repetitions whose check failed.
    pub failed: u64,
}

/// Run the set-up `reps ≥ 1` times, writing the snapshot to `snapshot`.
///
/// # Errors
///
/// Any layer error: a set-up that cannot finish ends the run.
pub fn repeated(input: &Input, reps: usize, snapshot: &Path, seed: u64) -> Res<Repeated> {
    let mut ready: Option<Ready> = None;
    let mut seconds = Vec::with_capacity(reps);
    let mut failed = 0;
    for rep in 0..reps {
        // The previous oracle maps the file this repetition rewrites.
        drop(ready.take());
        let (r, prepared) = {
            let _s = trace::request("bench.setup", rep as u64);
            let t0 = Instant::now();
            let out = once(input, snapshot)?;
            seconds.push(t0.elapsed().as_secs_f64());
            out
        };
        failed += u64::from(!agrees(&r, prepared, seed, rep as u64));
        ready = Some(r);
    }
    Ok(Repeated {
        ready: ready.ok_or("zero set-up repetitions")?,
        seconds,
        failed,
    })
}

/// One set-up; also returns the in-memory oracle the snapshot came from.
fn once(input: &Input, snapshot: &Path) -> Res<(Ready, sut::Oracle)> {
    let (graph, adj, tree, alg) = match input {
        Input::Road(path) => {
            let g = sut::read_and_import(path)?;
            let adj = sut::skeleton(&g);
            let tree = sut::planar_tree(&adj)?;
            (g, adj, tree, Alg::LeavesUp)
        }
        Input::Grid { side, seed } => {
            let g = sut::grid3d(*side, *seed);
            let adj = sut::skeleton(&g);
            (g, adj, sut::grid_tree(*side), Alg::PathDoubling)
        }
    };
    let tree_shape = sut::validate_tree(&tree, &adj)?;
    drop(adj);
    let (prepared, facts) = sut::prepare(graph.clone(), tree, alg)?;
    let snapshot_bytes = sut::save_v2(&prepared, snapshot)?;
    let loaded = sut::load(snapshot)?;
    let shape = sut::shape(&loaded);
    Ok((
        Ready {
            queries: Queries::new(Arc::new(loaded)),
            graph,
            snapshot: snapshot.to_path_buf(),
            snapshot_bytes,
            tree: tree_shape,
            facts,
            shape,
        },
        prepared,
    ))
}

/// The set-up check: the ledger holds, and the loaded snapshot has the
/// prepared oracle's sizes and answers one seeded row bit for bit.
fn agrees(ready: &Ready, prepared: sut::Oracle, seed: u64, rep: u64) -> bool {
    if !ready.facts.ledger_ok || sut::shape(&prepared) != ready.shape {
        return false;
    }
    let s = UniformPairs::new(seed, stream::SETUP_CHECK + rep, ready.shape.n)
        .next_pair()
        .0;
    let fresh = Queries::new(Arc::new(prepared));
    match (fresh.table(s), ready.queries.table(s)) {
        (Ok(a), Ok(b)) => a
            .iter()
            .zip(b.iter())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        _ => false,
    }
}

/// Cold rows timed against Dijkstra rows from the same sources.
pub struct ColdRows {
    /// Milliseconds per cold oracle row.
    pub row_ms: Vec<f64>,
    /// Milliseconds per Dijkstra row.
    pub dijkstra_ms: Vec<f64>,
    /// Relaxations the rows charged.
    pub relaxations: u64,
    /// Rows that disagreed with Dijkstra.
    pub failed: u64,
}

/// Compute `k` seeded rows with the row cache off, each timed next to a
/// Dijkstra row from the same source, and compare them. Run last: it
/// empties the cache.
pub fn cold_rows(ready: &Ready, seed: u64, k: usize) -> ColdRows {
    ready.queries.disable_cache();
    let mut pairs = UniformPairs::new(seed, stream::SETUP_CHECK, ready.shape.n);
    let before = ready.queries.relaxations();
    let mut out = ColdRows {
        row_ms: Vec::with_capacity(k),
        dijkstra_ms: Vec::with_capacity(k),
        relaxations: 0,
        failed: 0,
    };
    for (s, _) in pairs.distinct_sources(k.min(ready.shape.n)) {
        let t0 = Instant::now();
        let row = ready.queries.table(s);
        out.row_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let want = sut::dijkstra_rows(&ready.graph, &[s]);
        out.dijkstra_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let ok = row.is_ok_and(|row| {
            row.iter()
                .zip(&want[0])
                .all(|(&a, &b)| crate::verify::close(a, b))
        });
        out.failed += u64::from(!ok);
    }
    out.relaxations = ready.queries.relaxations() - before;
    out
}
