//! The serving-layer differential suite.
//!
//! Contract under test: **batch determinism** — `Oracle::batch`
//! (parallel across sources) on a reloaded `spsep-oracle/v2` snapshot
//! returns bit-identical answers at every thread count, and the cache
//! state it leaves behind is thread-count independent.
//!
//! The round-trip bit-identity contract lives in the root
//! `tests/snapshot.rs`; corruption robustness in `tests/snapshot_v2.rs`.

use rayon::with_max_threads;
use spsep_bench::families::Family;
use spsep_core::{Algorithm, Oracle};
use spsep_pram::Metrics;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const N_TARGET: usize = 240;
const SEED: u64 = 18;

#[test]
fn batch_is_deterministic_across_thread_counts_including_cache_state() {
    let (g, tree) = Family::Grid2D.instance(N_TARGET, SEED);
    let fresh = Oracle::prepare(g, tree, Algorithm::PathDoubling, &Metrics::new()).unwrap();
    let mut snapshot = Vec::new();
    fresh
        .save_v2(&mut snapshot)
        .expect("save_v2 to a Vec cannot fail");
    let n = fresh.n();
    // More distinct sources than default probes, interleaved targets.
    let pairs: Vec<(usize, usize)> = (0..64).map(|i| (i * 7 % n, i * 13 % n)).collect();

    let mut reference: Option<(Vec<f64>, u64, u64)> = None;
    for threads in THREAD_COUNTS {
        let (answers, hits, misses) = with_max_threads(threads, || {
            let served = Oracle::load(snapshot.as_slice()).unwrap();
            let metrics = Metrics::new();
            let first = served.batch(&pairs, &metrics).unwrap();
            // Re-batching must be answered from cache alone.
            let second = served.batch(&pairs, &metrics).unwrap();
            assert_eq!(first, second, "{threads} threads: batch not stable");
            let stats = served.cache_stats();
            (first, stats.hits, stats.misses)
        });
        match &reference {
            None => reference = Some((answers, hits, misses)),
            Some((ref_answers, ref_hits, ref_misses)) => {
                for (i, (a, b)) in ref_answers.iter().zip(&answers).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "pair {i} differs at {threads} threads"
                    );
                }
                assert_eq!(
                    (*ref_hits, *ref_misses),
                    (hits, misses),
                    "cache counters depend on thread count"
                );
            }
        }
    }
}
