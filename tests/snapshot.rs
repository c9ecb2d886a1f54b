//! The snapshot contract, end to end through the facade: an oracle
//! saved as an `spsep-oracle/v2` snapshot and reloaded answers every
//! probe query bit-identically to the freshly prepared oracle, on every
//! graph family, at 1/2/4/8 threads, and agrees with Dijkstra.

use rayon::with_max_threads;
use spsep::baselines::dijkstra;
use spsep::core::{Algorithm, Oracle};
use spsep::pram::Metrics;
use spsep_bench::families::Family;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const N_TARGET: usize = 240;
const SEED: u64 = 18;

#[test]
fn reloaded_oracle_is_bit_identical_to_fresh_at_every_thread_count() {
    for family in Family::all() {
        let (g, tree) = family.instance(N_TARGET, SEED);
        let fresh = Oracle::prepare(g, tree, Algorithm::LeavesUp, &Metrics::new())
            .unwrap_or_else(|e| panic!("{}: prepare failed: {e}", family.label()));
        let mut snapshot = Vec::new();
        fresh
            .save_v2(&mut snapshot)
            .expect("save_v2 to a Vec cannot fail");
        let n = fresh.n();
        let metrics = Metrics::new();
        let probes = [0, n / 3, n / 2, n - 1];

        // Reference rows from the fresh oracle, plus the Dijkstra
        // cross-check (nonnegative weights in every family).
        let mut reference: Vec<Vec<f64>> = Vec::new();
        for &s in &probes {
            let row = fresh.source_table(s, &metrics).unwrap();
            let oracle_dist = dijkstra(fresh.graph(), s).dist;
            for v in 0..n {
                assert!(
                    (row[v] - oracle_dist[v]).abs() < 1e-9
                        || (row[v].is_infinite() && oracle_dist[v].is_infinite()),
                    "{}: source {s} vertex {v}: fresh {} vs dijkstra {}",
                    family.label(),
                    row[v],
                    oracle_dist[v]
                );
            }
            reference.push(row.to_vec());
        }

        for threads in THREAD_COUNTS {
            let rows = with_max_threads(threads, || {
                let served = Oracle::load(snapshot.as_slice())
                    .unwrap_or_else(|e| panic!("{}: load failed: {e}", family.label()));
                assert!(
                    served.is_slab_backed(),
                    "{}: load must borrow",
                    family.label()
                );
                probes
                    .iter()
                    .map(|&s| served.source_table(s, &metrics).unwrap().to_vec())
                    .collect::<Vec<_>>()
            });
            for (i, (row_ref, row_got)) in reference.iter().zip(&rows).enumerate() {
                for v in 0..n {
                    assert_eq!(
                        row_ref[v].to_bits(),
                        row_got[v].to_bits(),
                        "{} at {threads} threads: probe {i} vertex {v}",
                        family.label()
                    );
                }
            }
        }
    }
}

/// Digest of a saved snapshot from the first section payload on: every
/// section and the trailer, but not the header or the section table.
/// The first payload starts at `pad₆₄(24 + 13·32) = 448`.
fn payload_digest(graph_dims: &[usize], seed: u64, algo: Algorithm) -> (u64, usize) {
    use rand::SeedableRng;
    use spsep::graph::bytes::fnv1a64;
    use spsep::separator::{builders, RecursionLimits};

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (g, _) = spsep::graph::generators::grid(graph_dims, &mut rng);
    let tree = builders::grid_tree(graph_dims, RecursionLimits::default());
    let oracle = Oracle::prepare(g, tree, algo, &Metrics::new()).expect("prepare");
    let mut bytes = Vec::new();
    oracle
        .save_v2(&mut bytes)
        .expect("save_v2 to a Vec cannot fail");
    (fnv1a64(&bytes[448..]), bytes.len())
}

/// The snapshot payload is pinned byte for byte: `E⁺` (Alg 4.1 on a 3-D
/// grid, Alg 4.3 on a 2-D grid), the compiled buckets and every other
/// section must come out exactly as they always have. A change to the
/// header (version word, section checksums) leaves these digests alone.
#[test]
fn snapshot_payload_bytes_are_pinned() {
    let cases: [(&[usize], u64, Algorithm, u64, usize); 2] = [
        (
            &[7, 7, 7],
            28,
            Algorithm::LeavesUp,
            0x7d29_b269_9dc8_498c,
            863_240,
        ),
        (
            &[14, 13],
            28,
            Algorithm::PathDoubling,
            0x616f_857a_faae_ae45,
            165_704,
        ),
    ];
    for (dims, seed, algo, digest, len) in cases {
        let (got, got_len) = payload_digest(dims, seed, algo);
        assert_eq!(
            (got, got_len),
            (digest, len),
            "{algo:?} on {dims:?}: payload digest {got:#018x}, {got_len} bytes"
        );
    }
}
