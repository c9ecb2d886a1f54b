//! Seeded inputs. Everything the system under test receives is drawn
//! here from `--seed`: query streams, the zipf rank→vertex permutation,
//! and the grid weights (through [`rng`]). The same seed gives the same
//! inputs; each consumer draws from its own stream tag, so adding a
//! draw to one stream never shifts another.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Stream tags: one independent generator per purpose.
pub mod stream {
    /// Weights of the generated grid3d instance.
    pub const GRID_WEIGHTS: u64 = 1;
    /// Uniform `(s, t)` pairs of road-cold-point.
    pub const COLD_PAIRS: u64 = 2;
    /// Batches of grid3d-43-batch.
    pub const BATCHES: u64 = 3;
    /// The zipf rank→vertex permutation of road-serve-zipf.
    pub const HOT_PERMUTATION: u64 = 4;
    /// Sources the set-up check compares against Dijkstra.
    pub const SETUP_CHECK: u64 = 5;
    /// Point queries of the traced daemon probe.
    pub const PROBE: u64 = 6;
    /// First of the per-client request streams (client `i` uses `+ i`).
    pub const CLIENTS: u64 = 64;
    /// First of the per-client uniform point streams (client `i` uses
    /// `+ i`).
    pub const CLIENT_POINTS: u64 = 128;
}

/// The generator of stream `tag` under `seed`.
pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.rotate_left(40) ^ 0x5eed_5eed_0000_0000)
}

/// Uniform `(source, target)` pairs over `0..n`.
pub struct UniformPairs {
    rng: StdRng,
    n: usize,
}

impl UniformPairs {
    /// Stream `tag` of `seed` over `0..n`.
    pub fn new(seed: u64, tag: u64, n: usize) -> UniformPairs {
        UniformPairs {
            rng: rng(seed, tag),
            n,
        }
    }

    /// `k` pairs with pairwise distinct sources (`k ≤ n`), targets uniform.
    pub fn distinct_sources(&mut self, k: usize) -> Vec<(usize, usize)> {
        assert!(k <= self.n, "{k} distinct sources out of {}", self.n);
        let mut seen = std::collections::HashSet::with_capacity(k);
        let mut pairs = Vec::with_capacity(k);
        while pairs.len() < k {
            let (s, t) = self.next_pair();
            if seen.insert(s) {
                pairs.push((s, t));
            }
        }
        pairs
    }

    /// One uniform pair.
    pub fn next_pair(&mut self) -> (usize, usize) {
        (self.rng.gen_range(0..self.n), self.rng.gen_range(0..self.n))
    }
}

/// Zipf distribution over ranks `0..n`: `P(rank k) ∝ (k + 1)^-θ`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the CDF over `n ≥ 1` ranks.
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-theta);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One query of a stream, before it is put on the wire.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// `distance(s, t)`.
    Point(usize, usize),
    /// The whole distance table of `s`.
    Source(usize),
    /// Point queries answered together.
    Batch(Vec<(usize, usize)>),
}

/// Zipf skew of the daemon's sources.
pub const ZIPF_THETA: f64 = 1.6;
/// Point : source : batch request weights.
pub const MIX: [u32; 3] = [8, 1, 1];
/// Pairs per batch request.
pub const BATCH_PAIRS: usize = 8;

/// The zipf-skewed source distribution of road-serve-zipf: ranks drawn
/// from [`Zipf`], mapped to vertices by a seeded permutation, so the
/// hot set is a property of the seed and not of vertex numbering.
pub struct HotSources {
    zipf: Zipf,
    vertex_of_rank: Vec<usize>,
}

impl HotSources {
    /// The hot-source distribution of `seed` over `0..n`.
    pub fn new(seed: u64, n: usize) -> HotSources {
        let mut vertex_of_rank: Vec<usize> = (0..n).collect();
        vertex_of_rank.shuffle(&mut rng(seed, stream::HOT_PERMUTATION));
        HotSources {
            zipf: Zipf::new(n, ZIPF_THETA),
            vertex_of_rank,
        }
    }

    /// The `k` most likely sources, hottest first.
    pub fn hottest(&self, k: usize) -> &[usize] {
        &self.vertex_of_rank[..k.min(self.vertex_of_rank.len())]
    }
}

/// The request stream of one daemon client: [`MIX`] of point, source
/// and batch requests with zipf sources and uniform targets.
///
/// The seed picks the hot vertices (through [`HotSources`]) and the
/// targets. The sequence of request kinds and source *ranks* is the
/// same under every seed (common random numbers): runs with different
/// seeds then differ in which vertices are hot, not in how skewed their
/// few seconds of traffic happened to be, which would otherwise swamp
/// the run-to-run spread of the cache-bound metrics.
pub struct ServeStream {
    shape: StdRng,
    targets: StdRng,
    hot: Arc<HotSources>,
}

impl ServeStream {
    /// Client `client`'s stream under `seed`.
    pub fn new(seed: u64, client: u64, hot: Arc<HotSources>) -> ServeStream {
        ServeStream {
            shape: rng(0, stream::CLIENTS + client),
            targets: rng(seed, stream::CLIENTS + client),
            hot,
        }
    }

    fn source(&mut self) -> usize {
        self.hot.vertex_of_rank[self.hot.zipf.sample(&mut self.shape)]
    }

    /// The next request.
    pub fn next_query(&mut self) -> Query {
        let n = self.hot.vertex_of_rank.len();
        let pick = self.shape.gen_range(0..MIX.iter().sum::<u32>());
        if pick < MIX[0] {
            Query::Point(self.source(), self.targets.gen_range(0..n))
        } else if pick < MIX[0] + MIX[1] {
            Query::Source(self.source())
        } else {
            Query::Batch(
                (0..BATCH_PAIRS)
                    .map(|_| (self.source(), self.targets.gen_range(0..n)))
                    .collect(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queries(seed: u64, client: u64, n: usize, k: usize) -> Vec<Query> {
        let mut s = ServeStream::new(seed, client, Arc::new(HotSources::new(seed, n)));
        (0..k).map(|_| s.next_query()).collect()
    }

    #[test]
    fn same_seed_gives_an_identical_stream() {
        assert_eq!(queries(7, 0, 5000, 2000), queries(7, 0, 5000, 2000));
        let mut a = UniformPairs::new(7, stream::COLD_PAIRS, 100);
        let mut b = UniformPairs::new(7, stream::COLD_PAIRS, 100);
        assert_eq!(a.distinct_sources(50), b.distinct_sources(50));
        // Clients of one seed draw different streams.
        assert_ne!(queries(7, 0, 5000, 100), queries(7, 1, 5000, 100));
    }

    #[test]
    fn another_seed_gives_another_hot_set() {
        let a = HotSources::new(1, 24_000);
        let b = HotSources::new(2, 24_000);
        assert_ne!(a.hottest(10), b.hottest(10));
        assert_ne!(queries(1, 0, 24_000, 100), queries(2, 0, 24_000, 100));
    }

    #[test]
    fn the_mix_and_the_skew_hold() {
        let qs = queries(3, 0, 24_000, 10_000);
        let count = |f: fn(&Query) -> bool| qs.iter().filter(|q| f(q)).count();
        let points = count(|q| matches!(q, Query::Point(..)));
        let batches = count(|q| matches!(q, Query::Batch(p) if p.len() == BATCH_PAIRS));
        assert!((7_700..8_300).contains(&points), "{points} points");
        assert!((800..1_200).contains(&batches), "{batches} batches");
        // θ = 1.6: the ten hottest sources take about 80% of requests.
        let hot = HotSources::new(3, 24_000);
        let top = hot.hottest(10);
        let hits = qs
            .iter()
            .filter(|q| matches!(q, Query::Point(s, _) if top.contains(s)))
            .count();
        assert!(
            hits * 100 > points * 70,
            "{hits} of {points} points hit the top 10"
        );
    }

    #[test]
    fn distinct_sources_are_distinct() {
        let mut pairs = UniformPairs::new(9, stream::BATCHES, 64);
        let mut sources: Vec<usize> = pairs.distinct_sources(64).iter().map(|p| p.0).collect();
        sources.sort_unstable();
        assert_eq!(sources, (0..64).collect::<Vec<_>>());
    }
}
