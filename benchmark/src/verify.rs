//! The correctness gate. Every answer the benchmark receives is checked
//! after its timed window: against the in-process oracle bit for bit
//! when it came over the wire, and against one Dijkstra row per distinct
//! source with relative tolerance 1e-9 (∞ matches only ∞). Exact
//! equality with Dijkstra is not expected: the oracle adds path weights
//! in another order, and on the road instance the largest measured
//! relative difference is about 1e-15.

use crate::sut::{self, Graph, Queries};
use rayon::prelude::*;

/// Relative tolerance against Dijkstra.
pub const TOLERANCE: f64 = 1e-9;

/// Sources whose reference rows are held in memory at once.
const CHUNK: usize = 32;

/// `a` equals reference `b` within [`TOLERANCE`]; an infinity only
/// equals itself.
pub fn close(a: f64, b: f64) -> bool {
    a == b || (a.is_finite() && b.is_finite() && (a - b).abs() <= TOLERANCE * a.abs().max(b.abs()))
}

/// A multiply-rotate hash over the bit patterns of a row, one word per
/// step: a whole table received over the wire is kept as this digest,
/// not as its 8·n bytes, and hashing it must stay cheap next to a
/// cached answer's round trip.
pub fn digest(row: &[f64]) -> u64 {
    row.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, x| {
        (h ^ x.to_bits())
            .wrapping_mul(0x0100_0000_01b3)
            .rotate_left(29)
    })
}

/// What one answer claims about the row of `source`.
#[derive(Clone, Debug)]
pub enum Expect {
    /// `dist(source, target) = got`.
    Value {
        /// Target vertex.
        target: usize,
        /// The answer.
        got: f64,
    },
    /// The whole row has this [`digest`].
    Table(u64),
}

/// One claim of operation `op`.
#[derive(Clone, Debug)]
pub struct Check {
    /// Index of the operation the claim belongs to.
    pub op: usize,
    /// Source vertex of the claim.
    pub source: usize,
    /// The claim.
    pub expect: Expect,
}

/// Check every claim; returns which of `ops` operations failed. With
/// `wire` set the claims came over the wire: they must also match the
/// in-process rows of `wire` bit for bit, and whole tables are checked.
pub fn check(g: &Graph, wire: Option<&Queries>, mut checks: Vec<Check>, ops: usize) -> Vec<bool> {
    let mut failed = vec![false; ops];
    checks.sort_by_key(|c| c.source);
    let mut sources: Vec<usize> = checks.iter().map(|c| c.source).collect();
    sources.dedup();
    let mut rest = checks.as_slice();
    for chunk in sources.chunks(CHUNK) {
        let reference = sut::dijkstra_rows(g, chunk);
        let inproc: Vec<Option<Vec<f64>>> = match wire {
            Some(q) => chunk
                .par_iter()
                .map(|&s| q.table(s).ok().map(|row| row.to_vec()))
                .collect(),
            None => vec![None; chunk.len()],
        };
        for ((&s, want), mine) in chunk.iter().zip(&reference).zip(&inproc) {
            let end = rest.partition_point(|c| c.source == s);
            for c in &rest[..end] {
                let ok = match (&c.expect, wire, mine) {
                    (Expect::Value { target, got }, None, _) => close(*got, want[*target]),
                    (Expect::Value { target, got }, Some(_), Some(mine)) => {
                        got.to_bits() == mine[*target].to_bits() && close(*got, want[*target])
                    }
                    (Expect::Table(d), Some(_), Some(mine)) => {
                        *d == digest(mine) && mine.iter().zip(want).all(|(&a, &b)| close(a, b))
                    }
                    _ => false,
                };
                failed[c.op] |= !ok;
            }
            rest = &rest[end..];
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_is_relative_and_infinity_matches_only_itself() {
        assert!(close(1e6, 1e6 * (1.0 + 1e-12)));
        assert!(!close(1.0, 1.0 + 1e-6));
        assert!(close(f64::INFINITY, f64::INFINITY));
        assert!(!close(f64::INFINITY, 1e300));
        assert!(!close(f64::NAN, f64::NAN));
        assert!(close(0.0, -0.0));
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = [1.0, 2.0, f64::INFINITY];
        assert_eq!(digest(&a), digest(&[1.0, 2.0, f64::INFINITY]));
        assert_ne!(
            digest(&a),
            digest(&[1.0, f64::from_bits(2.0f64.to_bits() + 1), f64::INFINITY])
        );
        assert_ne!(digest(&a), digest(&[2.0, 1.0, f64::INFINITY]));
    }

    #[test]
    fn check_flags_the_operation_with_a_wrong_answer() {
        let g = Graph::from_edges(
            3,
            vec![
                spsep_graph::Edge::new(0, 1, 1.5),
                spsep_graph::Edge::new(1, 2, 2.0),
            ],
        );
        let value = |op, source, target, got| Check {
            op,
            source,
            expect: Expect::Value { target, got },
        };
        let checks = vec![
            value(0, 0, 2, 3.5),
            value(1, 1, 0, f64::INFINITY),
            value(2, 0, 1, 1.5),
            value(2, 0, 2, 3.4),
        ];
        assert_eq!(check(&g, None, checks, 3), vec![false, false, true]);
    }
}
