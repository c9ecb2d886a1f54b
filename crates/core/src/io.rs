//! Persistence of text augmentations.
//!
//! `E⁺` is a plain weighted edge set, so a preprocessed instance can be
//! stored next to its decomposition tree (see `spsep_separator::io`)
//! and reloaded without re-running Algorithm 4.1/4.3
//! ([`write_augmentation`] / [`read_augmentation`]):
//!
//! ```text
//! ep <n> <num_edges> <d_g> <leaf_bound> <raw_pairs>
//! e <from> <to> <weight>        (0-based, num_edges lines)
//! ```
//!
//! Weights are written with full `f64` round-trip precision. Parsing is
//! hardened: NaN weights, out-of-range endpoints, and count mismatches
//! are rejected with line-numbered [`SpsepError::Parse`] errors — never
//! a panic (`crates/testkit` drives a corruption catalog through it).
//!
//! The binary oracle snapshot lives in [`crate::iov2`].

use crate::augment::{AugmentStats, Augmentation};
use spsep_graph::semiring::Tropical;
use spsep_graph::{Edge, SpsepError};
use std::io::{BufRead, Write};

/// Error from [`read_augmentation`] (alias kept for callers of the
/// pre-taxonomy API).
pub type ParseError = SpsepError;

/// Serialize a tropical augmentation (`n` is the graph's vertex count,
/// needed for validation at load time).
pub fn write_augmentation<W: Write>(
    n: usize,
    aug: &Augmentation<Tropical>,
    out: &mut W,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut buf = String::new();
    // Writes into a String are infallible.
    let _ = writeln!(
        buf,
        "ep {} {} {} {} {}",
        n,
        aug.eplus.len(),
        aug.stats.d_g,
        aug.stats.leaf_bound,
        aug.stats.raw_pairs
    );
    for e in &aug.eplus {
        // `{:?}` prints f64 with round-trip precision.
        let _ = writeln!(buf, "e {} {} {:?}", e.from, e.to, e.w);
    }
    out.write_all(buf.as_bytes())
}

/// Parse an augmentation previously written by [`write_augmentation`];
/// returns `(n, augmentation)`.
pub fn read_augmentation<R: BufRead>(
    input: R,
) -> Result<(usize, Augmentation<Tropical>), SpsepError> {
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| SpsepError::parse("empty input"))??;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("ep") {
        return Err(SpsepError::parse_at(1, "missing 'ep' header"));
    }
    let n: usize = field(parts.next(), 1, "n")?;
    let num_edges: usize = field(parts.next(), 1, "edge count")?;
    let d_g: u32 = field(parts.next(), 1, "d_g")?;
    let leaf_bound: usize = field(parts.next(), 1, "leaf bound")?;
    let raw_pairs: usize = field(parts.next(), 1, "raw pairs")?;
    let mut eplus: Vec<Edge<f64>> = Vec::with_capacity(num_edges.min(1 << 24));
    for (off, line) in lines.enumerate() {
        let lineno = off + 2; // 1-based; header was line 1
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        if parts.next() != Some("e") {
            return Err(SpsepError::parse_at(lineno, "expected 'e' record"));
        }
        let from: usize = field(parts.next(), lineno, "from")?;
        let to: usize = field(parts.next(), lineno, "to")?;
        let w: f64 = field(parts.next(), lineno, "weight")?;
        if w.is_nan() {
            return Err(SpsepError::parse_at(lineno, "shortcut weight is NaN"));
        }
        if from >= n || to >= n {
            return Err(SpsepError::parse_at(
                lineno,
                format!("edge {from}→{to} out of range 0..{n}"),
            ));
        }
        eplus.push(Edge::new(from, to, w));
    }
    if eplus.len() != num_edges {
        return Err(SpsepError::parse(format!(
            "declared {num_edges} edges, found {}",
            eplus.len()
        )));
    }
    let stats = AugmentStats {
        eplus_edges: eplus.len(),
        raw_pairs,
        d_g,
        leaf_bound,
    };
    Ok((n, Augmentation { eplus, stats }))
}

fn field<T: std::str::FromStr>(
    f: Option<&str>,
    lineno: usize,
    what: &str,
) -> Result<T, SpsepError> {
    let raw = f.ok_or_else(|| SpsepError::parse_at(lineno, format!("missing {what}")))?;
    raw.parse()
        .map_err(|_| SpsepError::parse_at(lineno, format!("bad {what} '{raw}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{alg41, Preprocessed};
    use rand::SeedableRng;
    use spsep_pram::Metrics;
    use spsep_separator::{builders, RecursionLimits};

    #[test]
    fn roundtrip_and_requery() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(60);
        let (g, _) = spsep_graph::generators::grid(&[9, 8], &mut rng);
        let tree = builders::grid_tree(&[9, 8], RecursionLimits::default());
        let metrics = Metrics::new();
        let aug = alg41::augment_leaves_up::<Tropical>(&g, &tree, &metrics).unwrap();

        let mut buf = Vec::new();
        write_augmentation(g.n(), &aug, &mut buf).unwrap();
        let (n, back) = read_augmentation(buf.as_slice()).unwrap();
        assert_eq!(n, g.n());
        assert_eq!(back.eplus.len(), aug.eplus.len());
        assert_eq!(back.stats.d_g, aug.stats.d_g);
        for (a, b) in aug.eplus.iter().zip(&back.eplus) {
            assert_eq!((a.from, a.to), (b.from, b.to));
            assert_eq!(a.w, b.w, "weights must round-trip bit-exactly");
        }
        // The reloaded augmentation answers queries identically.
        let pre1 = Preprocessed::compile(&g, &tree, aug);
        let pre2 = Preprocessed::compile(&g, &tree, back);
        assert_eq!(pre1.distances_seq(0).0, pre2.distances_seq(0).0);
    }

    #[test]
    fn parse_errors() {
        assert!(read_augmentation("".as_bytes()).is_err());
        assert!(read_augmentation("xx 1 0 0 0 0\n".as_bytes()).is_err());
        assert!(read_augmentation("ep 2 1 0 0 0\n".as_bytes()).is_err()); // count
        assert!(read_augmentation("ep 2 1 0 0 0\ne 0 9 1.0\n".as_bytes()).is_err()); // range
        assert!(read_augmentation("ep 2 1 0 0 0\nq 0 1 1.0\n".as_bytes()).is_err()); // record
        let ok = read_augmentation("ep 2 1 1 1 4\ne 0 1 2.5\n".as_bytes()).unwrap();
        assert_eq!(ok.1.eplus[0].w, 2.5);
    }

    #[test]
    fn parse_errors_are_typed_and_line_numbered() {
        // NaN weight on the first edge line → line 2.
        assert!(matches!(
            read_augmentation("ep 2 1 0 0 0\ne 0 1 NaN\n".as_bytes()),
            Err(SpsepError::Parse { line: Some(2), .. })
        ));
        // Bad header field.
        assert!(matches!(
            read_augmentation("ep x 1 0 0 0\n".as_bytes()),
            Err(SpsepError::Parse { line: Some(1), .. })
        ));
        // Out-of-range endpoint reports its line.
        assert!(matches!(
            read_augmentation("ep 2 2 0 0 0\ne 0 1 1.0\ne 5 1 1.0\n".as_bytes()),
            Err(SpsepError::Parse { line: Some(3), .. })
        ));
    }
}
