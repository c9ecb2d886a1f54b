//! Graph serialization: plain text (DIMACS shortest-path style).
//!
//! Text format:
//!
//! ```text
//! c free-form comment lines
//! p sp <n> <m>
//! a <from> <to> <weight>     (1-based vertex ids, m lines)
//! ```
//!
//! Lets experiment inputs be checked in, regenerated, and diffed.
//!
//! Parsing is hardened: NaN and infinite weights, out-of-range vertex
//! ids, and header/line-count mismatches are rejected with
//! line-numbered [`SpsepError::Parse`] errors — a malformed file can
//! never panic the caller or silently produce a wrong graph.
//!
//! The binary oracle snapshot (`spsep_core::iov2`) stores the graph as
//! its own CSR sections, not through this module.

use crate::digraph::{DiGraph, Edge};
use crate::error::SpsepError;
use std::fmt::Write as _;
use std::io::{BufRead, Write};

/// Serialize `g` in DIMACS `sp` format.
pub fn write_dimacs<Wr: Write>(g: &DiGraph<f64>, out: &mut Wr) -> std::io::Result<()> {
    let mut buf = String::new();
    // Writes into a String are infallible.
    let _ = writeln!(buf, "p sp {} {}", g.n(), g.m());
    for e in g.edges() {
        let _ = writeln!(buf, "a {} {} {}", e.from + 1, e.to + 1, e.w);
    }
    out.write_all(buf.as_bytes())
}

/// Parse a DIMACS `sp` graph.
pub fn read_dimacs<R: BufRead>(input: R) -> Result<DiGraph<f64>, SpsepError> {
    let mut n: Option<usize> = None;
    let mut declared_m = 0usize;
    let mut edges: Vec<Edge<f64>> = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("p") => {
                if n.is_some() {
                    return Err(SpsepError::parse_at(lineno + 1, "duplicate problem line"));
                }
                if parts.next() != Some("sp") {
                    return Err(SpsepError::parse_at(lineno + 1, "expected 'p sp'"));
                }
                let nv: usize = parse_field(parts.next(), lineno, "vertex count")?;
                declared_m = parse_field(parts.next(), lineno, "edge count")?;
                n = Some(nv);
                // Guard the reserve against absurd declared counts on
                // truncated/corrupted headers.
                edges.reserve(declared_m.min(1 << 24));
            }
            Some("a") => {
                let n =
                    n.ok_or_else(|| SpsepError::parse_at(lineno + 1, "arc before problem line"))?;
                let from: usize = parse_field(parts.next(), lineno, "arc source")?;
                let to: usize = parse_field(parts.next(), lineno, "arc target")?;
                let w: f64 = parse_field(parts.next(), lineno, "arc weight")?;
                if !w.is_finite() {
                    return Err(SpsepError::parse_at(
                        lineno + 1,
                        format!("arc weight '{w}' is not finite"),
                    ));
                }
                if from == 0 || to == 0 || from > n || to > n {
                    return Err(SpsepError::parse_at(
                        lineno + 1,
                        format!("vertex id out of range 1..={n}"),
                    ));
                }
                edges.push(Edge::new(from - 1, to - 1, w));
            }
            Some(other) => {
                return Err(SpsepError::parse_at(
                    lineno + 1,
                    format!("unknown record '{other}'"),
                ));
            }
            None => {}
        }
    }
    let n = n.ok_or_else(|| SpsepError::parse("missing problem line"))?;
    if edges.len() != declared_m {
        return Err(SpsepError::parse(format!(
            "declared {} arcs but found {}",
            declared_m,
            edges.len()
        )));
    }
    Ok(DiGraph::from_edges(n, edges))
}

pub(crate) fn parse_field<T: std::str::FromStr>(
    field: Option<&str>,
    lineno: usize,
    what: &str,
) -> Result<T, SpsepError> {
    let raw = field.ok_or_else(|| SpsepError::parse_at(lineno + 1, format!("missing {what}")))?;
    raw.parse()
        .map_err(|_| SpsepError::parse_at(lineno + 1, format!("bad {what} '{raw}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let (g, _) = generators::grid(&[4, 5], &mut rng);
        let mut buf = Vec::new();
        write_dimacs(&g, &mut buf).unwrap();
        let g2 = read_dimacs(buf.as_slice()).unwrap();
        assert_eq!(g.n(), g2.n());
        assert_eq!(g.m(), g2.m());
        for (a, b) in g.edges().iter().zip(g2.edges()) {
            assert_eq!(a.from, b.from);
            assert_eq!(a.to, b.to);
            assert!((a.w - b.w).abs() < 1e-12);
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "c hello\n\np sp 2 1\nc mid\na 1 2 3.5\n";
        let g = read_dimacs(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
        assert_eq!(g.edges()[0].w, 3.5);
    }

    #[test]
    fn errors_are_reported() {
        assert!(read_dimacs("a 1 2 3\n".as_bytes()).is_err()); // arc before p
        assert!(read_dimacs("p sp 2 1\na 1 5 1.0\n".as_bytes()).is_err()); // range
        assert!(read_dimacs("p sp 2 2\na 1 2 1.0\n".as_bytes()).is_err()); // count
        assert!(read_dimacs("q sp 2 1\n".as_bytes()).is_err()); // record
        assert!(read_dimacs("p sp 2 1\na 1 2 abc\n".as_bytes()).is_err()); // weight
    }

    #[test]
    fn hardened_rejections_are_typed_and_line_numbered() {
        // NaN and infinite weights.
        for bad in ["NaN", "nan", "inf", "-inf"] {
            let text = format!("p sp 2 1\na 1 2 {bad}\n");
            match read_dimacs(text.as_bytes()) {
                Err(SpsepError::Parse { line: Some(2), .. }) => {}
                other => panic!("weight {bad}: expected Parse at line 2, got {other:?}"),
            }
        }
        // Duplicate problem line.
        assert!(matches!(
            read_dimacs("p sp 2 0\np sp 3 0\n".as_bytes()),
            Err(SpsepError::Parse { line: Some(2), .. })
        ));
        // Out-of-range id reports its line.
        assert!(matches!(
            read_dimacs("p sp 2 1\nc pad\na 1 99 1.0\n".as_bytes()),
            Err(SpsepError::Parse { line: Some(3), .. })
        ));
        // Count mismatch (no single line to blame).
        assert!(matches!(
            read_dimacs("p sp 2 5\na 1 2 1.0\n".as_bytes()),
            Err(SpsepError::Parse { line: None, .. })
        ));
    }
}
