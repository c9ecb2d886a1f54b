//! Real-instance ingestion: DIMACS challenge files, CSV edge lists, and
//! binary CSR directories, normalized into a serving-ready [`DiGraph`].
//!
//! Road-network distributions come in three shapes, all supported here:
//!
//! * **DIMACS `.gr`** (9th DIMACS Implementation Challenge) — handled by
//!   the hardened [`crate::io::read_dimacs`] parser; this module adds
//!   the companion **`.ss`** auxiliary source file (`p aux sp ss`).
//! * **CSV edge lists** (`from,to,weight`, 0-based, optional header) —
//!   the simplest OSM-derived interchange form; [`read_csv_edges`] /
//!   [`write_csv_edges`] round-trip bit-exactly because `f64` weights
//!   print in shortest-round-trip form.
//! * **Binary CSR directories** (`first_out` / `head` / `weight` as
//!   little-endian `u32` files, rust_road_router convention) —
//!   [`read_csr_dir`] validates monotonicity and bounds before building.
//!
//! Raw extracts are rarely servable as-is: they are usually not strongly
//! connected (one-way streets at the clip boundary), and their weight
//! scales vary wildly (deciseconds, meters, float seconds). The
//! [`import`] pipeline fixes both — largest-strongly-connected-component
//! extraction (order-preserving, via [`crate::traversal::tarjan_scc`])
//! and mean-weight normalization — and reports exactly what it did in an
//! [`ImportReport`], so provenance survives into the artifact.
//!
//! Every malformed input yields a typed [`SpsepError`] (line-numbered
//! where lines exist) — never a panic; `testkit::import_corruptions()`
//! holds that line with a catalog of hostile inputs.
//!
//! ```
//! use spsep_graph::import::{import, read_csv_edges, ImportOptions};
//!
//! let csv = "from,to,weight\n0,1,2.5\n1,0,2.5\n1,2,1.0\n";
//! let g = read_csv_edges(csv.as_bytes())?;
//! assert_eq!((g.n(), g.m()), (3, 3));
//! // Vertex 2 is a sink ⇒ the largest SCC is {0, 1}.
//! let (core, report) = import(&g, ImportOptions::default())?;
//! assert_eq!((core.n(), core.m()), (2, 2));
//! assert_eq!(report.kept, vec![0, 1]);
//! # Ok::<(), spsep_graph::SpsepError>(())
//! ```

use crate::digraph::{DiGraph, Edge};
use crate::error::SpsepError;
use crate::io::{parse_field, read_dimacs};
use crate::traversal::tarjan_scc;
use std::io::BufRead;
use std::path::Path;

/// What the [`import`] pipeline is allowed to do to a raw instance.
#[derive(Clone, Copy, Debug)]
pub struct ImportOptions {
    /// Restrict to the largest strongly connected component (vertex ids
    /// are remapped but keep their relative order). Default `true`:
    /// distances between vertices in different SCCs are infinite, which
    /// most serving workloads treat as a data bug, not an answer.
    pub largest_scc: bool,
    /// Divide every weight by the mean weight so instances from
    /// different sources (deciseconds, meters, seconds) land on a
    /// comparable scale; the divisor is reported as
    /// [`ImportReport::weight_scale`]. Default `false`: committed
    /// instances keep their native units.
    pub normalize: bool,
}

impl Default for ImportOptions {
    fn default() -> Self {
        ImportOptions {
            largest_scc: true,
            normalize: false,
        }
    }
}

/// What [`import`] actually did — the provenance trail for an ingested
/// instance (E23 commits these numbers next to the bench results).
#[derive(Clone, Debug)]
pub struct ImportReport {
    /// Vertices in the raw input.
    pub nodes_parsed: usize,
    /// Arcs in the raw input.
    pub arcs_parsed: usize,
    /// Vertices surviving the pipeline.
    pub nodes_kept: usize,
    /// Arcs surviving the pipeline.
    pub arcs_kept: usize,
    /// Strongly connected components in the raw input.
    pub scc_count: usize,
    /// The divisor applied to every weight (`1.0` when `normalize` was
    /// off or the mean was not positive).
    pub weight_scale: f64,
    /// Old id of every kept vertex, in new-id order (ascending — the
    /// remap preserves relative order). Identity-sized when nothing was
    /// dropped.
    pub kept: Vec<u32>,
}

/// Run the ingestion pipeline on a parsed raw graph: largest-SCC
/// extraction, then weight normalization, per `opts`. See the
/// [module docs](self) for an end-to-end example.
pub fn import(
    g: &DiGraph<f64>,
    opts: ImportOptions,
) -> Result<(DiGraph<f64>, ImportReport), SpsepError> {
    let (comp, scc_count) = tarjan_scc(g);
    let mut report = ImportReport {
        nodes_parsed: g.n(),
        arcs_parsed: g.m(),
        nodes_kept: g.n(),
        arcs_kept: g.m(),
        scc_count,
        weight_scale: 1.0,
        kept: (0..g.n() as u32).collect(),
    };
    let mut out = g.clone();
    if opts.largest_scc && scc_count > 1 {
        let mut sizes = vec![0usize; scc_count];
        for &c in &comp {
            sizes[c as usize] += 1;
        }
        // Largest component, ties to the smallest component id.
        let best = (0..scc_count)
            .max_by_key(|&c| (sizes[c], std::cmp::Reverse(c)))
            .unwrap_or(0) as u32;
        let kept: Vec<usize> = (0..g.n()).filter(|&v| comp[v] == best).collect();
        if kept.is_empty() {
            return Err(SpsepError::invalid_graph(
                "largest SCC is empty (empty input graph)",
            ));
        }
        let (sub, map) = g.induced_subgraph(&kept);
        out = sub;
        report.kept = map.iter().map(|&v| v as u32).collect();
        report.nodes_kept = out.n();
        report.arcs_kept = out.m();
    }
    if opts.normalize && out.m() > 0 {
        let mean = out.edges().iter().map(|e| e.w).sum::<f64>() / out.m() as f64;
        if mean.is_finite() && mean > 0.0 {
            out = out.map_weights(|e| e.w / mean);
            report.weight_scale = mean;
        }
    }
    Ok((out, report))
}

/// Parse a DIMACS auxiliary source file (`p aux sp ss <count>` followed
/// by `s <vertex>` lines, 1-based), validating every id against `n`.
/// Returns the 0-based source vertices in file order.
///
/// ```
/// use spsep_graph::import::read_ss;
///
/// let ss = "c query sources\np aux sp ss 2\ns 1\ns 7\n";
/// assert_eq!(read_ss(ss.as_bytes(), 10)?, vec![0, 6]);
/// # Ok::<(), spsep_graph::SpsepError>(())
/// ```
pub fn read_ss<R: BufRead>(input: R, n: usize) -> Result<Vec<u32>, SpsepError> {
    let mut declared: Option<usize> = None;
    let mut sources: Vec<u32> = Vec::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("p") => {
                if declared.is_some() {
                    return Err(SpsepError::parse_at(lineno + 1, "duplicate problem line"));
                }
                if parts.next() != Some("aux")
                    || parts.next() != Some("sp")
                    || parts.next() != Some("ss")
                {
                    return Err(SpsepError::parse_at(
                        lineno + 1,
                        "expected 'p aux sp ss <count>'",
                    ));
                }
                let count: usize = parse_field(parts.next(), lineno, "source count")?;
                declared = Some(count);
                sources.reserve(count.min(1 << 24));
            }
            Some("s") => {
                if declared.is_none() {
                    return Err(SpsepError::parse_at(
                        lineno + 1,
                        "source before problem line",
                    ));
                }
                let v: usize = parse_field(parts.next(), lineno, "source vertex")?;
                if v == 0 || v > n {
                    return Err(SpsepError::parse_at(
                        lineno + 1,
                        format!("source vertex {v} outside 1..={n}"),
                    ));
                }
                sources.push((v - 1) as u32);
            }
            Some(other) => {
                return Err(SpsepError::parse_at(
                    lineno + 1,
                    format!("unknown record '{other}'"),
                ));
            }
            None => unreachable!("split_whitespace on a non-empty trimmed line"),
        }
    }
    let declared =
        declared.ok_or_else(|| SpsepError::parse("missing 'p aux sp ss' problem line"))?;
    if sources.len() != declared {
        return Err(SpsepError::parse(format!(
            "declared {declared} sources, found {}",
            sources.len()
        )));
    }
    Ok(sources)
}

/// Parse a CSV edge list: `from,to,weight` per line, 0-based vertex
/// ids, an optional `from,to,weight` header, `#`-prefixed comments.
/// `n` is the largest endpoint plus one. Weights must be finite and
/// non-negative — this is the road-extract interchange format, where a
/// negative travel time or length is always a data bug (unlike DIMACS
/// `.gr`, which legitimately carries potential-skewed negative
/// weights).
pub fn read_csv_edges<R: BufRead>(input: R) -> Result<DiGraph<f64>, SpsepError> {
    let mut edges: Vec<Edge<f64>> = Vec::new();
    let mut n = 0usize;
    for (lineno, line) in input.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if lineno == 0 && line.eq_ignore_ascii_case("from,to,weight") {
            continue;
        }
        let mut parts = line.split(',').map(str::trim);
        let from: usize = parse_field(parts.next(), lineno, "edge source")?;
        let to: usize = parse_field(parts.next(), lineno, "edge target")?;
        let w: f64 = parse_field(parts.next(), lineno, "edge weight")?;
        if let Some(extra) = parts.next() {
            return Err(SpsepError::parse_at(
                lineno + 1,
                format!("trailing field '{extra}'"),
            ));
        }
        if !w.is_finite() || w < 0.0 {
            return Err(SpsepError::parse_at(
                lineno + 1,
                format!("edge weight '{w}' is not a finite non-negative number"),
            ));
        }
        // u32 vertex ids everywhere downstream; reject anything larger
        // before it can wrap.
        if from > u32::MAX as usize - 1 || to > u32::MAX as usize - 1 {
            return Err(SpsepError::parse_at(
                lineno + 1,
                "vertex id exceeds u32 range",
            ));
        }
        n = n.max(from + 1).max(to + 1);
        edges.push(Edge::new(from, to, w));
    }
    Ok(DiGraph::from_edges(n, edges))
}

/// Serialize `g` as a CSV edge list readable by [`read_csv_edges`].
/// Weights print in shortest-round-trip form, so an export→import
/// cycle reproduces the graph bit-for-bit (proven by property test).
pub fn write_csv_edges<Wr: std::io::Write>(g: &DiGraph<f64>, out: &mut Wr) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut buf = String::from("from,to,weight\n");
    for e in g.edges() {
        // Writes into a String are infallible.
        let _ = writeln!(buf, "{},{},{}", e.from, e.to, e.w);
    }
    out.write_all(buf.as_bytes())
}

/// Read one little-endian `u32` array file of a CSR directory.
fn read_u32_file(dir: &Path, name: &str) -> Result<Vec<u32>, SpsepError> {
    let bytes = std::fs::read(dir.join(name))?;
    if bytes.len() % 4 != 0 {
        return Err(SpsepError::parse(format!(
            "CSR file '{name}': length {} is not a multiple of 4",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

/// Parse a binary CSR directory (rust_road_router convention): three
/// little-endian `u32` array files — `first_out` (`n+1` entries,
/// monotone, last = `m`), `head` (`m` entries, each `< n`), and
/// `weight` (`m` entries, native integer units, e.g. travel time in
/// deciseconds). Every structural violation is a typed error.
pub fn read_csr_dir(dir: &Path) -> Result<DiGraph<f64>, SpsepError> {
    let first_out = read_u32_file(dir, "first_out")?;
    let head = read_u32_file(dir, "head")?;
    let weight = read_u32_file(dir, "weight")?;
    if first_out.is_empty() {
        return Err(SpsepError::parse("CSR file 'first_out' is empty"));
    }
    let n = first_out.len() - 1;
    let m = first_out[n] as usize;
    if head.len() != m || weight.len() != m {
        return Err(SpsepError::parse(format!(
            "CSR arc-count mismatch: first_out declares {m}, head has {}, weight has {}",
            head.len(),
            weight.len()
        )));
    }
    // Validate monotonicity before indexing `head`/`weight`: a
    // non-monotone prefix can put an earlier vertex's range past `m`
    // even though the final entry agrees with the arc count.
    for v in 0..n {
        if first_out[v] > first_out[v + 1] {
            return Err(SpsepError::parse(format!(
                "CSR file 'first_out' is not monotone at vertex {v}"
            )));
        }
    }
    let mut edges = Vec::with_capacity(m.min(1 << 24));
    for v in 0..n {
        let (lo, hi) = (first_out[v], first_out[v + 1]);
        for a in lo..hi {
            let to = head[a as usize];
            if to as usize >= n {
                return Err(SpsepError::parse(format!(
                    "CSR arc {a}: head {to} outside 0..{n}"
                )));
            }
            edges.push(Edge::new(v, to as usize, weight[a as usize] as f64));
        }
    }
    Ok(DiGraph::from_edges(n, edges))
}

/// Parse a raw instance from `path`, sniffing the container: a
/// directory is read as a [binary CSR directory](read_csr_dir), a
/// `.csv` file as a [CSV edge list](read_csv_edges), and anything else
/// (`.gr`, `.dimacs`, …) as a DIMACS `sp` file.
pub fn read_instance_path(path: &Path) -> Result<DiGraph<f64>, SpsepError> {
    if path.is_dir() {
        return read_csr_dir(path);
    }
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    match path.extension().and_then(|e| e.to_str()) {
        Some("csv") => read_csv_edges(reader),
        _ => read_dimacs(reader),
    }
}

/// One-call ingestion: [`read_instance_path`] + the [`import`] pipeline.
pub fn import_path(
    path: &Path,
    opts: ImportOptions,
) -> Result<(DiGraph<f64>, ImportReport), SpsepError> {
    let g = read_instance_path(path)?;
    import(&g, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_csv() -> &'static str {
        "from,to,weight\n0,1,1.5\n1,0,2\n1,2,0.5\n2,1,0.5\n3,0,9\n"
    }

    #[test]
    fn csv_parses_and_roundtrips() {
        let g = read_csv_edges(tiny_csv().as_bytes()).unwrap();
        assert_eq!((g.n(), g.m()), (4, 5));
        let mut buf = Vec::new();
        write_csv_edges(&g, &mut buf).unwrap();
        let g2 = read_csv_edges(buf.as_slice()).unwrap();
        assert_eq!(g.n(), g2.n());
        assert_eq!(g.edges(), g2.edges());
    }

    #[test]
    fn csv_rejects_malformed() {
        for bad in [
            "0,1\n",                // missing weight
            "0,1,2,3\n",            // trailing field
            "0,1,nan\n",            // non-finite
            "0,1,inf\n",            // non-finite
            "0,1,-3.5\n",           // negative travel time
            "a,1,2\n",              // non-numeric id
            "0,99999999999999,1\n", // id overflows u32
        ] {
            let err = read_csv_edges(bad.as_bytes()).unwrap_err();
            assert!(matches!(err, SpsepError::Parse { .. }), "{bad:?} → {err}");
        }
    }

    #[test]
    fn scc_extraction_keeps_largest_and_preserves_order() {
        // 0↔1↔2 strongly connected; 3 dangles (arc into the SCC only).
        let g = read_csv_edges(tiny_csv().as_bytes()).unwrap();
        let (core, report) = import(&g, ImportOptions::default()).unwrap();
        assert_eq!(core.n(), 3);
        assert_eq!(report.kept, vec![0, 1, 2]);
        assert_eq!(report.scc_count, 2);
        assert_eq!(report.nodes_parsed, 4);
        assert_eq!(report.nodes_kept, 3);
        assert_eq!(report.arcs_kept, 4);
        // tarjan_scc again on the result: strongly connected.
        let (_, k) = tarjan_scc(&core);
        assert_eq!(k, 1);
    }

    #[test]
    fn normalization_reports_scale() {
        let g = read_csv_edges("0,1,10\n1,0,30\n".as_bytes()).unwrap();
        let opts = ImportOptions {
            normalize: true,
            ..Default::default()
        };
        let (out, report) = import(&g, opts).unwrap();
        assert_eq!(report.weight_scale, 20.0);
        let ws: Vec<f64> = out.edges().iter().map(|e| e.w).collect();
        assert_eq!(ws, vec![0.5, 1.5]);
    }

    #[test]
    fn ss_parses_and_validates() {
        let ss = "c sources\np aux sp ss 3\ns 1\ns 5\ns 10\n";
        assert_eq!(read_ss(ss.as_bytes(), 10).unwrap(), vec![0, 4, 9]);
        for bad in [
            "s 1\n",                          // source before problem line
            "p aux sp ss 1\n",                // count mismatch
            "p aux sp ss 1\ns 11\n",          // out of range
            "p aux sp ss 1\ns 0\n",           // ids are 1-based
            "p sp ss 1\ns 1\n",               // malformed header
            "p aux sp ss 1\ns 1\nq 2\n",      // unknown record
            "p aux sp ss 1\np aux sp ss 1\n", // duplicate header
        ] {
            let err = read_ss(bad.as_bytes(), 10).unwrap_err();
            assert!(matches!(err, SpsepError::Parse { .. }), "{bad:?} → {err}");
        }
    }

    #[test]
    fn csr_dir_roundtrip_and_rejection() {
        let dir = std::env::temp_dir().join(format!("spsep-csr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let words = |v: &[u32]| v.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
        std::fs::write(dir.join("first_out"), words(&[0, 2, 3, 3])).unwrap();
        std::fs::write(dir.join("head"), words(&[1, 2, 0])).unwrap();
        std::fs::write(dir.join("weight"), words(&[15, 30, 45])).unwrap();
        let g = read_csr_dir(&dir).unwrap();
        assert_eq!((g.n(), g.m()), (3, 3));
        assert_eq!(g.edges()[1].w, 30.0);
        // head id out of range.
        std::fs::write(dir.join("head"), words(&[1, 9, 0])).unwrap();
        assert!(matches!(
            read_csr_dir(&dir).unwrap_err(),
            SpsepError::Parse { .. }
        ));
        // non-monotone first_out.
        std::fs::write(dir.join("head"), words(&[1, 2, 0])).unwrap();
        std::fs::write(dir.join("first_out"), words(&[0, 3, 2, 3])).unwrap();
        assert!(matches!(
            read_csr_dir(&dir).unwrap_err(),
            SpsepError::Parse { .. }
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn path_sniffing_dispatches() {
        let dir = std::env::temp_dir().join(format!("spsep-import-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let gr = dir.join("tiny.gr");
        std::fs::write(&gr, "p sp 2 2\na 1 2 1.5\na 2 1 2.5\n").unwrap();
        let csv = dir.join("tiny.csv");
        std::fs::write(&csv, "0,1,1.5\n1,0,2.5\n").unwrap();
        let a = read_instance_path(&gr).unwrap();
        let b = read_instance_path(&csv).unwrap();
        assert_eq!(a.edges(), b.edges());
        let (core, report) = import_path(&gr, ImportOptions::default()).unwrap();
        assert_eq!(core.n(), 2);
        assert_eq!(report.scc_count, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
