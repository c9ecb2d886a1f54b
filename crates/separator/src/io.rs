//! Serialization of separator decomposition trees.
//!
//! Paper comment (iv): "the separator decomposition for a graph G depends
//! only on the undirected unweighted skeleton of G, and hence needs to be
//! computed only once for a group of instances which differ in the
//! weights and direction on edges" — which makes trees worth persisting.
//!
//! The format stores only what cannot be derived: per node its parent,
//! its separator, and (for leaves) its vertex list; internal `V(t)` sets
//! are reconstructed bottom-up as `V(t₁) ∪ V(t₂)` and boundaries/levels
//! are recomputed by [`SepTree::assemble`].
//!
//! ```text
//! st <n> <num_nodes>
//! i <parent|-1> s <sorted separator ids…>     (internal node)
//! l <parent>   v <sorted vertex ids…>         (leaf)
//! ```
//!
//! Nodes appear in BFS order (parents before children), matching the
//! in-memory layout.
//!
//! Parsing is hardened: out-of-range vertex ids, header/node-count
//! mismatches, broken parent order, and wrong child arity are rejected
//! with line-numbered [`SpsepError::Parse`] errors. Note that
//! [`read_tree`] checks only what the *format* promises — a parsed tree
//! can still violate the Prop. 2.1 separation invariants against a
//! particular graph, which [`SepTree::validate`] reports as
//! [`SpsepError::InvalidDecomposition`].

use crate::tree::{sorted_union, SepNode, SepTree};
use spsep_graph::SpsepError;
use std::io::{BufRead, Write};

/// Serialize `tree`.
pub fn write_tree<W: Write>(tree: &SepTree, out: &mut W) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut buf = String::new();
    // Writes into a String are infallible.
    let _ = writeln!(buf, "st {} {}", tree.n(), tree.nodes().len());
    for node in tree.nodes() {
        let parent = node.parent.map_or(-1i64, |p| p as i64);
        if node.is_leaf() {
            let _ = write!(buf, "l {parent} v");
            for &v in &node.vertices {
                let _ = write!(buf, " {v}");
            }
        } else {
            let _ = write!(buf, "i {parent} s");
            for &v in &node.separator {
                let _ = write!(buf, " {v}");
            }
        }
        buf.push('\n');
    }
    out.write_all(buf.as_bytes())
}

/// Parse a tree previously written by [`write_tree`].
pub fn read_tree<R: BufRead>(input: R) -> Result<SepTree, SpsepError> {
    let mut lines = input.lines();
    let header = lines
        .next()
        .ok_or_else(|| SpsepError::parse("empty input"))??;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("st") {
        return Err(SpsepError::parse_at(1, "missing 'st' header"));
    }
    let n: usize = parse(parts.next(), 1, "vertex count")?;
    let num_nodes: usize = parse(parts.next(), 1, "node count")?;
    if num_nodes == 0 {
        return Err(SpsepError::parse_at(1, "tree must have at least one node"));
    }
    struct RawNode {
        parent: i64,
        leaf: bool,
        ids: Vec<u32>,
    }
    let mut raw: Vec<RawNode> = Vec::with_capacity(num_nodes.min(1 << 24));
    for (off, line) in lines.enumerate() {
        let lineno = off + 2; // 1-based; header was line 1
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let kind = parts.next().unwrap_or("");
        let leaf = match kind {
            "l" => true,
            "i" => false,
            other => {
                return Err(SpsepError::parse_at(
                    lineno,
                    format!("unknown record '{other}'"),
                ));
            }
        };
        let parent: i64 = parse(parts.next(), lineno, "parent")?;
        let tag = parts.next();
        if (leaf && tag != Some("v")) || (!leaf && tag != Some("s")) {
            return Err(SpsepError::parse_at(lineno, "bad node tag"));
        }
        let mut ids = Vec::new();
        for p in parts {
            let v: u32 = p
                .parse()
                .map_err(|_| SpsepError::parse_at(lineno, format!("bad vertex id '{p}'")))?;
            if v as usize >= n {
                return Err(SpsepError::parse_at(
                    lineno,
                    format!("vertex {v} out of range 0..{n}"),
                ));
            }
            ids.push(v);
        }
        raw.push(RawNode { parent, leaf, ids });
    }
    if raw.len() != num_nodes {
        return Err(SpsepError::parse(format!(
            "declared {num_nodes} nodes, found {}",
            raw.len()
        )));
    }
    // Children + levels.
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
    let mut level = vec![0u32; num_nodes];
    for (i, r) in raw.iter().enumerate() {
        if r.parent >= 0 {
            let p = r.parent as usize;
            if p >= i {
                return Err(SpsepError::parse(format!(
                    "node {i}: parent {p} not before child (need BFS order)"
                )));
            }
            children[p].push(i as u32);
            level[i] = level[p] + 1;
        } else if i != 0 {
            return Err(SpsepError::parse(format!(
                "node {i}: only node 0 may be the root"
            )));
        }
    }
    // Reconstruct V(t) bottom-up.
    let mut vertices: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
    for i in (0..num_nodes).rev() {
        if raw[i].leaf {
            if !children[i].is_empty() {
                return Err(SpsepError::parse(format!("leaf {i} has children")));
            }
            vertices[i] = raw[i].ids.clone();
            vertices[i].sort_unstable();
            vertices[i].dedup();
        } else {
            if children[i].len() != 2 {
                return Err(SpsepError::parse(format!(
                    "internal node {i} has {} children (need 2)",
                    children[i].len()
                )));
            }
            let (a, b) = (children[i][0] as usize, children[i][1] as usize);
            vertices[i] = sorted_union(&vertices[a], &vertices[b]);
        }
    }
    let nodes: Vec<SepNode> = raw
        .iter()
        .enumerate()
        .map(|(i, r)| SepNode {
            vertices: std::mem::take(&mut vertices[i]),
            separator: {
                let mut s = r.ids.clone();
                if r.leaf {
                    s.clear();
                }
                s.sort_unstable();
                s
            },
            boundary: Vec::new(),
            children: (!r.leaf).then(|| (children[i][0], children[i][1])),
            parent: (r.parent >= 0).then_some(r.parent as u32),
            level: level[i],
        })
        .collect();
    SepTree::try_assemble(n, nodes)
}

fn parse<T: std::str::FromStr>(
    field: Option<&str>,
    lineno: usize,
    what: &str,
) -> Result<T, SpsepError> {
    let raw = field.ok_or_else(|| SpsepError::parse_at(lineno, format!("missing {what}")))?;
    raw.parse()
        .map_err(|_| SpsepError::parse_at(lineno, format!("bad {what} '{raw}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::RecursionLimits;

    #[test]
    fn roundtrip_grid_tree() {
        let tree = builders::grid_tree(&[7, 9], RecursionLimits::default());
        let mut buf = Vec::new();
        write_tree(&tree, &mut buf).unwrap();
        let back = read_tree(buf.as_slice()).unwrap();
        assert_eq!(tree.n(), back.n());
        assert_eq!(tree.nodes().len(), back.nodes().len());
        assert_eq!(tree.height(), back.height());
        for (a, b) in tree.nodes().iter().zip(back.nodes()) {
            assert_eq!(a.vertices, b.vertices);
            assert_eq!(a.separator, b.separator);
            assert_eq!(a.boundary, b.boundary);
            assert_eq!(a.level, b.level);
            assert_eq!(a.children.is_some(), b.children.is_some());
        }
        assert_eq!(tree.vertex_levels(), back.vertex_levels());
        // And the reloaded tree still validates against the skeleton.
        let (g, _) = spsep_graph::generators::grid_with_weights(&[7, 9], |_, _| 1.0);
        back.validate(&g.undirected_skeleton()).unwrap();
    }

    #[test]
    fn roundtrip_centroid_tree() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        let g = spsep_graph::generators::random_tree(60, &mut rng);
        let adj = g.undirected_skeleton();
        let tree = builders::centroid_tree(&adj, RecursionLimits::default());
        let mut buf = Vec::new();
        write_tree(&tree, &mut buf).unwrap();
        let back = read_tree(buf.as_slice()).unwrap();
        back.validate(&adj).unwrap();
        assert_eq!(tree.nodes().len(), back.nodes().len());
    }

    #[test]
    fn parse_errors() {
        assert!(read_tree("".as_bytes()).is_err());
        assert!(read_tree("xx 3 1\n".as_bytes()).is_err());
        assert!(read_tree("st 3 1\nq 0 v 1\n".as_bytes()).is_err());
        assert!(read_tree("st 3 2\nl -1 v 0 1 2\n".as_bytes()).is_err()); // count
        assert!(read_tree("st 3 1\nl -1 v 9\n".as_bytes()).is_err()); // range
        assert!(read_tree("st 3 1\nl -1 s 0\n".as_bytes()).is_err()); // tag
        assert!(read_tree("st 3 0\n".as_bytes()).is_err()); // no nodes
                                                            // Minimal valid single-leaf tree.
        let t = read_tree("st 3 1\nl -1 v 0 1 2\n".as_bytes()).unwrap();
        assert_eq!(t.nodes().len(), 1);
        assert_eq!(t.max_leaf_size(), 3);
    }

    #[test]
    fn parse_errors_are_typed_and_line_numbered() {
        // Bad id on the second node line → line 3.
        assert!(matches!(
            read_tree("st 5 3\ni -1 s 2\nl 0 v 0 1 x\nl 0 v 2 3 4\n".as_bytes()),
            Err(SpsepError::Parse { line: Some(3), .. })
        ));
        // Two roots.
        assert!(matches!(
            read_tree("st 3 2\nl -1 v 0 1\nl -1 v 2\n".as_bytes()),
            Err(SpsepError::Parse { .. })
        ));
        // Parent after child (BFS order violated).
        assert!(matches!(
            read_tree("st 3 2\nl 1 v 0 1 2\ni -1 s 0\n".as_bytes()),
            Err(SpsepError::Parse { .. })
        ));
        // Internal node with a single child.
        assert!(matches!(
            read_tree("st 3 2\ni -1 s 0\nl 0 v 0 1 2\n".as_bytes()),
            Err(SpsepError::Parse { .. })
        ));
    }
}
