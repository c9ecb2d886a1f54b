//! The workspace-wide typed error taxonomy.
//!
//! Every fallible library entry point (parsers, validators, the
//! preprocessing pipeline, the snapshot loader) reports an
//! [`SpsepError`]. Each variant guards one invariant of the paper
//! (Cohen, *Efficient Parallel Shortest-Paths in Digraphs with a
//! Separator Decomposition*, SPAA'93 / J. Algorithms 1996):
//!
//! | Variant | Paper invariant it guards |
//! |---|---|
//! | [`SpsepError::InvalidGraph`] | Section 2 input model: weights drawn from the semiring domain (finite, no NaN), endpoints in `0..n` |
//! | [`SpsepError::InvalidDecomposition`] | Prop. 2.1: `S(t)` separates the children of `t`; no edge leaves `V(t) \ B(t)`; level/BFS structure |
//! | [`SpsepError::AbsorbingCycle`] | Comment (i): distances are undefined when an absorbing (negative) cycle exists; detected on the diagonal during preprocessing |
//! | [`SpsepError::Parse`] | Well-formedness of the text formats (DIMACS graph, `st` tree) and of the binary `spsep-oracle/v2` snapshot |
//! | [`SpsepError::Io`] | Underlying reader/writer failures |
//!
//! The enum lives in `spsep-graph` — the root of the workspace crate
//! DAG — so every layer (separator, baselines, core, planar, tvpi) can
//! return it; `spsep_core::error` re-exports it as the canonical public
//! path.

/// Typed error for every fallible operation in the `spsep` workspace.
///
/// See the [module docs](self) for the mapping from variants to the
/// paper invariants they guard.
#[derive(Debug)]
#[non_exhaustive]
pub enum SpsepError {
    /// The input graph violates the Section 2 input model: a NaN or
    /// non-finite weight, an endpoint outside `0..n`, or a size
    /// mismatch with a companion structure.
    InvalidGraph {
        /// Offending vertex id, when one is identifiable.
        vertex: Option<u32>,
        /// Offending edge index into `DiGraph::edges`, when identifiable.
        edge: Option<usize>,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The separator decomposition (or tree decomposition) violates a
    /// Prop. 2.1 structural invariant — e.g. a separator that does not
    /// separate, a broken boundary recurrence
    /// `B(t) = (S(p) ∪ B(p)) ∩ V(t)`, an edge leaving `V(t) \ B(t)`,
    /// or inconsistent per-vertex `node(v)`/`level(v)` maps.
    InvalidDecomposition {
        /// Offending tree node id, when one is identifiable.
        node: Option<u32>,
        /// Offending vertex id, when one is identifiable.
        vertex: Option<u32>,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The graph contains an absorbing cycle (a negative cycle under
    /// the tropical semiring), so the requested distances are undefined
    /// — paper comment (i). Detected during preprocessing on the
    /// diagonal of the per-node dense computations.
    AbsorbingCycle {
        /// A witness cycle as a vertex sequence `v₀ → v₁ → … → v₀`
        /// (first vertex repeated at the end when recovery succeeded;
        /// empty when the detector could not cheaply recover one).
        witness: Vec<u32>,
    },
    /// A worker in the parallel execution engine panicked (or otherwise
    /// died) while running a pipeline phase. The panic is caught at the
    /// chunk boundary, the region drains, and the failure surfaces here
    /// instead of poisoning a lock or hanging a latch.
    Executor {
        /// The panic payload rendered to text, plus phase context when
        /// available.
        what: String,
    },
    /// An artifact (DIMACS graph, `st` tree, `spsep-oracle/v2`
    /// snapshot) is malformed.
    Parse {
        /// 1-based line number, when known.
        line: Option<usize>,
        /// What was wrong.
        what: String,
    },
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl SpsepError {
    /// Graph-model violation without positional context.
    pub fn invalid_graph(reason: impl Into<String>) -> Self {
        SpsepError::InvalidGraph {
            vertex: None,
            edge: None,
            reason: reason.into(),
        }
    }

    /// Graph-model violation at a known vertex.
    pub fn invalid_graph_at(vertex: u32, reason: impl Into<String>) -> Self {
        SpsepError::InvalidGraph {
            vertex: Some(vertex),
            edge: None,
            reason: reason.into(),
        }
    }

    /// Graph-model violation at a known edge index.
    pub fn invalid_edge(edge: usize, reason: impl Into<String>) -> Self {
        SpsepError::InvalidGraph {
            vertex: None,
            edge: Some(edge),
            reason: reason.into(),
        }
    }

    /// Decomposition violation without positional context.
    pub fn invalid_decomposition(reason: impl Into<String>) -> Self {
        SpsepError::InvalidDecomposition {
            node: None,
            vertex: None,
            reason: reason.into(),
        }
    }

    /// Decomposition violation at a known tree node.
    pub fn invalid_node(node: u32, reason: impl Into<String>) -> Self {
        SpsepError::InvalidDecomposition {
            node: Some(node),
            vertex: None,
            reason: reason.into(),
        }
    }

    /// Decomposition violation at a known tree node and vertex.
    pub fn invalid_node_vertex(node: u32, vertex: u32, reason: impl Into<String>) -> Self {
        SpsepError::InvalidDecomposition {
            node: Some(node),
            vertex: Some(vertex),
            reason: reason.into(),
        }
    }

    /// Decomposition violation at a known vertex (no node context).
    pub fn invalid_vertex(vertex: u32, reason: impl Into<String>) -> Self {
        SpsepError::InvalidDecomposition {
            node: None,
            vertex: Some(vertex),
            reason: reason.into(),
        }
    }

    /// Parse failure at a 1-based line number.
    pub fn parse_at(line: usize, what: impl Into<String>) -> Self {
        SpsepError::Parse {
            line: Some(line),
            what: what.into(),
        }
    }

    /// Parse failure without a line number (e.g. empty input).
    pub fn parse(what: impl Into<String>) -> Self {
        SpsepError::Parse {
            line: None,
            what: what.into(),
        }
    }

    /// Absorbing-cycle error without a recovered witness.
    pub fn absorbing_cycle() -> Self {
        SpsepError::AbsorbingCycle {
            witness: Vec::new(),
        }
    }

    /// Executor failure from a caught worker panic payload.
    pub fn executor(what: impl Into<String>) -> Self {
        SpsepError::Executor { what: what.into() }
    }

    /// Executor failure from a `catch_unwind` payload, extracting the
    /// panic message when it is a string.
    pub fn executor_from_payload(payload: &(dyn std::any::Any + Send)) -> Self {
        let what = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "worker panicked with a non-string payload".to_string());
        SpsepError::Executor { what }
    }
}

impl std::fmt::Display for SpsepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpsepError::InvalidGraph {
                vertex,
                edge,
                reason,
            } => {
                write!(f, "invalid graph: {reason}")?;
                if let Some(v) = vertex {
                    write!(f, " (vertex {v})")?;
                }
                if let Some(e) = edge {
                    write!(f, " (edge #{e})")?;
                }
                Ok(())
            }
            SpsepError::InvalidDecomposition {
                node,
                vertex,
                reason,
            } => {
                write!(f, "invalid decomposition: {reason}")?;
                if let Some(t) = node {
                    write!(f, " (node {t})")?;
                }
                if let Some(v) = vertex {
                    write!(f, " (vertex {v})")?;
                }
                Ok(())
            }
            SpsepError::AbsorbingCycle { witness } => {
                write!(f, "graph contains an absorbing (negative) cycle")?;
                if !witness.is_empty() {
                    write!(f, "; witness: {witness:?}")?;
                }
                Ok(())
            }
            SpsepError::Executor { what } => {
                write!(f, "executor failure: worker panicked: {what}")
            }
            SpsepError::Parse { line, what } => match line {
                Some(l) => write!(f, "parse error at line {l}: {what}"),
                None => write!(f, "parse error: {what}"),
            },
            SpsepError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for SpsepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpsepError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SpsepError {
    fn from(e: std::io::Error) -> Self {
        SpsepError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_context() {
        let e = SpsepError::invalid_node_vertex(3, 17, "edge crosses the separator");
        let s = e.to_string();
        assert!(s.contains("node 3"), "{s}");
        assert!(s.contains("vertex 17"), "{s}");
        assert!(s.contains("crosses"), "{s}");

        let p = SpsepError::parse_at(42, "bad arc weight 'NaN'");
        assert!(p.to_string().contains("line 42"), "{p}");

        let c = SpsepError::AbsorbingCycle {
            witness: vec![1, 2, 1],
        };
        assert!(c.to_string().contains("[1, 2, 1]"), "{c}");
        assert!(SpsepError::absorbing_cycle()
            .to_string()
            .contains("absorbing"));
    }

    #[test]
    fn executor_errors_render_their_payload() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("index out of bounds".to_string());
        let e = SpsepError::executor_from_payload(boxed.as_ref());
        assert!(e.to_string().contains("index out of bounds"), "{e}");

        let boxed: Box<dyn std::any::Any + Send> = Box::new(17usize);
        let e = SpsepError::executor_from_payload(boxed.as_ref());
        assert!(e.to_string().contains("non-string payload"), "{e}");

        assert!(SpsepError::executor("x").to_string().contains("executor"));
    }

    #[test]
    fn io_source_is_preserved() {
        let io = std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "eof");
        let e: SpsepError = io.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("eof"));
    }
}
