//! The corruption catalog.
//!
//! Each corruption is *designed to be caught*: text corruptions must
//! make the targeted parser return a typed [`SpsepError`], and instance
//! corruptions must either fail [`SepTree::try_assemble`], be refused by
//! [`Oracle::prepare`] through the [`spsep_core::validate_instance`]
//! pre-flight, or be an absorbing cycle (a typed error with a witness).
//! The fault-injection harness asserts exactly that, under
//! `catch_unwind`, and cross-checks every answered distance against
//! Dijkstra ([`CorruptInstance::assert_contract`]).

use rand::SeedableRng;
use spsep_baselines::dijkstra;
use spsep_core::{Algorithm, Oracle};
use spsep_graph::{DiGraph, Edge, SpsepError};
use spsep_pram::Metrics;
use spsep_separator::{builders, RecursionLimits, SepTree};

/// Which serialization format a [`TextCorruption`] targets.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TextFormat {
    /// `spsep_graph::io` DIMACS-style graphs (`p sp` / `a` records).
    Graph,
    /// `spsep_separator::io` decomposition trees (`st` / `i` / `l`).
    Tree,
}

/// A named, deterministic corruption of serialized text.
pub struct TextCorruption {
    /// Stable identifier (used in assertion messages).
    pub name: &'static str,
    /// Which parser must reject the output.
    pub format: TextFormat,
    /// The transformation, applied to a *valid* serialization.
    pub apply: fn(&str) -> String,
}

/// Replace whitespace-separated token `tok` on (0-based) line `line`.
fn set_token(text: &str, line: usize, tok: usize, value: &str) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    if let Some(l) = lines.get_mut(line) {
        let mut toks: Vec<&str> = l.split_whitespace().collect();
        if tok < toks.len() {
            toks[tok] = value;
        }
        *l = toks.join(" ");
    }
    lines.join("\n") + "\n"
}

/// Drop the final non-empty line (a cleanly truncated file).
fn drop_last_line(text: &str) -> String {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    lines[..lines.len().saturating_sub(1)].join("\n") + "\n"
}

/// 0-based index of the first line starting with `prefix`, and a token
/// count for it.
fn find_line(text: &str, prefix: &str) -> (usize, usize) {
    for (i, l) in text.lines().enumerate() {
        if l.starts_with(prefix) {
            return (i, l.split_whitespace().count());
        }
    }
    (0, 0)
}

/// All text-level corruptions. Every entry must make its target parser
/// return `Err(SpsepError::…)` when applied to a valid serialization of
/// an instance with at least one edge and one separator.
pub fn text_corruptions() -> Vec<TextCorruption> {
    use TextFormat::*;
    vec![
        TextCorruption {
            name: "graph: truncated file (last arc missing)",
            format: Graph,
            apply: drop_last_line,
        },
        TextCorruption {
            name: "graph: out-of-range vertex id",
            format: Graph,
            apply: |t| set_token(t, 1, 1, "999999"),
        },
        TextCorruption {
            name: "graph: NaN weight",
            format: Graph,
            apply: |t| set_token(t, 1, 3, "NaN"),
        },
        TextCorruption {
            name: "graph: overflowing weight (1e999 → +inf)",
            format: Graph,
            apply: |t| set_token(t, 1, 3, "1e999"),
        },
        TextCorruption {
            name: "graph: header declares more arcs than present",
            format: Graph,
            apply: |t| set_token(t, 0, 3, "123456"),
        },
        TextCorruption {
            name: "graph: unknown record kind",
            format: Graph,
            apply: |t| set_token(t, 1, 0, "z"),
        },
        TextCorruption {
            name: "tree: truncated file (last node missing)",
            format: Tree,
            apply: drop_last_line,
        },
        TextCorruption {
            name: "tree: out-of-range vertex id in a leaf",
            format: Tree,
            apply: |t| {
                let (line, ntok) = find_line(t, "l ");
                set_token(t, line, ntok - 1, "999999")
            },
        },
        TextCorruption {
            name: "tree: second root (parent -1 on a non-root node)",
            format: Tree,
            apply: |t| set_token(t, 2, 1, "-1"),
        },
        TextCorruption {
            name: "tree: unknown record kind",
            format: Tree,
            apply: |t| set_token(t, 1, 0, "q"),
        },
        TextCorruption {
            name: "tree: header declares zero nodes",
            format: Tree,
            apply: |t| set_token(t, 0, 2, "0"),
        },
    ]
}

/// A named, deterministic corruption of a binary `spsep-oracle/v2`
/// snapshot (`spsep_core::iov2::snapshot_v2_from_slab`).
pub struct SnapshotCorruption {
    /// Stable identifier (used in assertion messages).
    pub name: &'static str,
    /// The transformation, applied to a *valid* snapshot of an instance
    /// with at least one edge and one shortcut.
    pub apply: fn(&[u8]) -> Vec<u8>,
}

// ---------------------------------------------------------------------
// spsep-oracle/v2 corruptions.
//
// The constants below mirror `spsep_core::iov2` but are written out
// independently, so the catalog exercises the v2 *specification* (the
// documented canonical layout) rather than whatever the writer happens
// to emit.
// ---------------------------------------------------------------------

/// v2 header: magic 8 + version 4 + algorithm 4 + section count 4 +
/// reserved 4.
const V2_HEADER_LEN: usize = 24;
/// Bytes per v2 section-table entry: tag 4 + pad 4 + offset 8 +
/// length 8 + checksum 8.
const V2_ENTRY_LEN: usize = 32;
/// Sections in a v2 snapshot.
const V2_SECTION_COUNT: usize = 13;
/// First byte past the section table (`24 + 13·32`).
const V2_TABLE_END: usize = V2_HEADER_LEN + V2_SECTION_COUNT * V2_ENTRY_LEN;
/// Section payloads are aligned to this boundary; the first payload
/// therefore starts at `pad₆₄(440) = 448`.
const V2_SECTION_ALIGN: usize = 64;

fn pad_to_align(off: usize) -> usize {
    off.div_ceil(V2_SECTION_ALIGN) * V2_SECTION_ALIGN
}

/// `(offset, length)` of the `idx`-th section, read from the table.
fn v2_entry(bytes: &[u8], idx: usize) -> (usize, usize) {
    let at = V2_HEADER_LEN + idx * V2_ENTRY_LEN;
    let word = |p: usize| {
        let Ok(raw) = <[u8; 8]>::try_from(&bytes[p..p + 8]) else {
            unreachable!("slice of length 8")
        };
        u64::from_le_bytes(raw) as usize
    };
    (word(at + 8), word(at + 16))
}

/// The byte positions where a v2 snapshot's slabs begin and end —
/// the natural truncation points beyond the per-header-byte sweep.
/// Parsed from a *valid* snapshot's own section table.
pub fn v2_section_bounds(bytes: &[u8]) -> Vec<(usize, usize)> {
    (0..V2_SECTION_COUNT).map(|i| v2_entry(bytes, i)).collect()
}

/// Patch the payload of v2 section `idx` in place and **reseal the
/// stored section checksum** (`fnv1a64_words`) — a checksum-consistent
/// semantic patch that the integrity layer cannot catch, so the
/// per-section validators must.
fn patch_section_v2(bytes: &[u8], idx: usize, patch: fn(&mut Vec<u8>)) -> Vec<u8> {
    let (off, len) = v2_entry(bytes, idx);
    let mut payload = bytes[off..off + len].to_vec();
    patch(&mut payload);
    assert_eq!(payload.len(), len, "patches must preserve payload length");
    let mut out = bytes.to_vec();
    out[off..off + len].copy_from_slice(&payload);
    let sum = spsep_graph::bytes::fnv1a64_words(&payload);
    let sum_at = V2_HEADER_LEN + idx * V2_ENTRY_LEN + 24;
    out[sum_at..sum_at + 8].copy_from_slice(&sum.to_le_bytes());
    out
}

/// The header and first section of an `spsep-oracle/v1` snapshot, the
/// retired format older builds wrote: magic, version 1, the algorithm
/// code of `v2`, section count 3, then a `GRPH` section holding an
/// empty graph (`n = 0`, `m = 0`) under a section checksum. No reader
/// accepts it any more; loading it must say to re-run
/// `spsep-cli prepare`.
pub fn v1_snapshot_header(v2: &[u8]) -> Vec<u8> {
    let payload = [0u8; 16];
    let mut out = b"SPSEPORC".to_vec();
    out.extend_from_slice(&1u32.to_le_bytes());
    out.extend_from_slice(&v2[12..16]);
    out.extend_from_slice(&3u32.to_le_bytes());
    out.extend_from_slice(b"GRPH");
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&spsep_graph::bytes::fnv1a64_words(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// `v2` rewritten in the earlier 14-section v2 layout: the same 13
/// sections, shifted to make room for a 14th table entry, followed by
/// a trailing `TREE` section (here a short opaque payload) — a file
/// an older build wrote. Loading it must say to re-run
/// `spsep-cli prepare`.
pub fn v2_with_trailing_tree_section(v2: &[u8]) -> Vec<u8> {
    let tree = b"separator tree payload".as_slice();
    let count = V2_SECTION_COUNT + 1;
    let first_old = pad_to_align(V2_TABLE_END);
    let first_new = pad_to_align(V2_HEADER_LEN + count * V2_ENTRY_LEN);
    let shift = first_new - first_old;
    let (last_off, last_len) = v2_entry(v2, V2_SECTION_COUNT - 1);
    let body_end = last_off + last_len;
    let tree_off = pad_to_align(body_end + shift);

    let mut out = v2[..V2_HEADER_LEN].to_vec();
    out[16..20].copy_from_slice(&(count as u32).to_le_bytes());
    for i in 0..V2_SECTION_COUNT {
        let at = V2_HEADER_LEN + i * V2_ENTRY_LEN;
        let (off, _) = v2_entry(v2, i);
        out.extend_from_slice(&v2[at..at + 8]); // tag + pad
        out.extend_from_slice(&((off + shift) as u64).to_le_bytes());
        out.extend_from_slice(&v2[at + 16..at + V2_ENTRY_LEN]); // length + checksum
    }
    out.extend_from_slice(b"TREE");
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&(tree_off as u64).to_le_bytes());
    out.extend_from_slice(&(tree.len() as u64).to_le_bytes());
    out.extend_from_slice(&spsep_graph::bytes::fnv1a64_words(tree).to_le_bytes());
    out.resize(first_new, 0);
    out.extend_from_slice(&v2[first_old..body_end]);
    out.resize(tree_off, 0);
    out.extend_from_slice(tree);
    out.extend_from_slice(&v2[body_end..]); // the trailer
    out
}

/// `v2` carrying the previous version word, 2: the version earlier
/// builds wrote when the section checksums were byte-wise FNV-1a.
/// Loading it must say to re-run `spsep-cli prepare`.
pub fn v2_with_byte_checksum_version(v2: &[u8]) -> Vec<u8> {
    let mut out = v2.to_vec();
    out[8..12].copy_from_slice(&2u32.to_le_bytes());
    out
}

/// Add `delta` to the `META` bucket count (the `u64` at payload offset
/// 64).
fn bump_bucket_count(meta: &mut [u8], delta: i64) {
    let Ok(raw) = <[u8; 8]>::try_from(&meta[64..72]) else {
        unreachable!("slice of length 8")
    };
    let nb = u64::from_le_bytes(raw).wrapping_add_signed(delta);
    meta[64..72].copy_from_slice(&nb.to_le_bytes());
}

/// `v2` with the bucket count an older build wrote: `3(d_G+1)+1`, one
/// less than today (checksum fixed). That layout scanned one bucket
/// holding all of `E` in both the entry and the exit phases, where this
/// build keeps separate entry and exit buckets. Loading it must say to
/// re-run `spsep-cli prepare`.
pub fn v2_with_one_e_bucket(v2: &[u8]) -> Vec<u8> {
    patch_section_v2(v2, 0, |p| bump_bucket_count(p, -1))
}

/// All `spsep-oracle/v2` corruptions. Every entry must make
/// `Oracle::load` return `Err(SpsepError::…)` — never panic, never
/// yield a usable oracle — when applied to a valid v2 snapshot of an
/// instance with at least one edge, one shortcut, and one scheduled
/// arc. Section indices: META 0, AEDG 1, OOFF 2, OADJ 3, IOFF 4,
/// IADJ 5, LVLS 6, NORD 7, SEQN 8, BOFF 9, BSRC 10, BGRP 11, BARC 12.
pub fn snapshot_corruptions_v2() -> Vec<SnapshotCorruption> {
    vec![
        SnapshotCorruption {
            name: "v2: empty file",
            apply: |_| Vec::new(),
        },
        SnapshotCorruption {
            name: "v2: truncated inside the magic",
            apply: |b| b[..7.min(b.len())].to_vec(),
        },
        SnapshotCorruption {
            name: "v2: truncated mid-table",
            apply: |b| b[..V2_HEADER_LEN + 5 * V2_ENTRY_LEN + 11].to_vec(),
        },
        SnapshotCorruption {
            name: "v2: truncated at the first payload boundary",
            apply: |b| {
                let first = V2_TABLE_END.div_ceil(V2_SECTION_ALIGN) * V2_SECTION_ALIGN;
                b[..first].to_vec()
            },
        },
        SnapshotCorruption {
            name: "v2: truncated mid-payload",
            apply: |b| b[..b.len() / 2].to_vec(),
        },
        SnapshotCorruption {
            name: "v2: trailer missing",
            apply: |b| b[..b.len() - 8].to_vec(),
        },
        SnapshotCorruption {
            name: "v2: last byte missing",
            apply: |b| b[..b.len() - 1].to_vec(),
        },
        SnapshotCorruption {
            name: "v2: trailing garbage after the trailer",
            apply: |b| {
                let mut out = b.to_vec();
                out.push(0);
                out
            },
        },
        SnapshotCorruption {
            name: "v2: bad magic",
            apply: |b| {
                let mut out = b.to_vec();
                out[0] = b'X';
                out
            },
        },
        SnapshotCorruption {
            name: "v2: version skew (v2 bytes relabeled v1)",
            apply: |b| {
                let mut out = b.to_vec();
                out[8..12].copy_from_slice(&1u32.to_le_bytes());
                out
            },
        },
        SnapshotCorruption {
            name: "v2: spsep-oracle/v1 snapshot from an older build (re-prepare)",
            apply: v1_snapshot_header,
        },
        SnapshotCorruption {
            name: "v2: older 14-section layout with a trailing TREE section (re-prepare)",
            apply: v2_with_trailing_tree_section,
        },
        SnapshotCorruption {
            name: "v2: previous version word with byte-wise checksums (re-prepare)",
            apply: v2_with_byte_checksum_version,
        },
        SnapshotCorruption {
            name: "v2: version skew (v4 from the future)",
            apply: |b| {
                let mut out = b.to_vec();
                out[8..12].copy_from_slice(&4u32.to_le_bytes());
                out
            },
        },
        SnapshotCorruption {
            name: "v2: unknown algorithm code",
            apply: |b| {
                let mut out = b.to_vec();
                out[12..16].copy_from_slice(&77u32.to_le_bytes());
                out
            },
        },
        SnapshotCorruption {
            name: "v2: wrong section count",
            apply: |b| {
                let mut out = b.to_vec();
                out[16..20].copy_from_slice(&12u32.to_le_bytes());
                out
            },
        },
        SnapshotCorruption {
            name: "v2: nonzero reserved header word",
            apply: |b| {
                let mut out = b.to_vec();
                out[20] = 1;
                out
            },
        },
        SnapshotCorruption {
            name: "v2: first section tag renamed",
            apply: |b| {
                let mut out = b.to_vec();
                out[V2_HEADER_LEN..V2_HEADER_LEN + 4].copy_from_slice(b"XXXX");
                out
            },
        },
        SnapshotCorruption {
            name: "v2: nonzero section tag padding",
            apply: |b| {
                let mut out = b.to_vec();
                out[V2_HEADER_LEN + 4] = 0xab;
                out
            },
        },
        SnapshotCorruption {
            name: "v2: section offset shifted by one alignment unit",
            apply: |b| {
                let (off, _) = v2_entry(b, 1);
                let mut out = b.to_vec();
                let at = V2_HEADER_LEN + V2_ENTRY_LEN + 8;
                out[at..at + 8].copy_from_slice(&((off + V2_SECTION_ALIGN) as u64).to_le_bytes());
                out
            },
        },
        SnapshotCorruption {
            name: "v2: section offset misaligned by one byte",
            apply: |b| {
                let (off, _) = v2_entry(b, 2);
                let mut out = b.to_vec();
                let at = V2_HEADER_LEN + 2 * V2_ENTRY_LEN + 8;
                out[at..at + 8].copy_from_slice(&((off + 1) as u64).to_le_bytes());
                out
            },
        },
        SnapshotCorruption {
            name: "v2: section length inflated (canonical offsets disagree)",
            apply: |b| {
                let (_, len) = v2_entry(b, 1);
                let mut out = b.to_vec();
                let at = V2_HEADER_LEN + V2_ENTRY_LEN + 16;
                out[at..at + 8].copy_from_slice(&((len + 1) as u64).to_le_bytes());
                out
            },
        },
        SnapshotCorruption {
            name: "v2: tampered padding between table and first slab",
            apply: |b| {
                let mut out = b.to_vec();
                out[V2_TABLE_END] = 0xab;
                out
            },
        },
        SnapshotCorruption {
            name: "v2: flipped payload byte (checksum mismatch)",
            apply: |b| {
                let mut out = b.to_vec();
                let mid = out.len() / 2;
                out[mid] ^= 0xff;
                out
            },
        },
        SnapshotCorruption {
            name: "v2: flipped stored checksum byte",
            apply: |b| {
                let mut out = b.to_vec();
                out[V2_HEADER_LEN + 24] ^= 0xff;
                out
            },
        },
        // Checksum-consistent semantic patches (patch_section_v2
        // recomputes the FNV-1a sum): the slab validators are the last
        // line of defense.
        SnapshotCorruption {
            name: "v2: META bucket count off by one (checksum fixed)",
            apply: |b| patch_section_v2(b, 0, |p| bump_bucket_count(p, 1)),
        },
        SnapshotCorruption {
            name: "v2: older layout with one E bucket (checksum fixed, re-prepare)",
            apply: v2_with_one_e_bucket,
        },
        SnapshotCorruption {
            name: "v2: AEDG edge endpoint out of range (checksum fixed)",
            apply: |b| {
                patch_section_v2(b, 1, |p| {
                    // Edge { from u32, to u32, w f64 }: from at 0.
                    p[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
                })
            },
        },
        SnapshotCorruption {
            name: "v2: AEDG NaN weight (checksum fixed)",
            apply: |b| {
                patch_section_v2(b, 1, |p| {
                    p[8..16].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
                })
            },
        },
        SnapshotCorruption {
            name: "v2: OOFF offsets do not start at zero (checksum fixed)",
            apply: |b| {
                patch_section_v2(b, 2, |p| {
                    p[0..4].copy_from_slice(&1u32.to_le_bytes());
                })
            },
        },
        SnapshotCorruption {
            name: "v2: LVLS level exceeds d_G (checksum fixed)",
            apply: |b| {
                patch_section_v2(b, 6, |p| {
                    // Large but not the UNDEFINED_LEVEL sentinel.
                    p[0..4].copy_from_slice(&0x7fff_0000u32.to_le_bytes());
                })
            },
        },
        SnapshotCorruption {
            name: "v2: NORD duplicate rank — not a permutation (checksum fixed)",
            apply: |b| {
                patch_section_v2(b, 7, |p| {
                    let (dst, src) = p.split_at_mut(4);
                    dst.copy_from_slice(&src[0..4]);
                })
            },
        },
        SnapshotCorruption {
            name: "v2: SEQN phase references a bucket out of range (checksum fixed)",
            apply: |b| {
                patch_section_v2(b, 8, |p| {
                    p[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
                })
            },
        },
        SnapshotCorruption {
            name: "v2: BOFF row does not start at zero (checksum fixed)",
            apply: |b| {
                patch_section_v2(b, 9, |p| {
                    p[0..8].copy_from_slice(&1u64.to_le_bytes());
                })
            },
        },
        SnapshotCorruption {
            name: "v2: BSRC source vertex out of range (checksum fixed)",
            apply: |b| {
                patch_section_v2(b, 10, |p| {
                    p[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
                })
            },
        },
        SnapshotCorruption {
            name: "v2: BGRP group bounds break the arc partition (checksum fixed)",
            apply: |b| {
                patch_section_v2(b, 11, |p| {
                    // Group { target u32, start u32, end u32 }: start at 4.
                    p[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
                })
            },
        },
        SnapshotCorruption {
            name: "v2: BARC arc slot out of range (checksum fixed)",
            apply: |b| {
                patch_section_v2(b, 12, |p| {
                    // ArcRec { slot u32, id u32, w f64 }: slot at 0.
                    p[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
                })
            },
        },
        SnapshotCorruption {
            name: "v2: BARC arc weight disagrees with its edge (checksum fixed)",
            apply: |b| {
                patch_section_v2(b, 12, |p| {
                    // Flip the sign bit of the first arc's weight: the
                    // arc/edge cross-check must notice even though the
                    // checksum is consistent.
                    p[15] ^= 0x80;
                })
            },
        },
    ]
}

/// A structurally corrupted in-memory instance.
pub struct CorruptInstance {
    /// Stable identifier (used in assertion messages).
    pub name: &'static str,
    /// The (possibly damaged) graph. Weights stay nonnegative except in
    /// the absorbing-cycle instance, so Dijkstra is a valid oracle.
    pub graph: DiGraph<f64>,
    /// The (possibly damaged) tree — `Err` when the corruption is
    /// already caught at assembly, which is an accepted outcome.
    pub tree: Result<SepTree, SpsepError>,
    /// `true` when distances are undefined (an absorbing cycle was
    /// injected): the pipeline must refuse it with a witness cycle.
    pub absorbing: bool,
}

impl CorruptInstance {
    /// Drive the instance through the shipped entry point,
    /// [`Oracle::prepare`], and panic (naming the instance) on any
    /// breach of the contract "a typed error, never a wrong distance":
    ///
    /// * a tree already refused at assembly must have been refused with
    ///   [`SpsepError::InvalidDecomposition`];
    /// * `prepare` returns `InvalidDecomposition` exactly when
    ///   [`spsep_core::validate_instance`] rejects the pair. The caller's
    ///   recovery is to decompose the graph it actually has
    ///   ([`builders::bfs_tree`]) and prepare again;
    /// * [`SpsepError::AbsorbingCycle`] with a non-empty witness comes
    ///   back if and only if [`CorruptInstance::absorbing`];
    /// * an oracle that is returned answers every `(source, v)` pair
    ///   through [`Oracle::batch`] exactly as Dijkstra does on the graph.
    pub fn assert_contract(&self, sources: &[usize]) {
        let name = self.name;
        let tree = match &self.tree {
            Err(e) => {
                assert!(
                    matches!(e, SpsepError::InvalidDecomposition { .. }),
                    "'{name}': unexpected assembly error {e:?}"
                );
                return;
            }
            Ok(t) => t.clone(),
        };
        let rejected = spsep_core::validate_instance(&self.graph, &tree).is_err();
        let metrics = Metrics::new();
        let prepare =
            |tree| Oracle::prepare(self.graph.clone(), tree, Algorithm::LeavesUp, &metrics);
        let prepared = match prepare(tree) {
            Err(SpsepError::InvalidDecomposition { .. }) => {
                assert!(rejected, "'{name}': refused a pair the pre-flight accepts");
                let skeleton = self.graph.undirected_skeleton();
                prepare(builders::bfs_tree(&skeleton, RecursionLimits::default()))
            }
            other => {
                assert!(
                    !rejected,
                    "'{name}': prepared a pair the pre-flight rejects"
                );
                other
            }
        };
        let oracle = match prepared {
            Err(SpsepError::AbsorbingCycle { witness }) => {
                assert!(self.absorbing, "'{name}': spurious absorbing-cycle report");
                assert!(!witness.is_empty(), "'{name}': empty witness");
                return;
            }
            Err(err) => panic!("'{name}': unexpected error {err:?}"),
            Ok(oracle) => oracle,
        };
        assert!(!self.absorbing, "'{name}': absorbing cycle was answered");
        let n = self.graph.n();
        let pairs: Vec<(usize, usize)> = sources
            .iter()
            .flat_map(|&s| (0..n).map(move |v| (s, v)))
            .collect();
        let got = oracle
            .batch(&pairs, &metrics)
            .unwrap_or_else(|e| panic!("'{name}': batch refused in-range pairs: {e}"));
        for (&source, row) in sources.iter().zip(got.chunks(n)) {
            let want = dijkstra(&self.graph, source).dist;
            for (v, (&g, &w)) in row.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() < 1e-9 || (g.is_infinite() && w.is_infinite()),
                    "'{name}': distance mismatch at source {source}, vertex {v}: \
                     got {g} want {w}"
                );
            }
        }
    }
}

fn grid_instance(dims: [usize; 2], seed: u64) -> (DiGraph<f64>, SepTree) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (g, _) = spsep_graph::generators::grid(&dims, &mut rng);
    let tree = builders::grid_tree(&dims, RecursionLimits::default());
    (g, tree)
}

/// All structural corruptions of `(graph, tree)` pairs.
pub fn instance_corruptions() -> Vec<CorruptInstance> {
    let mut out = Vec::new();

    // 1. Non-separating separator: delete a vertex from the root
    // separator. The vertex then belongs to no leaf and no separator.
    {
        let (g, tree) = grid_instance([9, 8], 70);
        let mut nodes = tree.nodes().to_vec();
        let sep_node = nodes
            .iter()
            .position(|t| !t.separator.is_empty())
            .unwrap_or(0);
        nodes[sep_node].separator.remove(0);
        out.push(CorruptInstance {
            name: "instance: separator vertex deleted (no longer separating)",
            graph: g,
            tree: SepTree::try_assemble(72, nodes),
            absorbing: false,
        });
    }

    // 2. Shuffled node levels (rotated by one): breaks the BFS-level
    // invariant the phase schedule depends on.
    {
        let (g, tree) = grid_instance([9, 8], 71);
        let mut nodes = tree.nodes().to_vec();
        let levels: Vec<u32> = nodes.iter().map(|t| t.level).collect();
        let k = nodes.len();
        for (i, t) in nodes.iter_mut().enumerate() {
            t.level = levels[(i + 1) % k];
        }
        out.push(CorruptInstance {
            name: "instance: node levels rotated",
            graph: g,
            tree: SepTree::try_assemble(72, nodes),
            absorbing: false,
        });
    }

    // 3. Root and deepest leaf swap levels.
    {
        let (g, tree) = grid_instance([9, 8], 72);
        let mut nodes = tree.nodes().to_vec();
        let deepest = nodes.len() - 1;
        nodes[0].level = nodes[deepest].level;
        nodes[deepest].level = 0;
        out.push(CorruptInstance {
            name: "instance: root and deepest node swap levels",
            graph: g,
            tree: SepTree::try_assemble(72, nodes),
            absorbing: false,
        });
    }

    // 4. Tree built for a different graph entirely.
    {
        let (g, _) = grid_instance([9, 8], 73);
        let wrong = builders::grid_tree(&[5, 5], RecursionLimits::default());
        out.push(CorruptInstance {
            name: "instance: decomposition of a smaller graph",
            graph: g,
            tree: Ok(wrong),
            absorbing: false,
        });
    }

    // 5. An edge the decomposition does not cover: the two far corners
    // of the grid live in disjoint subtrees. A scheduled query would
    // route around this edge and report a too-long distance; the
    // pipeline must refuse the pair instead.
    {
        let (g, tree) = grid_instance([9, 8], 74);
        let mut edges = g.edges().to_vec();
        edges.push(Edge::new(0, g.n() - 1, 0.01));
        out.push(CorruptInstance {
            name: "instance: edge crossing the decomposition",
            graph: DiGraph::from_edges(g.n(), edges),
            tree: Ok(tree),
            absorbing: false,
        });
    }

    // 6. Absorbing cycle: the reverse of an existing edge with a large
    // negative weight. Distances are undefined — a typed error expected.
    {
        let (g, tree) = grid_instance([9, 8], 75);
        let e0 = g.edges()[0];
        let mut edges = g.edges().to_vec();
        edges.push(Edge::new(e0.to as usize, e0.from as usize, -1e6));
        out.push(CorruptInstance {
            name: "instance: absorbing (negative) cycle",
            graph: DiGraph::from_edges(g.n(), edges),
            tree: Ok(tree),
            absorbing: true,
        });
    }

    out
}

/// How the query daemon must react to a [`WireCorruption`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WireExpectation {
    /// Payload-level damage inside an intact frame: the daemon answers
    /// a typed `Parse` error **and the connection keeps serving** —
    /// a follow-up request on the same connection succeeds.
    TypedErrorKeepsConnection,
    /// Framing-level damage: a typed error response, a clean close, or
    /// both (error then close). Never a panic, never a hang.
    TypedErrorOrClose,
    /// Pipelined damage after a valid request: the valid request is
    /// answered normally first, then the damage yields a typed error
    /// or a clean close.
    AnswerThenTypedErrorOrClose,
}

/// A named, deterministic corruption of the daemon wire protocol.
///
/// The byte sequences are built by hand — independently of
/// `spsep-serve`'s codec — so the catalog tests the protocol's
/// *specification* (u32 LE length prefix, then `u8` opcode + body)
/// rather than whatever the implementation happens to emit.
/// `spsep-testkit`'s wire suite drives every entry against a live
/// daemon under a watchdog.
pub struct WireCorruption {
    /// Stable identifier (used in assertion messages).
    pub name: &'static str,
    /// The bytes to put on the wire, verbatim.
    pub bytes: fn() -> Vec<u8>,
    /// Half-close the write side after sending — a mid-stream
    /// disconnect as the daemon sees it.
    pub disconnect_after: bool,
    /// The only acceptable daemon reactions.
    pub expect: WireExpectation,
}

/// A valid `Ping` frame, hand-assembled: length 1, opcode 0x01.
fn ping_frame() -> Vec<u8> {
    vec![1, 0, 0, 0, 0x01]
}

/// Wrap `payload` in a length prefix.
fn wire_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// All wire-protocol corruptions. Every entry must leave the daemon
/// alive and every other connection unaffected: the reaction is a
/// typed error response or a clean close — never a panic, never a hung
/// connection, never a corrupted answer to anyone else.
pub fn wire_corruptions() -> Vec<WireCorruption> {
    use WireExpectation::*;
    vec![
        WireCorruption {
            name: "wire: truncated frame, then disconnect (7 of 64 promised bytes)",
            bytes: || {
                let mut b = 64u32.to_le_bytes().to_vec();
                b.extend_from_slice(&[0x03; 7]);
                b
            },
            disconnect_after: true,
            expect: TypedErrorOrClose,
        },
        WireCorruption {
            name: "wire: partial length prefix, then disconnect",
            bytes: || vec![0x10, 0x00],
            disconnect_after: true,
            expect: TypedErrorOrClose,
        },
        WireCorruption {
            name: "wire: length prefix only, no payload, then disconnect",
            bytes: || 16u32.to_le_bytes().to_vec(),
            disconnect_after: true,
            expect: TypedErrorOrClose,
        },
        WireCorruption {
            name: "wire: oversized length prefix (u32::MAX)",
            bytes: || u32::MAX.to_le_bytes().to_vec(),
            disconnect_after: false,
            expect: TypedErrorOrClose,
        },
        WireCorruption {
            name: "wire: length prefix just past the 1 MiB frame bound",
            bytes: || ((1u32 << 20) + 1).to_le_bytes().to_vec(),
            disconnect_after: false,
            expect: TypedErrorOrClose,
        },
        WireCorruption {
            name: "wire: zero-length frame",
            bytes: || 0u32.to_le_bytes().to_vec(),
            disconnect_after: false,
            expect: TypedErrorOrClose,
        },
        WireCorruption {
            name: "wire: unassigned request opcode, well framed",
            bytes: || wire_frame(&[0xee]),
            disconnect_after: false,
            expect: TypedErrorKeepsConnection,
        },
        WireCorruption {
            name: "wire: response opcode sent as a request",
            bytes: || wire_frame(&[0x41]),
            disconnect_after: false,
            expect: TypedErrorKeepsConnection,
        },
        WireCorruption {
            name: "wire: trailing garbage inside a well-framed ping",
            bytes: || wire_frame(&[0x01, 0xaa, 0xbb]),
            disconnect_after: false,
            expect: TypedErrorKeepsConnection,
        },
        WireCorruption {
            name: "wire: truncated point request body (4 of 16 field bytes)",
            bytes: || wire_frame(&[0x03, 1, 0, 0, 0]),
            disconnect_after: false,
            expect: TypedErrorKeepsConnection,
        },
        WireCorruption {
            name: "wire: batch declaring u32::MAX pairs in a tiny frame",
            bytes: || {
                let mut p = vec![0x05];
                p.extend_from_slice(&u32::MAX.to_le_bytes());
                wire_frame(&p)
            },
            disconnect_after: false,
            expect: TypedErrorKeepsConnection,
        },
        WireCorruption {
            name: "wire: raw garbage burst (framing never establishes)",
            bytes: || vec![0xaa; 4096],
            disconnect_after: true,
            expect: TypedErrorOrClose,
        },
        WireCorruption {
            name: "wire: pipelined garbage after a valid ping",
            bytes: || {
                let mut b = ping_frame();
                b.extend_from_slice(&u32::MAX.to_le_bytes());
                b
            },
            disconnect_after: false,
            expect: AnswerThenTypedErrorOrClose,
        },
        WireCorruption {
            name: "wire: valid ping, then mid-frame disconnect",
            bytes: || {
                let mut b = ping_frame();
                b.extend_from_slice(&64u32.to_le_bytes());
                b.extend_from_slice(&[0x01; 5]);
                b
            },
            disconnect_after: true,
            expect: AnswerThenTypedErrorOrClose,
        },
    ]
}

// ---------------------------------------------------------------------------
// Import corruptions (raw road-network ingestion, ISSUE 10)
// ---------------------------------------------------------------------------

/// Which `spsep_graph::import` entry point must reject the payload.
pub enum ImportInput {
    /// DIMACS `.gr` text → `spsep_graph::io::read_dimacs`.
    Gr(&'static str),
    /// DIMACS `.ss` auxiliary source text → `import::read_ss` with the
    /// given vertex count.
    Ss {
        /// The malformed file body.
        text: &'static str,
        /// The graph's vertex count the sources are validated against.
        n: usize,
    },
    /// CSV edge list → `import::read_csv_edges`.
    Csv(&'static str),
    /// Binary CSR directory → `import::read_csr_dir` (the driver
    /// materializes the three files in a temp directory).
    CsrDir {
        /// `first_out` file bytes.
        first_out: Vec<u8>,
        /// `head` file bytes.
        head: Vec<u8>,
        /// `weight` file bytes.
        weight: Vec<u8>,
    },
}

/// A named malformed raw instance for the ingestion layer.
pub struct ImportCorruption {
    /// Stable identifier (used in assertion messages).
    pub name: &'static str,
    /// The hostile payload and the parser it targets.
    pub input: ImportInput,
}

/// Little-endian `u32` array file bytes for CSR corruption entries.
fn le_words(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// Malformed raw road-network instances, one per failure class the
/// ingestion layer must reject with a typed [`SpsepError`] — never a
/// panic, never a silently wrong graph. Classes per ISSUE 10: malformed
/// headers, arc-count lies, overflowing ids, NaN/negative weights, and
/// truncations, for every supported container (`.gr`, `.ss`, CSV,
/// binary CSR directory). Driven by `tests/fault_injection.rs`.
///
/// [`SpsepError`]: spsep_core::SpsepError
pub fn import_corruptions() -> Vec<ImportCorruption> {
    use ImportInput::*;
    vec![
        // -- DIMACS .gr: headers ------------------------------------------
        ImportCorruption {
            name: "gr: missing problem line",
            input: Gr("c no header\n"),
        },
        ImportCorruption {
            name: "gr: duplicate problem line",
            input: Gr("p sp 2 1\np sp 2 1\na 1 2 1\n"),
        },
        ImportCorruption {
            name: "gr: wrong problem magic",
            input: Gr("p max 2 1\na 1 2 1\n"),
        },
        ImportCorruption {
            name: "gr: non-numeric vertex count",
            input: Gr("p sp two 1\na 1 2 1\n"),
        },
        ImportCorruption {
            name: "gr: truncated header (missing arc count)",
            input: Gr("p sp 2\na 1 2 1\n"),
        },
        // -- DIMACS .gr: arc records --------------------------------------
        ImportCorruption {
            name: "gr: arc before problem line",
            input: Gr("a 1 2 1\np sp 2 1\n"),
        },
        ImportCorruption {
            name: "gr: arc-count lie (fewer arcs than declared)",
            input: Gr("p sp 2 2\na 1 2 1\n"),
        },
        ImportCorruption {
            name: "gr: arc-count lie (more arcs than declared)",
            input: Gr("p sp 2 1\na 1 2 1\na 2 1 1\n"),
        },
        ImportCorruption {
            name: "gr: vertex id 0 (ids are 1-based)",
            input: Gr("p sp 2 1\na 0 2 1\n"),
        },
        ImportCorruption {
            name: "gr: vertex id beyond n",
            input: Gr("p sp 2 1\na 1 3 1\n"),
        },
        ImportCorruption {
            name: "gr: vertex id overflowing u64",
            input: Gr("p sp 2 1\na 1 99999999999999999999999999 1\n"),
        },
        ImportCorruption {
            name: "gr: NaN weight",
            input: Gr("p sp 2 1\na 1 2 NaN\n"),
        },
        ImportCorruption {
            name: "gr: infinite weight",
            input: Gr("p sp 2 1\na 1 2 inf\n"),
        },
        ImportCorruption {
            name: "gr: truncated arc record (missing weight)",
            input: Gr("p sp 2 1\na 1 2\n"),
        },
        ImportCorruption {
            name: "gr: unknown record kind",
            input: Gr("p sp 2 1\nz 1 2 1\na 1 2 1\n"),
        },
        // -- DIMACS .ss ---------------------------------------------------
        ImportCorruption {
            name: "ss: missing problem line",
            input: Ss {
                text: "s 1\n",
                n: 10,
            },
        },
        ImportCorruption {
            name: "ss: duplicate problem line",
            input: Ss {
                text: "p aux sp ss 1\np aux sp ss 1\ns 1\n",
                n: 10,
            },
        },
        ImportCorruption {
            name: "ss: malformed header magic",
            input: Ss {
                text: "p sp ss 1\ns 1\n",
                n: 10,
            },
        },
        ImportCorruption {
            name: "ss: source-count lie (truncation)",
            input: Ss {
                text: "p aux sp ss 3\ns 1\ns 2\n",
                n: 10,
            },
        },
        ImportCorruption {
            name: "ss: source id 0 (ids are 1-based)",
            input: Ss {
                text: "p aux sp ss 1\ns 0\n",
                n: 10,
            },
        },
        ImportCorruption {
            name: "ss: source id beyond n",
            input: Ss {
                text: "p aux sp ss 1\ns 11\n",
                n: 10,
            },
        },
        ImportCorruption {
            name: "ss: unknown record kind",
            input: Ss {
                text: "p aux sp ss 1\ns 1\nq 2\n",
                n: 10,
            },
        },
        // -- CSV edge lists -----------------------------------------------
        ImportCorruption {
            name: "csv: truncated record (missing weight field)",
            input: Csv("0,1\n"),
        },
        ImportCorruption {
            name: "csv: trailing extra field",
            input: Csv("0,1,2.0,bogus\n"),
        },
        ImportCorruption {
            name: "csv: non-numeric vertex id",
            input: Csv("a,1,2.0\n"),
        },
        ImportCorruption {
            name: "csv: vertex id overflowing u32",
            input: Csv("0,4294967295,2.0\n"),
        },
        ImportCorruption {
            name: "csv: NaN weight",
            input: Csv("0,1,NaN\n"),
        },
        ImportCorruption {
            name: "csv: negative travel time",
            input: Csv("0,1,-4.5\n"),
        },
        // -- Binary CSR directories ---------------------------------------
        ImportCorruption {
            name: "csr: truncated first_out (not a multiple of 4 bytes)",
            input: CsrDir {
                first_out: vec![0, 0, 0],
                head: le_words(&[]),
                weight: le_words(&[]),
            },
        },
        ImportCorruption {
            name: "csr: empty first_out",
            input: CsrDir {
                first_out: le_words(&[]),
                head: le_words(&[]),
                weight: le_words(&[]),
            },
        },
        ImportCorruption {
            name: "csr: arc-count lie (head shorter than declared)",
            input: CsrDir {
                first_out: le_words(&[0, 2, 3]),
                head: le_words(&[1, 0]),
                weight: le_words(&[10, 20, 30]),
            },
        },
        ImportCorruption {
            name: "csr: head id beyond n",
            input: CsrDir {
                first_out: le_words(&[0, 1, 2]),
                head: le_words(&[1, 7]),
                weight: le_words(&[10, 20]),
            },
        },
        ImportCorruption {
            name: "csr: non-monotone first_out",
            input: CsrDir {
                first_out: le_words(&[0, 2, 1]),
                head: le_words(&[1]),
                weight: le_words(&[10]),
            },
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_meets_the_coverage_floor() {
        // The robustness acceptance bar: at least 10 distinct
        // corruption kinds across both families.
        let total = text_corruptions().len() + instance_corruptions().len();
        assert!(total >= 10, "only {total} corruption kinds");
    }

    #[test]
    fn set_token_replaces_in_place() {
        let s = "p sp 2 1\na 1 2 0.5\n";
        assert_eq!(set_token(s, 1, 3, "NaN"), "p sp 2 1\na 1 2 NaN\n");
        assert_eq!(drop_last_line(s), "p sp 2 1\n");
    }

    #[test]
    fn wire_catalog_covers_every_corruption_class() {
        let catalog = wire_corruptions();
        assert!(
            catalog.len() >= 10,
            "only {} wire corruptions",
            catalog.len()
        );
        // Truncation, oversize, bad opcode, disconnect, and pipelining
        // must all be represented (the classes ISSUE 6 names).
        for class in [
            "truncated",
            "oversized",
            "opcode",
            "disconnect",
            "pipelined",
        ] {
            assert!(
                catalog.iter().any(|c| c.name.contains(class)),
                "no wire corruption covers '{class}'"
            );
        }
        let mut names = std::collections::HashSet::new();
        for c in &catalog {
            assert!(names.insert(c.name), "duplicate corruption name {}", c.name);
            assert!(!(c.bytes)().is_empty() || c.disconnect_after);
        }
    }

    #[test]
    fn import_catalog_covers_every_format_and_class() {
        let catalog = import_corruptions();
        assert!(
            catalog.len() >= 25,
            "only {} import corruptions",
            catalog.len()
        );
        let mut names = std::collections::HashSet::new();
        for c in &catalog {
            assert!(names.insert(c.name), "duplicate corruption name {}", c.name);
        }
        // All four raw formats must be represented...
        for prefix in ["gr:", "ss:", "csv:", "csr:"] {
            assert!(
                catalog.iter().any(|c| c.name.starts_with(prefix)),
                "no import corruption covers format '{prefix}'"
            );
        }
        // ...and each corruption class ISSUE 10 names.
        for class in [
            "header",
            "count",
            "overflow",
            "NaN",
            "negative",
            "truncated",
        ] {
            assert!(
                catalog.iter().any(|c| c.name.contains(class)),
                "no import corruption covers class '{class}'"
            );
        }
    }
}
