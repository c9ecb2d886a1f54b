//! The `spsep-oracle/v2` zero-copy snapshot format — the one binary
//! oracle snapshot this workspace writes and reads.
//!
//! A snapshot persists exactly what the Section 3.2 query reads, once:
//! the **compiled query state** — the CSR arrays of the graph, the
//! augmented edge slab `E ∪ E⁺`, the relaxation buckets, the phase
//! sequence, the separator-locality rank — as aligned little-endian
//! sections that are *borrowed* straight out
//! of the snapshot buffer ([`spsep_graph::Slab`]). Loading validates
//! headers, checksums, and semantic invariants, then hands out views:
//! no per-edge decode, no per-element allocation. With
//! [`spsep_graph::SlabBytes::map_file`] the buffer is a `MAP_SHARED`
//! read-only mapping, so any number of daemon processes serving the
//! same snapshot share one physical page-cache copy.
//!
//! # Layout
//!
//! All integers little-endian; the format is rejected with a typed
//! error on big-endian hosts (both directions — nothing silently
//! byte-swaps).
//!
//! ```text
//! offset 0    magic    "SPSEPORC"                  (8 bytes)
//! offset 8    u32      version (= 3)
//! offset 12   u32      augmentation algorithm (0 | 1 | 2)
//! offset 16   u32      section count (= 13)
//! offset 20   u32      reserved (= 0)
//! offset 24   section table: 13 × 32-byte entries
//!                 tag      4 bytes
//!                 pad      4 bytes (= 0)
//!                 u64      payload offset (absolute, 64-byte aligned)
//!                 u64      payload length in bytes
//!                 u64      checksum of the payload (below)
//! payloads    each starting at the 64-byte boundary after its
//!             predecessor, the gap zero-filled; the first at the
//!             boundary after the section table
//! trailer     "SPSEPEND" immediately after the last payload (8 bytes)
//! ```
//!
//! The checksum of a payload is FNV-1a over its little-endian `u64`
//! words ([`WordHasher`], [`spsep_graph::bytes::fnv1a64_words`]): the
//! last word zero-padded, each word folded in as `h ← (h ⊕ word) · p`
//! from the FNV-1a 64 offset basis with the FNV-1a 64 prime `p`, and the
//! payload's byte length folded in last the same way. The writer
//! ([`write_snapshot_v2`]) streams every section straight from the
//! in-memory arrays, so the hasher runs over the same slices, carrying
//! its state from one bucket's slice to the next.
//!
//! The layout is **canonical**: offsets are fully determined by the
//! lengths, padding must be zero, and sections appear in the fixed
//! order below — the same oracle always snapshots to byte-identical
//! files, and any deviation (shifted offset, tampered padding, trailing
//! bytes) is a typed [`SpsepError::Parse`].
//!
//! | tag    | element type      | contents                                   |
//! |--------|-------------------|--------------------------------------------|
//! | `META` | scalars (80 B)    | `n, m, |E⁺|, d_G, leaf bound, raw pairs, max sources, total phases, bucket count, sequence length` |
//! | `AEDG` | `Edge<f64>` ×(m+A)| `E` then `E⁺` (the augmented edge slab)    |
//! | `OOFF` | `u32` ×(n+1)      | out-CSR offsets of `G`                     |
//! | `OADJ` | `u32` ×m          | out-CSR edge ids                           |
//! | `IOFF` | `u32` ×(n+1)      | in-CSR offsets                             |
//! | `IADJ` | `u32` ×m          | in-CSR edge ids                            |
//! | `LVLS` | `u32` ×n          | vertex levels (`u32::MAX` = undefined)     |
//! | `NORD` | `u32` ×n          | separator-locality rank (a permutation)    |
//! | `SEQN` | `u32` ×phases     | bucket index per compiled phase            |
//! | `BOFF` | `u64` ×3(nb+1)    | per-bucket prefix offsets into BSRC/BGRP/BARC |
//! | `BSRC` | `u32`             | concatenated bucket source lists           |
//! | `BGRP` | `Group` (12 B)    | concatenated per-target reduction groups   |
//! | `BARC` | `ArcRec<f64>`     | concatenated relaxation arcs (16 B)        |
//!
//! The separator tree is not stored: queries never read it. Persist it
//! separately as a text tree file (`spsep_separator::io::write_tree`,
//! `spsep-cli -o tree.st`) to reuse it across weightings.
//!
//! # Older files
//!
//! Files from older builds are refused with a typed
//! [`SpsepError::Parse`] that says to re-run `spsep-cli prepare`:
//! `spsep-oracle/v1` snapshots (version word 1), files with version
//! word 2 (this layout under byte-wise FNV-1a section checksums), the
//! earlier v2 layout of 14 sections, which carried the tree as a
//! trailing `TREE` section, and the earlier bucket layout of
//! `3(d_G+1)+1` buckets,
//! whose one `E` bucket served both the entry and the exit phases
//! (this build writes `3(d_G+1)+2`: separate entry and exit buckets).
//!
//! # Load-time validation
//!
//! Beyond the structural checks above, the reader runs an
//! `O(n + m + A + arcs)` semantic sweep before trusting any index:
//! CSR offsets monotone and in range (via
//! [`spsep_graph::DiGraph::from_csr_parts`]), shortcut endpoints in
//! range, no NaN weights, levels `≤ d_G`, the rank array a permutation,
//! phase indices within the bucket table, bucket offset tables
//! monotone, group ranges an exact partition of each bucket's arcs, and
//! every arc cross-checked against the augmented edge it claims to be
//! (`from`/`to`/weight bits) — corrupt-but-checksummed snapshots are
//! rejected with typed errors instead of producing wrong answers.

use crate::augment::AugmentStats;
use crate::query::Preprocessed;
use crate::schedule::{ArcRec, Bucket, Group, Schedule};
use crate::Algorithm;
use rayon::prelude::*;
use spsep_graph::bytes::{fnv1a64_words, ByteReader, ByteWriter, WordHasher};
use spsep_graph::semiring::Tropical;
use spsep_graph::slab::{pod_bytes, Pod};
use spsep_graph::{DiGraph, Edge, Slab, SlabBytes, SpsepError};
use std::io::Write;
use std::sync::Arc;

/// File magic of an `spsep-oracle` snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SPSEPORC";
/// Trailer magic closing a snapshot (truncation sentinel).
pub const SNAPSHOT_TRAILER: &[u8; 8] = b"SPSEPEND";
/// Version word written and read by this module: the v2 layout with
/// word-wise section checksums ([`WordHasher`]).
pub const SNAPSHOT_VERSION: u32 = 3;
/// Version word of the same layout with byte-wise FNV-1a section
/// checksums, which earlier builds wrote; refused with a re-prepare
/// error.
const BYTE_CHECKSUM_VERSION: u32 = 2;
/// Alignment (bytes) of every section payload.
pub const SECTION_ALIGN: usize = 64;
/// Number of sections in a v2 snapshot.
pub const SECTION_COUNT: usize = 13;
/// Byte length of the fixed v2 header (magic + version + algo + count +
/// reserved).
pub const HEADER_LEN: usize = 24;
/// Byte length of one section-table entry.
pub const TABLE_ENTRY_LEN: usize = 32;
/// Byte length of the `META` section payload.
pub const META_LEN: usize = 80;

/// Section tags, in their mandatory file order.
pub const SECTION_TAGS: [&[u8; 4]; SECTION_COUNT] = [
    b"META", b"AEDG", b"OOFF", b"OADJ", b"IOFF", b"IADJ", b"LVLS", b"NORD", b"SEQN", b"BOFF",
    b"BSRC", b"BGRP", b"BARC",
];

const S_META: usize = 0;
const S_AEDG: usize = 1;
const S_OOFF: usize = 2;
const S_OADJ: usize = 3;
const S_IOFF: usize = 4;
const S_IADJ: usize = 5;
const S_LVLS: usize = 6;
const S_NORD: usize = 7;
const S_SEQN: usize = 8;
const S_BOFF: usize = 9;
const S_BSRC: usize = 10;
const S_BGRP: usize = 11;
const S_BARC: usize = 12;

/// A fully validated, zero-copy view of a v2 snapshot: the graph and
/// the compiled query state borrow the snapshot buffer.
pub struct SnapshotV2 {
    /// The weighted digraph `G`, CSR arrays borrowed from the snapshot.
    pub graph: DiGraph<f64>,
    /// Which `E⁺` construction produced the augmentation.
    pub algo: Algorithm,
    /// The compiled query state, every array borrowed from the snapshot.
    pub pre: Preprocessed<Tropical>,
}

// Manual impl: `Preprocessed` has no Debug (its semiring parameter is
// not required to), so summarize the shape instead of deriving.
impl std::fmt::Debug for SnapshotV2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotV2")
            .field("n", &self.graph.n())
            .field("m", &self.graph.m())
            .field("algo", &self.algo)
            .field("eplus", &self.pre.stats().eplus_edges)
            .finish_non_exhaustive()
    }
}

/// What every refused older-format snapshot tells the operator.
const REPREPARE: &str = "re-run `spsep-cli prepare` to rebuild the snapshot";

fn require_little_endian(verb: &str) -> Result<(), SpsepError> {
    if cfg!(target_endian = "big") {
        return Err(SpsepError::parse(format!(
            "spsep-oracle/v2 snapshots are little-endian only; cannot {verb} on a big-endian host"
        )));
    }
    Ok(())
}

fn pad_to_align(off: usize) -> usize {
    off.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

fn algo_code(algo: Algorithm) -> u32 {
    match algo {
        Algorithm::LeavesUp => 0,
        Algorithm::PathDoubling => 1,
        Algorithm::SharedDoubling => 2,
    }
}

fn algo_from_code(code: u32) -> Result<Algorithm, SpsepError> {
    match code {
        0 => Ok(Algorithm::LeavesUp),
        1 => Ok(Algorithm::PathDoubling),
        2 => Ok(Algorithm::SharedDoubling),
        other => Err(SpsepError::parse(format!(
            "unknown augmentation algorithm code {other}"
        ))),
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Stream a prepared instance to `out` as a canonical v2 snapshot.
///
/// Every section is written straight from the in-memory arrays it
/// holds, as their [`pod_bytes`] views: nothing is copied into an
/// intermediate buffer. The checksums, which the section table carries
/// ahead of the payloads, are one [`WordHasher`] pass over the same
/// slices first. Callers writing to a file should hand in a buffered
/// writer; the pieces are as small as one bucket's source list.
///
/// # Errors
///
/// [`SpsepError::Io`] if writing to `out` fails;
/// [`SpsepError::Parse`] on a big-endian host (the format is
/// little-endian only and never byte-swaps).
pub fn write_snapshot_v2<W: Write>(
    out: &mut W,
    graph: &DiGraph<f64>,
    algo: Algorithm,
    pre: &Preprocessed<Tropical>,
) -> Result<(), SpsepError> {
    require_little_endian("write")?;
    let n = graph.n();
    let m = graph.m();
    let aug_edges = pre.augmented_edges();
    let a = aug_edges.len() - m;
    let schedule = pre.schedule();
    let buckets = schedule.buckets();

    let mut meta = ByteWriter::new();
    meta.u64(n as u64);
    meta.u64(m as u64);
    meta.u64(a as u64);
    meta.u32(pre.stats().d_g);
    meta.u32(0); // reserved
    meta.u64(pre.stats().leaf_bound as u64);
    meta.u64(pre.stats().raw_pairs as u64);
    meta.u64(schedule.max_sources() as u64);
    meta.u64(schedule.total_phases() as u64);
    meta.u64(buckets.len() as u64);
    meta.u64(schedule.sequence().len() as u64);
    let meta = meta.into_inner();

    // BOFF: per-bucket prefix offsets into BSRC, then BGRP, then BARC.
    let nb = buckets.len();
    let mut boff = vec![0u64; 3 * (nb + 1)];
    for (i, b) in buckets.iter().enumerate() {
        let lens = [b.sources().len(), b.groups().len(), b.arcs().len()];
        for (k, len) in lens.into_iter().enumerate() {
            boff[k * (nb + 1) + i + 1] = boff[k * (nb + 1) + i] + len as u64;
        }
    }

    // Each section as the pieces it is streamed from, in file order.
    let sections: [Vec<&[u8]>; SECTION_COUNT] = [
        vec![&meta],
        vec![pod_bytes(aug_edges)],
        vec![pod_bytes(graph.first_out())],
        vec![pod_bytes(graph.out_adjacency())],
        vec![pod_bytes(graph.first_in())],
        vec![pod_bytes(graph.in_adjacency())],
        vec![pod_bytes(pre.levels())],
        vec![pod_bytes(pre.order_rank())],
        vec![pod_bytes(schedule.sequence())],
        vec![pod_bytes(&boff)],
        buckets.iter().map(|b| pod_bytes(b.sources())).collect(),
        buckets.iter().map(|b| pod_bytes(b.groups())).collect(),
        buckets.iter().map(|b| pod_bytes(b.arcs())).collect(),
    ];
    let lens: Vec<usize> = sections
        .iter()
        .map(|pieces| pieces.iter().map(|p| p.len()).sum())
        .collect();
    let sums: Vec<u64> = sections
        .par_iter()
        .map(|pieces| {
            let mut h = WordHasher::new();
            for p in pieces {
                h.update(p);
            }
            h.finish()
        })
        .collect();

    // Canonical layout: offsets are a pure function of the lengths.
    let table_end = HEADER_LEN + TABLE_ENTRY_LEN * SECTION_COUNT;
    let mut offsets = [0usize; SECTION_COUNT];
    let mut cursor = pad_to_align(table_end);
    for (i, &len) in lens.iter().enumerate() {
        offsets[i] = cursor;
        cursor += len;
        if i + 1 < SECTION_COUNT {
            cursor = pad_to_align(cursor);
        }
    }

    let mut head = ByteWriter::new();
    head.bytes(SNAPSHOT_MAGIC);
    head.u32(SNAPSHOT_VERSION);
    head.u32(algo_code(algo));
    head.u32(SECTION_COUNT as u32);
    head.u32(0); // reserved
    for i in 0..SECTION_COUNT {
        head.bytes(SECTION_TAGS[i]);
        head.u32(0); // tag pad
        head.u64(offsets[i] as u64);
        head.u64(lens[i] as u64);
        head.u64(sums[i]);
    }
    let head = head.into_inner();
    out.write_all(&head)?;
    let mut written = head.len();
    let zeros = [0u8; SECTION_ALIGN];
    for (i, pieces) in sections.iter().enumerate() {
        out.write_all(&zeros[..offsets[i] - written])?;
        for p in pieces {
            out.write_all(p)?;
        }
        written = offsets[i] + lens[i];
    }
    out.write_all(SNAPSHOT_TRAILER)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

struct SectionEntry {
    off: usize,
    len: usize,
}

/// Checked `u64 → usize` for offsets/lengths from untrusted headers.
fn to_usize(v: u64, what: &str) -> Result<usize, SpsepError> {
    usize::try_from(v).map_err(|_| SpsepError::parse(format!("{what} {v} overflows usize")))
}

/// Borrow a whole section as a typed slab, checking the byte length
/// matches the expected element count exactly.
fn section_slab<T: Pod>(
    bytes: &Arc<SlabBytes>,
    ent: &SectionEntry,
    tag: &str,
    count: usize,
) -> Result<Slab<T>, SpsepError> {
    let elem = std::mem::size_of::<T>();
    if ent.len != count.saturating_mul(elem) {
        return Err(SpsepError::parse(format!(
            "section '{tag}' is {} bytes but {count} elements of {elem} bytes were declared",
            ent.len
        )));
    }
    Slab::new(Arc::clone(bytes), ent.off, count)
}

/// Parse and validate a v2 snapshot held in an aligned buffer (owned
/// bytes or a memory-mapped file), borrowing every array out of it.
///
/// # Errors
///
/// [`SpsepError::Parse`] for every form of corruption: bad magic or
/// version, unknown algorithm, wrong section count/order, misaligned or
/// non-canonical section offsets, tampered padding, truncation,
/// checksum mismatch, or any semantic invariant violation (see the
/// module docs); [`SpsepError::InvalidGraph`] if the CSR arrays are
/// inconsistent. Never panics on hostile bytes.
pub fn snapshot_v2_from_slab(bytes: Arc<SlabBytes>) -> Result<SnapshotV2, SpsepError> {
    require_little_endian("read")?;
    let buf = bytes.bytes();
    let mut r = ByteReader::new(buf);
    let magic = r.take(8, "snapshot magic")?;
    if magic != SNAPSHOT_MAGIC {
        return Err(SpsepError::parse(
            "bad magic: not an spsep-oracle snapshot".to_string(),
        ));
    }
    let version = r.u32("snapshot version")?;
    if version == 1 {
        return Err(SpsepError::parse(format!(
            "found an spsep-oracle/v1 snapshot, which this build no longer reads; \
             {REPREPARE}"
        )));
    }
    if version == BYTE_CHECKSUM_VERSION {
        return Err(SpsepError::parse(format!(
            "found a snapshot with the byte-wise section checksums of an older build \
             (version {version}; this build reads version {SNAPSHOT_VERSION}); {REPREPARE}"
        )));
    }
    if version != SNAPSHOT_VERSION {
        return Err(SpsepError::parse(format!(
            "snapshot version {version} unsupported (this reader handles version {SNAPSHOT_VERSION})"
        )));
    }
    let algo = algo_from_code(r.u32("algorithm code")?)?;
    let sections = r.u32("section count")?;
    if sections as usize != SECTION_COUNT {
        // The earlier v2 layout appended the separator tree as a 14th
        // section tagged `TREE`.
        let tree_tag_at = HEADER_LEN + TABLE_ENTRY_LEN * SECTION_COUNT;
        if sections as usize == SECTION_COUNT + 1
            && buf.get(tree_tag_at..tree_tag_at + 4) == Some(b"TREE".as_slice())
        {
            return Err(SpsepError::parse(format!(
                "found the older {sections}-section v2 layout with a TREE section \
                 (this build reads {SECTION_COUNT} sections); {REPREPARE}"
            )));
        }
        return Err(SpsepError::parse(format!(
            "expected {SECTION_COUNT} sections, header declares {sections}"
        )));
    }
    if r.u32("header reserved word")? != 0 {
        return Err(SpsepError::parse("header reserved word is not zero"));
    }

    // Section table: fixed tag order, canonical offsets.
    let mut entries: Vec<SectionEntry> = Vec::with_capacity(SECTION_COUNT);
    let mut sums = [0u64; SECTION_COUNT];
    for (i, tag) in SECTION_TAGS.iter().enumerate() {
        let got = r.take(4, "section tag")?;
        if got != *tag {
            return Err(SpsepError::parse(format!(
                "section {i}: expected tag '{}', found '{}'",
                String::from_utf8_lossy(*tag),
                String::from_utf8_lossy(got)
            )));
        }
        if r.u32("section tag pad")? != 0 {
            return Err(SpsepError::parse(format!(
                "section {i}: tag padding is not zero"
            )));
        }
        let off = to_usize(r.u64("section offset")?, "section offset")?;
        let len = to_usize(r.u64("section length")?, "section length")?;
        sums[i] = r.u64("section checksum")?;
        entries.push(SectionEntry { off, len });
    }

    // Canonical layout walk: each section starts at the aligned
    // boundary after its predecessor, padding zero-filled, trailer
    // flush at the end.
    let mut expected = pad_to_align(HEADER_LEN + TABLE_ENTRY_LEN * SECTION_COUNT);
    for (i, ent) in entries.iter().enumerate() {
        if ent.off != expected {
            return Err(SpsepError::parse(format!(
                "section {i} offset {} breaks the canonical layout (expected {expected})",
                ent.off
            )));
        }
        let end = ent
            .off
            .checked_add(ent.len)
            .ok_or_else(|| SpsepError::parse("section end overflows"))?;
        if end > buf.len() {
            return Err(SpsepError::parse(format!(
                "section {i} [{}..{end}] exceeds the {}-byte snapshot",
                ent.off,
                buf.len()
            )));
        }
        expected = if i + 1 < SECTION_COUNT {
            pad_to_align(end)
        } else {
            end
        };
    }
    let trailer_off = expected;
    if buf.len() != trailer_off + SNAPSHOT_TRAILER.len() {
        return Err(SpsepError::parse(format!(
            "snapshot is {} bytes, expected {} (truncated or trailing bytes)",
            buf.len(),
            trailer_off + SNAPSHOT_TRAILER.len()
        )));
    }
    if &buf[trailer_off..] != SNAPSHOT_TRAILER {
        return Err(SpsepError::parse(
            "bad trailer: snapshot is truncated or corrupt".to_string(),
        ));
    }
    // Zero padding between the table and the first section and between
    // consecutive sections.
    let mut gap_start = HEADER_LEN + TABLE_ENTRY_LEN * SECTION_COUNT;
    for (i, ent) in entries.iter().enumerate() {
        if buf[gap_start..ent.off].iter().any(|&b| b != 0) {
            return Err(SpsepError::parse(format!(
                "nonzero padding before section {i}"
            )));
        }
        gap_start = ent.off + ent.len;
    }
    // Checksums.
    let actual: Vec<u64> = entries
        .par_iter()
        .map(|ent| fnv1a64_words(&buf[ent.off..ent.off + ent.len]))
        .collect();
    for (i, (&stored, &actual)) in sums.iter().zip(&actual).enumerate() {
        if actual != stored {
            return Err(SpsepError::parse(format!(
                "checksum mismatch in section '{}': stored {stored:#018x}, computed {actual:#018x}",
                String::from_utf8_lossy(SECTION_TAGS[i]),
            )));
        }
    }

    // META scalars.
    if entries[S_META].len != META_LEN {
        return Err(SpsepError::parse(format!(
            "META section is {} bytes, expected {META_LEN}",
            entries[S_META].len
        )));
    }
    let meta = &buf[entries[S_META].off..entries[S_META].off + META_LEN];
    let mut mr = ByteReader::new(meta);
    let n = to_usize(mr.u64("n")?, "n")?;
    let m = to_usize(mr.u64("m")?, "m")?;
    let a = to_usize(mr.u64("eplus count")?, "eplus count")?;
    let d_g = mr.u32("d_g")?;
    if mr.u32("meta reserved word")? != 0 {
        return Err(SpsepError::parse("META reserved word is not zero"));
    }
    let leaf_bound = to_usize(mr.u64("leaf bound")?, "leaf bound")?;
    let raw_pairs = to_usize(mr.u64("raw pairs")?, "raw pairs")?;
    let max_sources = to_usize(mr.u64("max sources")?, "max sources")?;
    let total_phases = to_usize(mr.u64("total phases")?, "total phases")?;
    let num_buckets = to_usize(mr.u64("bucket count")?, "bucket count")?;
    let seq_len = to_usize(mr.u64("sequence length")?, "sequence length")?;
    mr.expect_exhausted("META payload")?;

    // Structural cross-checks that pin the compiled shape to d_G: three
    // level buckets per level, then the entry and exit buckets.
    let level_buckets = 3 * (d_g as usize + 1);
    if num_buckets == level_buckets + 1 {
        // Earlier builds scanned one bucket holding all of E in both
        // the entry and the exit phases.
        return Err(SpsepError::parse(format!(
            "found the older bucket layout with one E bucket for the entry and exit \
             phases ({num_buckets} buckets; this build expects {} for d_G = {d_g}); \
             {REPREPARE}",
            level_buckets + 2
        )));
    }
    if num_buckets != level_buckets + 2 {
        return Err(SpsepError::parse(format!(
            "bucket count {num_buckets} inconsistent with d_G = {d_g} (expected {})",
            level_buckets + 2
        )));
    }
    if total_phases != 2 * leaf_bound + 4 * d_g as usize + 1 {
        return Err(SpsepError::parse(format!(
            "total phases {total_phases} inconsistent with l = {leaf_bound}, d_G = {d_g}"
        )));
    }
    let aug_count = m
        .checked_add(a)
        .ok_or_else(|| SpsepError::parse("edge counts overflow"))?;

    // Borrow the typed slabs (lengths pinned to the META counts).
    let aedg: Slab<Edge<f64>> = section_slab(&bytes, &entries[S_AEDG], "AEDG", aug_count)?;
    let ooff: Slab<u32> = section_slab(&bytes, &entries[S_OOFF], "OOFF", n + 1)?;
    let oadj: Slab<u32> = section_slab(&bytes, &entries[S_OADJ], "OADJ", m)?;
    let ioff: Slab<u32> = section_slab(&bytes, &entries[S_IOFF], "IOFF", n + 1)?;
    let iadj: Slab<u32> = section_slab(&bytes, &entries[S_IADJ], "IADJ", m)?;
    let lvls: Slab<u32> = section_slab(&bytes, &entries[S_LVLS], "LVLS", n)?;
    let nord: Slab<u32> = section_slab(&bytes, &entries[S_NORD], "NORD", n)?;
    let seqn: Slab<u32> = section_slab(&bytes, &entries[S_SEQN], "SEQN", seq_len)?;
    let boff: Slab<u64> = section_slab(&bytes, &entries[S_BOFF], "BOFF", 3 * (num_buckets + 1))?;
    let nsrc = entries[S_BSRC].len / 4;
    let ngrp = entries[S_BGRP].len / std::mem::size_of::<Group>();
    let narc = entries[S_BARC].len / std::mem::size_of::<ArcRec<f64>>();
    let bsrc: Slab<u32> = section_slab(&bytes, &entries[S_BSRC], "BSRC", nsrc)?;
    let bgrp: Slab<Group> = section_slab(&bytes, &entries[S_BGRP], "BGRP", ngrp)?;
    let barc: Slab<ArcRec<f64>> = section_slab(&bytes, &entries[S_BARC], "BARC", narc)?;

    // Semantic sweep 1: the graph CSR (validated by from_csr_parts) and
    // the augmented edge slab.
    let graph_edges = aedg.subslab(0, m)?;
    let graph = DiGraph::from_csr_parts(
        n,
        graph_edges.into(),
        ooff.into(),
        oadj.into(),
        ioff.into(),
        iadj.into(),
    )?;
    for (i, e) in aedg.as_slice().iter().enumerate() {
        if e.from as usize >= n || e.to as usize >= n {
            return Err(SpsepError::parse(format!(
                "augmented edge #{i} endpoint {}→{} out of range 0..{n}",
                e.from, e.to
            )));
        }
        if e.w.is_nan() {
            return Err(SpsepError::parse(format!(
                "augmented edge #{i} weight is NaN"
            )));
        }
    }

    // Semantic sweep 2: per-vertex tables.
    for (v, &lvl) in lvls.as_slice().iter().enumerate() {
        if lvl != u32::MAX && lvl > d_g {
            return Err(SpsepError::parse(format!(
                "level {lvl} of vertex {v} exceeds d_G = {d_g}"
            )));
        }
    }
    let mut seen = vec![0u64; n.div_ceil(64)];
    for (v, &rank) in nord.as_slice().iter().enumerate() {
        let r = rank as usize;
        if r >= n || seen[r / 64] & (1 << (r % 64)) != 0 {
            return Err(SpsepError::parse(format!(
                "rank array is not a permutation at vertex {v} (rank {rank})"
            )));
        }
        seen[r / 64] |= 1 << (r % 64);
    }

    // Semantic sweep 3: the schedule. Bucket offsets must be monotone
    // prefix sums ending exactly at the concatenated section lengths.
    let offs = boff.as_slice();
    let check_offsets = |base: usize, total: usize, what: &str| -> Result<(), SpsepError> {
        let row = &offs[base * (num_buckets + 1)..(base + 1) * (num_buckets + 1)];
        if row[0] != 0 || row[num_buckets] != total as u64 {
            return Err(SpsepError::parse(format!(
                "{what} offsets do not span 0..{total}"
            )));
        }
        if row.windows(2).any(|w| w[0] > w[1]) {
            return Err(SpsepError::parse(format!(
                "{what} offsets are not monotone"
            )));
        }
        Ok(())
    };
    check_offsets(0, nsrc, "bucket source")?;
    check_offsets(1, ngrp, "bucket group")?;
    check_offsets(2, narc, "bucket arc")?;
    for &bi in seqn.as_slice() {
        if bi as usize >= num_buckets {
            return Err(SpsepError::parse(format!(
                "phase sequence references bucket {bi} of {num_buckets}"
            )));
        }
    }

    let aug = aedg.as_slice();
    let mut buckets: Vec<Bucket<f64>> = Vec::with_capacity(num_buckets);
    let mut observed_max_sources = 0usize;
    for b in 0..num_buckets {
        let (s0, s1) = (offs[b] as usize, offs[b + 1] as usize);
        let g_base = num_buckets + 1;
        let (g0, g1) = (offs[g_base + b] as usize, offs[g_base + b + 1] as usize);
        let a_base = 2 * (num_buckets + 1);
        let (a0, a1) = (offs[a_base + b] as usize, offs[a_base + b + 1] as usize);
        let sources = bsrc.subslab(s0, s1)?;
        let groups = bgrp.subslab(g0, g1)?;
        let arcs = barc.subslab(a0, a1)?;
        let srcs = sources.as_slice();
        if srcs.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SpsepError::parse(format!(
                "bucket {b}: source list is not strictly increasing"
            )));
        }
        if srcs.last().is_some_and(|&s| s as usize >= n) {
            return Err(SpsepError::parse(format!(
                "bucket {b}: source out of range 0..{n}"
            )));
        }
        observed_max_sources = observed_max_sources.max(srcs.len());
        let bucket_arcs = arcs.as_slice();
        let mut cursor = 0u32;
        for (gi, g) in groups.as_slice().iter().enumerate() {
            if g.start != cursor || g.end < g.start || g.end as usize > bucket_arcs.len() {
                return Err(SpsepError::parse(format!(
                    "bucket {b} group {gi} range {}..{} does not partition {} arcs",
                    g.start,
                    g.end,
                    bucket_arcs.len()
                )));
            }
            cursor = g.end;
            if g.target as usize >= n {
                return Err(SpsepError::parse(format!(
                    "bucket {b} group {gi} target {} out of range 0..{n}",
                    g.target
                )));
            }
            for arc in &bucket_arcs[g.start as usize..g.end as usize] {
                if arc.slot as usize >= srcs.len() || arc.id as usize >= aug_count {
                    return Err(SpsepError::parse(format!(
                        "bucket {b} group {gi}: arc slot {} / edge id {} out of range",
                        arc.slot, arc.id
                    )));
                }
                // Cross-check the arc against the edge it claims to be:
                // a checksummed-but-semantically-patched bucket cannot
                // silently change answers.
                let e = &aug[arc.id as usize];
                if e.from != srcs[arc.slot as usize]
                    || e.to != g.target
                    || e.w.to_bits() != arc.w.to_bits()
                {
                    return Err(SpsepError::parse(format!(
                        "bucket {b} group {gi}: arc disagrees with augmented edge {}",
                        arc.id
                    )));
                }
            }
        }
        if cursor as usize != bucket_arcs.len() {
            return Err(SpsepError::parse(format!(
                "bucket {b}: groups cover {cursor} of {} arcs",
                bucket_arcs.len()
            )));
        }
        buckets.push(Bucket {
            sources: sources.into(),
            groups: groups.into(),
            arcs: arcs.into(),
        });
    }
    if observed_max_sources != max_sources {
        return Err(SpsepError::parse(format!(
            "max sources {max_sources} disagrees with the bucket contents ({observed_max_sources})"
        )));
    }

    let schedule = Schedule::<Tropical> {
        n,
        buckets,
        sequence: seqn.into(),
        max_sources,
        total_phases,
    };
    let pre = Preprocessed::<Tropical> {
        n,
        aug_edges: aedg.into(),
        base_m: m,
        levels: lvls.into(),
        order_rank: nord.into(),
        schedule,
        stats: AugmentStats {
            eplus_edges: a,
            raw_pairs,
            d_g,
            leaf_bound,
        },
    };
    Ok(SnapshotV2 { graph, algo, pre })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{alg41, Preprocessed};
    use rand::SeedableRng;
    use spsep_graph::Store;
    use spsep_pram::Metrics;
    use spsep_separator::{builders, RecursionLimits};

    fn instance(dims: [usize; 2], seed: u64) -> (DiGraph<f64>, Preprocessed<Tropical>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (g, _) = spsep_graph::generators::grid(&dims, &mut rng);
        let tree = builders::grid_tree(&dims, RecursionLimits::default());
        let metrics = Metrics::new();
        let aug = alg41::augment_leaves_up::<Tropical>(&g, &tree, &metrics).unwrap();
        let pre = Preprocessed::compile(&g, &tree, aug);
        (g, pre)
    }

    fn snapshot(dims: [usize; 2], seed: u64) -> (Vec<u8>, DiGraph<f64>, Preprocessed<Tropical>) {
        let (g, pre) = instance(dims, seed);
        let mut bytes = Vec::new();
        write_snapshot_v2(&mut bytes, &g, Algorithm::LeavesUp, &pre).unwrap();
        (bytes, g, pre)
    }

    fn load(bytes: Vec<u8>) -> Result<SnapshotV2, SpsepError> {
        snapshot_v2_from_slab(Arc::new(SlabBytes::from_vec(bytes)))
    }

    #[test]
    fn roundtrip_is_bit_identical_and_zero_copy() {
        let (bytes, g, pre) = snapshot([7, 6], 31);
        let snap = load(bytes).unwrap();
        assert_eq!(snap.graph.n(), g.n());
        assert_eq!(snap.graph.m(), g.m());
        assert_eq!(snap.graph.edges(), g.edges());
        assert_eq!(snap.algo, Algorithm::LeavesUp);
        assert_eq!(snap.pre.stats().eplus_edges, pre.stats().eplus_edges);
        assert_eq!(snap.pre.order_rank(), pre.order_rank());
        for s in 0..g.n() {
            let (d1, _) = pre.distances_seq(s);
            let (d2, _) = snap.pre.distances_seq(s);
            for (a, b) in d1.iter().zip(&d2) {
                assert_eq!(a.to_bits(), b.to_bits(), "source {s}");
            }
        }
        // The reconstituted arrays are slabs, not copies.
        assert!(matches!(snap.pre.aug_edges, Store::Slab(_)));
        assert!(matches!(snap.pre.schedule.sequence, Store::Slab(_)));
        assert!(matches!(snap.pre.schedule.buckets[0].arcs, Store::Slab(_)));
    }

    #[test]
    fn snapshots_are_canonical_bytes() {
        let (b1, _, _) = snapshot([6, 6], 33);
        let (b2, _, _) = snapshot([6, 6], 33);
        assert_eq!(b1, b2, "same instance must snapshot to identical bytes");
    }

    #[test]
    fn header_and_layout_corruptions_are_typed_errors() {
        let (bytes, _, _) = snapshot([5, 5], 35);
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(load(bad), Err(SpsepError::Parse { .. })));
        // Version skew (current bytes claiming the next version).
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
        let err = load(bad).unwrap_err();
        assert!(err.to_string().contains("version 4"), "{err}");
        // The previous version word: the byte-checksum build's files.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&BYTE_CHECKSUM_VERSION.to_le_bytes());
        let err = load(bad).unwrap_err();
        assert!(err.to_string().contains(REPREPARE), "{err}");
        // Unknown algorithm.
        let mut bad = bytes.clone();
        bad[12..16].copy_from_slice(&9u32.to_le_bytes());
        assert!(load(bad).is_err());
        // Shifted section offset (entry 1's offset field at 24+32+8).
        let mut bad = bytes.clone();
        let field = HEADER_LEN + TABLE_ENTRY_LEN + 8;
        let off = u64::from_le_bytes(bad[field..field + 8].try_into().unwrap());
        bad[field..field + 8].copy_from_slice(&(off + 64).to_le_bytes());
        let err = load(bad).unwrap_err();
        assert!(err.to_string().contains("canonical layout"), "{err}");
        // Tampered padding between table and first section.
        let mut bad = bytes.clone();
        bad[HEADER_LEN + TABLE_ENTRY_LEN * SECTION_COUNT] = 0xAB;
        let err = load(bad).unwrap_err();
        assert!(err.to_string().contains("padding"), "{err}");
        // Flipped payload byte → checksum mismatch.
        let mut bad = bytes.clone();
        let mid = bytes.len() / 2;
        bad[mid] ^= 0xff;
        assert!(matches!(load(bad), Err(SpsepError::Parse { .. })));
        // Truncation at a sample of byte positions (the testkit catalog
        // covers every header byte and the slab page boundaries).
        for cut in (0..bytes.len()).step_by(131) {
            assert!(load(bytes[..cut].to_vec()).is_err(), "cut {cut}");
        }
    }
}
