//! `svpack` — portable binary serialisation for trees, plus the `svz`
//! LZ77-style compressor.
//!
//! The paper stores its Codebase DB as "a portable set of semantic-bearing
//! trees and metadata files all stored in a Zstd compressed MessagePack
//! format".  Neither Zstd nor MessagePack bindings are on the approved
//! dependency list, so this module provides the from-scratch equivalent:
//!
//! * **svpack**: a compact binary tree format — LEB128 varints, a string
//!   table for labels (labels repeat heavily in ASTs: `BinaryOperator`,
//!   `ImplicitCast`, …), and pre-order node records carrying optional spans.
//! * **svz**: a greedy LZ77 compressor with a hash-chain match finder over a
//!   64 KiB window, emitting literal-run / back-reference ops.  It is not
//!   Zstd, but AST serialisations are extremely repetitive and compress
//!   3–10× in practice, which is what the DB format needs.
//!
//! Both layers round-trip exactly; property tests in this module and in the
//! integration suite enforce that.

use crate::{Span, Tree};
use std::fmt;

/// Errors surfaced while decoding svpack / svz payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// Payload ended before a complete value was read.
    Truncated,
    /// Magic bytes did not match the expected format.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// A varint exceeded 64 bits.
    VarintOverflow,
    /// A string-table or node index pointed outside the table.
    BadIndex(u64),
    /// Label bytes were not valid UTF-8.
    BadUtf8,
    /// Declared decompressed size did not match the produced output.
    LengthMismatch { expected: u64, actual: u64 },
    /// A back-reference pointed before the start of the output buffer.
    BadBackref,
    /// Unknown op tag in an svz stream.
    BadOp(u8),
    /// The tree encoding was structurally invalid (e.g. child count cycles).
    Malformed,
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Truncated => write!(f, "payload truncated"),
            PackError::BadMagic => write!(f, "bad magic"),
            PackError::BadVersion(v) => write!(f, "unsupported version {v}"),
            PackError::VarintOverflow => write!(f, "varint overflow"),
            PackError::BadIndex(i) => write!(f, "index {i} out of range"),
            PackError::BadUtf8 => write!(f, "invalid utf-8 in label"),
            PackError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            PackError::BadBackref => write!(f, "back-reference out of range"),
            PackError::BadOp(t) => write!(f, "unknown op tag {t}"),
            PackError::Malformed => write!(f, "malformed tree encoding"),
        }
    }
}

impl std::error::Error for PackError {}

// ---------------------------------------------------------------------------
// varint primitives
// ---------------------------------------------------------------------------

/// Append an unsigned LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint, advancing `pos`.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, PackError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(PackError::Truncated)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(PackError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// svpack tree format
// ---------------------------------------------------------------------------

const TREE_MAGIC: &[u8; 4] = b"SVTR";
const TREE_VERSION: u8 = 2;

/// Probe a buffer for the svpack tree magic; returns the format version
/// byte when it matches (readers accept only version 2, and answer any
/// other byte with [`PackError::BadVersion`]).  The mmap'd
/// artifact store and the binary wire protocol use this to validate
/// svpack records without decoding them.
pub fn probe_tree(buf: &[u8]) -> Option<u8> {
    (buf.len() >= 5 && &buf[0..4] == TREE_MAGIC).then(|| buf[4])
}

/// Serialise a tree to the svpack v2 binary format.
///
/// v2 is interner-backed and columnar: the string table is the subset of the
/// tree's [`crate::Interner`] actually referenced by nodes (first-seen
/// pre-order, written once), followed by three pre-order columns — label
/// indices, arities, spans.  The writer never hashes or copies label bytes
/// per node (the dense remap is an array over symbol ids), and the columnar
/// layout groups similar varints so the svz pass compresses better than
/// the interleaved records of the retired v1 format.
pub fn write_tree(tree: &Tree) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + tree.size() * 4);
    out.extend_from_slice(TREE_MAGIC);
    out.push(TREE_VERSION);

    // Dense remap: symbol id -> table slot, first-seen in pre-order.  The
    // tree's interner may hold labels from sibling trees sharing the table;
    // only referenced symbols are written.
    let mut remap = vec![u32::MAX; tree.interner().len()];
    let mut table: Vec<crate::Sym> = Vec::new();
    let order: Vec<crate::NodeId> = tree.preorder().collect();
    for &id in &order {
        let s = tree.sym(id);
        if remap[s.index()] == u32::MAX {
            remap[s.index()] = table.len() as u32;
            table.push(s);
        }
    }
    write_varint(&mut out, table.len() as u64);
    for &s in &table {
        let l = tree.resolve(s);
        write_varint(&mut out, l.len() as u64);
        out.extend_from_slice(l.as_bytes());
    }

    write_varint(&mut out, tree.size() as u64);
    for &id in &order {
        write_varint(&mut out, u64::from(remap[tree.sym(id).index()]));
    }
    for &id in &order {
        write_varint(&mut out, tree.arity(id) as u64);
    }
    for &id in &order {
        match tree.span(id) {
            None => out.push(0),
            Some(s) => {
                out.push(1);
                write_varint(&mut out, u64::from(s.file));
                write_varint(&mut out, u64::from(s.start_line));
                // end is stored as a delta; spans are validated start<=end.
                write_varint(&mut out, u64::from(s.end_line - s.start_line));
            }
        }
    }
    out
}

fn read_label_table(buf: &[u8], pos: &mut usize) -> Result<Vec<String>, PackError> {
    let table_len = read_varint(buf, pos)? as usize;
    // Guard against absurd declared lengths on truncated/corrupt payloads.
    let mut table: Vec<String> = Vec::with_capacity(table_len.min(buf.len()));
    for _ in 0..table_len {
        let len = read_varint(buf, pos)? as usize;
        let end = pos.checked_add(len).ok_or(PackError::Truncated)?;
        let bytes = buf.get(*pos..end).ok_or(PackError::Truncated)?;
        table.push(String::from_utf8(bytes.to_vec()).map_err(|_| PackError::BadUtf8)?);
        *pos = end;
    }
    Ok(table)
}

fn read_span(buf: &[u8], pos: &mut usize) -> Result<Option<Span>, PackError> {
    let flag = *buf.get(*pos).ok_or(PackError::Truncated)?;
    *pos += 1;
    match flag {
        0 => Ok(None),
        1 => {
            let file = read_varint(buf, pos)? as u32;
            let start = read_varint(buf, pos)? as u32;
            let delta = read_varint(buf, pos)? as u32;
            Ok(Some(Span::lines(file, start, start + delta)))
        }
        t => Err(PackError::BadOp(t)),
    }
}

/// Build a pre-order tree from per-node (label sym, span, arity) triples.
fn assemble_preorder(
    table: std::sync::Arc<crate::Interner>,
    nodes: impl Iterator<Item = (crate::Sym, Option<Span>, u64)>,
) -> Result<Tree, PackError> {
    let mut tree = Tree::empty_in(table);
    // Reconstruct pre-order: a stack of (parent id, remaining children).
    let mut stack: Vec<(crate::NodeId, u64)> = Vec::new();
    let mut first = true;
    for (sym, span, arity) in nodes {
        let id = if first {
            first = false;
            tree.set_root_sym(sym, span)
        } else {
            let &mut (parent, ref mut remaining) = stack.last_mut().ok_or(PackError::Malformed)?;
            if *remaining == 0 {
                return Err(PackError::Malformed);
            }
            *remaining -= 1;
            tree.push_child_sym(parent, sym, span)
        };
        // Pop exhausted frames.
        while let Some(&(_, 0)) = stack.last() {
            stack.pop();
        }
        if arity > 0 {
            stack.push((id, arity));
        }
    }
    while let Some(&(_, 0)) = stack.last() {
        stack.pop();
    }
    if !stack.is_empty() {
        return Err(PackError::Malformed);
    }
    Ok(tree)
}

/// Deserialise a tree from the svpack v2 binary format.
pub fn read_tree(buf: &[u8]) -> Result<Tree, PackError> {
    read_tree_in(std::sync::Arc::new(crate::Interner::new()), buf)
}

/// [`read_tree`] interning labels into a caller-provided table, so related
/// payloads (e.g. the five trees of one Codebase-DB artefact entry) decode
/// onto a single shared string table.
pub fn read_tree_in(
    interner: std::sync::Arc<crate::Interner>,
    buf: &[u8],
) -> Result<Tree, PackError> {
    if buf.len() < 5 || &buf[0..4] != TREE_MAGIC {
        return Err(PackError::BadMagic);
    }
    if buf[4] != TREE_VERSION {
        return Err(PackError::BadVersion(buf[4]));
    }
    let mut pos = 5usize;

    let labels = read_label_table(buf, &mut pos)?;
    let syms: Vec<crate::Sym> = labels.iter().map(|l| interner.intern(l)).collect();

    let node_count = read_varint(buf, &mut pos)? as usize;
    if node_count == 0 {
        return Ok(Tree::empty_in(interner));
    }

    // Columnar: labels, arities, spans.
    let cap = node_count.min(buf.len());
    let mut node_syms = Vec::with_capacity(cap);
    for _ in 0..node_count {
        let label_idx = read_varint(buf, &mut pos)?;
        node_syms.push(*syms.get(label_idx as usize).ok_or(PackError::BadIndex(label_idx))?);
    }
    let mut arities = Vec::with_capacity(cap);
    for _ in 0..node_count {
        arities.push(read_varint(buf, &mut pos)?);
    }
    let mut spans = Vec::with_capacity(cap);
    for _ in 0..node_count {
        spans.push(read_span(buf, &mut pos)?);
    }
    assemble_preorder(
        interner,
        node_syms.into_iter().zip(spans).zip(arities).map(|((s, sp), a)| (s, sp, a)),
    )
}

// ---------------------------------------------------------------------------
// svz compressor
// ---------------------------------------------------------------------------

const SVZ_MAGIC: &[u8; 4] = b"SVZ1";
const WINDOW: usize = 1 << 22;
const MIN_MATCH: usize = 4;
const MAX_CHAIN: usize = 64;

#[inline]
fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(2654435761) >> 17) as usize & (HASH_SIZE - 1)
}

const HASH_SIZE: usize = 1 << 15;

/// Compress a byte buffer with the svz LZ77 scheme.
///
/// Stream layout: magic, varint decompressed length, then ops — tag `0`:
/// literal run (varint length + raw bytes); tag `1`: back-reference (varint
/// distance ≥ 1, varint length ≥ MIN_MATCH).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(SVZ_MAGIC);
    write_varint(&mut out, data.len() as u64);

    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; data.len()];

    let mut lit_start = 0usize;
    let mut i = 0usize;

    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize, data: &[u8]| {
        if to > from {
            out.push(0);
            write_varint(out, (to - from) as u64);
            out.extend_from_slice(&data[from..to]);
        }
    };

    while i + MIN_MATCH <= data.len() {
        let h = hash4(&data[i..]);
        // Walk the chain looking for the longest match in the window.
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut cand = head[h];
        let mut chain = 0usize;
        while cand != usize::MAX && i - cand <= WINDOW && chain < MAX_CHAIN {
            let max = data.len() - i;
            let mut l = 0usize;
            while l < max && data[cand + l] == data[i + l] {
                l += 1;
            }
            if l > best_len {
                best_len = l;
                best_dist = i - cand;
            }
            cand = prev[cand];
            chain += 1;
        }

        if best_len >= MIN_MATCH {
            flush_literals(&mut out, lit_start, i, data);
            out.push(1);
            write_varint(&mut out, best_dist as u64);
            write_varint(&mut out, best_len as u64);
            // Insert hash entries for the matched region (sparsely, every
            // position, bounded by the match length).
            let end = i + best_len;
            while i < end && i + MIN_MATCH <= data.len() {
                let h2 = hash4(&data[i..]);
                prev[i] = head[h2];
                head[h2] = i;
                i += 1;
            }
            i = end;
            lit_start = i;
        } else {
            prev[i] = head[h];
            head[h] = i;
            i += 1;
        }
    }
    flush_literals(&mut out, lit_start, data.len(), data);
    out
}

/// Decompress an svz payload produced by [`compress`].
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>, PackError> {
    if buf.len() < 4 || &buf[0..4] != SVZ_MAGIC {
        return Err(PackError::BadMagic);
    }
    let mut pos = 4usize;
    let expected = read_varint(buf, &mut pos)?;
    let mut out: Vec<u8> = Vec::with_capacity(expected as usize);
    while pos < buf.len() {
        let tag = buf[pos];
        pos += 1;
        match tag {
            0 => {
                let len = read_varint(buf, &mut pos)? as usize;
                let end = pos.checked_add(len).ok_or(PackError::Truncated)?;
                let bytes = buf.get(pos..end).ok_or(PackError::Truncated)?;
                out.extend_from_slice(bytes);
                pos = end;
            }
            1 => {
                let dist = read_varint(buf, &mut pos)? as usize;
                let len = read_varint(buf, &mut pos)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(PackError::BadBackref);
                }
                let start = out.len() - dist;
                // Byte-by-byte copy: overlapping back-references (dist < len)
                // are the RLE case and must self-extend.
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
            t => return Err(PackError::BadOp(t)),
        }
    }
    if out.len() as u64 != expected {
        return Err(PackError::LengthMismatch { expected, actual: out.len() as u64 });
    }
    Ok(out)
}

/// Serialise and compress a tree in one step (the Codebase DB on-disk form).
pub fn write_tree_compressed(tree: &Tree) -> Vec<u8> {
    compress(&write_tree(tree))
}

/// Decompress and deserialise a tree written by [`write_tree_compressed`].
pub fn read_tree_compressed(buf: &[u8]) -> Result<Tree, PackError> {
    read_tree(&decompress(buf)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;

    fn sample_tree() -> Tree {
        let mut b = TreeBuilder::with_span("TranslationUnit", None);
        b.open_span("FunctionDecl", Some(Span::lines(0, 1, 9)));
        b.leaf_span("ParmVarDecl", Some(Span::line(0, 1)));
        b.open_span("CompoundStmt", Some(Span::lines(0, 2, 9)));
        for i in 0..5 {
            b.open_span("BinaryOperator(+)", Some(Span::line(0, 3 + i)));
            b.leaf("DeclRefExpr");
            b.leaf("IntegerLiteral(42)");
            b.close();
        }
        b.close();
        b.close();
        b.finish()
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 129, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_truncated_errors() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000_000);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), Err(PackError::Truncated));
    }

    #[test]
    fn varint_overflow_errors() {
        let buf = vec![0xffu8; 11];
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos), Err(PackError::VarintOverflow));
    }

    #[test]
    fn tree_roundtrip() {
        let t = sample_tree();
        let bytes = write_tree(&t);
        assert_eq!(bytes[4], 2, "writer emits v2");
        let back = read_tree(&bytes).unwrap();
        assert_eq!(back, t);
    }

    /// A one-leaf payload in the retired v1 format (interleaved records).
    const V1_LEAF: &[u8] = b"SVTR\x01\x01\x01x\x01\x00\x00\x00";

    #[test]
    fn v1_payload_is_rejected_with_bad_version() {
        assert_eq!(read_tree(V1_LEAF), Err(PackError::BadVersion(1)));
    }

    #[test]
    fn v2_table_is_used_subset_of_interner() {
        // A tree whose shared interner holds labels the tree never uses must
        // not serialise the unused entries.
        let t = sample_tree();
        let unused = t.intern("NeverReferenced");
        let _ = unused;
        let bytes = write_tree(&t);
        let mut pos = 5usize;
        let n = read_varint(&bytes, &mut pos).unwrap();
        let mut labels = Vec::new();
        for _ in 0..n {
            let len = read_varint(&bytes, &mut pos).unwrap() as usize;
            labels.push(String::from_utf8(bytes[pos..pos + len].to_vec()).unwrap());
            pos += len;
        }
        assert!(!labels.iter().any(|l| l == "NeverReferenced"));
        assert!(labels.iter().any(|l| l == "BinaryOperator(+)"));
    }

    #[test]
    fn read_tree_in_shares_the_given_table() {
        let t = sample_tree();
        let table = std::sync::Arc::new(crate::Interner::new());
        let a = read_tree_in(std::sync::Arc::clone(&table), &write_tree(&t)).unwrap();
        let b = read_tree_in(std::sync::Arc::clone(&table), &write_tree(&t)).unwrap();
        assert_eq!(a, t);
        assert_eq!(b, t);
        assert!(std::sync::Arc::ptr_eq(a.interner(), &table));
        assert!(std::sync::Arc::ptr_eq(b.interner(), &table));
    }

    #[test]
    fn v1_truncated_errors() {
        for cut in 0..V1_LEAF.len() {
            assert!(read_tree(&V1_LEAF[..cut]).is_err(), "v1 cut at {cut} must fail");
        }
    }

    #[test]
    fn empty_tree_roundtrip() {
        let t = Tree::empty();
        let back = read_tree(&write_tree(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn probe_identifies_svpack_versions() {
        let t = sample_tree();
        assert_eq!(probe_tree(&write_tree(&t)), Some(2));
        assert_eq!(probe_tree(V1_LEAF), Some(1));
        assert_eq!(probe_tree(b"SVTR"), None); // no version byte yet
        assert_eq!(probe_tree(b"not a pack"), None);
        assert_eq!(probe_tree(&[]), None);
    }

    #[test]
    fn single_leaf_roundtrip() {
        let t = Tree::leaf("OnlyNode");
        let back = read_tree(&write_tree(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn tree_bad_magic() {
        assert_eq!(read_tree(b"NOPE\x01"), Err(PackError::BadMagic));
        assert_eq!(read_tree(b""), Err(PackError::BadMagic));
    }

    #[test]
    fn tree_bad_version() {
        let mut bytes = write_tree(&Tree::leaf("x"));
        bytes[4] = 99;
        assert_eq!(read_tree(&bytes), Err(PackError::BadVersion(99)));
    }

    #[test]
    fn tree_truncated() {
        let bytes = write_tree(&sample_tree());
        for cut in [5, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(read_tree(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn compress_roundtrip_basic() {
        let inputs: Vec<Vec<u8>> = vec![
            vec![],
            b"a".to_vec(),
            b"abcabcabcabcabcabc".to_vec(),
            vec![0u8; 10_000],
            (0..=255u8).cycle().take(5000).collect(),
            b"The quick brown fox jumps over the lazy dog. \
              The quick brown fox jumps over the lazy dog."
                .to_vec(),
        ];
        for input in inputs {
            let c = compress(&input);
            let d = decompress(&c).unwrap();
            assert_eq!(d, input);
        }
    }

    #[test]
    fn compress_is_effective_on_repetitive_input() {
        let input: Vec<u8> = b"BinaryOperator(+) DeclRefExpr IntegerLiteral "
            .iter()
            .copied()
            .cycle()
            .take(50_000)
            .collect();
        let c = compress(&input);
        assert!(
            c.len() * 5 < input.len(),
            "expected ≥5x ratio, got {} -> {}",
            input.len(),
            c.len()
        );
    }

    #[test]
    fn decompress_rejects_bad_backref() {
        let mut buf = Vec::new();
        buf.extend_from_slice(SVZ_MAGIC);
        write_varint(&mut buf, 4);
        buf.push(1); // match op with nothing in the output buffer yet
        write_varint(&mut buf, 1);
        write_varint(&mut buf, 4);
        assert_eq!(decompress(&buf), Err(PackError::BadBackref));
    }

    #[test]
    fn decompress_rejects_length_mismatch() {
        let mut buf = Vec::new();
        buf.extend_from_slice(SVZ_MAGIC);
        write_varint(&mut buf, 10); // claims 10 bytes
        buf.push(0);
        write_varint(&mut buf, 3);
        buf.extend_from_slice(b"abc");
        assert!(matches!(decompress(&buf), Err(PackError::LengthMismatch { .. })));
    }

    #[test]
    fn compressed_tree_roundtrip() {
        let t = sample_tree();
        let bytes = write_tree_compressed(&t);
        let back = read_tree_compressed(&bytes).unwrap();
        assert_eq!(back, t);
        // AST-like payloads should compress.
        assert!(bytes.len() < write_tree(&t).len());
    }

    #[test]
    fn overlapping_backref_rle() {
        // "aaaa..." forces dist=1 len>1 self-extending copies.
        let input = vec![b'a'; 1000];
        let c = compress(&input);
        assert_eq!(decompress(&c).unwrap(), input);
        assert!(c.len() < 40);
    }
}
