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
//!   4 MiB window, emitting literal-run / back-reference ops.  It is not
//!   Zstd, but AST serialisations are extremely repetitive: a single tree
//!   compresses 3–10×, a 40-unit Codebase DB about 27× (every unit repeats
//!   the same headers).  The chain is built up front, so the parse can run
//!   over several cores and still emit the bytes of the sequential greedy
//!   parse (DESIGN.md §20).
//!
//! Both layers round-trip exactly, and every decoder answers corrupt input
//! with a [`PackError`]; property tests in this module and in the
//! integration suite enforce both.

use crate::{Span, Tree};
use std::fmt;
use std::ops::Range;

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
            let mut field =
                || u32::try_from(read_varint(buf, pos)?).map_err(|_| PackError::Malformed);
            let (file, start, delta) = (field()?, field()?, field()?);
            let end = start.checked_add(delta).ok_or(PackError::Malformed)?;
            Ok(Some(Span::lines(file, start, end)))
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
const HASH_SIZE: usize = 1 << 15;
/// [`compress`] gives each worker at least this many input bytes; smaller
/// inputs are chained and parsed on the calling thread alone.
const SEGMENT_MIN: usize = 1 << 20;
/// [`decompress`] reserves at most this many output bytes per payload byte
/// up front; a larger declared length grows the buffer as ops produce it.
const RESERVE_RATIO: usize = 64;

#[inline]
fn hash4(data: &[u8]) -> usize {
    let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    (v.wrapping_mul(2654435761) >> 17) as usize & (HASH_SIZE - 1)
}

/// Run `f` on every item, one scoped thread per item past the first.
fn on_threads<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut items = items.into_iter();
    let Some(first) = items.next() else { return Vec::new() };
    std::thread::scope(|s| {
        let f = &f;
        let rest: Vec<_> = items.map(|x| s.spawn(move || f(x))).collect();
        let mut out = vec![f(first)];
        out.extend(rest.into_iter().map(|h| h.join().expect("svz worker panicked")));
        out
    })
}

/// First and last position (plus one; 0 = none) of each [`hash4`] bucket
/// within one range of the chain.
struct BucketEnds {
    first: Vec<usize>,
    last: Vec<usize>,
}

/// Link the positions `lo..lo + links.len()` to the previous position in
/// the same bucket within the range; a bucket's first position stays 0.
fn link_range(data: &[u8], lo: usize, links: &mut [u32]) -> BucketEnds {
    let mut first = vec![0usize; HASH_SIZE];
    let mut last = vec![0usize; HASH_SIZE];
    for (p, link) in (lo + 1..).zip(links.iter_mut()) {
        let h = hash4(&data[p - 1..]);
        let q = last[h];
        if q == 0 {
            first[h] = p;
        } else if p - q <= WINDOW {
            *link = (p - q) as u32;
        }
        last[h] = p;
    }
    BucketEnds { first, last }
}

/// The hash chain of every position `p` with `p + MIN_MATCH <= data.len()`:
/// the back-distance to the previous position in the same [`hash4`]
/// bucket, or 0 when there is none or it lies more than [`WINDOW`] back.
///
/// The `ranges` (a partition of the positions) link in parallel; then each
/// range's first position per bucket is linked to the last one before it.
fn hash_chain(data: &[u8], ranges: &[Range<usize>]) -> Vec<u32> {
    let mut chain = vec![0u32; data.len().saturating_sub(MIN_MATCH - 1)];
    let mut parts = Vec::with_capacity(ranges.len());
    let mut rest = &mut chain[..];
    for r in ranges {
        let (links, tail) = rest.split_at_mut(r.len());
        parts.push((r.start, links));
        rest = tail;
    }
    let ends = on_threads(parts, |(lo, links)| link_range(data, lo, links));
    let mut before = vec![0usize; HASH_SIZE];
    for e in &ends {
        for ((&p, &last), q) in e.first.iter().zip(&e.last).zip(before.iter_mut()) {
            if p != 0 && *q != 0 && p - *q <= WINDOW {
                chain[p - 1] = (p - *q) as u32;
            }
            if last != 0 {
                *q = last;
            }
        }
    }
    chain
}

#[inline]
fn load_u64(data: &[u8], p: usize) -> u64 {
    u64::from_le_bytes(data[p..p + 8].try_into().expect("8-byte slice"))
}

/// Length of the common prefix of `data[a..]` and `data[b..]`, capped at
/// `max` (`a < b`, `b + max <= data.len()`), compared a word at a time.
#[inline]
fn match_len(data: &[u8], a: usize, b: usize, max: usize) -> usize {
    let mut l = 0usize;
    while l + 8 <= max {
        let x = load_u64(data, a + l) ^ load_u64(data, b + l);
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < max && data[a + l] == data[b + l] {
        l += 1;
    }
    l
}

/// The longest match for position `i` among the first [`MAX_CHAIN`]
/// chain candidates within [`WINDOW`], the nearest winning ties:
/// `(length, distance)`, length 0 when no candidate shares a byte.
fn longest_match(data: &[u8], chain: &[u32], i: usize) -> (usize, usize) {
    let max = data.len() - i;
    let (mut best_len, mut best_dist) = (0usize, 0usize);
    let mut dist = chain[i] as usize;
    for _ in 0..MAX_CHAIN {
        if dist == 0 || dist > WINDOW {
            break;
        }
        let cand = i - dist;
        // A candidate that differs at `best_len` cannot be strictly longer.
        if best_len < max && data[cand + best_len] == data[i + best_len] {
            let l = match_len(data, cand, i, max);
            if l > best_len {
                best_len = l;
                best_dist = dist;
            }
        }
        dist = match chain[cand] {
            0 => 0,
            link => dist + link as usize,
        };
    }
    (best_len, best_dist)
}

/// A back-reference of the parse: `len` bytes at `pos` copied from
/// `dist` bytes back.
#[derive(Clone, Copy)]
struct Match {
    pos: usize,
    len: usize,
    dist: usize,
}

/// The greedy parse from search position `i` up to the first search
/// position at or past `stop` (`stop <= chain.len()`), which it returns.
fn parse(data: &[u8], chain: &[u32], mut i: usize, stop: usize, out: &mut Vec<Match>) -> usize {
    while i < stop {
        let (len, dist) = longest_match(data, chain, i);
        if len >= MIN_MATCH {
            out.push(Match { pos: i, len, dist });
            i += len;
        } else {
            i += 1;
        }
    }
    i
}

/// The greedy parse of `data` over `workers` ranges parsed in parallel.
///
/// [`longest_match`] depends on the position alone, so once the parse
/// reaching a range lands on a search position of that range's own parse,
/// the two coincide from there on.  Each range is parsed from its start;
/// stitching steps the incoming parse forward until it lands on one.
fn greedy_parse(data: &[u8], workers: usize) -> Vec<Match> {
    let n = data.len().saturating_sub(MIN_MATCH - 1);
    let k = workers.clamp(1, n.max(1));
    let ranges: Vec<Range<usize>> = (0..k).map(|t| t * n / k..(t + 1) * n / k).collect();
    let chain = hash_chain(data, &ranges);
    let parts = on_threads(ranges, |r| {
        let mut m = Vec::new();
        let end = parse(data, &chain, r.start, r.end, &mut m);
        (m, end)
    });
    let mut parts = parts.into_iter();
    let (mut matches, mut p) = parts.next().unwrap_or_default();
    for (own, end) in parts {
        let mut j = 0;
        while p < end && p < n {
            // The range's first match ending past `p`: unless it starts
            // before `p`, the range's parse searched at `p` too.
            while own.get(j).is_some_and(|m| m.pos + m.len <= p) {
                j += 1;
            }
            if own.get(j).is_none_or(|m| m.pos >= p) {
                matches.extend_from_slice(&own[j..]);
                p = end;
                break;
            }
            p = parse(data, &chain, p, p + 1, &mut matches);
        }
    }
    matches
}

fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
    if !lits.is_empty() {
        out.push(0);
        write_varint(out, lits.len() as u64);
        out.extend_from_slice(lits);
    }
}

/// Compress a byte buffer with the svz LZ77 scheme.
///
/// Stream layout: magic, varint decompressed length, then ops — tag `0`:
/// literal run (varint length + raw bytes); tag `1`: back-reference (varint
/// distance ≥ 1, varint length ≥ MIN_MATCH).
///
/// The parse is greedy: at each position the longest match among the
/// nearest [`MAX_CHAIN`] earlier positions in the same [`hash4`] bucket
/// (within [`WINDOW`]) is taken when it reaches [`MIN_MATCH`], else one
/// literal byte.  Every earlier position is a candidate whatever the parse
/// did there, so the chain is built up front and the output does not
/// depend on how many cores build and parse it (DESIGN.md §20).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    compress_on(data, cores.min(data.len() / SEGMENT_MIN))
}

/// [`compress`] over `workers` ranges.
fn compress_on(data: &[u8], workers: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    out.extend_from_slice(SVZ_MAGIC);
    write_varint(&mut out, data.len() as u64);
    let mut lit_start = 0usize;
    for m in greedy_parse(data, workers) {
        flush_literals(&mut out, &data[lit_start..m.pos]);
        out.push(1);
        write_varint(&mut out, m.dist as u64);
        write_varint(&mut out, m.len as u64);
        lit_start = m.pos + m.len;
    }
    flush_literals(&mut out, &data[lit_start..]);
    out
}

/// Decompress an svz payload produced by [`compress`].
///
/// Output never exceeds the declared length: an op that would pass it is
/// answered with [`PackError::LengthMismatch`] before anything is copied,
/// and the up-front reservation is capped at [`RESERVE_RATIO`] bytes per
/// payload byte.
pub fn decompress(buf: &[u8]) -> Result<Vec<u8>, PackError> {
    if buf.len() < 4 || &buf[0..4] != SVZ_MAGIC {
        return Err(PackError::BadMagic);
    }
    let mut pos = 4usize;
    let expected = read_varint(buf, &mut pos)?;
    let reserve = usize::try_from(expected).unwrap_or(usize::MAX);
    let mut out: Vec<u8> = Vec::with_capacity(reserve.min(buf.len().saturating_mul(RESERVE_RATIO)));
    // Room left before the declared length; an op longer than this fails.
    let room = |out: &Vec<u8>, len: u64| -> Result<usize, PackError> {
        let actual = (out.len() as u64).saturating_add(len);
        if actual > expected {
            return Err(PackError::LengthMismatch { expected, actual });
        }
        Ok(len as usize)
    };
    while pos < buf.len() {
        let tag = buf[pos];
        pos += 1;
        match tag {
            0 => {
                let len = room(&out, read_varint(buf, &mut pos)?)?;
                let end = pos.checked_add(len).ok_or(PackError::Truncated)?;
                let bytes = buf.get(pos..end).ok_or(PackError::Truncated)?;
                out.extend_from_slice(bytes);
                pos = end;
            }
            1 => {
                let dist = read_varint(buf, &mut pos)?;
                let len = read_varint(buf, &mut pos)?;
                if dist == 0 || dist > out.len() as u64 {
                    return Err(PackError::BadBackref);
                }
                let mut left = room(&out, len)?;
                // Copy from the fixed source start: an overlapping reference
                // (dist < len) repeats a period of `dist` bytes, so each
                // chunk may be as long as everything already written from
                // `start`, doubling per step (the RLE case).
                let start = out.len() - dist as usize;
                while left > 0 {
                    let n = left.min(out.len() - start);
                    out.extend_from_within(start..start + n);
                    left -= n;
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

    /// Span fields past `u32`, or an end past `u32::MAX`, are malformed
    /// (the end used to be `start + delta` unchecked).
    #[test]
    fn span_overflow_is_malformed() {
        let leaf_with_span = |start: u64, delta: u64| {
            let mut b = b"SVTR\x02\x01\x01x\x01\x00\x00\x01\x00".to_vec();
            write_varint(&mut b, start);
            write_varint(&mut b, delta);
            b
        };
        let t = read_tree(&leaf_with_span(7, 2)).unwrap();
        assert_eq!(t.span(t.root().unwrap()), Some(Span::lines(0, 7, 9)));
        assert_eq!(read_tree(&leaf_with_span(u64::from(u32::MAX), 1)), Err(PackError::Malformed));
        assert_eq!(read_tree(&leaf_with_span(1 << 32, 0)), Err(PackError::Malformed));
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
        let bytes = compress(&write_tree(&t));
        let back = read_tree(&decompress(&bytes).unwrap()).unwrap();
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

    /// A 13-byte payload declaring 2^63 − 1 output bytes: the reservation is
    /// capped by the payload length, and the empty op stream then fails the
    /// length check instead of aborting in the allocator.
    #[test]
    fn decompress_caps_the_declared_reservation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(SVZ_MAGIC);
        write_varint(&mut buf, u64::MAX >> 1);
        assert_eq!(buf.len(), 13);
        assert_eq!(
            decompress(&buf),
            Err(PackError::LengthMismatch { expected: u64::MAX >> 1, actual: 0 })
        );
    }

    /// A 15-byte payload declaring 16 bytes, then one literal and a
    /// back-reference of length 2^34 − 1: rejected before the copy instead
    /// of growing the buffer until allocation fails.
    #[test]
    fn decompress_rejects_an_op_past_the_declared_length() {
        let mut buf = Vec::new();
        buf.extend_from_slice(SVZ_MAGIC);
        write_varint(&mut buf, 16);
        buf.extend_from_slice(&[0, 1, b'a', 1, 1]);
        write_varint(&mut buf, (1 << 34) - 1);
        assert_eq!(buf.len(), 15);
        assert_eq!(
            decompress(&buf),
            Err(PackError::LengthMismatch { expected: 16, actual: 1 << 34 })
        );
        // A literal run past the declared length fails the same way.
        let mut buf = Vec::new();
        buf.extend_from_slice(SVZ_MAGIC);
        write_varint(&mut buf, 2);
        buf.extend_from_slice(&[0, 3, b'a', b'b', b'c']);
        assert_eq!(decompress(&buf), Err(PackError::LengthMismatch { expected: 2, actual: 3 }));
    }

    /// The compressor before the precomputed chain: hash entries inserted
    /// as the parse passes them, byte-wise match extension.  `compress`
    /// must produce exactly its bytes.
    fn compress_reference(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(data.len() / 2 + 16);
        out.extend_from_slice(SVZ_MAGIC);
        write_varint(&mut out, data.len() as u64);

        let mut head = vec![usize::MAX; HASH_SIZE];
        let mut prev = vec![usize::MAX; data.len()];

        let mut lit_start = 0usize;
        let mut i = 0usize;

        while i + MIN_MATCH <= data.len() {
            let h = hash4(&data[i..]);
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
                flush_literals(&mut out, &data[lit_start..i]);
                out.push(1);
                write_varint(&mut out, best_dist as u64);
                write_varint(&mut out, best_len as u64);
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
        flush_literals(&mut out, &data[lit_start..]);
        out
    }

    /// xorshift bytes: incompressible unless repeated.
    fn noise(n: usize, mut x: u64) -> Vec<u8> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// The `(distance, length)` of every back-reference in an svz stream.
    fn backrefs(c: &[u8]) -> Vec<(u64, u64)> {
        let mut pos = 4;
        read_varint(c, &mut pos).unwrap();
        let mut refs = Vec::new();
        while pos < c.len() {
            let tag = c[pos];
            pos += 1;
            let a = read_varint(c, &mut pos).unwrap();
            if tag == 0 {
                pos += a as usize;
            } else {
                refs.push((a, read_varint(c, &mut pos).unwrap()));
            }
        }
        refs
    }

    /// Input longer than the window.  One block occurs three times: at the
    /// start, mid-window and at the end, the first and last copies followed
    /// by the same tail.  The last copy's chain reaches the middle copy
    /// within the window and the first one, which would match longer, only
    /// beyond it: the last copy must be referenced from the middle one.
    #[test]
    fn compress_matches_reference_beyond_the_window() {
        let block = noise(4096, 7);
        let tail = noise(64, 5);
        let filler = |n: usize, seed: u64| -> Vec<u8> {
            noise(997, seed).into_iter().cycle().take(n).collect()
        };
        let mut data = block.clone();
        data.extend_from_slice(&tail);
        data.extend_from_slice(&filler(WINDOW / 2, 11));
        data.extend_from_slice(&block);
        data.extend_from_slice(&filler(WINDOW / 2 + 8192, 13));
        data.extend_from_slice(&block);
        data.extend_from_slice(&tail);
        assert!(data.len() > WINDOW);
        let c = compress(&data);
        assert_eq!(c, compress_reference(&data));
        assert_eq!(compress_on(&data, 3), c);
        assert_eq!(decompress(&c).unwrap(), data);
        let refs = backrefs(&c);
        assert!(refs.iter().all(|&(d, _)| d as usize <= WINDOW), "{refs:?}");
        let mid_to_last = (block.len() + WINDOW / 2 + 8192) as u64;
        assert!(refs.iter().any(|&(d, l)| d == mid_to_last && l >= 4000), "{refs:?}");
    }

    #[test]
    fn compress_matches_reference_on_fixed_inputs() {
        let inputs: Vec<Vec<u8>> = vec![
            vec![],
            b"abc".to_vec(),
            b"abcd".to_vec(),
            b"abcabcabcabcabcabc".to_vec(),
            vec![0u8; 10_000],
            (0..=255u8).cycle().take(5000).collect(),
            noise(20_000, 3),
            b"BinaryOperator(+) DeclRefExpr IntegerLiteral ".repeat(500),
        ];
        for input in inputs {
            let want = compress_reference(&input);
            assert_eq!(compress(&input), want, "len {}", input.len());
            for workers in 2..=5 {
                assert_eq!(compress_on(&input, workers), want, "len {} on {workers}", input.len());
            }
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn compress_equals_reference_on_random(
                data in proptest::collection::vec(any::<u8>(), 0..4096),
                workers in 1usize..5,
            ) {
                let want = compress_reference(&data);
                prop_assert_eq!(&compress(&data), &want);
                prop_assert_eq!(&compress_on(&data, workers), &want);
            }

            #[test]
            fn compress_equals_reference_on_small_alphabets(
                data in proptest::collection::vec(0u8..3, 0..8192),
                workers in 1usize..5,
            ) {
                let want = compress_reference(&data);
                prop_assert_eq!(&compress(&data), &want);
                prop_assert_eq!(&compress_on(&data, workers), &want);
            }

            #[test]
            fn compress_equals_reference_on_repetitive(
                pattern in proptest::collection::vec(any::<u8>(), 1..48),
                reps in 1usize..400,
                edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 0..16),
            ) {
                let mut data: Vec<u8> =
                    pattern.iter().copied().cycle().take(pattern.len() * reps).collect();
                for (at, b) in edits {
                    if !data.is_empty() {
                        let k = usize::from(at) % data.len();
                        data[k] = b;
                    }
                }
                let c = compress(&data);
                prop_assert_eq!(&c, &compress_reference(&data));
                prop_assert_eq!(&compress_on(&data, 1 + data.len() % 4), &c);
                prop_assert_eq!(decompress(&c).unwrap(), data);
            }
        }
    }
}
