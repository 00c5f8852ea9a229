//! The Codebase DB: portable, compressed storage of per-unit artefacts.
//!
//! "At this stage, SilverVale generates a Codebase DB where it indexes all
//! compiler invocations in the Compilation DB.  The result is a portable
//! set of semantic-bearing trees and metadata files all stored in a Zstd
//! compressed MessagePack format."  The from-scratch equivalent: every
//! entry's artefacts (normalised lines + all five trees) and optional
//! coverage profile serialise through `svpack` varint records, and the
//! whole container compresses with `svz`.

use std::sync::Arc;
use svmetrics::Artifacts;
use svtree::mask::{CoverageMask, LineMask};
use svtree::pack::{
    compress, decompress, read_tree_in, read_varint, write_tree, write_varint, PackError,
};
use svtree::{Interner, Tree};

const DB_MAGIC: &[u8; 4] = b"SVDB";
const DB_VERSION: u8 = 1;

/// One indexed unit: its artefacts plus optional runtime coverage.
#[derive(Debug, Clone, PartialEq)]
pub struct DbEntry {
    /// Entry label (typically the model name).
    pub label: String,
    pub artifacts: Artifacts,
    pub coverage: Option<CoverageMask>,
}

/// A portable codebase database.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CodebaseDb {
    pub name: String,
    pub entries: Vec<DbEntry>,
}

impl CodebaseDb {
    pub fn new(name: impl Into<String>) -> Self {
        CodebaseDb { name: name.into(), entries: Vec::new() }
    }

    /// Add an entry.
    pub fn push(
        &mut self,
        label: impl Into<String>,
        artifacts: Artifacts,
        coverage: Option<CoverageMask>,
    ) {
        self.entries.push(DbEntry { label: label.into(), artifacts, coverage });
    }

    /// Find an entry by label.
    pub fn entry(&self, label: &str) -> Option<&DbEntry> {
        self.entries.iter().find(|e| e.label == label)
    }

    /// Entry labels in insertion order.
    pub fn labels(&self) -> Vec<String> {
        self.entries.iter().map(|e| e.label.clone()).collect()
    }

    /// Serialise + compress to the on-disk format.
    ///
    /// Entries encode independently, one buffer each across the cores;
    /// concatenated in order they are the sequential layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let parts = svpar::par_tasks(&self.entries, write_entry);
        let body: usize = parts.iter().map(Vec::len).sum();
        let mut buf = Vec::with_capacity(16 + self.name.len() + body);
        buf.extend_from_slice(DB_MAGIC);
        buf.push(DB_VERSION);
        write_str(&mut buf, &self.name);
        write_varint(&mut buf, self.entries.len() as u64);
        for part in parts {
            buf.extend_from_slice(&part);
        }
        let mut out = Vec::new();
        out.extend_from_slice(DB_MAGIC);
        out.extend_from_slice(&compress(&buf));
        out
    }

    /// Load from the on-disk format.
    ///
    /// A skip pass finds the entry boundaries (every string and tree is
    /// length-prefixed), then the entries decode across the cores, each
    /// onto its own label table.  The first failing entry's error wins.
    pub fn from_bytes(data: &[u8]) -> Result<CodebaseDb, PackError> {
        if data.len() < 4 || &data[0..4] != DB_MAGIC {
            return Err(PackError::BadMagic);
        }
        let buf = decompress(&data[4..])?;
        if buf.len() < 5 || &buf[0..4] != DB_MAGIC {
            return Err(PackError::BadMagic);
        }
        if buf[4] != DB_VERSION {
            return Err(PackError::BadVersion(buf[4]));
        }
        let mut pos = 5usize;
        let name = read_str(&buf, &mut pos)?;
        let count = read_varint(&buf, &mut pos)?;
        let mut bounds = Vec::with_capacity(capped(count, &buf, pos));
        for _ in 0..count {
            let start = pos;
            skip_entry(&buf, &mut pos)?;
            bounds.push(start..pos);
        }
        let entries = svpar::par_tasks(&bounds, |r| read_entry(&buf[r.clone()]))
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(CodebaseDb { name, entries })
    }
}

// ---------------------------------------------------------------------------
// record helpers
// ---------------------------------------------------------------------------

/// A reservation for `declared` items read from `buf[pos..]`: each item
/// takes at least one byte, so never more than the bytes left.
fn capped(declared: u64, buf: &[u8], pos: usize) -> usize {
    usize::try_from(declared).unwrap_or(usize::MAX).min(buf.len().saturating_sub(pos))
}

fn write_entry(e: &DbEntry) -> Vec<u8> {
    let mut buf = Vec::new();
    write_str(&mut buf, &e.label);
    write_artifacts(&mut buf, &e.artifacts);
    match &e.coverage {
        None => buf.push(0),
        Some(c) => {
            buf.push(1);
            write_coverage(&mut buf, c);
        }
    }
    buf
}

/// Decode one entry that spans all of `buf`.
fn read_entry(buf: &[u8]) -> Result<DbEntry, PackError> {
    let mut pos = 0usize;
    let label = read_str(buf, &mut pos)?;
    let artifacts = read_artifacts(buf, &mut pos)?;
    let flag = *buf.get(pos).ok_or(PackError::Truncated)?;
    pos += 1;
    let coverage = match flag {
        0 => None,
        1 => Some(read_coverage(buf, &mut pos)?),
        t => return Err(PackError::BadOp(t)),
    };
    if pos != buf.len() {
        return Err(PackError::Malformed);
    }
    Ok(DbEntry { label, artifacts, coverage })
}

/// Advance `pos` past one entry without decoding it: the layout of
/// [`write_entry`], strings and trees jumped over by their lengths.
fn skip_entry(buf: &[u8], pos: &mut usize) -> Result<(), PackError> {
    skip_bytes(buf, pos)?; // label
    skip_bytes(buf, pos)?; // artifact name
    for _ in 0..2 {
        // pre- and post-preprocess lines: text, file, line
        let n = read_varint(buf, pos)?;
        for _ in 0..n {
            skip_bytes(buf, pos)?;
            read_varint(buf, pos)?;
            read_varint(buf, pos)?;
        }
    }
    for _ in 0..4 {
        read_varint(buf, pos)?; // sloc/lloc counts
    }
    for _ in 0..5 {
        skip_bytes(buf, pos)?; // trees
    }
    let flag = *buf.get(*pos).ok_or(PackError::Truncated)?;
    *pos += 1;
    match flag {
        0 => Ok(()),
        1 => {
            let files = read_varint(buf, pos)?;
            for _ in 0..files {
                read_varint(buf, pos)?;
                let n = read_varint(buf, pos)?;
                for _ in 0..n {
                    read_varint(buf, pos)?;
                }
            }
            Ok(())
        }
        t => Err(PackError::BadOp(t)),
    }
}

/// Skip a length-prefixed byte string.
fn skip_bytes(buf: &[u8], pos: &mut usize) -> Result<(), PackError> {
    let len = read_varint(buf, pos)?;
    *pos = usize::try_from(len)
        .ok()
        .and_then(|l| pos.checked_add(l))
        .filter(|&end| end <= buf.len())
        .ok_or(PackError::Truncated)?;
    Ok(())
}

fn write_str(buf: &mut Vec<u8>, s: &str) {
    write_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn read_str(buf: &[u8], pos: &mut usize) -> Result<String, PackError> {
    let len = read_varint(buf, pos)? as usize;
    let end = pos.checked_add(len).ok_or(PackError::Truncated)?;
    let bytes = buf.get(*pos..end).ok_or(PackError::Truncated)?;
    *pos = end;
    String::from_utf8(bytes.to_vec()).map_err(|_| PackError::BadUtf8)
}

fn write_lines(buf: &mut Vec<u8>, lines: &[String], locs: &[(u32, u32)]) {
    debug_assert_eq!(lines.len(), locs.len());
    write_varint(buf, lines.len() as u64);
    for (line, (f, l)) in lines.iter().zip(locs) {
        write_str(buf, line);
        write_varint(buf, u64::from(*f));
        write_varint(buf, u64::from(*l));
    }
}

/// Decoded normalised lines plus their `(file, line)` locations.
type LinesAndLocs = (Vec<String>, Vec<(u32, u32)>);

fn read_lines(buf: &[u8], pos: &mut usize) -> Result<LinesAndLocs, PackError> {
    let n = read_varint(buf, pos)?;
    let mut lines = Vec::with_capacity(capped(n, buf, *pos));
    let mut locs = Vec::with_capacity(capped(n, buf, *pos));
    for _ in 0..n {
        lines.push(read_str(buf, pos)?);
        let f = read_varint(buf, pos)? as u32;
        let l = read_varint(buf, pos)? as u32;
        locs.push((f, l));
    }
    Ok((lines, locs))
}

fn write_tree_rec(buf: &mut Vec<u8>, t: &Tree) {
    let bytes = write_tree(t);
    write_varint(buf, bytes.len() as u64);
    buf.extend_from_slice(&bytes);
}

fn read_tree_rec(table: &Arc<Interner>, buf: &[u8], pos: &mut usize) -> Result<Tree, PackError> {
    let len = read_varint(buf, pos)? as usize;
    let end = pos.checked_add(len).ok_or(PackError::Truncated)?;
    let bytes = buf.get(*pos..end).ok_or(PackError::Truncated)?;
    *pos = end;
    read_tree_in(Arc::clone(table), bytes)
}

fn write_artifacts(buf: &mut Vec<u8>, a: &Artifacts) {
    write_str(buf, &a.name);
    write_lines(buf, &a.lines_pre, &a.line_locs_pre);
    write_lines(buf, &a.lines_post, &a.line_locs_post);
    write_varint(buf, a.sloc_pre as u64);
    write_varint(buf, a.lloc_pre as u64);
    write_varint(buf, a.sloc_post as u64);
    write_varint(buf, a.lloc_post as u64);
    write_tree_rec(buf, &a.t_src);
    write_tree_rec(buf, &a.t_src_pp);
    write_tree_rec(buf, &a.t_sem);
    write_tree_rec(buf, &a.t_sem_inl);
    write_tree_rec(buf, &a.t_ir);
}

fn read_artifacts(buf: &[u8], pos: &mut usize) -> Result<Artifacts, PackError> {
    let name = read_str(buf, pos)?;
    let (lines_pre, line_locs_pre) = read_lines(buf, pos)?;
    let (lines_post, line_locs_post) = read_lines(buf, pos)?;
    let sloc_pre = read_varint(buf, pos)? as usize;
    let lloc_pre = read_varint(buf, pos)? as usize;
    let sloc_post = read_varint(buf, pos)? as usize;
    let lloc_post = read_varint(buf, pos)? as usize;
    // All five trees of one entry decode onto a single shared label table,
    // mirroring how the frontend interns one table per compilation unit.
    let table = Arc::new(Interner::new());
    let t_src = read_tree_rec(&table, buf, pos)?;
    let t_src_pp = read_tree_rec(&table, buf, pos)?;
    let t_sem = read_tree_rec(&table, buf, pos)?;
    let t_sem_inl = read_tree_rec(&table, buf, pos)?;
    let t_ir = read_tree_rec(&table, buf, pos)?;
    Ok(Artifacts {
        name,
        lines_pre,
        line_locs_pre,
        lines_post,
        line_locs_post,
        sloc_pre,
        lloc_pre,
        sloc_post,
        lloc_post,
        t_src: t_src.into(),
        t_src_pp: t_src_pp.into(),
        t_sem: t_sem.into(),
        t_sem_inl: t_sem_inl.into(),
        t_ir: t_ir.into(),
    })
}

fn write_coverage(buf: &mut Vec<u8>, c: &CoverageMask) {
    write_varint(buf, c.file_count() as u64);
    for (file, mask) in c.iter_files() {
        write_varint(buf, u64::from(file));
        let lines: Vec<u32> = mask.iter().collect();
        write_varint(buf, lines.len() as u64);
        let mut prev = 0u32;
        for l in lines {
            // delta-encode ascending line numbers
            write_varint(buf, u64::from(l - prev));
            prev = l;
        }
    }
}

/// Decode a coverage profile from an entry's bytes `buf`.  Line numbers
/// must fit `u32`, and the dense masks they set may take no more bytes
/// than the encoded entry holds, so a crafted delta cannot allocate out of
/// proportion to its input; either violation is [`PackError::BadIndex`].
fn read_coverage(buf: &[u8], pos: &mut usize) -> Result<CoverageMask, PackError> {
    let files = read_varint(buf, pos)?;
    let mut c = CoverageMask::new();
    let mut mask_bytes = 0usize;
    for _ in 0..files {
        let file = read_varint(buf, pos)? as u32;
        let n = read_varint(buf, pos)?;
        let mut mask = LineMask::new();
        let mut line = 0u64;
        let mut bytes = 0usize;
        for _ in 0..n {
            let d = read_varint(buf, pos)?;
            line = line.checked_add(d).ok_or(PackError::BadIndex(d))?;
            let l = u32::try_from(line).map_err(|_| PackError::BadIndex(line))?;
            // Lines ascend, so the latest one sizes the file's mask.
            bytes = (l as usize / 64 + 1) * 8;
            if mask_bytes + bytes > buf.len() {
                return Err(PackError::BadIndex(line));
            }
            mask.set(l);
        }
        mask_bytes += bytes;
        c.insert_file(file, mask);
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_artifacts(tag: &str) -> Artifacts {
        Artifacts {
            name: format!("{tag}.cpp"),
            lines_pre: vec![format!("int {tag} ;"), "return 0 ;".into()],
            line_locs_pre: vec![(0, 1), (0, 2)],
            lines_post: vec![format!("int {tag} ;")],
            line_locs_post: vec![(0, 1)],
            sloc_pre: 2,
            lloc_pre: 2,
            sloc_post: 1,
            lloc_post: 1,
            t_src: Tree::from_sexpr("(Source Kw(int) Ident)").unwrap().into(),
            t_src_pp: Tree::from_sexpr("(Source Ident)").unwrap().into(),
            t_sem: Tree::from_sexpr(&format!(
                "(TranslationUnit (VarDecl(int) IntegerLiteral({})))",
                tag.len()
            ))
            .unwrap()
            .into(),
            t_sem_inl: Tree::from_sexpr("(TranslationUnit VarDecl(int))").unwrap().into(),
            t_ir: Tree::from_sexpr("(IRModule (define (block alloca ret)))").unwrap().into(),
        }
    }

    fn sample_coverage() -> CoverageMask {
        let mut c = CoverageMask::new();
        c.record(0, 1);
        c.record(0, 2);
        c.record(3, 100);
        c
    }

    #[test]
    fn roundtrip_empty() {
        let db = CodebaseDb::new("empty");
        let back = CodebaseDb::from_bytes(&db.to_bytes()).unwrap();
        assert_eq!(back, db);
    }

    #[test]
    fn roundtrip_entries_with_and_without_coverage() {
        let mut db = CodebaseDb::new("tealeaf");
        db.push("Serial", sample_artifacts("serial"), Some(sample_coverage()));
        db.push("OpenMP", sample_artifacts("omp"), None);
        let bytes = db.to_bytes();
        let back = CodebaseDb::from_bytes(&bytes).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.labels(), vec!["Serial", "OpenMP"]);
        assert!(back.entry("Serial").unwrap().coverage.is_some());
        assert!(back.entry("OpenMP").unwrap().coverage.is_none());
        assert!(back.entry("nope").is_none());
    }

    #[test]
    fn bad_inputs_rejected() {
        assert!(CodebaseDb::from_bytes(b"????").is_err());
        assert!(CodebaseDb::from_bytes(b"").is_err());
        let mut bytes = CodebaseDb::new("x").to_bytes();
        bytes[2] ^= 0xff; // corrupt the magic
        assert!(CodebaseDb::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let mut db = CodebaseDb::new("t");
        db.push("A", sample_artifacts("a"), Some(sample_coverage()));
        let bytes = db.to_bytes();
        // Any truncation of the compressed container must fail cleanly.
        for cut in [5, bytes.len() / 2, bytes.len() - 1] {
            assert!(CodebaseDb::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn compression_is_effective() {
        let mut db = CodebaseDb::new("big");
        for i in 0..20 {
            db.push(format!("m{i}"), sample_artifacts("model"), None);
        }
        let bytes = db.to_bytes();
        // 20 near-identical entries must compress far below naive size.
        let naive: usize = 20 * 200;
        assert!(bytes.len() < naive, "{} bytes", bytes.len());
    }

    /// `to_bytes` of the two-entry sample DB below, written before entries
    /// were encoded and decoded in parallel: the format is unchanged.
    const SAMPLE_DB_HEX: &str = concat!(
        "5356444253565a31dd0400175356444201077465616c65616602065365726961",
        "6c0a73010705000a2e637070020c696e74200110060012203b00010a72657475",
        "726e2030203b000201011d0f0021020201012553565452020306536f75726365",
        "074b7728696e7429054964656e740301230400010001010400011a0126050001",
        "02012607011e060008020001010000003f01410600180f5472616e736c617469",
        "6f6e556e69740c5661724465636c014f05001211496e74656765724c69746572",
        "616c283629015b04013f050002002a015b0601401d016b07000137012b05002a",
        "050849524d6f64756c6506646566696e6505626c6f636b06616c6c6f63610372",
        "6574050001020304010101bc010600160000010200020101030164064f70656e",
        "4d50076f6d7001ad02050001090190020400036f6d7001aa0212011a0c01a702",
        "7900013301a7026e000100",
    );

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    fn sample_db() -> CodebaseDb {
        let mut db = CodebaseDb::new("tealeaf");
        db.push("Serial", sample_artifacts("serial"), Some(sample_coverage()));
        db.push("OpenMP", sample_artifacts("omp"), None);
        db
    }

    #[test]
    fn bytes_match_the_recorded_format() {
        let old = unhex(SAMPLE_DB_HEX);
        assert_eq!(sample_db().to_bytes(), old);
        assert_eq!(CodebaseDb::from_bytes(&old).unwrap(), sample_db());
    }

    /// A container around a hand-built uncompressed body.
    fn container(raw: &[u8]) -> Vec<u8> {
        let mut out = DB_MAGIC.to_vec();
        out.extend_from_slice(&compress(raw));
        out
    }

    /// Header of a one-entry body named `x`, up to the entry label `A`.
    fn one_entry_header() -> Vec<u8> {
        let mut raw = DB_MAGIC.to_vec();
        raw.push(DB_VERSION);
        write_str(&mut raw, "x");
        write_varint(&mut raw, 1);
        write_str(&mut raw, "A");
        raw
    }

    #[test]
    fn inflated_counts_are_typed_errors() {
        // 2^61 entries: the reservation is capped by the bytes left.
        let mut raw = DB_MAGIC.to_vec();
        raw.push(DB_VERSION);
        write_str(&mut raw, "x");
        write_varint(&mut raw, 1 << 61);
        assert_eq!(CodebaseDb::from_bytes(&container(&raw)), Err(PackError::Truncated));
        // 2^61 lines in the first entry.
        let mut raw = one_entry_header();
        write_str(&mut raw, "a.cpp");
        write_varint(&mut raw, 1 << 61);
        assert_eq!(CodebaseDb::from_bytes(&container(&raw)), Err(PackError::Truncated));
        // The entry decoder caps its own reservations too.
        let mut entry = Vec::new();
        write_varint(&mut entry, 1 << 61);
        assert_eq!(read_lines(&entry, &mut 0), Err(PackError::Truncated));
    }

    /// A one-entry container whose coverage section is `cov`.
    fn with_coverage(cov: &[u8]) -> Vec<u8> {
        let mut raw = one_entry_header();
        write_artifacts(&mut raw, &sample_artifacts("a"));
        raw.push(1);
        raw.extend_from_slice(cov);
        container(&raw)
    }

    fn coverage_deltas(deltas: &[u64]) -> Vec<u8> {
        let mut cov = Vec::new();
        write_varint(&mut cov, 1); // one file
        write_varint(&mut cov, 0); // file id
        write_varint(&mut cov, deltas.len() as u64);
        for &d in deltas {
            write_varint(&mut cov, d);
        }
        cov
    }

    #[test]
    fn crafted_coverage_is_a_typed_error() {
        // Sanity: the hand-built container loads with an honest profile.
        let db = CodebaseDb::from_bytes(&with_coverage(&coverage_deltas(&[1, 1, 98]))).unwrap();
        let mask = db.entries[0].coverage.as_ref().unwrap();
        assert_eq!(mask.iter_files().next().unwrap().1.iter().collect::<Vec<_>>(), [1, 2, 100]);
        // Deltas summing past u32 no longer wrap.
        let cov = coverage_deltas(&[u64::from(u32::MAX), 1]);
        assert!(matches!(
            CodebaseDb::from_bytes(&with_coverage(&cov)),
            Err(PackError::BadIndex(_))
        ));
        let cov = coverage_deltas(&[u64::MAX, 1]);
        assert!(matches!(
            CodebaseDb::from_bytes(&with_coverage(&cov)),
            Err(PackError::BadIndex(_))
        ));
        // One delta near u32::MAX would size a 512 MiB mask.
        let cov = coverage_deltas(&[u64::from(u32::MAX - 16)]);
        assert_eq!(
            CodebaseDb::from_bytes(&with_coverage(&cov)),
            Err(PackError::BadIndex(u64::from(u32::MAX - 16)))
        );
        // Many small masks that each fit the entry still exceed it together.
        let mut cov = Vec::new();
        write_varint(&mut cov, 4096);
        for f in 0..4096u64 {
            write_varint(&mut cov, f);
            write_varint(&mut cov, 1);
            write_varint(&mut cov, 64 * 64);
        }
        assert!(matches!(
            CodebaseDb::from_bytes(&with_coverage(&cov)),
            Err(PackError::BadIndex(_))
        ));
    }

    #[test]
    fn trailing_bytes_inside_an_entry_are_rejected() {
        let mut entry = write_entry(&sample_db().entries[1]);
        assert!(read_entry(&entry).is_ok());
        entry.push(0);
        assert_eq!(read_entry(&entry), Err(PackError::Malformed));
    }
}
