//! `index`: the frontend path, one synthetic codebase per op.
//!
//! Each op indexes a codebase of `UNITS` C++ units through
//! `index_compilation_db`, then round-trips the DB through
//! `to_bytes`/`from_bytes`.  The units are `svport::gen` mutants of one
//! corpus app's ports (apps rotate op by op).  Mutants that cannot build
//! (brace deletions) and exact duplicates of any text already compiled in
//! the run are dropped at generation, so no two ops compile the same text.
//! Generation and the round-trip equality check are untimed.

use crate::harness::{Amount, Block, Config, Extras, Op, Report, Workload};
use crate::stats::{Digest, SplitMix};
use silvervale::{index_compilation_db, index_compilation_db_seq, CodebaseDb, CompileCommand};
use std::collections::HashSet;
use std::time::Instant;
use svcorpus::App;
use svlang::source::SourceSet;
use svtrace::span;

/// Units per synthetic codebase.
pub const UNITS: usize = 40;

/// One generated codebase: sources plus its compilation database.
pub struct Codebase {
    name: String,
    sources: SourceSet,
    commands: Vec<CompileCommand>,
}

/// Deterministic generator: codebase `i` of a run depends only on the
/// seed, `i`, and the texts earlier codebases used.
pub struct Generator {
    seed: u64,
    seen: HashSet<u64>,
    pub digest: Digest,
}

impl Generator {
    pub fn new(seed: u64) -> Generator {
        Generator { seed, seen: HashSet::new(), digest: Digest::new() }
    }

    pub fn codebase(&mut self, i: usize) -> Codebase {
        let app = App::ALL[i % App::ALL.len()];
        let mut sources = svcorpus::source_set(app);
        let mut commands = Vec::with_capacity(UNITS);
        let mut rng = SplitMix::new(self.seed ^ (i as u64).wrapping_mul(0x9e37_79b9));
        while commands.len() < UNITS {
            let cands = {
                let _s = span!("bench.gen");
                svport::generate(app, 2 * UNITS, rng.next_u64())
            };
            for c in cands {
                if commands.len() == UNITS {
                    break;
                }
                let build_breaking = c.edits.iter().any(|e| e.contains("brace"));
                let fp = svport::source_fingerprint(&c.source);
                if c.edits.is_empty() || build_breaking || !self.seen.insert(fp) {
                    continue;
                }
                let k = commands.len();
                let file = format!("synth/{}/{i:05}/{k:02}_{}.cpp", app.name(), c.model.stem());
                self.digest.add(file.as_bytes());
                self.digest.add(c.source.as_bytes());
                sources.add(file.clone(), c.source);
                commands.push(CompileCommand {
                    directory: ".".into(),
                    arguments: vec!["c++".into(), "-c".into(), file.clone()],
                    file,
                });
            }
        }
        Codebase { name: format!("synth-{}-{i:05}", app.name()), sources, commands }
    }
}

pub struct Index {
    seed: u64,
    gen: Generator,
    next: usize,
    /// Last traced block's layer figures, per codebase.
    pack_bytes: Vec<f64>,
    gen_ms: Vec<f64>,
    nodes: f64,
    decompositions: u64,
}

impl Index {
    pub fn new(cfg: &Config) -> Index {
        Index {
            seed: cfg.seed,
            gen: Generator::new(cfg.seed),
            next: 0,
            pack_bytes: Vec::new(),
            gen_ms: Vec::new(),
            nodes: 0.0,
            decompositions: 0,
        }
    }
}

fn tree_nodes(db: &CodebaseDb) -> f64 {
    db.entries
        .iter()
        .map(|e| {
            let a = &e.artifacts;
            (a.t_src.size() + a.t_src_pp.size() + a.t_sem.size() + a.t_sem_inl.size()) as f64
        })
        .sum()
}

impl Workload for Index {
    const TAIL_P: f64 = 70.0;
    const SPREAD_SETUPS: bool = true;
    const UNIT: &'static str = "codebase";

    fn round(&self) -> usize {
        4
    }

    /// Warm-up: generate and index one codebase outside the run's
    /// sequence (allocator and page-cache warm-up, generator tables).
    fn setup(&mut self, _cfg: &Config) -> Result<(), String> {
        let mut warm = Generator::new(self.seed ^ 0xa11ce);
        let cb = warm.codebase(0);
        let db = {
            let _s = span!("bench.index");
            index_compilation_db(&cb.name, &cb.sources, &cb.commands)
        }
        .map_err(|e| format!("warm-up index: {e}"))?;
        let bytes = {
            let _s = span!("bench.pack");
            db.to_bytes()
        };
        let _s = span!("bench.unpack");
        CodebaseDb::from_bytes(&bytes).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn block(&mut self, amount: Amount, rep: &mut Report) -> Block {
        let mut block = Block::default();
        let mut busy = 0.0;
        self.pack_bytes.clear();
        self.gen_ms.clear();
        self.nodes = 0.0;
        let dec0 = svdist::decompose_count();
        while !amount.done(block.ops.len(), block.units, 1) {
            let t = Instant::now();
            let cb = self.gen.codebase(self.next);
            self.gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.next += 1;
            rep.attempted += 1;
            let t = Instant::now();
            let r = (|| {
                let db = {
                    let _s = span!("bench.index");
                    index_compilation_db(&cb.name, &cb.sources, &cb.commands)
                }
                .map_err(|e| format!("{}: {e}", cb.name))?;
                let bytes = {
                    let _s = span!("bench.pack");
                    db.to_bytes()
                };
                let back = {
                    let _s = span!("bench.unpack");
                    CodebaseDb::from_bytes(&bytes)
                }
                .map_err(|e| format!("{}: from_bytes: {e}", cb.name))?;
                Ok::<_, String>((db, bytes.len(), back))
            })();
            let ms = t.elapsed().as_secs_f64() * 1e3;
            block.ops.push(Op { start_s: busy, ms });
            busy += ms / 1e3;
            block.units += 1;
            match r {
                Ok((db, len, back)) => {
                    if back != db {
                        rep.fail(format!("{}: from_bytes(to_bytes(db)) != db", cb.name));
                    }
                    if db.entries.len() != UNITS {
                        rep.fail(format!("{}: {} units indexed", cb.name, db.entries.len()));
                    }
                    self.pack_bytes.push(len as f64);
                    self.nodes += tree_nodes(&db);
                }
                Err(e) => rep.fail(e),
            }
        }
        block.wall_s = busy;
        self.decompositions = svdist::decompose_count() - dec0;
        block
    }

    fn check(&mut self, rep: &mut Report) {
        rep.note(format!("inputs digest (codebases 0..{}): {}", self.next, self.gen.digest.hex()));
        // One codebase per run against the sequential oracle.
        let cb = Generator::new(self.seed).codebase(0);
        let par = index_compilation_db(&cb.name, &cb.sources, &cb.commands);
        let seq = index_compilation_db_seq(&cb.name, &cb.sources, &cb.commands);
        let same = matches!((&par, &seq), (Ok(a), Ok(b)) if a == b);
        rep.check(same, || format!("{}: parallel index differs from sequential", cb.name));
    }

    fn extras(&mut self, _attr: &crate::attrib::Attribution, block: &Block, x: &mut Extras) {
        let per = block.units.max(1) as f64;
        x.insert("svlang.nodes", self.nodes);
        x.insert("svtree.pack_bytes", self.pack_bytes.iter().sum::<f64>() / per);
        x.insert("svport.gen_ms", self.gen_ms.iter().sum::<f64>() / per);
        x.insert("svdist.decompositions", self.decompositions as f64 / per);
        // Probe: svir lowering of one codebase's units, through the public
        // entry points, outside the traced window.
        let cb = Generator::new(self.seed ^ 0x1e).codebase(1);
        let mut lower_ms = 0.0;
        let mut ir_nodes = 0.0;
        for cmd in &cb.commands {
            let Some(main) = cb.sources.lookup(&cmd.file) else { continue };
            let Ok(unit) = svlang::unit::compile_unit(
                &cb.sources,
                main,
                &svlang::unit::UnitOptions::default(),
            ) else {
                continue;
            };
            let t = Instant::now();
            let ir = svir::t_ir(&unit);
            lower_ms += t.elapsed().as_secs_f64() * 1e3;
            ir_nodes += ir.size() as f64;
        }
        x.insert("svir.lower_ms", lower_ms);
        x.insert("svir.ir_nodes", ir_nodes);
    }
}
