//! The `silvervale` command-line tool: the end-to-end workflow of Fig. 2
//! as a binary, mirroring the paper's released tool.
//!
//! ```text
//! silvervale index     --app tealeaf [--coverage] -o tealeaf.svdb
//! silvervale index     --compile-db compile_commands.json --src-dir src/ -o db.svdb
//! silvervale inventory tealeaf.svdb
//! silvervale compare   tealeaf.svdb --metric t_sem [--pp] [--cov] [--inline] --from Serial
//! silvervale cluster   tealeaf.svdb --metric t_sem
//! silvervale chart     tealeaf.svdb --app tealeaf
//! silvervale cascade   --app tealeaf
//! ```

use silvervale::serve::{parse_app, parse_metric, AnalysisService, DEFAULT_CACHE_BYTES};
use silvervale::svjson::Json;
use silvervale::{
    divergence_from, index_app, index_compilation_db, index_fortran, inventory, model_matrix,
    model_matrix_approx, navigation_chart, parse_compile_commands, CodebaseDb,
};
use std::process::ExitCode;
use svcluster::Heatmap;
use svlang::source::SourceSet;
use svmetrics::Variant;

fn usage() -> ! {
    eprintln!(
        "silvervale — tree-based model divergence (TBMD) analysis

USAGE:
  silvervale index     --app <name> [--coverage] [-o FILE]
  silvervale index     --fortran [-o FILE]
  silvervale index     --compile-db FILE --src-dir DIR [-o FILE]
  silvervale inventory <DB>
  silvervale compare   <DB> [--metric M] [--pp] [--cov] [--inline] [--from LABEL] [--trace-out FILE]
  silvervale matrix    <DB> [--metric M] [--pp] [--cov] [--inline] [--approx] [--csv] [--trace-out FILE]
  silvervale cluster   <DB> [--metric M] [--pp] [--cov] [--inline] [--approx] [--trace-out FILE]
  silvervale chart     <DB> --app <name> [--csv]
  silvervale cascade   --app <name>
  silvervale evaluate  [<DB>] --app <name> [--candidates N] [--seed S] [--csv]
                       [--addr HOST:PORT]
  silvervale serve     [--addr HOST:PORT] [--store FILE] [--threads N] [--cache-mb N]
                       [--deadline-ms N] [--max-queue N] [--slow-ms N] [--trace-out FILE] [DB...]
  silvervale client    --addr HOST:PORT <method> [PARAMS-JSON] [--json] [--trace-out FILE]
  silvervale stats     --addr HOST:PORT [--follow] [--interval-ms N] [--json]
  silvervale top       --addr HOST:PORT [--interval-ms N] [--json]
  silvervale slowlog   --addr HOST:PORT [--limit N] [--json]

  apps:    babelstream | minibude | tealeaf | cloverleaf
  metrics: sloc | lloc | source | t_src | t_sem | t_ir | codediv

  --approx (matrix/cluster) uses the approximate-first engine: cheap
  admissible lower bounds prefilter the pairs and only near-frontier
  pairs run the exact threshold kernel.  Far cells are lower bounds,
  never over-estimates; the default (no flag) stays fully exact.

  --trace-out FILE writes a Chrome trace_event JSON of the run's spans
  (open in Perfetto / chrome://tracing).  With `client`, the call is
  traced end-to-end: the server's spans for the request are fetched via
  the `trace` method and merged into the file on their own pid lane.
  `client metrics --addr ...` dumps a live server's metric registries
  merged with the client's own retry/reconnect counters.

  serve listens on one port, --addr, for two wires: the newline-framed
  JSON protocol and a length-prefixed binary protocol (svpack bytes
  ride the frames verbatim).  A binary connection opens with a 4-byte
  preface; every other connection is JSON.  Client commands use the
  binary wire; --json pins a client command to the JSON wire.
  --store FILE persists the content-addressed artifact store (indexed
  trees as svpack v2, mmap'd and served zero-copy by the `tree`
  method) across restarts; the default store is an unlinked temp file.

  serve answers each request within --deadline-ms (error
  'deadline_exceeded'; 0 or unset disables the deadline), sheds load
  past --max-queue queued jobs (retryable error 'overloaded'), and
  tail-samples requests slower than --slow-ms (default 500) into the
  flight recorder behind `slowlog`; `client health --addr ...` probes
  liveness.  --interval-ms sets the stats/top refresh period
  (default 2000, clamped to >= 100)."
    );
    std::process::exit(2);
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                // value flags take the next token unless it is also a flag
                let value_flags = [
                    "app",
                    "metric",
                    "from",
                    "compile-db",
                    "src-dir",
                    "out",
                    "addr",
                    "threads",
                    "cache-mb",
                    "trace-out",
                    "deadline-ms",
                    "max-queue",
                    "candidates",
                    "seed",
                    "interval-ms",
                    "slow-ms",
                    "limit",
                    "store",
                ];
                if value_flags.contains(&name) && i + 1 < argv.len() {
                    flags.push((name.to_string(), Some(argv[i + 1].clone())));
                    i += 2;
                    continue;
                }
                flags.push((name.to_string(), None));
            } else if a == "-o" && i + 1 < argv.len() {
                flags.push(("out".to_string(), Some(argv[i + 1].clone())));
                i += 2;
                continue;
            } else {
                positional.push(a.clone());
            }
            i += 1;
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, v)| n == name && v.is_some()).and_then(|(_, v)| v.as_deref())
    }
}

/// Connect honouring `--json`: by default the client speaks the binary
/// wire; `--json` pins the newline-framed protocol.
fn client_for(args: &Args, addr: &str) -> std::io::Result<svserve::Client> {
    if args.flag("json") {
        svserve::Client::connect(addr)
    } else {
        svserve::Client::connect_negotiated(addr)
    }
}

/// `--trace-out FILE` support: arms span collection for the duration of a
/// command and writes the Chrome trace on [`TraceOut::finish`].
struct TraceOut {
    path: Option<String>,
}

impl TraceOut {
    fn begin(args: &Args) -> TraceOut {
        let path = args.value("trace-out").map(str::to_string);
        if path.is_some() {
            svtrace::reset_spans();
            svtrace::set_enabled(true);
        }
        TraceOut { path }
    }

    fn finish(self) -> Result<(), String> {
        let Some(path) = self.path else { return Ok(()) };
        svtrace::set_enabled(false);
        let spans = svtrace::take_spans();
        let json = svtrace::chrome_trace(&spans);
        std::fs::write(&path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {} spans to {path} (load in Perfetto or chrome://tracing)", spans.len());
        Ok(())
    }
}

/// Refresh period for `stats --follow` and `top`: `--interval-ms`,
/// defaulting to 2000 and clamped to at least 100ms so a typo cannot turn
/// the poller into a load generator.
fn interval_of(args: &Args) -> Result<std::time::Duration, String> {
    let ms = match args.value("interval-ms") {
        Some(ms) => ms.parse::<u64>().map_err(|_| "--interval-ms needs a number")?.max(100),
        None => 2000,
    };
    Ok(std::time::Duration::from_millis(ms))
}

/// Arm end-to-end tracing for a remote call when `--trace-out` is given:
/// local spans are collected and every call carries a trace context the
/// server samples into its flight recorder.
fn trace_client_begin(args: &Args, client: &mut svserve::Client) {
    if args.value("trace-out").is_some() {
        svtrace::reset_spans();
        svtrace::set_enabled(true);
        client.set_tracing(true);
    }
}

/// After a traced remote call: fetch the server's spans for the last
/// trace id via the `trace` method and write one merged Chrome trace
/// (client spans on pid 1, server spans on pid 2).  A server that has
/// already evicted the trace — or predates the `trace` method — degrades
/// to local spans only.
fn write_merged_trace(path: &str, client: &mut svserve::Client) -> Result<(), String> {
    svtrace::set_enabled(false);
    let spans = svtrace::take_spans();
    let server = client.last_trace_id().and_then(|id| {
        client.call("trace", Json::obj([("id", Json::str(svserve::id_hex(id)))])).ok()
    });
    let n_server = server
        .as_ref()
        .and_then(|t| t.get("spans"))
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    let json = svserve::merged_chrome_trace(&spans, server.as_ref());
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!(
        "wrote {} local + {n_server} server spans to {path} (load in Perfetto or chrome://tracing)",
        spans.len()
    );
    Ok(())
}

/// One-line report of the approximate engine's work split, printed to
/// stderr so `--csv` output stays clean.
fn approx_summary(s: &svmetrics::ApproxStats) -> String {
    format!(
        "approx: {} pairs ({} bucketed, {} lb-pruned, {} cutoff, {} exact), frontier {:.4}",
        s.pairs, s.bucketed, s.lb_pruned, s.cutoff, s.exact_solves, s.frontier
    )
}

fn variant_of(args: &Args) -> Variant {
    Variant {
        preprocessor: args.flag("pp"),
        inlining: args.flag("inline"),
        coverage: args.flag("cov"),
    }
}

fn load_db(path: &str) -> Result<CodebaseDb, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    CodebaseDb::from_bytes(&bytes).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        usage();
    }
    let cmd = argv[0].clone();
    let args = Args::parse(&argv[1..]);

    match cmd.as_str() {
        "index" => {
            let db = if let Some(app_name) = args.value("app") {
                let app = parse_app(app_name).ok_or_else(|| format!("unknown app '{app_name}'"))?;
                index_app(app, args.flag("coverage")).map_err(|e| e.to_string())?
            } else if args.flag("fortran") {
                index_fortran().map_err(|e| e.to_string())?
            } else if let Some(cdb_path) = args.value("compile-db") {
                let src_dir = args.value("src-dir").ok_or("--compile-db requires --src-dir")?;
                let text = std::fs::read_to_string(cdb_path)
                    .map_err(|e| format!("cannot read {cdb_path}: {e}"))?;
                let commands = parse_compile_commands(&text).map_err(|e| e.to_string())?;
                let mut sources = SourceSet::new();
                svcorpus::add_system_headers(&mut sources);
                load_sources(&mut sources, std::path::Path::new(src_dir), src_dir)?;
                index_compilation_db("codebase", &sources, &commands).map_err(|e| e.to_string())?
            } else {
                return Err("index needs --app, --fortran, or --compile-db".into());
            };
            let out = args.value("out").unwrap_or("codebase.svdb");
            let bytes = db.to_bytes();
            std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
            println!("indexed {} units into {out} ({} bytes)", db.entries.len(), bytes.len());
            Ok(())
        }
        "inventory" => {
            let db = load_db(args.positional.first().ok_or("inventory needs a DB path")?)?;
            print!("{}", inventory(&db));
            Ok(())
        }
        "compare" => {
            let db = load_db(args.positional.first().ok_or("compare needs a DB path")?)?;
            let metric =
                parse_metric(args.value("metric").unwrap_or("t_sem")).ok_or("unknown metric")?;
            let v = variant_of(&args);
            let base = args
                .value("from")
                .map(str::to_string)
                .unwrap_or_else(|| db.labels().first().cloned().unwrap_or_default());
            let trace = TraceOut::begin(&args);
            let mut divs = divergence_from(&db, metric, v, &base).map_err(|e| e.to_string())?;
            trace.finish()?;
            divs.sort_by(|a, b| a.1.total_cmp(&b.1));
            println!("{}{} divergence from {base}:", metric.name(), v.label());
            for (label, d) in divs {
                println!("  {label:<18} {d:.4} {}", "▆".repeat((d * 40.0).min(60.0) as usize));
            }
            Ok(())
        }
        "matrix" => {
            let db = load_db(args.positional.first().ok_or("matrix needs a DB path")?)?;
            let metric =
                parse_metric(args.value("metric").unwrap_or("t_sem")).ok_or("unknown metric")?;
            let v = variant_of(&args);
            let trace = TraceOut::begin(&args);
            let matrix = if args.flag("approx") {
                let (m, stats) = model_matrix_approx(&db, metric, v);
                eprintln!("{}", approx_summary(&stats));
                m
            } else {
                model_matrix(&db, metric, v)
            };
            trace.finish()?;
            if args.flag("csv") {
                print!("{}", matrix.to_csv());
            } else {
                println!("{}{} divergence matrix of '{}':", metric.name(), v.label(), db.name);
                print!("{matrix}");
            }
            Ok(())
        }
        "cluster" => {
            let db = load_db(args.positional.first().ok_or("cluster needs a DB path")?)?;
            let metric =
                parse_metric(args.value("metric").unwrap_or("t_sem")).ok_or("unknown metric")?;
            let v = variant_of(&args);
            let trace = TraceOut::begin(&args);
            let matrix = if args.flag("approx") {
                let (m, stats) = model_matrix_approx(&db, metric, v);
                eprintln!("{}", approx_summary(&stats));
                m
            } else {
                model_matrix(&db, metric, v)
            };
            let dendro = svcluster::cluster_rows(&matrix);
            trace.finish()?;
            println!("{}{} clustering of '{}':", metric.name(), v.label(), db.name);
            println!("{}", dendro.render());
            println!("{}", Heatmap::ordered_by(&matrix, &dendro).render());
            Ok(())
        }
        "chart" => {
            let db = load_db(args.positional.first().ok_or("chart needs a DB path")?)?;
            let app_name = args.value("app").ok_or("chart needs --app")?;
            let app = parse_app(app_name).ok_or_else(|| format!("unknown app '{app_name}'"))?;
            let chart = navigation_chart(app, &db).map_err(|e| e.to_string())?;
            if args.flag("csv") {
                print!("{}", chart.to_csv());
            } else {
                println!("{}", chart.render());
            }
            Ok(())
        }
        "evaluate" => {
            let app_name = args.value("app").ok_or("evaluate needs --app")?;
            let app = parse_app(app_name).ok_or_else(|| format!("unknown app '{app_name}'"))?;
            let candidates = match args.value("candidates") {
                Some(n) => n.parse::<usize>().map_err(|_| "--candidates needs a number")?,
                None => 100,
            };
            let seed = match args.value("seed") {
                Some(s) => s.parse::<u64>().map_err(|_| "--seed needs a number")?,
                None => 0,
            };
            if let Some(addr) = args.value("addr") {
                // Remote: the positional is the server-side DB name.
                let db_name =
                    args.positional.first().cloned().unwrap_or_else(|| app_name.to_string());
                let params = Json::obj([
                    ("db", Json::str(db_name)),
                    ("app", Json::str(app_name)),
                    ("candidates", Json::Num(candidates as f64)),
                    ("seed", Json::Num(seed as f64)),
                    ("csv", Json::Bool(args.flag("csv"))),
                ]);
                let mut client = client_for(&args, addr)
                    .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
                trace_client_begin(&args, &mut client);
                let result = client.call("evaluate", params).map_err(|e| e.to_string())?;
                if let Some(path) = args.value("trace-out") {
                    write_merged_trace(path, &mut client)?;
                }
                if args.flag("csv") {
                    print!("{}", result.get("csv").and_then(Json::as_str).unwrap_or(""));
                } else {
                    print!("{}", result.get("text").and_then(Json::as_str).unwrap_or(""));
                    println!("{}", result.get("chart").and_then(Json::as_str).unwrap_or(""));
                }
                return Ok(());
            }
            // Local: gate + score offline against the recompiled corpus
            // baseline (a DB path, if given, is only validated).
            if let Some(path) = args.positional.first() {
                load_db(path)?;
            }
            let trace = TraceOut::begin(&args);
            let board =
                silvervale::evaluate_ports(app, candidates, seed).map_err(|e| e.to_string())?;
            trace.finish()?;
            if args.flag("csv") {
                print!("{}", board.to_csv());
            } else {
                print!("{}", board.render());
                println!("{}", board.nav_chart().render());
            }
            Ok(())
        }
        "cascade" => {
            let app_name = args.value("app").ok_or("cascade needs --app")?;
            let app = parse_app(app_name).ok_or_else(|| format!("unknown app '{app_name}'"))?;
            println!("{}", svperf::cascade(app).render());
            Ok(())
        }
        "serve" => {
            let addr = args.value("addr").unwrap_or("127.0.0.1:7741");
            let threads = match args.value("threads") {
                Some(t) => t.parse::<usize>().map_err(|_| "--threads needs a number")?,
                None => svpar::num_threads(),
            };
            let cache_bytes = match args.value("cache-mb") {
                Some(mb) => mb.parse::<usize>().map_err(|_| "--cache-mb needs a number")? << 20,
                None => DEFAULT_CACHE_BYTES,
            };
            // 0 disables the per-request deadline (the default).
            let deadline = match args.value("deadline-ms") {
                Some(ms) => {
                    let ms = ms.parse::<u64>().map_err(|_| "--deadline-ms needs a number")?;
                    (ms > 0).then(|| std::time::Duration::from_millis(ms))
                }
                None => None,
            };
            let max_queue = match args.value("max-queue") {
                Some(n) => n.parse::<usize>().map_err(|_| "--max-queue needs a number")?,
                None => svserve::sched::DEFAULT_MAX_QUEUE,
            };
            // Flight-recorder slow threshold; 0 keeps the 500ms default.
            let slow_threshold = match args.value("slow-ms") {
                Some(ms) => {
                    let ms = ms.parse::<u64>().map_err(|_| "--slow-ms needs a number")?;
                    (ms > 0).then(|| std::time::Duration::from_millis(ms))
                }
                None => None,
            };
            let store = match args.value("store") {
                Some(path) => Some(std::sync::Arc::new(
                    svserve::ArtifactStore::open(path)
                        .map_err(|e| format!("cannot open store {path}: {e}"))?,
                )),
                None => None,
            };
            let service = AnalysisService::with_store(cache_bytes, store);
            for path in &args.positional {
                let db = load_db(path)?;
                let name = db.name.clone();
                println!("loaded {} ({} units) from {path}", name, db.entries.len());
                service.insert_db(name, db);
            }
            let mut router = svserve::Router::new();
            service.register_on(&mut router);
            let trace = TraceOut::begin(&args);
            let config = svserve::ServeConfig {
                workers: threads,
                max_queue,
                deadline,
                slow_threshold,
                ..svserve::ServeConfig::default()
            };
            let handle = svserve::serve_with(addr, router, config)
                .map_err(|e| format!("cannot bind {addr}: {e}"))?;
            println!(
                "serving on {} ({threads} workers); send a 'shutdown' request to stop",
                handle.addr()
            );
            // Block until a client requests shutdown, then report.
            let stats = handle.wait();
            trace.finish()?;
            print!("{}", svserve::render_stats(&stats));
            Ok(())
        }
        "client" | "stats" | "top" => {
            let addr = args.value("addr").ok_or("--addr HOST:PORT is required")?;
            if cmd == "top" || (cmd == "stats" && args.flag("follow")) {
                // Poll the live server every --interval-ms until it goes
                // away (or ^C): `stats --follow` appends reports, `top`
                // repaints one dashboard frame in place.
                let interval = interval_of(&args)?;
                let mut first = true;
                loop {
                    let mut client = match client_for(&args, addr) {
                        Ok(c) => c,
                        Err(e) if first => return Err(format!("cannot connect to {addr}: {e}")),
                        Err(_) => break, // server shut down mid-follow
                    };
                    let stats = match client.call("stats", Json::Null) {
                        Ok(s) => s,
                        Err(_) => break,
                    };
                    first = false;
                    if cmd == "top" {
                        print!(
                            "\x1b[2J\x1b[Hsilvervale top — {addr} (refresh {}ms)\n\n",
                            interval.as_millis()
                        );
                        print!("{}", svserve::render_top(&stats));
                        use std::io::Write;
                        std::io::stdout().flush().ok();
                    } else {
                        print!("{}", svserve::render_stats(&stats));
                        println!();
                    }
                    std::thread::sleep(interval);
                }
                return Ok(());
            }
            let (method, params) = if cmd == "stats" {
                ("stats".to_string(), Json::Null)
            } else {
                let method = args.positional.first().ok_or("client needs a method name")?.clone();
                let params = match args.positional.get(1) {
                    Some(text) => {
                        silvervale::svjson::parse(text).map_err(|e| format!("bad params: {e}"))?
                    }
                    None => Json::Null,
                };
                (method, params)
            };
            let mut client =
                client_for(&args, addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            trace_client_begin(&args, &mut client);
            // `metrics` merges the client's own counters into the reply —
            // one document covering both ends of the connection.
            let result = if method == "metrics" {
                client.merged_metrics()
            } else {
                client.call(&method, params)
            }
            .map_err(|e| e.to_string())?;
            if args.value("trace-out").is_some() && cmd == "client" {
                write_merged_trace(args.value("trace-out").unwrap(), &mut client)?;
            }
            if cmd == "stats" {
                print!("{}", svserve::render_stats(&result));
            } else {
                // Render text-bearing results as text, everything else as JSON.
                match result.get("text").and_then(Json::as_str) {
                    Some(text) => print!("{text}"),
                    None => println!("{}", result.to_string_compact()),
                }
            }
            Ok(())
        }
        "slowlog" => {
            let addr = args.value("addr").ok_or("--addr HOST:PORT is required")?;
            let params = match args.value("limit") {
                Some(n) => {
                    let n = n.parse::<u64>().map_err(|_| "--limit needs a number")?;
                    Json::obj([("limit", Json::Num(n as f64))])
                }
                None => Json::Null,
            };
            let mut client =
                client_for(&args, addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            let reply = client.call("slowlog", params).map_err(|e| e.to_string())?;
            print!("{}", svserve::render_slowlog(&reply));
            Ok(())
        }
        _ => usage(),
    }
}

/// Recursively load source files from `dir` into the source set, keyed by
/// their path relative to `root`.
fn load_sources(sources: &mut SourceSet, dir: &std::path::Path, root: &str) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {dir:?}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.is_dir() {
            load_sources(sources, &path, root)?;
            continue;
        }
        let ok_ext = path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| matches!(e, "cpp" | "cc" | "cu" | "c" | "h" | "hpp" | "f90" | "f95"));
        if !ok_ext {
            continue;
        }
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"))?;
        sources.add(rel, text);
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
