//! Cold served `compare` latency: for each of the four corpus apps and
//! each of `T_sem`, `T_src` and `Source`, a fresh analysis service (empty
//! TED cache, freshly indexed artefacts, so no memoised decompositions)
//! behind a real server answers one `compare` from Serial over the JSON
//! wire.  Prints each request's wall time and their sum; one run is one
//! sample, so compare builds by alternating runs.
//!
//! ```sh
//! cargo run --release --example compare_cold -p bench
//! ```

use silvervale::serve::{AnalysisService, DEFAULT_CACHE_BYTES};
use silvervale::svjson::Json;
use std::time::Instant;
use svcorpus::App;
use svserve::{serve, Client, Router};

fn main() {
    let mut total_ms = 0.0;
    let mut cells = Vec::new();
    for app in App::ALL {
        let db = silvervale::index_app(app, false).expect("index the app");
        for metric in ["t_sem", "t_src", "source"] {
            let service = AnalysisService::new(DEFAULT_CACHE_BYTES);
            service.insert_db(app.name(), db.clone());
            let mut router = Router::new();
            service.register_on(&mut router);
            let handle = serve("127.0.0.1:0", router, svpar::num_threads()).expect("start server");
            let mut client = Client::connect(handle.addr()).expect("connect");
            let params = Json::obj([
                ("db", Json::str(app.name())),
                ("metric", Json::str(metric)),
                ("from", Json::str("Serial")),
            ]);
            let t = Instant::now();
            client.call("compare", params).expect("compare");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            total_ms += ms;
            cells.push(format!("{}/{metric}={ms:.2}", app.name()));
            drop(client);
            handle.shutdown();
        }
    }
    println!(
        "compare_cold total_ms={total_ms:.2} threads={} {}",
        svpar::num_threads(),
        cells.join(" ")
    );
}
