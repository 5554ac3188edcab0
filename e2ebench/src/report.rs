//! Turning a run's passes into named metrics, the result line, a record
//! of the run, and the span file.

use crate::drive::{Layers, Pass};
use crate::inputs::Workload;
use crate::stats::{flatness, mean, median, quantile};
use std::fmt::Write as _;

/// End-to-end metrics, `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("requests_per_s", "req/s"),
    ("request_p50_ms", "ms"),
    ("flatness", "ratio"),
    ("rec_precision", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `(name, unit)`, reported with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.drain_ms", "ms"),
    ("server.httpa_state_bytes", "B"),
    ("sim.run_ms", "ms"),
    ("sim.events_per_request", "ev/req"),
    ("sim.ns_per_event", "ns"),
    ("sim.messages_per_request", "msg/req"),
    ("payload.request_bytes", "B"),
    ("payload.response_bytes", "B"),
    ("payload.codec_ns_per_byte", "ns/B"),
    ("net.remote_bytes_per_request", "B"),
    ("net.migrations_per_request", "mig/req"),
    ("net.migration_bytes_per_request", "B"),
    ("shard.boundary_messages", "msg/req"),
    ("shard.boundary_migrations", "mig/req"),
    ("shard.load_imbalance", "ratio"),
    ("recommend.neighbours_ms", "ms"),
    ("recommend.recommend_ms", "ms"),
    ("learning.apply_us", "us"),
    ("learning.delta_terms", "count"),
    ("wal.records_per_request", "rec/req"),
    ("wal.bytes_per_request", "B"),
    ("wal.capsule_byte_share", "ratio"),
    ("wal.checkpoints", "count"),
    ("market.offers_per_query", "count"),
    ("market.receipts", "count"),
    ("trace.requests_per_s", "req/s"),
    ("trace.overhead", "ratio"),
];

/// One reported metric: its headline value and the per-pass values it
/// summarizes.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// The same quantity pass by pass (one entry for per-run values).
    pub per_pass: Vec<f64>,
}

/// A finished run.
pub struct Report {
    workload: &'static str,
    seed: u64,
    trace: bool,
    passes: usize,
    attempted: u64,
    failed: u64,
    digest: u64,
    metrics: Vec<Metric>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Requests per second of front-door call time alone (a traced pass
/// also spends time outside the calls timing the codec, recommender,
/// learner and WAL).
fn call_rate(p: &Pass) -> f64 {
    ratio(p.request_ms.len() as f64, p.call_s)
}

/// Per-layer values of one traced pass, in [`PER_LAYER`] order (the two
/// `trace.*` entries are filled in from the whole run).
fn layer_values(p: &Pass) -> Vec<f64> {
    let t = p
        .traced
        .as_ref()
        .expect("layer values come from traced passes");
    let l: &Layers = &t.layers;
    let c = &l.counts;
    let req = l.requests as f64;
    let ms_per_req = |name: &str| ratio(t.spans.total_ns(name) as f64 / 1e6, req);
    let shards = l.shard_requests.len().max(1) as f64;
    let max_shard = l.shard_requests.iter().copied().max().unwrap_or(0) as f64;
    let mean_shard = l.shard_requests.iter().sum::<u64>() as f64 / shards;
    let wal_record_bytes = ratio(l.wal_sampled_bytes as f64, l.wal_sampled_records as f64);
    vec![
        ms_per_req("server.drain"),
        l.httpa_state_bytes as f64,
        ms_per_req("sim.run"),
        ratio(c.events as f64, req),
        ratio(t.spans.total_ns("sim.run") as f64, c.events as f64),
        ratio(c.messages as f64, req),
        ratio(l.request_bytes as f64, req),
        ratio(l.response_bytes as f64, l.responses as f64),
        ratio(
            t.spans.total_ns("payload.codec") as f64,
            (l.request_bytes + l.response_bytes) as f64,
        ),
        ratio(c.remote_bytes as f64, req),
        ratio(c.migrations as f64, req),
        ratio(c.migration_bytes as f64, req),
        ratio(c.boundary_messages as f64, req),
        ratio(c.boundary_migrations as f64, req),
        ratio(max_shard, mean_shard),
        ratio(l.neighbours_ns as f64 / 1e6, l.recommender_calls as f64),
        ratio(l.recommend_ns as f64 / 1e6, l.recommender_calls as f64),
        ratio(l.learn_ns as f64 / 1e3, l.learn_events as f64),
        ratio(l.delta_terms as f64, l.learn_events as f64),
        ratio(c.wal_records as f64, req),
        wal_record_bytes * ratio(c.wal_records as f64, req),
        ratio(l.wal_capsule_bytes as f64, l.wal_sampled_bytes as f64),
        c.checkpoints as f64,
        ratio(l.offers as f64, l.queries as f64),
        l.receipts as f64,
    ]
}

/// Each request's best wall time across the passes. Every pass serves
/// the same requests in the same order, and interference from other
/// work on the machine only ever adds time, so the minimum over many
/// repetitions is the steadiest estimate of what a request costs.
fn best_times(passes: &[Pass]) -> Vec<f64> {
    let n = passes.iter().map(|p| p.request_ms.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| {
            passes
                .iter()
                .map(|p| p.request_ms[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Flatness over whole cycles of the workload's repeating work.
fn cycle_flatness(request_ms: &[f64], cycle: usize) -> f64 {
    let cycles: Vec<f64> = request_ms.chunks(cycle).map(|c| c.iter().sum()).collect();
    flatness(&cycles)
}

fn end_to_end(passes: &[Pass]) -> Vec<Metric> {
    let best = best_times(passes);
    let cycle = passes.first().map_or(1, |p| p.cycle);
    // a round's time is charged to each request it served: count it once
    let per_call = passes.first().map_or(1, |p| p.requests_per_call) as f64;
    let best_s = best.iter().sum::<f64>() / 1e3 / per_call;
    let per = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let rps = per(&call_rate);
    let precision = per(&|p| mean(&p.precision));
    let rss = per(&|p| p.peak_rss_mb);
    let setup = per(&|p| p.setup_s);
    // set-up is steadied the same way as the requests: its best time
    let best_setup = setup.iter().copied().fold(f64::INFINITY, f64::min);
    vec![
        (ratio(best.len() as f64, best_s), rps),
        (quantile(&best, 0.5), per(&|p| quantile(&p.request_ms, 0.5))),
        (
            cycle_flatness(&best, cycle),
            per(&|p| cycle_flatness(&p.request_ms, p.cycle)),
        ),
        (median(&precision), precision),
        (median(&rss), rss),
        (best_setup, setup),
    ]
    .into_iter()
    .zip(END_TO_END)
    .map(|((value, per_pass), (name, unit))| Metric {
        name,
        unit,
        value,
        per_pass,
    })
    .collect()
}

fn per_layer(passes: &[Pass]) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced.is_some()).collect();
    let untraced: Vec<&Pass> = passes.iter().filter(|p| p.traced.is_none()).collect();
    let columns: Vec<Vec<f64>> = traced.iter().map(|p| layer_values(p)).collect();
    let traced_rps: Vec<f64> = traced.iter().map(|p| call_rate(p)).collect();
    let untraced_rps: Vec<f64> = untraced.iter().map(|p| call_rate(p)).collect();
    let overhead = 1.0 - ratio(median(&traced_rps), median(&untraced_rps));
    PER_LAYER
        .iter()
        .enumerate()
        .map(|(i, (name, unit))| {
            let per_pass: Vec<f64> = match *name {
                "trace.requests_per_s" => traced_rps.clone(),
                "trace.overhead" => vec![overhead],
                _ => columns.iter().map(|c| c[i]).collect(),
            };
            Metric {
                name,
                unit,
                value: median(&per_pass),
                per_pass,
            }
        })
        .collect()
}

/// Git commit of the checkout, read from `.git` without running git;
/// `unknown` outside a repository.
fn git_sha() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| {
                read(".git/packed-refs")
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split(' ').next().map(String::from))
                    })
                    .unwrap_or_else(|| "unknown".into())
            }),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn features() -> &'static str {
    if cfg!(feature = "parallel") {
        "parallel"
    } else {
        "default"
    }
}

/// A JSON number with all its digits (never NaN or infinite).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

impl Report {
    /// Summarize `passes` of a run of `workload`.
    pub fn new(workload: &Workload, seed: u64, trace: bool, passes: &[Pass]) -> Report {
        Report {
            workload: workload.name(),
            seed,
            trace,
            passes: passes.len(),
            attempted: passes.iter().map(|p| p.gate.attempted).sum(),
            failed: passes.iter().map(|p| p.gate.failed).sum(),
            digest: passes.first().map_or(0, |p| p.gate.digest()),
            metrics: if trace {
                per_layer(passes)
            } else {
                end_to_end(passes)
            },
        }
    }

    /// The reported metrics.
    #[cfg(test)]
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// The last stdout line: the run's result.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    m.name,
                    num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// A record of the run: every metric with the median, quartiles,
    /// min and max of its per-pass values and their count, plus the core
    /// count, git sha, cargo features and response digest.
    pub fn record_line(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = &m.per_pass;
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"median\":{},\"q1\":{},\"q3\":{},\"min\":{},\"max\":{},\"n\":{}}}",
                    m.name,
                    num(m.value),
                    m.unit,
                    num(median(v)),
                    num(quantile(v, 0.25)),
                    num(quantile(v, 0.75)),
                    num(quantile(v, 0.0)),
                    num(quantile(v, 1.0)),
                    v.len()
                )
            })
            .collect();
        format!(
            "{{\"record\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"passes\":{},\"nproc\":{nproc},\"git_sha\":\"{}\",\"features\":\"{}\",\"digest\":\"{:016x}\",\"metrics\":{{{}}}}}}}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            self.passes,
            git_sha(),
            features(),
            self.digest,
            metrics.join(",")
        )
    }

    /// A human-readable table of the metrics.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{} seed {} ({} passes, {} requests, digest {:016x})\n",
            self.workload, self.seed, self.passes, self.attempted, self.digest
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "  {:<34} {:>14.4} {:<8} passes [{:.4} .. {:.4}]",
                m.name,
                m.value,
                m.unit,
                quantile(&m.per_pass, 0.0),
                quantile(&m.per_pass, 1.0)
            );
        }
        out
    }

    /// Write the traced passes' spans as JSON lines under `out/` beside
    /// the benchmark's manifest.
    pub fn write_spans(&self, passes: &[Pass]) -> std::io::Result<()> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let mut text = String::new();
        for (i, p) in passes.iter().enumerate() {
            if let Some(t) = &p.traced {
                for line in t.spans.to_jsonl().lines() {
                    let _ = writeln!(text, "{{\"pass\":{i},{}", &line[1..]);
                }
            }
        }
        std::fs::write(
            dir.join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed)),
            text,
        )
    }
}
