//! The per-layer metrics of a traced run, named after the repository
//! module each one measures. Every traced run reports every metric; a
//! layer the workload bypasses reports 0.

use std::time::Duration;

use crate::replay::Counts;
use crate::stats::{frac, ms, us, Metrics};
use crate::trace::Tracer;

/// Parallel-engine counters summed over the campaigns of a run.
#[derive(Debug, Default)]
pub struct Parallel {
    pub threads: usize,
    pub run: Duration,
    pub solved: u64,
    pub committed: u64,
    pub wasted: u64,
    pub stolen: u64,
    pub skipped: u64,
    pub solve_time: Duration,
}

/// Serving-layer measurements of a traced `serve_mix` run.
#[derive(Debug, Default)]
pub struct Serving {
    pub admit_ms: Vec<f64>,
    pub start_wait_ms: Vec<f64>,
    pub build: Duration,
    pub service: Duration,
    pub tax_frac: f64,
    pub verdict_gaps_us: Vec<f64>,
    pub steps: u64,
    pub solves: u64,
    pub shed: u64,
    pub render_us: f64,
    pub parse_us: f64,
    pub bytes_per_campaign: f64,
    pub cert_bytes: u64,
    pub certified: u64,
    pub certified_campaign_ms: Vec<f64>,
}

/// Builds the per-layer metrics from the replay's spans and counts.
pub fn metrics(
    tr: &Tracer,
    c: &Counts,
    par: &Parallel,
    serve: &Serving,
    trace_overhead_frac: f64,
) -> Metrics {
    let by_name = tr.self_time_by_name();
    let self_ms = |name: &str| by_name.get(name).map_or(0.0, |(t, _)| ms(*t));
    let campaign_wall: Duration = tr.durations("campaign").iter().sum();
    let solves_us: Vec<f64> = tr.durations("sat.solve").into_iter().map(us).collect();
    let under_10ms = solves_us.iter().filter(|&&t| t < 10_000.0).count();
    let n = |x: u64| x as f64;

    let mut m = Metrics::default();
    m.put("netlist.parse_ms", self_ms("netlist.parse"), "ms");
    m.put("lint.preflight_ms", self_ms("lint.preflight"), "ms");
    m.put("fault.collapse_ms", self_ms("fault.collapse"), "ms");
    m.put("fault.targets", n(c.targets), "count");

    m.put("implic.analyze_ms", self_ms("implic.analyze"), "ms");
    m.put("implic.pruned", n(c.pruned), "count");
    m.put("implic.prune_frac", frac(n(c.pruned), n(c.targets)), "frac");

    m.put("faultsim.cones_ms", self_ms("faultsim.cones"), "ms");
    m.put("faultsim.random_ms", self_ms("faultsim.random"), "ms");
    m.put("faultsim.random_batches", n(c.random_batches), "count");
    m.put("faultsim.random_retired", n(c.random_retired), "count");
    m.put(
        "faultsim.random_kept_frac",
        frac(n(c.random_kept), n(c.random_generated)),
        "frac",
    );
    m.put("faultsim.drop_ms", self_ms("faultsim.drop"), "ms");
    m.put("faultsim.drop_calls", n(c.drop_calls), "count");
    m.put("faultsim.dropped", n(c.dropped), "count");

    m.put("campaign.compact_ms", self_ms("campaign.compact"), "ms");
    m.put("campaign.compact_in", n(c.compact_in), "count");
    m.put("campaign.compact_out", n(c.compact_out), "count");
    m.put(
        "campaign.self_frac",
        frac(self_ms("campaign"), ms(campaign_wall)),
        "frac",
    );

    m.put("miter.build_ms", self_ms("miter.build"), "ms");
    m.put("miter.builds", n(c.miter_builds), "count");
    m.put(
        "miter.sub_nets_mean",
        frac(n(c.sub_nets), n(c.miter_builds)),
        "nets",
    );
    m.put("cnf.encode_ms", self_ms("cnf.encode"), "ms");
    m.put("cnf.vars", n(c.cnf_vars), "count");
    m.put("cnf.clauses", n(c.cnf_clauses), "count");

    m.put("sat.solve_ms", self_ms("sat.solve"), "ms");
    m.put("sat.solves", n(c.sat_solves), "count");
    m.put(
        "sat.unsat_frac",
        frac(n(c.sat_unsat), n(c.sat_solves)),
        "frac",
    );
    m.put("sat.decisions", n(c.sat_decisions), "count");
    m.put("sat.conflicts", n(c.sat_conflicts), "count");
    m.put("sat.propagations", n(c.sat_propagations), "count");
    m.put_pct_or_zero("sat.solve_p50_us", &solves_us, 0.50, "us");
    m.put_pct_or_zero("sat.solve_p99_us", &solves_us, 0.99, "us");
    m.put(
        "sat.under_10ms_frac",
        frac(under_10ms as f64, solves_us.len() as f64),
        "frac",
    );

    m.put("incremental.base_ms", self_ms("incremental.base"), "ms");
    m.put(
        "incremental.build_ms",
        self_ms("incremental.solve_fault"),
        "ms",
    );
    m.put("incremental.solve_ms", self_ms("incremental.solve"), "ms");
    m.put("incremental.solves", n(c.inc_solves), "count");
    m.put("incremental.decisions", n(c.inc_decisions), "count");
    m.put("incremental.conflicts", n(c.inc_conflicts), "count");

    m.put("parallel.run_ms", ms(par.run), "ms");
    m.put("parallel.solved", n(par.solved), "count");
    m.put("parallel.wasted_solves", n(par.wasted), "count");
    m.put(
        "parallel.useful_frac",
        frac(n(par.committed), n(par.solved)),
        "frac",
    );
    m.put("parallel.stolen", n(par.stolen), "count");
    m.put("parallel.skipped", n(par.skipped), "count");
    m.put(
        "parallel.busy_frac",
        frac(
            par.solve_time.as_secs_f64(),
            par.threads as f64 * par.run.as_secs_f64(),
        ),
        "frac",
    );

    m.put_pct_or_zero("serve.admit_p50_ms", &serve.admit_ms, 0.50, "ms");
    m.put_pct_or_zero("serve.start_wait_p50_ms", &serve.start_wait_ms, 0.50, "ms");
    m.put_pct_or_zero("serve.start_wait_p99_ms", &serve.start_wait_ms, 0.99, "ms");
    m.put("serve.build_ms", ms(serve.build), "ms");
    m.put("serve.service_ms", ms(serve.service), "ms");
    m.put("serve.tax_frac", serve.tax_frac, "frac");
    m.put_pct_or_zero(
        "serve.verdict_gap_p99_us",
        &serve.verdict_gaps_us,
        0.99,
        "us",
    );
    m.put("serve.steps", n(serve.steps), "count");
    m.put("serve.solves", n(serve.solves), "count");
    m.put("serve.shed", n(serve.shed), "count");

    m.put("proto.render_us", serve.render_us, "us");
    m.put("proto.parse_us", serve.parse_us, "us");
    m.put(
        "proto.bytes_per_campaign",
        serve.bytes_per_campaign,
        "bytes",
    );
    m.put("proof.cert_bytes", n(serve.cert_bytes), "bytes");
    m.put("proof.certified", n(serve.certified), "count");
    m.put_pct_or_zero(
        "proof.campaign_p50_ms",
        &serve.certified_campaign_ms,
        0.50,
        "ms",
    );
    m.put("bench.trace_overhead_frac", trace_overhead_frac, "frac");
    m
}
