//! Front-door serving benchmark. See `README.md` beside this crate.
//!
//! `fi-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--quick]` runs one workload and prints every metric by name with its
//! unit; the last line of standard output is the result as one JSON object.
//! `fi-benchmark --selfcheck` runs every workload twice and compares.

mod driver;
mod host;
mod json;
mod layers;
mod metrics;
mod run;
mod speed;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use host::Provenance;
use metrics::{END_TO_END, PER_LAYER};
use run::{Outcome, RunArgs};
use stats::quartiles;
use workload::{Spec, WORKLOADS};

struct Cli {
    workload: Option<String>,
    run: RunArgs,
    selfcheck: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: fi-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick]\n       \
         fi-benchmark --selfcheck [--seconds S]",
        WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        workload: None,
        run: RunArgs {
            seed: 2026,
            seconds: 20.0,
            trace: false,
            quick: false,
        },
        selfcheck: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => cli.workload = Some(value()),
            "--seed" => cli.run.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                cli.run.seconds = value().parse().unwrap_or_else(|_| usage());
                if !(cli.run.seconds > 0.0 && cli.run.seconds <= 600.0) {
                    usage();
                }
            }
            "--trace" => cli.run.trace = value() != "0",
            "--quick" => cli.run.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            // What `speed::HostSpeed::sample` runs in a child process.
            "--host-probe" => {
                println!("{}", speed::probe_ms());
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    cli
}

/// The result line the caller parses: exactly these four keys.
fn result_line(out: &Outcome, table: &[(&'static str, &'static str)]) -> String {
    let body: Vec<String> = out
        .values
        .in_order(table)
        .map(|(name, unit, m)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

/// The result with where it came from: provenance, the shape of the run,
/// and per metric the repeated values with their quartiles.
fn envelope(
    spec: &Spec,
    args: &RunArgs,
    prov: &Provenance,
    out: &Outcome,
    table: &[(&'static str, &'static str)],
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"schema\": \"fi-benchmark/v1\", \"workload\": \"{}\", \"why\": \"{}\", \"traced\": {}, \
         \"seed\": {}, \"seconds\": {}, \"quick\": {}, \"clients\": {}, \"requests_per_rep\": {}, \
         \"reps\": {}, \"requests_sent\": {}, \"requests_ok\": {}, \"requests_failed\": {},\n\
         \"host_speed_factor\": {}, \"host_probes_ms\": {:?},\n\"provenance\": {},\n\"metrics\": {{\n",
        spec.name,
        spec.why,
        args.trace,
        args.seed,
        args.seconds,
        args.quick,
        spec.clients,
        spec.requests,
        out.reps,
        out.attempted,
        out.attempted.saturating_sub(out.failed),
        out.failed,
        out.speed.factor(),
        out.speed.probes_ms,
        prov.to_json(),
    );
    let rows: Vec<String> = out
        .values
        .in_order(table)
        .map(|(name, unit, m)| {
            let mut row = format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"", m.value);
            if !m.per_rep.is_empty() {
                let _ = write!(
                    row,
                    ", \"per_rep\": {:?}, \"quartiles\": {:?}",
                    m.per_rep,
                    quartiles(&m.per_rep)
                );
            }
            row.push('}');
            row
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n}");
    if !out.attribution.is_empty() {
        let shares: Vec<String> = out
            .attribution
            .iter()
            .map(|(layer, share)| format!("\"{layer}\": {share}"))
            .collect();
        let _ = write!(s, ",\n\"cpu_share_by_layer\": {{{}}}", shares.join(", "));
    }
    if let Some(t) = &out.tracer {
        let spans: Vec<String> = t
            .self_times()
            .iter()
            .map(|(name, n, total, own)| {
                format!("\"{name}\": {{\"count\": {n}, \"total_us\": {total}, \"self_us\": {own}}}")
            })
            .collect();
        let _ = write!(s, ",\n\"spans\": {{{}}}", spans.join(", "));
    }
    s.push_str("\n}\n");
    s
}

/// Every metric by name with its unit, for a person.
fn print_table(spec: &Spec, out: &Outcome, table: &[(&'static str, &'static str)]) {
    eprintln!(
        "{}: C {} N {}/rep R {}  requests sent {} ok {} failed {}",
        spec.name,
        spec.clients,
        spec.requests,
        out.reps,
        out.attempted,
        out.attempted.saturating_sub(out.failed),
        out.failed
    );
    eprintln!(
        "  host speed factor {:.4} (median of {} probes over the {} ms reference; times are divided by it, rates multiplied)",
        out.speed.factor(),
        out.speed.probes_ms.len(),
        speed::REFERENCE_PROBE_MS
    );
    for (name, unit, m) in out.values.in_order(table) {
        if m.per_rep.len() > 1 {
            let [q1, _, q3] = quartiles(&m.per_rep);
            eprintln!(
                "  {name:32} {:>14.4} {unit:8} (quartiles {q1:.4} .. {q3:.4} over {})",
                m.value,
                m.per_rep.len()
            );
        } else {
            eprintln!("  {name:32} {:>14.4} {unit}", m.value);
        }
    }
    for (layer, share) in &out.attribution {
        eprintln!("  cpu share {layer:22} {:>14.4}", share);
    }
    if let Some(t) = &out.tracer {
        for (name, n, total, own) in t.self_times() {
            eprintln!("  span {name:27} n {n:>7} total {total:>14.1} us self {own:>14.1} us");
        }
    }
}

/// `benchmark/out/`, beside the crate: envelopes and span files.
fn write_out(name: &str, content: &str) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, content)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn run_one(spec: Spec, args: &RunArgs) -> ExitCode {
    let prov = Provenance::collect();
    if prov.loadavg_start > 0.5 {
        eprintln!(
            "warning: 1-min load average {} at start; timings will be noisy",
            prov.loadavg_start
        );
    }
    let spec = if args.quick { spec.quick() } else { spec };
    let out = run::run(&spec, args);
    let (table, kind): (&[_], _) = if args.trace {
        (&PER_LAYER, "trace")
    } else {
        (&END_TO_END, "e2e")
    };
    print_table(&spec, &out, table);
    write_out(
        &format!("{}.{kind}.result.json", spec.name),
        &envelope(&spec, args, &prov, &out, table),
    );
    if let Some(t) = &out.tracer {
        write_out(&format!("{}.trace.json", spec.name), &t.to_json());
    }
    println!("{}", result_line(&out, table));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json` at the root of the repository (the current directory,
/// or the crate's parent).
fn declared() -> json::Value {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .or_else(|_| {
            std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
        })
        .expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// The bound of each end-to-end metric.
fn bounds() -> Vec<(String, f64)> {
    let doc = declared();
    doc.get("end_to_end")
        .expect("end_to_end")
        .as_arr()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(json::Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("bound").and_then(json::Value::as_f64).expect("bound"),
            )
        })
        .collect()
}

/// Run this binary on one workload and parse its result line.
fn child_metrics(workload: &str, seconds: f64) -> Option<json::Value> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seconds", &seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    json::parse(stdout.lines().last()?).ok()
}

/// A/A: every workload twice, the second pass in the opposite order, each
/// run a process of its own (peak memory is per process). Fails if any
/// end-to-end metric of the two passes differs by more than its bound.
fn selfcheck(seconds: f64) -> ExitCode {
    let bounds = bounds();
    let names = WORKLOADS.map(|w| w.name);
    let mut passes: [Vec<(&str, json::Value)>; 2] = Default::default();
    for (pass, results) in passes.iter_mut().enumerate() {
        let mut order = names.to_vec();
        if pass == 1 {
            order.reverse();
        }
        for w in order {
            eprintln!("selfcheck pass {} {w}", ["A", "B"][pass]);
            let Some(v) = child_metrics(w, seconds) else {
                eprintln!("selfcheck: {w} failed");
                return ExitCode::FAILURE;
            };
            results.push((w, v));
        }
    }
    let mut ok = true;
    for (w, a) in &passes[0] {
        let b = &passes[1]
            .iter()
            .find(|(n, _)| n == w)
            .expect("same workloads")
            .1;
        for (metric, bound) in &bounds {
            let value = |v: &json::Value| {
                v.get("metrics")
                    .and_then(|m| m.get(metric))
                    .and_then(|m| m.get("value"))
                    .and_then(json::Value::as_f64)
                    .expect("metric in result")
            };
            let (x, y) = (value(a), value(b));
            let diff = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let verdict = if diff <= *bound { "ok" } else { "DIFFERS" };
            ok &= diff <= *bound;
            eprintln!(
                "  {w:15} {metric:15} A {x:12.4} B {y:12.4} diff {:6.2}% bound {:4.0}% {verdict}",
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = parse_cli();
    if cli.selfcheck {
        return selfcheck(cli.run.seconds);
    }
    match cli.workload.as_deref().and_then(workload::find) {
        Some(spec) => run_one(spec, &cli.run),
        None => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &json::Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .unwrap_or_else(|| panic!("{key} in BENCHMARK.json"))
            .as_arr()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(json::Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    /// `--quick` smoke run of every workload in both modes: every name in
    /// `BENCHMARK.json` is emitted once, with its unit and a finite value.
    #[test]
    fn quick_run_emits_every_declared_metric() {
        let doc = declared();
        let declared: Vec<String> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(json::Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(declared, WORKLOADS.map(|w| w.name.to_string()));
        for spec in WORKLOADS {
            for (trace, key, table) in [
                (false, "end_to_end", &END_TO_END[..]),
                (true, "per_layer", &PER_LAYER[..]),
            ] {
                let args = RunArgs {
                    seed: 7,
                    seconds: 1.0,
                    trace,
                    quick: true,
                };
                let out = run::run(&spec.quick(), &args);
                assert_eq!(out.failed, 0, "{} failed requests", spec.name);
                assert!(out.attempted >= 1);
                let line = json::parse(&result_line(&out, table)).unwrap();
                let emitted: Vec<(String, String)> = line
                    .get("metrics")
                    .unwrap()
                    .fields()
                    .iter()
                    .map(|(name, m)| {
                        let value = m.get("value").and_then(json::Value::as_f64).unwrap();
                        assert!(value.is_finite(), "{} {name} = {value}", spec.name);
                        let unit = m.get("unit").and_then(json::Value::as_str).unwrap();
                        (name.clone(), unit.to_string())
                    })
                    .collect();
                assert_eq!(emitted, names(&doc, key), "{} {key}", spec.name);
                if trace {
                    let prefix_only = ["sched.cascade_groups", "cluster.affinity_hit_frac"];
                    for name in prefix_only {
                        let v = out.values.get(name).unwrap().value;
                        assert_eq!(
                            v > 0.0,
                            spec.shared_prefix > 0,
                            "{} {name} = {v}",
                            spec.name
                        );
                    }
                }
            }
        }
    }
}
