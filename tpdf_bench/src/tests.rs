//! Self-tests of the benchmark itself: the generator keeps its
//! schedule, the output carries every declared name, and every
//! workload completes a short pass without a failed op.

use std::time::Duration;

use crate::json::{self, Value};
use crate::load::{arrival_schedule, Pacing, Stop, WireClient};
use crate::sut::fake::{echo_input, EchoServer};
use crate::workloads::{self, Plan, WORKLOADS};
use crate::{parse_args, result_line, worsening, END_TO_END, RUN_SECONDS};

#[test]
fn arrival_schedule_follows_its_seed() {
    let window = Duration::from_secs(2);
    let schedule = arrival_schedule(7, 400.0, window);
    assert_eq!(schedule, arrival_schedule(7, 400.0, window));
    assert_ne!(schedule, arrival_schedule(8, 400.0, window));
    // Exactly rate × window arrivals, in order, inside the window.
    assert_eq!(schedule.len(), 800);
    assert!(schedule.windows(2).all(|pair| pair[0] <= pair[1]));
    assert!(*schedule.last().expect("not empty") < window.as_nanos() as u64);
    // Exponential gaps: about 1/e of them exceed the mean gap.
    let mean_gap = window.as_nanos() as u64 / 800;
    let long = schedule
        .windows(2)
        .filter(|p| p[1] - p[0] > mean_gap)
        .count();
    assert!(
        (200..400).contains(&long),
        "{long} of 799 gaps exceed the mean"
    );
}

#[test]
fn open_loop_charges_a_stall_to_every_op_it_delays() {
    // 1 000 ops/s against a server that stalls 50 ms before its 51st
    // answer. About 50 ops fall due during the stall; timed from their
    // due time, about half of them wait 25 ms or more. A generator that
    // waited for the stalled reply before sending on (coordinated
    // omission) would show one slow op.
    let stall = Duration::from_millis(50);
    let server = EchoServer::start(50, stall);
    let inputs: Vec<_> = (1..=4).map(echo_input).collect();
    let mut client = WireClient::connect(server.addr, 1).expect("connect and Hello");
    let samples = client.run(
        &inputs,
        Pacing::Open { ops_per_s: 1000.0 },
        Stop::After(Duration::from_millis(300)),
        3,
    );
    client.close().expect("Bye");
    server.join();

    assert_eq!(samples.error, None);
    assert_eq!((samples.attempted, samples.failed), (300, 0));
    assert_eq!(samples.ops.len(), 300);
    let slow = samples
        .ops
        .iter()
        .filter(|s| s.latency_ns() >= stall.as_nanos() as u64 / 2)
        .count();
    assert!(slow >= 15, "only {slow} ops saw the stall");
    // And it kept sending on schedule while the server was silent.
    let mut lateness = samples.lateness_ns.clone();
    lateness.sort_unstable();
    assert!(
        lateness[lateness.len() / 2] < 5_000_000,
        "median lateness {} ns",
        lateness[lateness.len() / 2]
    );
}

fn names_and_units(metrics: &Value) -> Vec<(String, String)> {
    metrics
        .keys()
        .iter()
        .map(|name| {
            let unit = match metrics.get(name).and_then(|m| m.get("unit")) {
                Some(Value::String(unit)) => unit.clone(),
                other => panic!("{name} has unit {other:?}"),
            };
            (name.to_string(), unit)
        })
        .collect()
}

fn declared(list: &Value) -> Vec<(String, String)> {
    let Value::Array(entries) = list else {
        panic!("not a list: {list:?}");
    };
    entries
        .iter()
        .map(|entry| match (entry.get("name"), entry.get("unit")) {
            (Some(Value::String(name)), Some(Value::String(unit))) => (name.clone(), unit.clone()),
            other => panic!("entry without name and unit: {other:?}"),
        })
        .collect()
}

/// Every workload completes a smoke pass of both runs with no failed
/// op, its result lines parse, and they carry exactly the names and
/// units `BENCHMARK.json` declares.
#[test]
fn smoke_pass_matches_benchmark_json() {
    let contract = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
    assert_eq!(
        contract.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        contract.get("run_seconds").and_then(Value::as_f64),
        Some(RUN_SECONDS)
    );
    let Some(Value::Array(listed)) = contract.get("workloads") else {
        panic!("workloads is not a list");
    };
    for (listed, workload) in listed.iter().zip(&WORKLOADS) {
        assert_eq!(
            listed.get("name"),
            Some(&Value::String(workload.name.into()))
        );
        assert_eq!(listed.get("why"), Some(&Value::String(workload.why.into())));
    }
    assert_eq!(listed.len(), WORKLOADS.len());
    let Some(Value::Array(gated)) = contract.get("end_to_end") else {
        panic!("end_to_end is not a list");
    };
    for (gated, metric) in gated.iter().zip(&END_TO_END) {
        let better = if metric.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(gated.get("name"), Some(&Value::String(metric.name.into())));
        assert_eq!(gated.get("unit"), Some(&Value::String(metric.unit.into())));
        assert_eq!(gated.get("better"), Some(&Value::String(better.into())));
        assert_eq!(
            gated.get("bound").and_then(Value::as_f64),
            Some(metric.bound)
        );
    }
    assert_eq!(gated.len(), END_TO_END.len());

    let trace_dir = std::env::current_exe()
        .expect("test binary path")
        .with_file_name("smoke_traces");
    for workload in &WORKLOADS {
        let timed = workloads::run_window(workload, 5, 0, &Plan::smoke());
        assert_eq!(timed.error, None, "{}", workload.name);
        assert_eq!(timed.failed, 0, "{}", workload.name);
        assert!(timed.attempted > 0, "{}", workload.name);
        let line = json::parse(&result_line(&timed)).expect("result line parses");
        assert_eq!(line.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(
            names_and_units(line.get("metrics").expect("metrics")),
            declared(contract.get("end_to_end").expect("end_to_end")),
            "{}",
            workload.name
        );
        for metric in &timed.metrics {
            assert!(metric.value > 0.0, "{} of {}", metric.name, workload.name);
        }

        let path = trace_dir.join(format!("trace-{}.json", workload.name));
        let traced = workloads::run_traced(workload, 5, &Plan::smoke(), &path);
        assert_eq!(traced.error, None, "{}", workload.name);
        assert_eq!(traced.failed, 0, "{}", workload.name);
        let line = json::parse(&result_line(&traced)).expect("result line parses");
        assert_eq!(
            names_and_units(line.get("metrics").expect("metrics")),
            declared(contract.get("per_layer").expect("per_layer")),
            "{}",
            workload.name
        );
        let Value::Array(events) =
            json::parse(&std::fs::read_to_string(&path).expect("trace file")).expect("trace JSON")
        else {
            panic!("trace is not an array");
        };
        assert!(!events.is_empty(), "{}", workload.name);
    }
}

#[test]
fn arguments_follow_the_contract() {
    let words = "--workload edge-wire-bulk --seed 9 --seconds 3 --trace 1";
    let args = parse_args(words.split(' ').map(String::from)).expect("parses");
    assert_eq!(args.workload.as_deref(), Some("edge-wire-bulk"));
    assert_eq!((args.seed, args.seconds, args.trace), (9, 3.0, true));
    assert!(parse_args(["--trace".to_string(), "2".to_string()].into_iter()).is_err());
    assert!(parse_args(["--seconds".to_string(), "0".to_string()].into_iter()).is_err());
    assert!(parse_args(["--bogus".to_string()].into_iter()).is_err());
}

#[test]
fn worsening_follows_the_metric_direction() {
    let [setup, throughput, _] = &END_TO_END;
    assert!(!setup.higher_is_better && throughput.higher_is_better);
    assert!((worsening(setup, 1.0, 1.2) - 0.2).abs() < 1e-12);
    assert!((worsening(throughput, 100.0, 80.0) - 0.2).abs() < 1e-12);
    assert!(worsening(throughput, 100.0, 120.0) < 0.0);
}
