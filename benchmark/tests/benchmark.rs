//! The benchmark's contract: its output format, its metric names
//! against `BENCHMARK.json`, its trace file, and every workload end to
//! end at test size, traced and untraced.

use spsep_benchmark::report::{END_TO_END, PER_LAYER};
use spsep_benchmark::trace::{chrome_json, SpanRecord};
use spsep_benchmark::workloads::Workload;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A JSON value, read by the small parser below (the benchmark has no
/// JSON dependency).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m
                .get(key)
                .unwrap_or_else(|| panic!("no key {key:?} in {self:?}")),
            _ => panic!("{self:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("{self:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(x) => *x,
            _ => panic!("{self:?} is not a number"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("{self:?} is not an array"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            _ => panic!("{self:?} is not an object"),
        }
    }
}

fn parse_json(text: &str) -> Json {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.b.len(), "trailing bytes after JSON value");
    v
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.b.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    assert!(
                        m.insert(k.clone(), self.value()).is_none(),
                        "duplicate key {k}"
                    );
                    self.ws();
                    self.i += 1;
                    match self.b[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.b[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(v),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut s = String::new();
                loop {
                    let c = self.b[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(s),
                        b'\\' => {
                            let e = self.b[self.i];
                            self.i += 1;
                            s.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                b'"' | b'\\' | b'/' => e as char,
                                _ => panic!("unsupported escape \\{}", e as char),
                            });
                        }
                        c => s.push(c as char),
                    }
                }
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self
                    .b
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                let tok = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                Json::Num(tok.parse().unwrap_or_else(|_| panic!("bad number {tok:?}")))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.b[self.i..].starts_with(w.as_bytes()), "expected {w}");
        self.i += w.len();
        v
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

/// `(name, unit)` of a metric list of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || b"_.-".contains(&c))
}

#[test]
fn the_catalogue_is_what_benchmark_json_declares() {
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(&END_TO_END));
    assert_eq!(declared("per_layer"), own(&PER_LAYER));
    let json = benchmark_json();
    let workloads: Vec<&str> = json
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(name_ok(name), "{name}");
    }
}

#[test]
fn the_trace_file_is_chrome_trace_event_json() {
    let span = |id, parent, name, start_ns, end_ns| SpanRecord {
        id,
        parent,
        name,
        req: 7,
        tid: 2,
        start_ns,
        end_ns,
    };
    let spans = vec![
        span(2, 1, "core.distance", 1_500, 9_250),
        span(1, 0, "bench.op", 1_000, 10_000),
    ];
    let json = parse_json(&chrome_json(&spans));
    let events = json.get("traceEvents").arr();
    assert_eq!(events.len(), 2);
    let first = &events[0];
    assert_eq!(first.get("name").str(), "core.distance");
    assert_eq!(first.get("cat").str(), "core");
    assert_eq!(first.get("ph").str(), "X");
    assert_eq!(first.get("ts").num(), 1.5);
    assert_eq!(first.get("dur").num(), 7.75);
    assert_eq!(first.get("args").get("parent").num(), 1.0);
    assert_eq!(first.get("args").get("req").num(), 7.0);
    assert_eq!(
        parse_json(&chrome_json(&[])).get("traceEvents").arr().len(),
        0
    );
}

fn exe() -> &'static str {
    env!("CARGO_BIN_EXE_spsep-benchmark")
}

fn trace_dir(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// Metric lines (`workload metric value unit`) of a run's output.
fn metric_lines(stdout: &str) -> Vec<(String, String, f64, String)> {
    stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            assert_eq!(f.len(), 4, "metric line {l:?}");
            let value = f[2].parse().unwrap_or_else(|_| panic!("value in {l:?}"));
            (f[0].to_string(), f[1].to_string(), value, f[3].to_string())
        })
        .collect()
}

#[test]
fn every_workload_runs_and_reports_its_catalogue() {
    let dir = trace_dir("direct");
    for w in Workload::ALL {
        for (trace, catalogue) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let out = Command::new(exe())
                .args(["--workload", w.name(), "--seed", "3", "--seconds", "1"])
                .args(["--trace", trace, "--tiny", "--trace-dir"])
                .arg(&dir)
                .output()
                .unwrap();
            let stdout = String::from_utf8(out.stdout).unwrap();
            assert!(
                out.status.success(),
                "{} trace {trace}: {}\n{stdout}\n{}",
                w.name(),
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            let result = parse_json(stdout.lines().last().unwrap());
            assert_eq!(result.keys(), ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(result.get("correct"), &Json::Bool(true));
            assert_eq!(result.get("failed").num(), 0.0);
            assert!(result.get("attempted").num() >= 1.0);
            let metrics = result.get("metrics");
            let mut names = metrics.keys();
            let mut want: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
            names.sort_unstable();
            want.sort_unstable();
            assert_eq!(names, want, "{} trace {trace}", w.name());
            let lines = metric_lines(&stdout);
            assert_eq!(lines.len(), catalogue.len());
            for ((workload, name, value, unit), (n, u)) in lines.iter().zip(catalogue) {
                assert_eq!(
                    (workload.as_str(), name.as_str(), unit.as_str()),
                    (w.name(), *n, *u)
                );
                assert_eq!(metrics.get(name).get("value").num(), *value);
                assert_eq!(metrics.get(name).get("unit").str(), *u);
            }
            if trace == "1" {
                assert!(stdout.contains("layers cover"), "{stdout}");
                let file = dir.join(format!("{}.trace.json", w.name()));
                let trace = parse_json(&std::fs::read_to_string(&file).unwrap());
                let names: Vec<&str> = trace
                    .get("traceEvents")
                    .arr()
                    .iter()
                    .map(|e| e.get("name").str())
                    .collect();
                for span in [
                    "bench.setup",
                    "core.prepare",
                    "core.load_path",
                    "serve.request",
                    "telemetry.scrape",
                ] {
                    assert!(names.contains(&span), "{} lacks {span}", w.name());
                }
            }
        }
    }
}

#[test]
fn run_covers_every_workload_in_child_processes() {
    let dir = trace_dir("run");
    let out = Command::new(exe())
        .args(["run", "--seed", "5", "--seconds", "1", "--tiny", "--trace"])
        .arg(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let declared: Vec<String> = declared("end_to_end")
        .into_iter()
        .chain(declared("per_layer"))
        .map(|(n, _)| n)
        .collect();
    let lines = metric_lines(&stdout);
    for w in Workload::ALL {
        let count = lines.iter().filter(|l| l.0 == w.name()).count();
        assert_eq!(count, END_TO_END.len() + PER_LAYER.len(), "{}", w.name());
        assert!(dir.join(format!("{}.trace.json", w.name())).is_file());
    }
    for (_, name, _, _) in &lines {
        assert!(name_ok(name) && declared.contains(name), "{name}");
    }
    assert!(stdout.contains("trace_overhead_pct"));
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "road-prepare", "--trace", "2"],
        &["--workload", "road-prepare", "--seconds", "-1"],
    ] {
        let out = Command::new(exe()).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
