//! Paced load on an in-process daemon, from a few client threads with
//! one connection each.
//!
//! An open-loop phase sends on a fixed schedule whatever the answers
//! do; a request's latency runs from when it was *due*, so a stall also
//! charges the requests it delays, and how late the generator ran is
//! recorded. A closed-loop phase sends each client's next request when
//! the previous one is answered; its throughput is the capacity.
//! Answers are kept (tables as digests) and checked only after the last
//! phase, so checking never delays a send.

use crate::gen::{Query, ServeStream, UniformPairs};
use crate::sut::{Answer, CacheCounts, Conn, Daemon, DaemonCounts, Graph, Queries, Res};
use crate::trace;
use crate::verify::{self, Check, Expect};
use std::time::{Duration, Instant};

/// How a phase sends.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// A fixed total rate, split evenly over the clients.
    Open {
        /// Requests per second over all clients.
        qps: f64,
    },
    /// Back to back per client.
    Closed,
}

/// What a phase sends.
#[derive(Clone, Copy, Debug)]
pub enum Traffic {
    /// The client's zipf point/source/batch mix.
    Mix,
    /// Uniform point queries.
    Points,
}

/// One measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Phase {
    /// Open or closed loop.
    pub pace: Pace,
    /// Length.
    pub seconds: f64,
    /// What it sends.
    pub traffic: Traffic,
}

/// The request streams of one client.
pub struct Streams {
    /// The zipf mix, if the session sends one.
    pub mix: Option<ServeStream>,
    /// Uniform point queries.
    pub points: UniformPairs,
}

impl Streams {
    fn next_query(&mut self, traffic: Traffic) -> Query {
        match (traffic, &mut self.mix) {
            (Traffic::Mix, Some(mix)) => mix.next_query(),
            _ => {
                let (s, t) = self.points.next_pair();
                Query::Point(s, t)
            }
        }
    }
}

/// An answer as kept for checking.
enum Got {
    Dist(f64),
    Table(u64),
    Batch(Vec<f64>),
    Failed,
}

struct Sent {
    query: Query,
    got: Got,
    /// `None` for warm-up requests.
    phase: Option<usize>,
    latency_ms: f64,
    late_ms: f64,
    done: Instant,
}

/// Latencies of one phase, in order of the requests' start times.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Milliseconds from due (open loop) or from send (closed loop).
    pub latency_ms: Vec<f64>,
    /// Milliseconds the generator sent after the due time (open loop).
    pub late_ms: Vec<f64>,
    /// Row-cache counter deltas between the phase's nominal start and
    /// end (a request in flight at a boundary may land in either).
    pub cache: CacheCounts,
}

/// What a session measured.
pub struct Session {
    /// Per measured phase.
    pub phases: Vec<PhaseStats>,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Requests that failed or answered wrong, plus any disagreement
    /// between the daemon's `served` counter and the answers received.
    pub failed: u64,
    /// Mean daemon service time, from the telemetry histogram.
    pub service_mean_us: f64,
    /// The daemon's own shed and error counts.
    pub daemon: DaemonCounts,
}

/// How long before a due time the pacer stops sleeping and spins: a
/// sleep wakes up to a few hundred microseconds late, which would
/// otherwise be charged to the daemon as latency.
const SPIN: Duration = Duration::from_micros(500);

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now + SPIN {
        std::thread::sleep(t - now - SPIN);
    }
    while Instant::now() < t {
        std::thread::yield_now();
    }
}

/// Send `q` on `conn`, reconnecting first if an earlier request broke
/// the connection. Returns the answer and when it arrived.
fn send(daemon: &Daemon, conn: &mut Option<Conn>, q: &Query, req: u64) -> (Got, Instant) {
    let _r = trace::request("bench.request", req);
    if conn.is_none() {
        *conn = daemon.connect().ok();
    }
    let answer = match conn.as_mut() {
        Some(c) => c.send(q),
        None => Err("no connection".into()),
    };
    let done = Instant::now();
    let got = match answer {
        Ok(Answer::Dist(d)) => Got::Dist(d),
        Ok(Answer::Table(row)) => Got::Table(verify::digest(&row)),
        Ok(Answer::Batch(ds)) => Got::Batch(ds),
        Err(_) => {
            *conn = None;
            Got::Failed
        }
    };
    (got, done)
}

/// One client: `warmup` closed-loop requests, then the phases from `t0`.
fn client(
    daemon: &Daemon,
    c: usize,
    clients: usize,
    stream: &mut Streams,
    phases: &[Phase],
    t0: Instant,
) -> Vec<Sent> {
    let mut conn = daemon.connect().ok();
    let mut out = Vec::new();
    let req = |j: usize| ((c as u64) << 40) | j as u64;
    let mut start = t0;
    for (k, phase) in phases.iter().enumerate() {
        let end = start + Duration::from_secs_f64(phase.seconds);
        match phase.pace {
            Pace::Open { qps } => {
                for j in 0.. {
                    let at = (c + clients * j) as f64 / qps;
                    let due = start + Duration::from_secs_f64(at);
                    if due >= end {
                        break;
                    }
                    sleep_until(due);
                    let sent = Instant::now();
                    let query = stream.next_query(phase.traffic);
                    let (got, done) = send(daemon, &mut conn, &query, req(out.len()));
                    out.push(Sent {
                        query,
                        got,
                        phase: Some(k),
                        latency_ms: (done - due).as_secs_f64() * 1e3,
                        late_ms: (sent - due).as_secs_f64() * 1e3,
                        done,
                    });
                }
            }
            Pace::Closed => {
                sleep_until(start);
                while Instant::now() < end {
                    let sent = Instant::now();
                    let query = stream.next_query(phase.traffic);
                    let (got, done) = send(daemon, &mut conn, &query, req(out.len()));
                    out.push(Sent {
                        query,
                        got,
                        phase: Some(k),
                        latency_ms: (done - sent).as_secs_f64() * 1e3,
                        late_ms: 0.0,
                        done,
                    });
                }
            }
        }
        start = end;
    }
    out
}

fn warm(daemon: &Daemon, c: usize, stream: &mut Streams, count: usize) -> Vec<Sent> {
    let mut conn = daemon.connect().ok();
    (0..count)
        .map(|j| {
            let query = stream.next_query(Traffic::Mix);
            let (got, done) = send(
                daemon,
                &mut conn,
                &query,
                (1 << 60) | ((c as u64) << 40) | j as u64,
            );
            Sent {
                query,
                got,
                phase: None,
                latency_ms: 0.0,
                late_ms: 0.0,
                done,
            }
        })
        .collect()
}

/// Run every client's closure on its own thread, and `meanwhile` on
/// this one; the clients' results in client order.
fn on_clients<F>(streams: &mut [Streams], f: F, meanwhile: impl FnOnce()) -> Res<Vec<Sent>>
where
    F: Fn(usize, &mut Streams) -> Vec<Sent> + Sync,
{
    let ctx = trace::context();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .enumerate()
            .map(|(c, s)| {
                let f = &f;
                scope.spawn(move || trace::adopt(ctx, || f(c, s)))
            })
            .collect();
        meanwhile();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().map_err(|_| "client thread panicked".to_string())?);
        }
        Ok(all)
    })
}

/// Serve `q` from a daemon with `workers` threads to one client per
/// entry of `streams`: `warmup` requests of the mix per client, then
/// the phases. Scrapes the
/// telemetry before and after, stops the daemon, then checks every
/// answer against `q` and Dijkstra on `g`.
///
/// # Errors
///
/// The daemon cannot start, scrape or stop.
pub fn session(
    q: &Queries,
    g: &Graph,
    workers: usize,
    warmup: usize,
    phases: &[Phase],
    mut streams: Vec<Streams>,
) -> Res<Session> {
    let daemon = Daemon::start(q.oracle().clone(), workers)?;
    let before = daemon.scrape()?;
    let mut all = on_clients(&mut streams, |c, s| warm(&daemon, c, s, warmup), || ())?;
    let clients = streams.len();
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut cache_marks = Vec::with_capacity(phases.len() + 1);
    let measured = {
        let _w = trace::span("bench.window");
        let mark_phases = || {
            let mut at = t0;
            for p in phases {
                sleep_until(at);
                cache_marks.push(q.cache());
                at += Duration::from_secs_f64(p.seconds);
            }
            sleep_until(at);
            cache_marks.push(q.cache());
        };
        on_clients(
            &mut streams,
            |c, s| client(&daemon, c, clients, s, phases, t0),
            mark_phases,
        )?
    };
    let after = daemon.scrape()?;
    let counts = daemon.stop()?;

    let mut by_start: Vec<&Sent> = measured.iter().collect();
    by_start.sort_by_key(|s| s.done - Duration::from_secs_f64(s.latency_ms / 1e3));
    let mut phase_stats: Vec<PhaseStats> = cache_marks
        .windows(2)
        .map(|w| PhaseStats {
            cache: w[1].since(w[0]),
            ..PhaseStats::default()
        })
        .collect();
    for s in by_start {
        let Some(k) = s.phase else { continue };
        phase_stats[k].latency_ms.push(s.latency_ms);
        if matches!(phases[k].pace, Pace::Open { .. }) {
            phase_stats[k].late_ms.push(s.late_ms);
        }
    }

    all.extend(measured);
    let mut checks = Vec::new();
    let mut failed = vec![false; all.len()];
    for (op, s) in all.iter().enumerate() {
        let value = |source: usize, target: usize, got: f64| Check {
            op,
            source,
            expect: Expect::Value { target, got },
        };
        match (&s.query, &s.got) {
            (Query::Point(src, t), Got::Dist(d)) => checks.push(value(*src, *t, *d)),
            (Query::Source(src), Got::Table(digest)) => checks.push(Check {
                op,
                source: *src,
                expect: Expect::Table(*digest),
            }),
            (Query::Batch(pairs), Got::Batch(ds)) if ds.len() == pairs.len() => {
                checks.extend(pairs.iter().zip(ds).map(|(&(src, t), &d)| value(src, t, d)));
            }
            _ => failed[op] = true,
        }
    }
    let wrong = verify::check(g, Some(q), checks, all.len());
    let ok = all.iter().filter(|s| !matches!(s.got, Got::Failed)).count() as f64;
    // The first scrape is itself answered and counted after it renders.
    let served_gap = ((after.served - before.served) - (ok + 1.0)).abs();
    let service_count = after.service_count - before.service_count;
    Ok(Session {
        phases: phase_stats,
        attempted: all.len() as u64,
        failed: failed
            .iter()
            .zip(&wrong)
            .filter(|(a, b)| **a || **b)
            .count() as u64
            + served_gap as u64,
        service_mean_us: (after.service_ns_sum - before.service_ns_sum)
            / service_count.max(1.0)
            / 1e3,
        daemon: counts,
    })
}
