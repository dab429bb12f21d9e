//! Closed-loop clients for the serve workloads, the checks on their
//! answers, and the attribution of each request's latency to the spans
//! the server's flight recorder already emits.

use crate::stats::Summary;
use db_serve::net::roundtrip_line;
use db_serve::{
    EngineKind, Request, Response, ServeConfig, ServeHandle, Server, Status, TcpServer, Workload,
};
use db_span::{FlightConfig, FlightDump, SpanKind, SpanRecord, TraceCtx};
use db_trace::json::Value;
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Instant;

/// Engine hints by request sequence number. A fixed rotation (rather
/// than a seeded draw) keeps the engine mix identical across seeds, so
/// a median never straddles two engines' modes by chance.
pub const ENGINES: [EngineKind; 5] = [
    EngineKind::Native,
    EngineKind::LockFree,
    EngineKind::Native,
    EngineKind::Partitioned,
    EngineKind::Serial,
];

/// Flight-recorder ring size for traced phases: large enough that no
/// span of a run is evicted (checked after the run).
const TRACED_RING: usize = 1 << 20;

/// What a correct answer to an operation looks like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// `dfs` on a frozen graph: the exact visited count.
    Visited(u64),
    /// `reach` on a frozen graph: the exact answer.
    Reachable(bool),
    /// Same answer every time template `.0` is sent.
    Repeat(usize),
    /// Read of a mutating `delta:` corpus: `ok`, and a visited count of
    /// at most `.0` (the exact answer depends on write interleaving).
    DeltaRead(u64),
    /// Edge mutation: `ok`, applied all `edges`. `tag` names the batch
    /// in the workload's write pool.
    Write { edges: u64, tag: u32 },
    /// `epoch` of a `delta:` corpus after the drain.
    Epoch(u64),
}

/// One request to send and how to judge its answer.
#[derive(Debug, Clone)]
pub struct Op {
    pub req: Request,
    pub expect: Expect,
}

/// One completed operation, kept small: a run holds tens of thousands,
/// and bulkier records would add to `rss_peak_mb` in proportion to
/// throughput.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The server's trace id for the request (derived, as the server
    /// does, from request id and tenant: a 64-bit id does not survive
    /// the JSON codec exactly).
    pub trace_id: u64,
    /// Send to reply, as the client saw it.
    pub client_us: f64,
    /// Admission to reply, as the server measured it.
    pub server_us: u64,
    pub status: Status,
    pub write: bool,
}

/// A seeded, endless source of operations.
pub trait Generator: Send {
    fn next(&mut self, id: u64) -> Op;
}

/// A client connection: the in-process handle or an NDJSON socket.
pub enum Conn {
    Local(ServeHandle),
    Tcp {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    },
}

impl Conn {
    fn call(&mut self, req: &Request) -> Result<Response, String> {
        match self {
            Conn::Local(h) => Ok(h.run(req.clone())),
            Conn::Tcp { reader, writer } => {
                let line = req.to_value().to_json();
                let reply = roundtrip_line(reader, writer, &line).map_err(|e| e.to_string())?;
                let doc = Value::parse(&reply).map_err(|e| format!("reply JSON: {e}"))?;
                Response::from_value(&doc)
            }
        }
    }
}

/// A running server plus its clients' connections.
pub struct Env {
    pub handle: ServeHandle,
    server: Server,
    tcp: Option<TcpServer>,
    pub conns: Vec<Conn>,
}

/// A 64-bit xorshift* step: the benchmark's only source of randomness.
pub fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    state.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// A non-zero generator state derived from the seed and a stream tag.
pub fn rng(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) | 1
}

impl Env {
    /// Starts a server (`traced` widens the flight recorder so a whole
    /// run's spans fit) and opens `clients` connections, over loopback
    /// TCP when `tcp` is set.
    pub fn start(
        mut cfg: ServeConfig,
        clients: usize,
        tcp: bool,
        traced: bool,
    ) -> Result<Env, String> {
        if traced {
            cfg.flight = FlightConfig {
                per_worker_capacity: TRACED_RING,
                ..FlightConfig::default()
            };
        }
        let server = Server::try_start(cfg)?;
        let handle = server.handle();
        let (tcp, conns) = if tcp {
            let t = TcpServer::bind(handle.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
            let conns = (0..clients)
                .map(|_| {
                    let s = TcpStream::connect(t.addr()).map_err(|e| e.to_string())?;
                    let writer = s.try_clone().map_err(|e| e.to_string())?;
                    Ok(Conn::Tcp {
                        reader: BufReader::new(s),
                        writer,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            (Some(t), conns)
        } else {
            (
                None,
                (0..clients).map(|_| Conn::Local(handle.clone())).collect(),
            )
        };
        Ok(Env {
            handle,
            server,
            tcp,
            conns,
        })
    }

    /// Sends one request per key through the first connection so every
    /// corpus is resident before timing starts.
    pub fn warm(&mut self, reqs: &[Request]) -> Result<(), String> {
        for r in reqs {
            let resp = self.conns[0].call(r)?;
            if resp.status != Status::Ok {
                return Err(format!("warm-up on {} answered {:?}", r.graph, resp.error));
            }
        }
        Ok(())
    }

    /// Closes the connections, stops the listener and drains the pool.
    pub fn stop(self) {
        drop(self.conns);
        if let Some(mut t) = self.tcp {
            t.stop();
        }
        self.server.shutdown();
    }
}

/// Responses a phase keeps whole, for the codec probe.
const KEEP_RESPONSES: usize = 256;

/// A phase: what came back, how long it took, and what was wrong.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Tags of acknowledged writes (for the delta end-state fence).
    pub writes: Vec<u32>,
    /// Edges those writes carried.
    pub written_edges: u64,
    /// The first few responses, whole.
    pub responses: Vec<Response>,
    /// Answers that did not match their expectation.
    pub errors: Vec<String>,
    pub wall_s: f64,
}

impl Phase {
    fn record(&mut self, op: Op, resp: Response, client_us: f64, repeats: &Repeats) {
        if let Err(e) = judge(&op, &resp, repeats) {
            self.errors.push(e);
        }
        self.samples.push(Sample {
            trace_id: TraceCtx::derive(op.req.id, &op.req.tenant).trace_id(),
            client_us,
            server_us: resp.latency_us,
            status: resp.status,
            write: op.req.workload.is_write(),
        });
        if let (Expect::Write { edges, tag }, Status::Ok) = (op.expect, resp.status) {
            self.writes.push(tag);
            self.written_edges += edges;
        }
        if self.responses.len() < KEEP_RESPONSES {
            self.responses.push(resp);
        }
    }

    fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.writes.extend(other.writes);
        self.written_edges += other.written_edges;
        self.responses.extend(other.responses);
        self.errors.extend(other.errors);
    }
}

/// First answers per template, shared by every phase of a run.
pub type Repeats = Mutex<HashMap<usize, String>>;

/// Runs every connection as a closed-loop client until `seconds` have
/// passed and the number of operations issued is a multiple of `round`
/// (so rotations through engines or roots end complete). Ids count up
/// from `first_id`. Answers are judged as they arrive.
pub fn closed_loop(
    env: &mut Env,
    gen: &mut dyn Generator,
    seconds: f64,
    round: usize,
    first_id: u64,
    repeats: &Repeats,
) -> Result<Phase, String> {
    let next = Mutex::new((gen, first_id));
    let start = Instant::now();
    let results: Vec<Result<Phase, String>> = std::thread::scope(|s| {
        let workers: Vec<_> = env
            .conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                s.spawn(move || {
                    let mut mine = Phase::default();
                    loop {
                        let op = {
                            let mut g = next.lock().unwrap_or_else(|e| e.into_inner());
                            let issued = g.1 - first_id;
                            if start.elapsed().as_secs_f64() >= seconds
                                && issued.is_multiple_of(round as u64)
                            {
                                break;
                            }
                            let id = g.1;
                            g.1 += 1;
                            g.0.next(id)
                        };
                        let t0 = Instant::now();
                        let resp = conn.call(&op.req)?;
                        let client_us = t0.elapsed().as_secs_f64() * 1e6;
                        mine.record(op, resp, client_us, repeats);
                    }
                    Ok(mine)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut phase = Phase {
        wall_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    for r in results {
        phase.absorb(r?);
    }
    Ok(phase)
}

/// Sends `ops` one after another on the first connection (untimed).
pub fn run_ops(env: &mut Env, ops: Vec<Op>, repeats: &Repeats) -> Result<Phase, String> {
    let mut phase = Phase::default();
    for op in ops {
        let t0 = Instant::now();
        let resp = env.conns[0].call(&op.req)?;
        phase.record(op, resp, t0.elapsed().as_secs_f64() * 1e6, repeats);
    }
    Ok(phase)
}

/// The answer part of a response: status and payload.
fn answer(resp: &Response) -> String {
    format!("{}:{}", resp.status.as_str(), resp.payload.to_json())
}

/// Checks an `ok` answer against its expectation. Answers that are not
/// `ok` are failures, counted separately; they are never compared.
fn judge(op: &Op, resp: &Response, repeats: &Repeats) -> Result<(), String> {
    if resp.status != Status::Ok {
        return Ok(());
    }
    let p = &resp.payload;
    let visited = p.get("visited").and_then(Value::as_u64);
    let ok = match &op.expect {
        Expect::Visited(v) => visited == Some(*v),
        Expect::Reachable(b) => p.get("reachable").and_then(Value::as_bool) == Some(*b),
        Expect::Repeat(t) => {
            let a = answer(resp);
            let mut first = repeats.lock().unwrap_or_else(|e| e.into_inner());
            first.entry(*t).or_insert_with(|| a.clone()) == &a
        }
        Expect::DeltaRead(n) => match op.req.workload {
            Workload::Dfs { .. } => visited.is_some_and(|v| (1..=*n).contains(&v)),
            _ => p.get("reachable").and_then(Value::as_bool).is_some(),
        },
        Expect::Write { edges, .. } => p.get("applied").and_then(Value::as_u64) == Some(*edges),
        Expect::Epoch(e) => p.get("epoch").and_then(Value::as_u64) == Some(*e),
    };
    if ok {
        return Ok(());
    }
    Err(format!(
        "request {} ({} on {}) expected {:?}, got {}",
        op.req.id,
        op.req.workload.kind(),
        op.req.graph,
        op.expect,
        p.to_json()
    ))
}

/// Outcome counts of a phase, by status.
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcomes {
    pub attempted: u64,
    pub ok: u64,
    pub expired: u64,
    pub rejected: u64,
    pub error: u64,
    pub failed: u64,
}

impl Outcomes {
    pub fn of<'a>(samples: impl IntoIterator<Item = &'a Sample>) -> Outcomes {
        let mut o = Outcomes::default();
        for r in samples {
            o.attempted += 1;
            match r.status {
                Status::Ok => o.ok += 1,
                Status::Expired => o.expired += 1,
                Status::Rejected => o.rejected += 1,
                Status::Error => o.error += 1,
                Status::Failed => o.failed += 1,
            }
        }
        o
    }

    pub fn not_ok(&self) -> u64 {
        self.attempted - self.ok
    }

    pub fn to_value(self) -> Value {
        Value::Obj(vec![
            ("attempted".into(), Value::u64(self.attempted)),
            ("ok".into(), Value::u64(self.ok)),
            ("expired".into(), Value::u64(self.expired)),
            ("rejected".into(), Value::u64(self.rejected)),
            ("error".into(), Value::u64(self.error)),
            ("failed".into(), Value::u64(self.failed)),
        ])
    }
}

/// Client-observed latencies in ms, reads and writes apart. A request
/// that did not succeed counts as missing every latency limit, so it
/// enters the sample at +∞ (it moves the tail, and the median once
/// failures are common).
pub fn latencies(samples: &[Sample]) -> (Summary, Summary) {
    let (mut reads, mut writes) = (Vec::new(), Vec::new());
    for r in samples {
        let ms = if r.status == Status::Ok {
            r.client_us / 1e3
        } else {
            f64::INFINITY
        };
        if r.write {
            writes.push(ms);
        } else {
            reads.push(ms);
        }
    }
    (Summary::new(reads), Summary::new(writes))
}

/// Per-layer times read back from the flight recorder's spans.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Client round trip minus the server's own latency (TCP only), µs.
    pub net_us: Vec<f64>,
    pub queue_us: Vec<f64>,
    pub attempt_us: Vec<f64>,
    pub store_load_us: Vec<f64>,
    pub delta_write_us: Vec<f64>,
    pub epoch_pin_us: Vec<f64>,
    pub wal_append_us: Vec<f64>,
    /// Share of each request's client latency no span covers.
    pub unattributed: Vec<f64>,
    pub steals: u64,
    pub retries: u64,
    /// Spans evicted from the rings (must be 0 for the numbers to hold).
    pub dropped: u64,
}

fn dur_us(s: &SpanRecord) -> f64 {
    (s.t1_ns - s.t0_ns) as f64 / 1e3
}

/// Length of the union of `[t0, t1)` intervals, in µs.
fn covered_us(mut iv: Vec<(u64, u64)>) -> f64 {
    iv.sort_unstable();
    let (mut total, mut end) = (0u64, 0u64);
    for (a, b) in iv {
        let a = a.max(end);
        if b > a {
            total += b - a;
            end = b;
        }
    }
    total as f64 / 1e3
}

/// Attributes each record's latency to the spans of its trace.
pub fn attribute(dump: &FlightDump, samples: &[Sample], tcp: bool) -> Attribution {
    let mut by_trace: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    for s in &dump.spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    let mut a = Attribution {
        dropped: dump.dropped,
        ..Attribution::default()
    };
    for r in samples {
        let Some(spans) = by_trace.get(&r.trace_id) else {
            continue;
        };
        let mut intervals = Vec::new();
        for s in spans {
            let d = dur_us(s);
            let timed = match s.kind {
                SpanKind::Queue => Some(&mut a.queue_us),
                SpanKind::Attempt => Some(&mut a.attempt_us),
                SpanKind::StoreLoad => Some(&mut a.store_load_us),
                SpanKind::DeltaWrite => Some(&mut a.delta_write_us),
                SpanKind::EpochPin => Some(&mut a.epoch_pin_us),
                SpanKind::Wal if s.code == 0 => Some(&mut a.wal_append_us),
                SpanKind::Wal | SpanKind::Retry => None,
                SpanKind::Steal => {
                    a.steals += 1;
                    continue;
                }
                _ => continue,
            };
            if s.kind == SpanKind::Retry {
                a.retries += 1;
            }
            if let Some(v) = timed {
                v.push(d);
            }
            intervals.push((s.t0_ns, s.t1_ns));
        }
        let net = if tcp {
            (r.client_us - r.server_us as f64).max(0.0)
        } else {
            0.0
        };
        if tcp {
            a.net_us.push(net);
        }
        let client = r.client_us.max(1e-3);
        a.unattributed
            .push(((client - net - covered_us(intervals)) / client).clamp(0.0, 1.0));
    }
    a
}

/// Sum of every sample of counter `name` (all label sets) in a scrape.
pub fn scrape_sum(text: &str, name: &str) -> Result<f64, String> {
    let exp = db_metrics::parse_exposition(text).map_err(|e| format!("scrape: {e}"))?;
    Ok(exp
        .samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.value)
        .sum())
}

/// Vertices reachable from `root` following out-arcs: the benchmark's
/// own oracle, independent of every engine in the program.
pub fn reachable<'a>(n: usize, neighbors: impl Fn(u32) -> &'a [u32], root: u32) -> Vec<bool> {
    let mut seen = vec![false; n];
    let mut stack = vec![root];
    seen[root as usize] = true;
    while let Some(u) = stack.pop() {
        for &v in neighbors(u) {
            if !std::mem::replace(&mut seen[v as usize], true) {
                stack.push(v);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered_us(vec![]), 0.0);
        assert_eq!(covered_us(vec![(0, 1000), (500, 2000), (3000, 4000)]), 3.0);
        assert_eq!(covered_us(vec![(0, 4000), (1000, 2000)]), 4.0);
    }

    #[test]
    fn oracle_follows_out_arcs() {
        let adj = [vec![1], vec![2], vec![], vec![0]];
        let seen = reachable(4, |u| adj[u as usize].as_slice(), 0);
        assert_eq!(seen, [true, true, true, false]);
    }
}
