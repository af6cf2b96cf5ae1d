//! The load generator: one thread, a closed loop of logical clients over
//! the front door, client-side clocks only.

use std::time::{Duration, Instant};

use fi_router::{Router, RouterReport, TokenStream};
use fi_runtime::{RequestHandle, RequestOutcome, Runtime, StreamItem};

use crate::stats::{fnv_row, FNV_SEED};
use crate::trace::Tracer;
use crate::workload::{Spec, TraceRequest, TENANTS, WORKERS};

/// Sleep of the generator when no stream had anything to deliver.
const IDLE_SLEEP: Duration = Duration::from_micros(100);

/// What the generator saw in one repetition. Times are in milliseconds,
/// per request in completion order, and leave out the first wave (the first
/// request of each client, sent into an empty system): the latencies are
/// those of the closed loop in its steady state.
#[derive(Debug, Default)]
pub struct Samples {
    /// First `submit()` to the last request finished, seconds.
    pub wall_s: f64,
    pub tokens: u64,
    pub ttft_ms: Vec<f64>,
    pub tpot_ms: Vec<f64>,
    pub itl_ms: Vec<f64>,
    pub e2e_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    /// Time from one poll pass to the next, microseconds; only recorded on
    /// a traced repetition.
    pub poll_gap_us: Vec<f64>,
    /// FNV of every streamed row, per request id; 0 for a request that
    /// was refused or did not complete with all its tokens.
    pub hashes: Vec<u64>,
    pub failed: usize,
}

/// One repetition: the client's samples and the stack's own report.
#[derive(Debug)]
pub struct Rep {
    pub s: Samples,
    pub report: RouterReport,
}

impl Samples {
    /// One number for all rows the repetition streamed.
    pub fn checksum(&self) -> u64 {
        self.hashes.iter().fold(FNV_SEED, |h, &x| {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }
}

struct Live {
    idx: usize,
    stream: TokenStream,
    submit_start: Instant,
    submit_end: Instant,
    first: Option<Instant>,
    last: Instant,
    tokens: usize,
    hash: u64,
    completed: bool,
}

/// Run the trace once through a fresh front door and shut it down.
pub fn run_rep(spec: &Spec, trace: &[TraceRequest], tracer: Option<&mut Tracer>) -> Rep {
    let router = spec.start_router();
    run_rep_on(router, spec.clients, trace, tracer)
}

pub fn run_rep_on(
    router: Router,
    clients: usize,
    trace: &[TraceRequest],
    mut tracer: Option<&mut Tracer>,
) -> Rep {
    let n = trace.len();
    let mut rep = Samples {
        hashes: vec![0; trace.iter().map(|t| t.id + 1).max().unwrap_or(0)],
        ..Samples::default()
    };
    let mut live: Vec<Option<Live>> = (0..clients).map(|_| None).collect();
    let (mut next, mut done) = (0usize, 0usize);
    let start = Instant::now();
    let mut last_pass = start;
    while done < n {
        let mut progressed = false;
        if tracer.is_some() {
            let now = Instant::now();
            rep.poll_gap_us
                .push(now.duration_since(last_pass).as_secs_f64() * 1e6);
            last_pass = now;
        }
        for slot in &mut live {
            if slot.is_none() && next < n {
                let idx = next;
                next += 1;
                progressed = true;
                let t = &trace[idx];
                let submit_start = Instant::now();
                let result = router.submit(TENANTS[t.tenant], t.req);
                let submit_end = Instant::now();
                rep.submit_us
                    .push(submit_end.duration_since(submit_start).as_secs_f64() * 1e6);
                match result {
                    Ok(stream) => {
                        *slot = Some(Live {
                            idx,
                            stream,
                            submit_start,
                            submit_end,
                            first: None,
                            last: submit_end,
                            tokens: 0,
                            hash: FNV_SEED,
                            completed: false,
                        });
                    }
                    Err(_) => {
                        rep.failed += 1;
                        done += 1;
                    }
                }
            }
            let Some(l) = slot else { continue };
            let mut finished = false;
            loop {
                match l.stream.try_recv() {
                    Ok(Some(StreamItem::Token { row, .. })) => {
                        let now = Instant::now();
                        match l.first {
                            None => l.first = Some(now),
                            Some(_) if l.idx >= clients => rep
                                .itl_ms
                                .push(now.duration_since(l.last).as_secs_f64() * 1e3),
                            Some(_) => {}
                        }
                        l.last = now;
                        l.tokens += 1;
                        l.hash = fnv_row(l.hash, &row);
                        progressed = true;
                    }
                    Ok(Some(StreamItem::Done(outcome))) => {
                        l.completed = matches!(outcome, RequestOutcome::Completed(_));
                        finished = true;
                        break;
                    }
                    Ok(None) => break,
                    // The channel closing is the authoritative end; `Done`
                    // is best effort and may have been dropped.
                    Err(_) => {
                        finished = true;
                        break;
                    }
                }
            }
            if finished {
                let l = slot.take().expect("slot is live");
                progressed = true;
                done += 1;
                let want = trace[l.idx].req.output_len;
                match l.first {
                    Some(first) if l.completed && l.tokens == want => {
                        rep.tokens += l.tokens as u64;
                        rep.hashes[trace[l.idx].id] = l.hash;
                        if l.idx < clients {
                            continue;
                        }
                        rep.ttft_ms
                            .push(first.duration_since(l.submit_start).as_secs_f64() * 1e3);
                        rep.e2e_ms
                            .push(l.last.duration_since(l.submit_start).as_secs_f64() * 1e3);
                        if l.tokens > 1 {
                            rep.tpot_ms.push(
                                l.last.duration_since(first).as_secs_f64() * 1e3
                                    / (l.tokens - 1) as f64,
                            );
                        }
                        if let Some(t) = tracer.as_deref_mut() {
                            let id = trace[l.idx].id as u64;
                            let root = t.record(0, id, "request", l.submit_start, l.last);
                            t.record(root, id, "router.submit", l.submit_start, l.submit_end);
                            t.record(root, id, "wait_first_token", l.submit_end, first);
                            t.record(root, id, "stream", first, l.last);
                        }
                    }
                    _ => rep.failed += 1,
                }
            }
        }
        if !progressed {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    rep.wall_s = start.elapsed().as_secs_f64();
    Rep {
        s: rep,
        report: router.shutdown(),
    }
}

/// The same closed loop straight into one `Runtime`, with no front door and
/// no streams: the baseline of `router.hop_ttft_ms`. Returns the runtime's
/// own TTFT per request (submission to first token), milliseconds.
pub fn run_direct(spec: &Spec, trace: &[TraceRequest]) -> Vec<f64> {
    let rt = Runtime::start(spec.runtime_config(WORKERS)).expect("direct runtime starts");
    let mut live: Vec<Option<RequestHandle>> = (0..spec.clients).map(|_| None).collect();
    let (mut next, mut done) = (0usize, 0usize);
    let mut ttft_ms = Vec::with_capacity(trace.len());
    while done < trace.len() {
        let mut progressed = false;
        for slot in &mut live {
            if slot.is_none() && next < trace.len() {
                *slot = Some(rt.submit(trace[next].req));
                next += 1;
                progressed = true;
            }
            if let Some(outcome) = slot.as_ref().and_then(RequestHandle::try_wait) {
                if let RequestOutcome::Completed(c) = outcome {
                    ttft_ms.push(c.ttft * 1e3);
                }
                *slot = None;
                done += 1;
                progressed = true;
            }
        }
        if !progressed {
            std::thread::sleep(IDLE_SLEEP);
        }
    }
    let m = rt.finish();
    assert!(
        m.reconciles() && m.kv_pool_drained(),
        "direct runtime leaked"
    );
    ttft_ms
}
