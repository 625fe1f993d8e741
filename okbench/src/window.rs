//! The closed loop: at most two requests in flight, the next one issued
//! only when one completes, timed in host time.

use std::time::Instant;

use crate::deploy::Target;
use crate::model::Model;
use crate::ops::Op;
use crate::trace::{Layer, Tracer};

/// Requests in flight at once: one per host core.
pub const MAX_OUTSTANDING: usize = 2;

struct InFlight {
    idx: usize,
    op: usize,
    issued: Instant,
}

/// What one round measured.
pub struct Round {
    pub seconds: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Host latency of every answered request, in ms.
    pub latencies_ms: Vec<f64>,
    /// Connections a draining session closed unanswered and the client
    /// re-opened.
    pub retries: u64,
}

/// Runs `ops` to completion through the closed loop. Two requests of one
/// user are never in flight together, so each user's requests reach the
/// program in order and the model's answer is well defined; when the next
/// op's user is busy the loop waits rather than skipping ahead.
pub fn run_round(target: &mut Target, ops: &[Op], model: &mut Model, tr: &mut Tracer) -> Round {
    let start = Instant::now();
    let mut flight: Vec<InFlight> = Vec::with_capacity(MAX_OUTSTANDING);
    let mut next = 0;
    let mut round = Round {
        seconds: 0.0,
        attempted: ops.len() as u64,
        failed: 0,
        latencies_ms: Vec::with_capacity(ops.len()),
        retries: 0,
    };
    let mut lanes = Vec::with_capacity(MAX_OUTSTANDING);
    loop {
        while flight.len() < MAX_OUTSTANDING
            && next < ops.len()
            && flight.iter().all(|f| ops[f.op].user != ops[next].user)
        {
            let issued = Instant::now();
            let idx = target.issue(tr, &ops[next]);
            flight.push(InFlight {
                idx,
                op: next,
                issued,
            });
            next += 1;
        }
        if flight.is_empty() {
            break;
        }
        let busy = target.step(tr);
        lanes.clear();
        for f in &flight {
            let lane = target.client_ref().driver.request(f.idx).lane;
            if !lanes.contains(&lane) {
                lanes.push(lane);
            }
        }
        for &lane in &lanes {
            target.poll(tr, lane);
        }
        let before = flight.len();
        let mut i = 0;
        while i < flight.len() {
            let req = target.client_ref().driver.request(flight[i].idx);
            if req.finished_at.is_none() {
                i += 1;
                continue;
            }
            let f = flight.swap_remove(i);
            round
                .latencies_ms
                .push(f.issued.elapsed().as_secs_f64() * 1e3);
            let client = target.client_ref();
            let ok = tr.span(Layer::Check, || {
                model.check(&ops[f.op], client.parse_response(f.idx))
            });
            if !ok {
                round.failed += 1;
            }
        }
        if !busy && flight.len() == before {
            // Idle with requests open: either a draining session shed a
            // connection (retry it, as a client would), or the request
            // is wedged, which counts as failed.
            let retried = target.retry_shed();
            if retried > 0 {
                round.retries += retried as u64;
            } else {
                for f in flight.drain(..) {
                    target.client().driver.abort(f.idx);
                    round.failed += 1;
                }
            }
        }
    }
    round.seconds = start.elapsed().as_secs_f64();
    target.client().driver.reset_log();
    round
}
