//! Short probes on the state a workload built, taken after its window.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use asbestos_db::{DurableDb, SqlValue};
use asbestos_kernel::{Kernel, Label};
use asbestos_labels::ops::check_delivery;

use crate::deploy::Target;
use crate::stats::median;

/// A fixed integer loop, timed: it moves with the host's speed and with
/// nothing in the program, so a slow machine shows here first.
pub fn host_reference_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for i in 0..2_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The deployment's trusted processes whose labels grow with sessions.
const PROCESSES: [&str; 7] = [
    "ok-demux",
    "idd",
    "ok-dbproxy",
    "launcher",
    "netd",
    "worker-store",
    "worker-profile",
];

/// Send labels of the named processes (and their live event processes)
/// on every kernel, largest first, with the owner's receive label.
fn labels_by_size(kernels: &[&Kernel]) -> Vec<(Arc<Label>, Arc<Label>)> {
    let mut found = Vec::new();
    for k in kernels {
        for name in PROCESSES {
            let Some(pid) = k.find_process(name) else {
                continue;
            };
            let p = k.process(pid);
            found.push((p.send_label.clone(), p.recv_label.clone()));
            for ep in k.live_eps(pid) {
                let e = k.event_process(ep);
                found.push((e.send_label.clone(), e.recv_label.clone()));
            }
        }
    }
    found.sort_by_key(|(s, _)| std::cmp::Reverse(s.entry_count()));
    found
}

pub struct LabelProbe {
    pub max_entries: usize,
    pub check_delivery_ns: f64,
    pub lub_ns: f64,
}

/// Times `check_delivery` with the largest send label as `E_S` against
/// its owner's receive label, and `Label::lub` of the two largest.
pub fn labels(target: &Target) -> LabelProbe {
    let found = labels_by_size(&target.kernels());
    let (es, qr) = found[0].clone();
    let other = found.get(1).map_or_else(|| qr.clone(), |(s, _)| s.clone());
    let (dr, v, pr) = (Label::bottom(), Label::top(), Label::top());
    let check_delivery_ns = time_ns(|| {
        black_box(check_delivery(black_box(&es), black_box(&qr), &dr, &v, &pr));
    });
    let lub_ns = time_ns(|| {
        black_box(black_box(&es).lub(black_box(&other)));
    });
    LabelProbe {
        max_entries: es.entry_count(),
        check_delivery_ns,
        lub_ns,
    }
}

/// Median over 7 batches of the per-call time of `f`, in ns; a batch is
/// as many calls as fit in about 2 ms.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed().as_micros() < 2000 {
        f();
        calls += 1;
    }
    let samples: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

pub struct DbProbe {
    pub recovery_ms: f64,
    pub select_us: f64,
    /// Every `(owner, bio)` row recovered from the device.
    pub rows: Vec<(String, String)>,
}

const OWN_SELECT: &str = "SELECT owner, bio FROM profiles WHERE owner = ?";

/// Recovers a copy of the workload's device (snapshot + WAL replay) and
/// times it and the workload's profile SELECT on the recovered copy.
pub fn db(target: &Target) -> Option<DbProbe> {
    let dev = target.device()?;
    let mut opens = Vec::new();
    let mut db = None;
    for _ in 0..3 {
        let copy = dev.fork();
        let start = Instant::now();
        let opened = DurableDb::open(Box::new(copy));
        opens.push(start.elapsed().as_secs_f64() * 1e3);
        db = Some(opened);
    }
    let mut db = db.expect("three opens ran");
    let param = [SqlValue::Text("u0".to_string())];
    let select_ns = time_ns(|| {
        black_box(
            db.admin_exec(OWN_SELECT, &param)
                .expect("profile SELECT runs"),
        );
    });
    let all = db
        .admin_exec("SELECT owner, bio FROM profiles", &[])
        .expect("profile scan runs");
    let text = |v: &SqlValue| v.as_text().unwrap_or("").to_string();
    let rows = all
        .rows
        .iter()
        .map(|r| (text(&r[0]), text(&r[1])))
        .collect();
    Some(DbProbe {
        recovery_ms: median(&opens),
        select_us: select_ns / 1e3,
        rows,
    })
}
