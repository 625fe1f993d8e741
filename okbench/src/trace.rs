//! Spans around the benchmark's calls into each crate.
//!
//! The program gains no tracing: every span wraps one call the benchmark
//! itself makes (`Kernel::step`, `Cluster::pump_wire`,
//! `OkwsClient::request`, `ClientDriver::poll_lane`) or the benchmark's
//! own response check. Spans are kept in memory and written out once the
//! window has ended. With tracing off `span` is a plain call.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Kernel::step` on any member kernel.
    Kernel = 0,
    /// `Cluster::pump_wire`: gateways, switch, socket I/O and codec.
    Wire = 1,
    /// `OkwsClient::request` and `ClientDriver::poll_lane`.
    Client = 2,
    /// The benchmark's response parse and model check.
    Check = 3,
}

pub const LAYERS: [(Layer, &str); 4] = [
    (Layer::Kernel, "kernel"),
    (Layer::Wire, "wire"),
    (Layer::Client, "client"),
    (Layer::Check, "check"),
];

pub struct Tracer {
    on: bool,
    origin: Instant,
    /// `(layer, start ns since origin, duration ns)`.
    spans: Vec<(Layer, u64, u64)>,
    totals: [u64; 4],
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            totals: [0; 4],
        }
    }

    #[inline]
    pub fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let dur = (end - start).as_nanos() as u64;
        let at = (start - self.origin).as_nanos() as u64;
        self.spans.push((layer, at, dur));
        self.totals[layer as usize] += dur;
        out
    }

    /// Host nanoseconds spent in `layer`'s spans so far.
    pub fn total_ns(&self, layer: Layer) -> u64 {
        self.totals[layer as usize]
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as `layer,start_ns,dur_ns` CSV.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 24 + 32);
        out.push_str("layer,start_ns,dur_ns\n");
        for &(layer, at, dur) in &self.spans {
            let name = LAYERS[layer as usize].1;
            let _ = writeln!(out, "{name},{at},{dur}");
        }
        std::fs::write(path, out)
    }
}
