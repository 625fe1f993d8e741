//! Deployments under test, built with the load generator's own worlds.
//!
//! Every kernel is pinned to the sequential scheduler
//! (`set_worker_threads(1)`, which `ScenarioConfig::new` asks for): on a
//! two-core host a parallel pool would measure the OS scheduler rather
//! than the program.

use asbestos_cluster::ConnStats;
use asbestos_kernel::{Category, Kernel, KmemReport, Stats};
use asbestos_loadgen::{ClusterWorld, ScenarioConfig, ServiceKind, World};
use asbestos_okws::OkwsClient;
use asbestos_store::MemDev;

use crate::model::Model;
use crate::ops::{user_name, Kind, Op, OpGen, Workload};
use crate::trace::{Layer, Tracer};

/// Handle-cipher seed of every deployment. Fixed: the run's `--seed`
/// shapes only the requests the program is sent.
const DEPLOY_SEED: u64 = 0x0a5b_e570;

pub enum Target {
    One(Box<World>),
    Fed(Box<ClusterWorld>),
}

/// Modeled cycles per Figure 9 category, summed over kernels.
#[derive(Clone, Copy, Default)]
pub struct Cycles {
    pub okws: u64,
    pub okdb: u64,
    pub kernel_ipc: u64,
    pub network: u64,
}

impl Target {
    fn config(workload: Workload) -> ScenarioConfig {
        let cfg = ScenarioConfig::new(workload.accounts(), 0);
        match workload {
            Workload::Sessions => cfg.deployment(4, 4),
            Workload::DbMix => cfg.with_service(ServiceKind::Profile).durable(),
            Workload::FedK2 => cfg,
        }
    }

    /// Builds the workload's deployment and brings it to the start of the
    /// measured window: logins, preload, reboot and recovery included.
    /// Every set-up response is checked; a wrong one aborts the run.
    pub fn setup(workload: Workload, gen: &mut OpGen, model: &mut Model) -> Target {
        let cfg = Target::config(workload);
        let mut target = match workload {
            Workload::FedK2 => Target::Fed(Box::new(ClusterWorld::deploy(cfg, 2, DEPLOY_SEED))),
            _ => Target::One(Box::new(World::deploy(cfg, DEPLOY_SEED))),
        };
        let users = workload.accounts();
        if workload == Workload::DbMix {
            for op in gen.preload() {
                target.sync_checked(&op, model);
            }
            match &mut target {
                Target::One(w) => w.reboot(),
                Target::Fed(_) => unreachable!("db-mix is single-kernel"),
            }
            model.reboot();
        }
        for user in 0..users {
            let login = Op {
                user,
                kind: Kind::StoreRead,
            };
            target.sync_checked(&login, model);
            if workload == Workload::DbMix {
                let own = Op {
                    user,
                    kind: Kind::ProfileOwn,
                };
                target.sync_checked(&own, model);
            }
        }
        target.run_idle();
        target.client().driver.reset_log();
        target
    }

    fn sync_checked(&mut self, op: &Op, model: &mut Model) {
        let mut off = Tracer::new(false);
        let idx = self.issue(&mut off, op);
        self.run_idle();
        for lane in 0..self.client().driver.lanes() {
            self.poll(&mut off, lane);
        }
        let response = self.client().parse_response(idx);
        assert!(
            model.check(op, response.clone()),
            "set-up request {op:?} got a wrong response: {response:?}"
        );
    }

    pub fn client(&mut self) -> &mut OkwsClient {
        match self {
            Target::One(w) => &mut w.client,
            Target::Fed(c) => &mut c.client,
        }
    }

    pub fn client_ref(&self) -> &OkwsClient {
        match self {
            Target::One(w) => &w.client,
            Target::Fed(c) => &c.client,
        }
    }

    pub fn kernels(&self) -> Vec<&Kernel> {
        match self {
            Target::One(w) => vec![&w.kernel],
            Target::Fed(c) => c.cluster.nodes.iter().map(|n| &n.kernel).collect(),
        }
    }

    /// The durable device, on the durable workload.
    pub fn device(&self) -> Option<&MemDev> {
        match self {
            Target::One(w) => w.dev.as_ref(),
            Target::Fed(_) => None,
        }
    }

    /// Issues `op` on the front end's netd lanes; returns its driver index.
    pub fn issue(&mut self, tr: &mut Tracer, op: &Op) -> usize {
        let user = user_name(op.user);
        let pw = format!("p{}", op.user);
        let params = op.params();
        let extra: Vec<(&str, &str)> = params.iter().map(|(k, v)| (*k, v.as_str())).collect();
        let service = op.service();
        match self {
            Target::One(w) => tr.span(Layer::Client, || {
                w.client.request(&mut w.kernel, service, &user, &pw, &extra)
            }),
            Target::Fed(c) => {
                let kernel = &mut c.cluster.nodes[0].kernel;
                tr.span(Layer::Client, || {
                    c.client.request(kernel, service, &user, &pw, &extra)
                })
            }
        }
    }

    /// One scheduling quantum, as `Cluster::step` takes it: one delivery
    /// step on every kernel, then one pump of the wire. Returns whether
    /// anything moved.
    pub fn step(&mut self, tr: &mut Tracer) -> bool {
        match self {
            Target::One(w) => tr.span(Layer::Kernel, || w.kernel.step()),
            Target::Fed(c) => {
                let mut moved = false;
                for node in &mut c.cluster.nodes {
                    moved |= tr.span(Layer::Kernel, || node.kernel.step());
                }
                let pumped = tr.span(Layer::Wire, || c.cluster.pump_wire());
                moved || pumped > 0
            }
        }
    }

    pub fn poll(&mut self, tr: &mut Tracer, lane: usize) {
        match self {
            Target::One(w) => tr.span(Layer::Client, || w.client.driver.poll_lane(&w.kernel, lane)),
            Target::Fed(c) => {
                let kernel = &c.cluster.nodes[0].kernel;
                tr.span(Layer::Client, || c.client.driver.poll_lane(kernel, lane))
            }
        }
    }

    /// Re-opens connections a draining session closed unanswered, as a
    /// client retries after a refusal. Returns how many were re-opened.
    pub fn retry_shed(&mut self) -> usize {
        match self {
            Target::One(w) => w.client.driver.retry_shed(&mut w.kernel),
            Target::Fed(c) => c.client.driver.retry_shed(&mut c.cluster.nodes[0].kernel),
        }
    }

    /// Runs every kernel (and the wire) until nothing is pending.
    pub fn run_idle(&mut self) {
        match self {
            Target::One(w) => {
                w.kernel.run();
            }
            Target::Fed(c) => {
                c.cluster.run();
            }
        }
    }

    pub fn stats(&self) -> Stats {
        let mut total = Stats::default();
        for k in self.kernels() {
            total.absorb(&k.stats());
        }
        total
    }

    pub fn kmem(&self) -> KmemReport {
        let mut total = KmemReport::default();
        for k in self.kernels() {
            let r = k.kmem_report();
            total.process_bytes += r.process_bytes;
            total.ep_bytes += r.ep_bytes;
            total.handle_bytes += r.handle_bytes;
            total.queue_bytes += r.queue_bytes;
            total.delivery_cache_bytes += r.delivery_cache_bytes;
            total.user_frame_bytes += r.user_frame_bytes;
            total.pool_bytes += r.pool_bytes;
            total.tuner_bytes += r.tuner_bytes;
        }
        total
    }

    pub fn cycles(&self) -> Cycles {
        let mut c = Cycles::default();
        for k in self.kernels() {
            let s = k.cycle_snapshot();
            c.okws += s.total(Category::Okws);
            c.okdb += s.total(Category::Okdb);
            c.kernel_ipc += s.total(Category::KernelIpc);
            c.network += s.total(Category::Network);
        }
        c
    }

    pub fn wire(&self) -> ConnStats {
        match self {
            Target::One(_) => ConnStats::default(),
            Target::Fed(c) => c.cluster.wire_stats(),
        }
    }

    /// Live event processes over every kernel.
    pub fn live_eps(&self) -> u64 {
        let s = self.stats();
        s.eps_created - s.eps_exited
    }

    /// The effective deployment, read back from the running kernels.
    pub fn describe(&self, workload: Workload) -> String {
        let kernels = self.kernels();
        format!(
            "kernels={} shards={} lanes={} worker_threads={} accounts={} services={}",
            kernels.len(),
            kernels[0].num_shards(),
            self.client_ref().driver.lanes(),
            kernels[0].worker_threads(),
            workload.accounts(),
            if workload == Workload::DbMix {
                "store+profile (durable MemDev)"
            } else {
                "store"
            },
        )
    }
}
