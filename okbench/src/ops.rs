//! The three workloads and their seeded request streams.
//!
//! A run is made of whole rounds. Each round is a fixed number of
//! operations drawn from the workload's seeded generator, so every run
//! attempts the same kinds of operation in the same shares whatever its
//! length. The program only ever sees the generated HTTP requests.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The workloads; names are the `--workload` argument.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// §9.3: per-request cost with 1000 cached sessions on 4 shards × 4 lanes.
    Sessions,
    /// Durable SQL/WAL deployment with logouts: the db and EP churn.
    DbMix,
    /// Two federated kernels: every request crosses the wire.
    FedK2,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "sessions" => Some(Workload::Sessions),
            "db-mix" => Some(Workload::DbMix),
            "fed-k2" => Some(Workload::FedK2),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sessions => "sessions",
            Workload::DbMix => "db-mix",
            Workload::FedK2 => "fed-k2",
        }
    }

    /// Accounts provisioned at deploy.
    pub fn accounts(self) -> usize {
        match self {
            Workload::Sessions => 1000,
            Workload::DbMix => 200,
            Workload::FedK2 => 256,
        }
    }

    /// Rounds per `--seconds` of window. A window is a fixed number of
    /// rounds, so that every run of a seed does the same work and its
    /// counts and memory figures compare exactly; these rates make a
    /// window last about `--seconds` on a 2-core Xeon VM.
    pub fn rounds_per_second(self) -> f64 {
        match self {
            Workload::Sessions => 2.0,
            Workload::DbMix => 4.0,
            Workload::FedK2 => 4.0,
        }
    }

    /// Set-ups per untraced run, `setup_s` being their median: three to
    /// six seconds of set-up in all.
    pub fn setups(self) -> usize {
        match self {
            Workload::Sessions => 5,
            Workload::DbMix => 11,
            Workload::FedK2 => 15,
        }
    }

    /// Operations per round.
    pub fn round_ops(self) -> usize {
        match self {
            Workload::Sessions => 500,
            Workload::DbMix => 500,
            Workload::FedK2 => 512,
        }
    }
}

/// What one request asks of the deployment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `store?data=`: replaces the session blob, answers the previous one.
    StoreWrite(String),
    /// `store`: answers the current session blob.
    StoreRead,
    /// `store?logout=1`: ends the store session.
    Logout,
    /// `profile?set=`: inserts a row owned by the user.
    ProfileSet(String),
    /// `profile?get=<self>`: every row the user wrote.
    ProfileOwn,
    /// `profile?get=<other>`: another user's rows, which labels must hide.
    ProfileOther(usize),
}

/// One request as user `u{user}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    pub user: usize,
    pub kind: Kind,
}

impl Op {
    pub fn service(&self) -> &'static str {
        match self.kind {
            Kind::StoreWrite(_) | Kind::StoreRead | Kind::Logout => "store",
            _ => "profile",
        }
    }

    /// Extra query parameters after `user=` and `pw=`.
    pub fn params(&self) -> Vec<(&'static str, String)> {
        match &self.kind {
            Kind::StoreWrite(data) => vec![("data", data.clone())],
            Kind::StoreRead => Vec::new(),
            Kind::Logout => vec![("logout", "1".to_string())],
            Kind::ProfileSet(bio) => vec![("set", bio.clone())],
            Kind::ProfileOwn => vec![("get", user_name(self.user))],
            Kind::ProfileOther(other) => vec![("get", user_name(*other))],
        }
    }
}

pub fn user_name(user: usize) -> String {
    format!("u{user}")
}

/// A value tagged with its owner, fixed-width so that request and row
/// sizes do not depend on the seed.
pub fn token(prefix: char, user: usize, rng: &mut StdRng) -> String {
    format!("{prefix}{user:04}-{:08x}", rng.next_u64() as u32)
}

/// The seeded request stream of one workload.
pub struct OpGen {
    workload: Workload,
    rng: StdRng,
    /// Per user: whether its next `sessions`/`fed-k2` op is a write.
    write_next: Vec<bool>,
    /// Generated ops not yet handed out in a round.
    pass: Vec<Op>,
}

impl OpGen {
    pub fn new(workload: Workload, seed: u64) -> OpGen {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6f6b_6265_6e63_6821);
        let write_next = (0..workload.accounts())
            .map(|_| rng.gen_bool(0.5))
            .collect();
        OpGen {
            workload,
            rng,
            write_next,
            pass: Vec::new(),
        }
    }

    /// Profile rows each `db-mix` user writes during set-up.
    pub fn preload(&mut self) -> Vec<Op> {
        let users = self.workload.accounts();
        (0..2 * users)
            .map(|i| {
                let user = i % users;
                Op {
                    user,
                    kind: Kind::ProfileSet(token('p', user, &mut self.rng)),
                }
            })
            .collect()
    }

    pub fn next_round(&mut self) -> Vec<Op> {
        match self.workload {
            Workload::Sessions | Workload::FedK2 => self.alternating_round(),
            Workload::DbMix => self.mixed_round(),
        }
    }

    /// Passes over a fresh seeded permutation of the users, cut into
    /// rounds; each user alternates session writes and reads from pass
    /// to pass.
    fn alternating_round(&mut self) -> Vec<Op> {
        let users = self.workload.accounts();
        while self.pass.len() < self.workload.round_ops() {
            let mut perm: Vec<usize> = (0..users).collect();
            for i in (1..users).rev() {
                perm.swap(i, self.rng.gen_range(0..i + 1));
            }
            for user in perm {
                let kind = if self.write_next[user] {
                    Kind::StoreWrite(token('s', user, &mut self.rng))
                } else {
                    Kind::StoreRead
                };
                self.write_next[user] = !self.write_next[user];
                self.pass.push(Op { user, kind });
            }
        }
        self.pass.drain(..self.workload.round_ops()).collect()
    }

    /// Uniform users, uniform over the six request kinds.
    fn mixed_round(&mut self) -> Vec<Op> {
        let users = self.workload.accounts();
        (0..self.workload.round_ops())
            .map(|_| {
                let user = self.rng.gen_range(0..users);
                let kind = match self.rng.gen_range(0..6u32) {
                    0 => Kind::ProfileSet(token('b', user, &mut self.rng)),
                    1 => Kind::ProfileOwn,
                    2 => Kind::ProfileOther((user + self.rng.gen_range(1..users)) % users),
                    3 => Kind::StoreWrite(token('s', user, &mut self.rng)),
                    4 => Kind::StoreRead,
                    _ => Kind::Logout,
                };
                Op { user, kind }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rounds() {
        for w in [Workload::Sessions, Workload::DbMix, Workload::FedK2] {
            let (mut a, mut b) = (OpGen::new(w, 7), OpGen::new(w, 7));
            assert_eq!(a.next_round(), b.next_round());
            assert_eq!(a.next_round().len(), w.round_ops());
            assert_ne!(a.next_round(), OpGen::new(w, 8).next_round());
        }
    }
}
