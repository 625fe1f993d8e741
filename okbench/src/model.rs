//! The benchmark's own model of what every response must say.
//!
//! The model is built from the requests the benchmark sent, never from a
//! copy of an earlier run's output: a store read answers the user's last
//! write padded to the session size (§9.1's ~1 KiB blob), or nothing after
//! a logout or before the first write; an own-profile read answers
//! exactly the bios the user wrote (compared as a multiset); a cross-user
//! read answers no rows. Each user's requests never overlap in flight, so
//! the model's state when a response is checked is the state the program
//! saw when it served the request.

use crate::ops::{user_name, Kind, Op};

/// Bytes of session state per user the `store` service keeps (§9.1).
const SESSION_BYTES: usize = 1024;

pub struct Model {
    store: Vec<Option<String>>,
    bios: Vec<Vec<String>>,
    /// Per user and service: whether a session event process is live.
    store_live: Vec<bool>,
    profile_live: Vec<bool>,
}

impl Model {
    pub fn new(users: usize) -> Model {
        Model {
            store: vec![None; users],
            bios: vec![Vec::new(); users],
            store_live: vec![false; users],
            profile_live: vec![false; users],
        }
    }

    /// A reboot ends every session; profile rows survive it.
    pub fn reboot(&mut self) {
        self.store.iter_mut().for_each(|s| *s = None);
        self.store_live.iter_mut().for_each(|l| *l = false);
        self.profile_live.iter_mut().for_each(|l| *l = false);
    }

    /// Session event processes the deployment must hold once idle: one
    /// per user and service touched since boot, less ended store sessions.
    pub fn live_sessions(&self) -> usize {
        let live = |v: &[bool]| v.iter().filter(|&&l| l).count();
        live(&self.store_live) + live(&self.profile_live)
    }

    /// Every profile row, as `(owner, bio)`.
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        for (user, bios) in self.bios.iter().enumerate() {
            rows.extend(bios.iter().map(|b| (user_name(user), b.clone())));
        }
        rows
    }

    /// Checks the response to `op` and applies `op` to the model. Returns
    /// whether the response was the one the model expects.
    pub fn check(&mut self, op: &Op, response: Option<(u16, Vec<u8>)>) -> bool {
        let Some((status, body)) = response else {
            self.apply(op);
            return false;
        };
        let ok = status == 200
            && match &op.kind {
                Kind::StoreWrite(_) | Kind::StoreRead => body == self.session_body(op.user),
                Kind::Logout => body == b"goodbye",
                Kind::ProfileSet(_) => body == b"stored",
                Kind::ProfileOwn => self.rows_match(op.user, &body),
                Kind::ProfileOther(_) => body.is_empty(),
            };
        self.apply(op);
        ok
    }

    fn apply(&mut self, op: &Op) {
        match &op.kind {
            Kind::StoreWrite(data) => self.store[op.user] = Some(data.clone()),
            Kind::Logout => self.store[op.user] = None,
            Kind::ProfileSet(bio) => self.bios[op.user].push(bio.clone()),
            Kind::StoreRead | Kind::ProfileOwn | Kind::ProfileOther(_) => {}
        }
        match op.kind {
            Kind::Logout => self.store_live[op.user] = false,
            Kind::StoreWrite(_) | Kind::StoreRead => self.store_live[op.user] = true,
            _ => self.profile_live[op.user] = true,
        }
    }

    fn session_body(&self, user: usize) -> Vec<u8> {
        match &self.store[user] {
            None => Vec::new(),
            Some(data) => {
                let mut blob = data.as_bytes().to_vec();
                blob.resize(SESSION_BYTES, b'.');
                blob
            }
        }
    }

    /// `owner:bio` lines, one per row, in any order.
    fn rows_match(&self, user: usize, body: &[u8]) -> bool {
        let Ok(text) = std::str::from_utf8(body) else {
            return false;
        };
        let owner = user_name(user);
        let mut got = Vec::new();
        for line in text.lines() {
            match line.split_once(':') {
                Some((o, bio)) if o == owner => got.push(bio),
                _ => return false,
            }
        }
        let mut want: Vec<&str> = self.bios[user].iter().map(String::as_str).collect();
        got.sort_unstable();
        want.sort_unstable();
        got == want
    }
}

/// Feeds the checker right and mutated responses; true when it accepts
/// the right ones and counts every mutated one as failed.
pub fn self_test() -> bool {
    let mut m = Model::new(2);
    let write = |user: usize, d: &str| Op {
        user,
        kind: Kind::StoreWrite(d.to_string()),
    };
    let read = |user: usize| Op {
        user,
        kind: Kind::StoreRead,
    };
    let set = |user: usize, b: &str| Op {
        user,
        kind: Kind::ProfileSet(b.to_string()),
    };
    let own = |user: usize| Op {
        user,
        kind: Kind::ProfileOwn,
    };
    let ok = |body: &[u8]| Some((200, body.to_vec()));
    let mut pass = m.check(&write(0, "u0000-a"), ok(b""))
        && m.check(&write(1, "u0001-b"), ok(b""))
        && m.check(&set(0, "x"), ok(b"stored"))
        && m.check(&set(0, "y"), ok(b"stored"));
    let u0_blob = m.session_body(0);
    let u1_blob = m.session_body(1);
    pass &= m.check(&read(0), ok(&u0_blob));
    // Another user's body, a missing row, a foreign row, a cross-user
    // leak, a lost response, a wrong status: each must count as failed.
    pass &= !m.check(&read(0), ok(&u1_blob));
    pass &= !m.check(&own(0), ok(b"u0:x\n"));
    pass &= !m.check(&own(0), ok(b"u0:x\nu0:y\nu1:z\n"));
    pass &= !m.check(
        &Op {
            user: 1,
            kind: Kind::ProfileOther(0),
        },
        ok(b"u0:x\n"),
    );
    pass &= !m.check(&read(1), None);
    pass &= !m.check(&read(1), Some((500, u1_blob.clone())));
    pass && m.check(&own(0), ok(b"u0:y\nu0:x\n")) && m.check(&read(1), ok(&u1_blob))
}

#[cfg(test)]
mod tests {
    #[test]
    fn checker_catches_mutations() {
        assert!(super::self_test());
    }
}
