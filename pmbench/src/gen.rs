//! Seeded input generation: the workloads' op mixes, their keys, and the
//! per-client key model every reply is checked against.
//!
//! Everything here is the benchmark's own code. It calls nothing in the
//! repository's `ycsb` or `pm` crates, so a change to those cannot change the
//! inputs the benchmark feeds the program.

/// Client threads of every closed loop (the benchmark host has 2 cores).
pub const CLIENTS: usize = 2;

/// SplitMix64 finalizer. A bijection on `u64`, which [`key_of`] relies on to
/// keep every client's keys distinct.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The 8-byte key of `rank` (below 2^48) in `client`'s partition. `mix` is
/// a bijection and `(client, rank)` packs injectively, so partitions are
/// disjoint and ranks distinct. The one input that mixes to 0, the hash
/// tables' empty-slot key, is mapped to 1.
#[must_use]
pub fn key_of(salt: u64, client: usize, rank: u64) -> u64 {
    mix(salt ^ (((client as u64) << 48) | rank)).max(1)
}

/// Zipfian ranks in `0..n` with skew `theta` (Gray et al., "Quickly
/// generating billion-record synthetic databases"; the YCSB generator).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let nf = n as f64;
        Zipf {
            n: nf,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    pub fn next(&mut self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n as u64 - 1)
    }
}

/// The three traffic mixes. Every workload runs all nine embedded indexes and
/// the sharded service under the same mix, so every end-to-end metric exists
/// on every workload. Every mix keeps the key count steady while it is
/// measured: a structure that grows during a short measure phase reads
/// faster or slower depending on where its resizes fall.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 95% get, 5% update, both of uniformly chosen preloaded keys.
    PointRead,
    /// 35% insert of fresh keys, 35% remove of the client's own live keys,
    /// 30% get of live keys, uniform.
    PointWrite,
    /// 50% get, 40% upsert, 10% remove over the preloaded keys, Zipfian
    /// with theta 0.99.
    ZipfMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PointRead, Workload::PointWrite, Workload::ZipfMixed];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRead => "point-read",
            Workload::PointWrite => "point-write",
            Workload::ZipfMixed => "zipf-mixed",
        }
    }

    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Keys preloaded into each index and into the service, over all clients.
    #[must_use]
    pub fn preload(self) -> u64 {
        match self {
            Workload::PointRead => 500_000,
            Workload::PointWrite | Workload::ZipfMixed => 200_000,
        }
    }
}

/// What a point operation does. `Insert` is an upsert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get,
    Insert,
    Remove,
}

/// What an operation returned, in one vocabulary for the embedded `Handle`
/// and the service's replies; also the one exact answer the model expects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Value(Option<u64>),
    Inserted,
    Updated,
    Removed,
    NotFound,
    /// Anything else: an unexpected error, or a shed.
    Other,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: Kind,
    pub key: u64,
    pub value: u64,
    pub expect: Outcome,
}

/// One client's op stream and the model of its own key partition. The model
/// advances as each op is generated, assuming the op succeeds, so the stream
/// depends only on the seed and never on what the program answered.
#[derive(Debug, Clone)]
pub struct OpGen {
    workload: Workload,
    client: usize,
    salt: u64,
    rng: Rng,
    zipf: Option<Zipf>,
    /// Current value by rank; 0 means absent (values are never 0).
    values: Vec<u64>,
    /// Ranks currently present, for uniform choice among live keys.
    live: Vec<u32>,
    /// Ranks `0..loaded` were preloaded.
    loaded: u64,
    writes: u64,
}

impl OpGen {
    /// Client `client`'s stream for `seed`, with its share of `preload`
    /// keys (counted over all clients).
    #[must_use]
    pub fn new(workload: Workload, seed: u64, client: usize, preload: u64) -> OpGen {
        let loaded = preload / CLIENTS as u64;
        let salt = mix(seed ^ 0x5EED_0000_0000_0001);
        let values: Vec<u64> =
            (0..loaded).map(|r| initial_value(key_of(salt, client, r))).collect();
        OpGen {
            workload,
            client,
            salt,
            rng: Rng::new(mix(seed.wrapping_add(client as u64 + 1))),
            zipf: (workload == Workload::ZipfMixed).then(|| Zipf::new(loaded, 0.99)),
            live: if workload == Workload::PointWrite {
                (0..loaded as u32).collect()
            } else {
                Vec::new()
            },
            values,
            loaded,
            writes: 0,
        }
    }

    /// The preload: `(key, value)` of every rank below `loaded`.
    pub fn preload(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.loaded).map(|r| (self.key(r), self.values[r as usize]))
    }

    /// Every key this client has touched with its expected current value
    /// (`None` once removed): the contents check after a run.
    pub fn expected(&self) -> impl Iterator<Item = (u64, Option<u64>)> + '_ {
        self.values.iter().enumerate().map(|(r, &v)| (self.key(r as u64), (v != 0).then_some(v)))
    }

    fn key(&self, rank: u64) -> u64 {
        key_of(self.salt, self.client, rank)
    }

    fn fresh_value(&mut self, key: u64) -> u64 {
        self.writes += 1;
        mix(key ^ self.writes.rotate_left(32)) | 1
    }

    fn get(&self, rank: u64) -> Op {
        let v = self.values[rank as usize];
        Op {
            kind: Kind::Get,
            key: self.key(rank),
            value: 0,
            expect: Outcome::Value((v != 0).then_some(v)),
        }
    }

    fn insert_fresh(&mut self) -> Op {
        let rank = self.values.len() as u64;
        let key = self.key(rank);
        let value = self.fresh_value(key);
        self.values.push(value);
        self.live.push(rank as u32);
        Op { kind: Kind::Insert, key, value, expect: Outcome::Inserted }
    }

    fn upsert(&mut self, rank: u64) -> Op {
        let key = self.key(rank);
        let value = self.fresh_value(key);
        let old = std::mem::replace(&mut self.values[rank as usize], value);
        Op {
            kind: Kind::Insert,
            key,
            value,
            expect: if old == 0 { Outcome::Inserted } else { Outcome::Updated },
        }
    }

    fn remove(&mut self, rank: u64) -> Op {
        let old = std::mem::replace(&mut self.values[rank as usize], 0);
        Op {
            kind: Kind::Remove,
            key: self.key(rank),
            value: 0,
            expect: if old == 0 { Outcome::NotFound } else { Outcome::Removed },
        }
    }

    /// The next op of the stream.
    pub fn next_op(&mut self) -> Op {
        let pct = self.rng.below(100);
        match self.workload {
            Workload::PointRead => {
                let rank = self.rng.below(self.loaded);
                if pct < 95 {
                    self.get(rank)
                } else {
                    self.upsert(rank)
                }
            }
            Workload::PointWrite => {
                if pct < 35 {
                    self.insert_fresh()
                } else if pct < 70 {
                    let i = self.rng.below(self.live.len() as u64) as usize;
                    let rank = u64::from(self.live.swap_remove(i));
                    self.remove(rank)
                } else {
                    let rank = self.live[self.rng.below(self.live.len() as u64) as usize];
                    self.get(u64::from(rank))
                }
            }
            Workload::ZipfMixed => {
                let rank = self.zipf.as_mut().map_or(0, |z| z.next(&mut self.rng));
                if pct < 50 {
                    self.get(rank)
                } else if pct < 90 {
                    self.upsert(rank)
                } else {
                    self.remove(rank)
                }
            }
        }
    }
}

fn initial_value(key: u64) -> u64 {
    mix(key ^ 0xA5A5_A5A5_A5A5_A5A5) | 1
}

/// Digest of the first `n` ops of every client's stream: pins the generator.
#[must_use]
pub fn op_digest(workload: Workload, seed: u64, preload: u64, n: usize) -> u64 {
    let mut h = 0u64;
    for client in 0..CLIENTS {
        let mut g = OpGen::new(workload, seed, client, preload);
        for (k, v) in g.preload() {
            h = mix(h ^ k) ^ v;
        }
        for _ in 0..n {
            let op = g.next_op();
            let tag = match (op.kind, op.expect) {
                (Kind::Get, Outcome::Value(v)) => v.unwrap_or(1) << 2,
                (Kind::Insert, Outcome::Inserted) => 1,
                (Kind::Insert, _) => 2,
                (Kind::Remove, Outcome::Removed) => 3,
                _ => 7,
            };
            h = mix(h ^ op.key).wrapping_add(op.value ^ tag);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn key_partitions_are_disjoint() {
        let salt = mix(7);
        let mut seen = HashSet::new();
        for client in 0..CLIENTS {
            for rank in 0..50_000 {
                assert!(seen.insert(key_of(salt, client, rank)));
            }
        }
        assert!(!seen.contains(&0));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut z = Zipf::new(10_000, 0.99);
        let mut rng = Rng::new(3);
        let mut hits0 = 0;
        for _ in 0..100_000 {
            let r = z.next(&mut rng);
            assert!(r < 10_000);
            hits0 += u32::from(r == 0);
        }
        // Rank 0 of a theta-0.99 Zipfian over 10k keys draws about 10%.
        assert!((7_000..13_000).contains(&hits0), "rank 0 drew {hits0}");
    }

    #[test]
    fn model_answers_follow_the_stream() {
        for w in Workload::ALL {
            let mut g = OpGen::new(w, 11, 1, 4_000);
            let mut truth: std::collections::HashMap<u64, u64> = g.preload().collect();
            for _ in 0..20_000 {
                let op = g.next_op();
                let got = match op.kind {
                    Kind::Get => Outcome::Value(truth.get(&op.key).copied()),
                    Kind::Insert => match truth.insert(op.key, op.value) {
                        None => Outcome::Inserted,
                        Some(_) => Outcome::Updated,
                    },
                    Kind::Remove => match truth.remove(&op.key) {
                        Some(_) => Outcome::Removed,
                        None => Outcome::NotFound,
                    },
                };
                assert_eq!(got, op.expect, "{w:?}");
            }
            for (k, v) in g.expected() {
                assert_eq!(truth.get(&k).copied(), v);
            }
        }
    }

    /// Pins the generated inputs: a change here changes every workload, so
    /// the pinned digest may only move together with a benchmark change.
    #[test]
    fn op_digest_is_pinned() {
        let got: Vec<u64> = Workload::ALL.iter().map(|&w| op_digest(w, 42, 2_000, 1_000)).collect();
        assert_eq!(got, PINNED, "generated ops changed: {got:#x?}");
    }

    const PINNED: [u64; 3] = [17135556398793811509, 7484096247223835602, 11709766544655037934];
}
